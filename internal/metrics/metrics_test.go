package metrics

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"deepplan/internal/sim"
)

func TestDigestEmpty(t *testing.T) {
	var d Digest
	if d.Count() != 0 || d.P99() != 0 || d.Mean() != 0 || d.Max() != 0 {
		t.Fatal("empty digest not all-zero")
	}
	// Regression: an empty digest used to report 0% goodput, rendering
	// request-free windows as total SLO violations; nothing arrived, so
	// nothing missed the SLO.
	if d.GoodputRate(sim.Second) != 1 {
		t.Fatal("empty goodput not 1")
	}
}

func TestDigestMerge(t *testing.T) {
	var a, b Digest
	for i := 1; i <= 50; i++ {
		a.Add(sim.Duration(i) * sim.Millisecond)
	}
	for i := 51; i <= 100; i++ {
		b.Add(sim.Duration(i) * sim.Millisecond)
	}
	a.Merge(&b)
	a.Merge(nil) // no-op
	if a.Count() != 100 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if got := a.P99(); got != 99*sim.Millisecond {
		t.Errorf("merged P99 = %v, want 99ms", got)
	}
	if got := a.Max(); got != 100*sim.Millisecond {
		t.Errorf("merged Max = %v, want 100ms", got)
	}
}

func TestDigestBasics(t *testing.T) {
	var d Digest
	for i := 1; i <= 100; i++ {
		d.Add(sim.Duration(i) * sim.Millisecond)
	}
	if d.Count() != 100 {
		t.Fatalf("Count = %d", d.Count())
	}
	if got := d.P50(); got != 50*sim.Millisecond {
		t.Errorf("P50 = %v, want 50ms", got)
	}
	if got := d.P99(); got != 99*sim.Millisecond {
		t.Errorf("P99 = %v, want 99ms", got)
	}
	if got := d.Max(); got != 100*sim.Millisecond {
		t.Errorf("Max = %v, want 100ms", got)
	}
	if got := d.Mean(); got != 50500*sim.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", got)
	}
	if got := d.GoodputRate(75 * sim.Millisecond); got != 0.75 {
		t.Errorf("Goodput(75ms) = %v, want 0.75", got)
	}
	if d.Quantile(0) != sim.Millisecond {
		t.Errorf("Quantile(0) = %v", d.Quantile(0))
	}
	if d.Quantile(1) != 100*sim.Millisecond {
		t.Errorf("Quantile(1) = %v", d.Quantile(1))
	}
}

func TestDigestMaxBeforeSort(t *testing.T) {
	var d Digest
	d.Add(5 * sim.Millisecond)
	d.Add(9 * sim.Millisecond)
	d.Add(2 * sim.Millisecond)
	if d.Max() != 9*sim.Millisecond {
		t.Fatalf("Max = %v", d.Max())
	}
}

// Regression: when q*n is an integer in exact arithmetic but the float
// product lands just above it (0.28*25 = 7.000000000000001), nearest-rank
// must still pick rank 7, not 8. Previously found by
// TestPropertyQuantileMatchesSort under a random quick.Check seed.
func TestQuantileExactBoundary(t *testing.T) {
	var d Digest
	for i := 1; i <= 25; i++ {
		d.Add(sim.Duration(i) * sim.Millisecond)
	}
	if got := d.Quantile(0.28); got != 7*sim.Millisecond {
		t.Fatalf("Quantile(0.28) of 1..25ms = %v, want 7ms", got)
	}
}

func TestAddAfterQuantileKeepsCorrectness(t *testing.T) {
	var d Digest
	d.Add(10 * sim.Millisecond)
	_ = d.P50()
	d.Add(1 * sim.Millisecond)
	if d.P50() != 1*sim.Millisecond {
		t.Fatalf("P50 after re-add = %v", d.P50())
	}
}

// Property: nearest-rank quantile equals direct computation on the sorted
// sample for random inputs.
func TestPropertyQuantileMatchesSort(t *testing.T) {
	f := func(raw []uint32, qSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var d Digest
		vals := make([]float64, len(raw))
		for i, r := range raw {
			v := sim.Duration(r % 1_000_000)
			d.Add(v)
			vals[i] = v.Seconds()
		}
		sort.Float64s(vals)
		q := float64(qSeed%101) / 100
		got := d.Quantile(q).Seconds()
		var want float64
		switch {
		case q <= 0:
			want = vals[0]
		case q >= 1:
			want = vals[len(vals)-1]
		default:
			rank := int(float64(len(vals))*q+0.9999999) - 1
			if rank < 0 {
				rank = 0
			}
			if rank >= len(vals) {
				rank = len(vals) - 1
			}
			want = vals[rank]
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGoodputMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var d Digest
	for i := 0; i < 500; i++ {
		d.Add(sim.Duration(rng.Intn(1_000_000)))
	}
	prev := -1.0
	for slo := sim.Duration(0); slo < 1_000_000; slo += 50_000 {
		g := d.GoodputRate(slo)
		if g < prev {
			t.Fatalf("goodput not monotone in SLO at %v", slo)
		}
		prev = g
	}
	if d.GoodputRate(sim.Second) != 1 {
		t.Fatal("goodput at huge SLO != 1")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(sim.Second*60, 100*sim.Millisecond, 1)
	s.Record(sim.Time(10*sim.Second), 50*sim.Millisecond, false)
	s.Record(sim.Time(30*sim.Second), 200*sim.Millisecond, true)
	s.Record(sim.Time(70*sim.Second), 80*sim.Millisecond, false)
	stats := s.Stats(0) // zero horizon: recorded windows only
	if len(stats) != 2 {
		t.Fatalf("windows = %d, want 2", len(stats))
	}
	w0 := stats[0]
	if w0.Requests != 2 || w0.ColdStarts != 1 {
		t.Fatalf("window 0 = %+v", w0)
	}
	if w0.Goodput != 0.5 {
		t.Fatalf("window 0 goodput = %v", w0.Goodput)
	}
	if w0.P99 != 200*sim.Millisecond {
		t.Fatalf("window 0 p99 = %v", w0.P99)
	}
	if stats[1].Start != sim.Time(60*sim.Second) {
		t.Fatalf("window 1 start = %v", stats[1].Start)
	}
}

// Regression: Stats used to end at the last *recorded* event, so a
// fig15-style per-minute table over a trace with a quiet tail stopped
// early; the horizon must produce explicit empty windows to the end.
func TestSeriesExtendsToHorizon(t *testing.T) {
	s := NewSeries(sim.Second*60, 100*sim.Millisecond, 1)
	s.Record(sim.Time(10*sim.Second), 50*sim.Millisecond, false)
	// Run continues to 4.5 minutes with no further arrivals.
	stats := s.Stats(sim.Time(270 * sim.Second))
	if len(stats) != 5 {
		t.Fatalf("windows = %d, want 5 (horizon 4.5 min)", len(stats))
	}
	for i := 1; i < 5; i++ {
		w := stats[i]
		if w.Requests != 0 || w.ColdStarts != 0 {
			t.Fatalf("window %d not empty: %+v", i, w)
		}
		if w.Start != sim.Time(i)*sim.Time(60*sim.Second) {
			t.Fatalf("window %d start = %v", i, w.Start)
		}
		if w.Goodput != 1 {
			t.Fatalf("empty window %d goodput = %v, want 1 (nothing missed)", i, w.Goodput)
		}
	}
	// A horizon inside the recorded extent must not truncate.
	if got := len(s.Stats(sim.Time(30 * sim.Second))); got != 1 {
		t.Fatalf("short horizon windows = %d, want 1", got)
	}
}

// TestSeriesStatsPoolsSeries checks that Stats over several series (one
// per cluster node) equals Stats of one series holding every sample, out to
// the longest series and the horizon.
func TestSeriesStatsPoolsSeries(t *testing.T) {
	const width, slo = 60 * sim.Second, 100 * sim.Millisecond
	a, b, all := NewSeries(width, slo, 1), NewSeries(width, slo, 1), NewSeries(width, slo, 1)
	for i, r := range []struct {
		at   sim.Duration
		lat  sim.Duration
		cold bool
	}{
		{10 * sim.Second, 50 * sim.Millisecond, false},
		{30 * sim.Second, 200 * sim.Millisecond, true},
		{70 * sim.Second, 80 * sim.Millisecond, false},
		{130 * sim.Second, 300 * sim.Millisecond, true},
		{135 * sim.Second, 20 * sim.Millisecond, false},
	} {
		node := a
		if i%2 == 1 {
			node = b
		}
		node.Record(sim.Time(r.at), r.lat, r.cold)
		all.Record(sim.Time(r.at), r.lat, r.cold)
	}
	horizon := sim.Time(270 * sim.Second)
	got, want := a.Stats(horizon, b), all.Stats(horizon)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pooled stats\n%+v\nwant\n%+v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pooling series of different widths did not panic")
		}
	}()
	a.Stats(horizon, NewSeries(width/2, slo, 1))
}

func TestSeriesBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window did not panic")
		}
	}()
	NewSeries(0, sim.Second, 1)
}

// TestQuantileSortCaching pins the sorted-flag contract: the first Quantile
// call sorts the samples once and repeated queries reuse the order; an Add
// invalidates it. Regression guard for the quadratic failure mode where
// every percentile query re-sorts an already sorted slice (the serving
// report asks for P50/P99/Max on the same digest back to back).
func TestQuantileSortCaching(t *testing.T) {
	var d Digest
	for i := 2000; i > 0; i-- {
		d.Add(sim.Duration(i) * sim.Microsecond)
	}
	if d.sorted {
		t.Fatal("digest sorted before any quantile query")
	}
	p99 := d.Quantile(0.99)
	if !d.sorted {
		t.Fatal("first Quantile call did not mark the digest sorted")
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		d.Quantile(q)
		if !d.sorted {
			t.Fatalf("Quantile(%v) dropped the sorted flag", q)
		}
	}
	if got := d.Quantile(0.99); got != p99 {
		t.Fatalf("cached-order P99 = %v, first P99 = %v", got, p99)
	}
	d.Add(sim.Microsecond)
	if d.sorted {
		t.Fatal("Add did not invalidate the sort")
	}
	if got := d.Quantile(0); got != sim.Microsecond {
		t.Fatalf("Quantile(0) after invalidating Add = %v, want 1µs", got)
	}
}

// BenchmarkDigestQuantiles measures the report pattern — many percentile
// queries against one settled digest. With the cached sort this is a bounds
// check per query; without it, an O(n log n) re-sort each time.
func BenchmarkDigestQuantiles(b *testing.B) {
	var d Digest
	for i := 100_000; i > 0; i-- {
		d.Add(sim.Duration(i) * sim.Microsecond)
	}
	d.Quantile(0.5) // settle the sort outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Quantile(0.50)
		d.Quantile(0.99)
		d.Quantile(0.999)
	}
}
