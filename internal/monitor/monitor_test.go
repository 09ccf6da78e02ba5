package monitor

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// The disabled mode must cost nothing: nil registries hand out nil
// instruments whose methods return before touching memory. This is the
// same contract bench_test.go asserts for the trace recorder.
func TestDisabledMonitoringAddsNoAllocations(t *testing.T) {
	var reg *Registry
	c := reg.Counter("deepplan_x", "")
	g := reg.Gauge("deepplan_y", "")
	h := reg.Histogram("deepplan_z", "", DefaultLatencyBuckets())
	var m *SLOMonitor
	if c != nil || g != nil || h != nil || reg.Node(3) != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(2)
		g.Add(1)
		h.Observe(0.01)
		m.Tick(0)
		_ = reg.Total("deepplan_x")
	})
	if allocs != 0 {
		t.Fatalf("disabled monitoring allocated %v per op, want 0", allocs)
	}
	if err := reg.WriteOpenMetrics(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// Enabled instruments must also be allocation-free per observation once
// the handle exists — the whole point of resolving handles at setup time.
func TestEnabledHotPathAddsNoAllocations(t *testing.T) {
	reg := New()
	c := reg.Counter("deepplan_x", "", "model", "bert")
	h := reg.Histogram("deepplan_z", "", DefaultLatencyBuckets(), "class", "cold")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(2)
		h.Observe(0.0123)
	})
	if allocs != 0 {
		t.Fatalf("enabled hot path allocated %v per op, want 0", allocs)
	}
}

func TestBucketBoundariesAreInclusive(t *testing.T) {
	b := NewLog2Buckets(0.001, 10, 3)
	if b.NumFinite() < 50 {
		t.Fatalf("unexpectedly coarse layout: %d buckets", b.NumFinite())
	}
	for i := 0; i < b.NumFinite(); i++ {
		ub := b.UpperBound(i)
		if got := b.Index(ub); got != i {
			t.Fatalf("Index(UpperBound(%d)=%g) = %d, want %d (le must be inclusive)", i, ub, got, i)
		}
		if got := b.Index(math.Nextafter(ub, math.Inf(1))); got != i+1 {
			t.Fatalf("Index(just above bound %d) = %d, want %d", i, got, i+1)
		}
		if i > 0 && ub/b.UpperBound(i-1) > 1.0/0.88 {
			t.Fatalf("bucket %d wider than ~12.5%%: %g → %g", i, b.UpperBound(i-1), ub)
		}
	}
	if b.Index(0) != 0 || b.Index(-3) != 0 || b.Index(1e-9) != 0 {
		t.Fatal("values at or below the floor must clamp to bucket 0")
	}
	if b.Index(1e9) != b.NumFinite() || b.Index(math.Inf(1)) != b.NumFinite() {
		t.Fatal("values above the ceiling must land in the +Inf bucket")
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := New()
	h := reg.Histogram("deepplan_lat", "", DefaultLatencyBuckets())
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 0.001) // 1ms .. 1s uniform
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < 0.5 || p50 > 0.5*1.1 {
		t.Fatalf("p50 = %g, want within one bucket above 0.5", p50)
	}
	if p99 < 0.99 || p99 > 0.99*1.1 {
		t.Fatalf("p99 = %g, want within one bucket above 0.99", p99)
	}
	if q := h.Quantile(1.0); q < 1.0 {
		t.Fatalf("p100 = %g, want ≥ max observation", q)
	}
}

func TestTotalSumsAcrossViews(t *testing.T) {
	reg := New()
	root := reg.Counter("deepplan_requests", "", "class", "cold")
	n0 := reg.Node(0).Counter("deepplan_requests", "", "class", "cold")
	n1 := reg.Node(1).Counter("deepplan_requests", "", "class", "warm")
	root.Add(1)
	n0.Add(10)
	n1.Add(100)
	if got := reg.Total("deepplan_requests"); got != 111 {
		t.Fatalf("Total = %g, want 111", got)
	}
	if got := reg.Total("deepplan_requests", "class", "cold"); got != 11 {
		t.Fatalf("Total(class=cold) = %g, want 11", got)
	}
	if got := reg.Total("deepplan_requests", "node", "1"); got != 100 {
		t.Fatalf("Total(node=1) = %g, want 100", got)
	}
	if got := reg.Total("deepplan_nope"); got != 0 {
		t.Fatalf("Total(unknown) = %g, want 0", got)
	}
}

// Node views write into the root's family table: a name keeps one kind
// across the root and its views, as within one registry, and two views of
// the same node hand out the same series.
func TestNodeViewsShareRootFamilies(t *testing.T) {
	reg := New()
	reg.Counter("deepplan_x", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("gauge on Node(0) of the root's counter family: expected panic")
			}
		}()
		reg.Node(0).Gauge("deepplan_x", "")
	}()

	a := reg.Node(0).Counter("deepplan_y", "", "model", "bert")
	b := reg.Node(0).Counter("deepplan_y", "", "model", "bert")
	if a.s != b.s {
		t.Fatal("two Node(0) views hand out distinct series for one label set")
	}
	a.Inc()
	b.Inc()
	var out strings.Builder
	if err := reg.WriteOpenMetrics(&out); err != nil {
		t.Fatal(err)
	}
	if want := `deepplan_y_total{model="bert",node="0"} 2` + "\n"; !strings.Contains(out.String(), want) {
		t.Fatalf("export missing %q:\n%s", want, out.String())
	}
}

// Export must not depend on registration order: two registries built in
// different orders yield identical bytes.
func TestExportIsOrderIndependent(t *testing.T) {
	build := func(flip bool) *Registry {
		reg := New()
		a := func() {
			reg.Counter("deepplan_requests", "Completed requests.", "class", "warm", "model", "bert").Add(7)
			reg.Node(0).Counter("deepplan_requests", "Completed requests.", "class", "cold", "model", "bert").Add(3)
		}
		b := func() {
			reg.Gauge("deepplan_queue_depth", "Queue depth.").Set(4)
			reg.Histogram("deepplan_latency_seconds", "Latency.", DefaultLatencyBuckets(), "class", "cold").Observe(0.25)
		}
		if flip {
			b()
			a()
		} else {
			a()
			b()
		}
		return reg
	}
	var x, y strings.Builder
	if err := build(false).WriteOpenMetrics(&x); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WriteOpenMetrics(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Fatalf("export depends on registration order:\n--- a ---\n%s--- b ---\n%s", x.String(), y.String())
	}
	out := x.String()
	for _, want := range []string{
		"# TYPE deepplan_requests counter",
		`deepplan_requests_total{class="cold",model="bert",node="0"} 3`,
		`deepplan_requests_total{class="warm",model="bert"} 7`,
		"# TYPE deepplan_queue_depth gauge",
		"deepplan_queue_depth 4",
		"# TYPE deepplan_latency_seconds histogram",
		`deepplan_latency_seconds_bucket{class="cold",le="+Inf"} 1`,
		`deepplan_latency_seconds_sum{class="cold"} 0.25`,
		`deepplan_latency_seconds_count{class="cold"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("export missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("export must end with # EOF:\n%s", out)
	}
}

// Histogram bucket lines must be cumulative and monotone with ascending le.
func TestExportHistogramCumulative(t *testing.T) {
	reg := New()
	h := reg.Histogram("deepplan_lat", "", NewLog2Buckets(0.001, 1, 2))
	for _, v := range []float64{0.001, 0.002, 0.004, 0.004, 0.5, 99} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	prevCum, prevLE, buckets := -1.0, -1.0, 0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "deepplan_lat_bucket{") {
			continue
		}
		buckets++
		var le float64
		leStr := line[strings.Index(line, `le="`)+4 : strings.Index(line, `"}`)]
		if leStr == "+Inf" {
			le = math.Inf(1)
		} else {
			var err error
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				t.Fatalf("bad le %q: %v", leStr, err)
			}
		}
		cum, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		if le <= prevLE || cum < prevCum {
			t.Fatalf("non-monotone bucket line %q (prev le %g cum %g)", line, prevLE, prevCum)
		}
		prevLE, prevCum = le, cum
	}
	if buckets < 4 {
		t.Fatalf("expected several bucket lines, got %d", buckets)
	}
	if prevCum != 6 || !math.IsInf(prevLE, 1) {
		t.Fatalf("last bucket must be le=+Inf with full count, got le=%g cum=%g", prevLE, prevCum)
	}
	if strings.Count(b.String(), "deepplan_lat_bucket") != buckets {
		t.Fatal("bucket accounting mismatch")
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := New()
	reg.Counter("deepplan_odd", "", "model", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `deepplan_odd_total{model="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	for name, fn := range map[string]func(){
		"total suffix":  func() { New().Counter("deepplan_x_total", "") },
		"bad name":      func() { New().Counter("9bad", "") },
		"odd labels":    func() { New().Counter("deepplan_x", "", "k") },
		"dup label":     func() { New().Counter("deepplan_x", "", "k", "a", "k", "b") },
		"kind conflict": func() { r := New(); r.Counter("deepplan_x", ""); r.Gauge("deepplan_x", "") },
		"nil buckets":   func() { New().Histogram("deepplan_h", "", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
