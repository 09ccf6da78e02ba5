package forecast

import (
	"testing"

	"deepplan/internal/sim"
)

// feedPeriodic drives a bursty arrival pattern: `base` arrivals per bucket,
// `burst` arrivals per bucket during the first `burstBuckets` buckets of
// every `periodBuckets`-bucket cycle, for `cycles` full cycles.
func feedPeriodic(f *Forecaster, window sim.Duration, periodBuckets, burstBuckets, base, burst, cycles int) sim.Time {
	var t sim.Time
	for c := 0; c < cycles; c++ {
		for b := 0; b < periodBuckets; b++ {
			n := base
			if b < burstBuckets {
				n = burst
			}
			start := sim.Time(int64(c*periodBuckets+b) * int64(window))
			for i := 0; i < n; i++ {
				at := start.Add(sim.Duration(i) * (window / sim.Duration(n+1)))
				f.Observe(at)
				if at > t {
					t = at
				}
			}
		}
	}
	return t
}

func TestRateSlidingWindow(t *testing.T) {
	f := New(sim.Second)
	// 10 arrivals/s for 20 seconds.
	for i := 0; i < 200; i++ {
		f.Observe(sim.Time(int64(i) * int64(100*sim.Millisecond)))
	}
	got := f.Rate(sim.Time(20 * int64(sim.Second)))
	if got < 9.5 || got > 10.5 {
		t.Fatalf("Rate = %.2f, want ~10", got)
	}
}

func TestRateBeforeFirstBucketCompletes(t *testing.T) {
	f := New(10 * sim.Second)
	for i := 0; i < 10; i++ {
		f.Observe(sim.Time(int64(i) * int64(100*sim.Millisecond)))
	}
	got := f.Rate(sim.Time(int64(sim.Second)))
	if got < 9 || got > 11 {
		t.Fatalf("early Rate = %.2f, want ~10 (total/elapsed fallback)", got)
	}
}

func TestRateDecaysAfterIdle(t *testing.T) {
	f := New(sim.Second)
	for i := 0; i < 100; i++ {
		f.Observe(sim.Time(int64(i) * int64(100*sim.Millisecond)))
	}
	// 30 idle seconds later the window holds only empty buckets.
	if got := f.Rate(sim.Time(40 * int64(sim.Second))); got != 0 {
		t.Fatalf("Rate after idle = %.2f, want 0", got)
	}
}

func TestPeriodDetection(t *testing.T) {
	f := New(sim.Second)
	end := feedPeriodic(f, sim.Second, 20, 3, 1, 12, 6)
	period, score := f.Period(end)
	if period != 20*sim.Second {
		t.Fatalf("Period = %s (score %.2f), want 20s", period, score)
	}
	if score < 0.5 {
		t.Fatalf("score = %.2f, want >= 0.5", score)
	}
}

func TestPeriodAperiodicStream(t *testing.T) {
	f := New(sim.Second)
	// Constant rate: flat history must report no period.
	for i := 0; i < 600; i++ {
		f.Observe(sim.Time(int64(i) * int64(100*sim.Millisecond)))
	}
	if period, _ := f.Period(sim.Time(60 * int64(sim.Second))); period != 0 {
		t.Fatalf("Period on flat stream = %s, want 0", period)
	}
}

func TestForecastSeesUpcomingBurst(t *testing.T) {
	f := New(sim.Second)
	// 6 cycles of a 20s period with a 3s burst at each cycle start; the
	// feed ends just before cycle 7's burst.
	end := feedPeriodic(f, sim.Second, 20, 3, 1, 12, 6)
	now := sim.Time(120 * int64(sim.Second)) // cycle boundary: burst imminent
	_ = end
	p := f.Forecast(now, 5*sim.Second)
	if p.Period != 20*sim.Second {
		t.Fatalf("Forecast period = %s, want 20s", p.Period)
	}
	if p.Peak < 10 {
		t.Fatalf("Forecast peak = %.2f, want >= 10 (burst rate ~12/s)", p.Peak)
	}
	if p.Peak <= p.Rate {
		t.Fatalf("peak %.2f should exceed trough rate %.2f right before a burst", p.Peak, p.Rate)
	}
}

func TestForecastAperiodicFallsBackToRate(t *testing.T) {
	f := New(sim.Second)
	for i := 0; i < 300; i++ {
		f.Observe(sim.Time(int64(i) * int64(100*sim.Millisecond)))
	}
	p := f.Forecast(sim.Time(30*int64(sim.Second)), 10*sim.Second)
	if p.Period != 0 {
		t.Fatalf("period = %s, want 0", p.Period)
	}
	if p.Peak != p.Rate {
		t.Fatalf("aperiodic peak %.2f != rate %.2f", p.Peak, p.Rate)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Prediction {
		f := New(sim.Second)
		end := feedPeriodic(f, sim.Second, 17, 2, 1, 9, 7)
		return f.Forecast(end, 4*sim.Second)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical feeds diverged: %+v vs %+v", a, b)
	}
}

func TestAdvanceAcrossLongGap(t *testing.T) {
	f := New(sim.Second)
	for i := 0; i < 50; i++ {
		f.Observe(sim.Time(int64(i) * int64(200*sim.Millisecond)))
	}
	// Jump far beyond the 512-bucket ring: everything must be forgotten,
	// no panic.
	far := sim.Time(int64(1000) * int64(sim.Second))
	f.Observe(far)
	if got := f.Rate(far.Add(2 * sim.Second)); got > 1 {
		t.Fatalf("Rate after long gap = %.2f, want ~0", got)
	}
	if f.total != 51 {
		t.Fatalf("total = %d, want 51", f.total)
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	f := New(sim.Second)
	var i int64
	allocs := testing.AllocsPerRun(1000, func() {
		f.Observe(sim.Time(i * int64(10*sim.Millisecond)))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestDefaultsApplied(t *testing.T) {
	f := New(10 * sim.Second)
	if len(f.counts) != 512 {
		t.Fatalf("ring length = %d, want 512", len(f.counts))
	}
	if f.window != 10*sim.Second {
		t.Fatalf("window = %s, want 10s", f.window)
	}
}
