package simnet

import (
	"math"
	"math/rand"
	"testing"

	"deepplan/internal/sim"
)

const gb = 1e9

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowCompletionTime(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("pcie", 10*gb)
	var doneAt sim.Time
	n.StartFlow("xfer", []*Link{l}, 1*gb, func(at sim.Time) { doneAt = at })
	s.Run()
	// 1 GB over 10 GB/s = 100 ms.
	if !almostEqual(doneAt.Milliseconds(), 100, 0.001) {
		t.Fatalf("completion at %v ms, want 100 ms", doneAt.Milliseconds())
	}
}

func TestTwoFlowsShareLinkFairly(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("pcie", 10*gb)
	var a, b sim.Time
	n.StartFlow("a", []*Link{l}, 1*gb, func(at sim.Time) { a = at })
	n.StartFlow("b", []*Link{l}, 1*gb, func(at sim.Time) { b = at })
	s.Run()
	// Both share 10 GB/s, so each gets 5 GB/s: 200 ms.
	if !almostEqual(a.Milliseconds(), 200, 0.01) || !almostEqual(b.Milliseconds(), 200, 0.01) {
		t.Fatalf("completions at %v/%v ms, want 200/200", a.Milliseconds(), b.Milliseconds())
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("pcie", 10*gb)
	var short, long sim.Time
	n.StartFlow("long", []*Link{l}, 2*gb, func(at sim.Time) { long = at })
	n.StartFlow("short", []*Link{l}, 0.5*gb, func(at sim.Time) { short = at })
	s.Run()
	// Shared phase: both at 5 GB/s. Short finishes at 100 ms with long having
	// moved 0.5 GB. Long then runs at 10 GB/s for the remaining 1.5 GB
	// (150 ms): total 250 ms.
	if !almostEqual(short.Milliseconds(), 100, 0.01) {
		t.Fatalf("short done at %v ms, want 100", short.Milliseconds())
	}
	if !almostEqual(long.Milliseconds(), 250, 0.01) {
		t.Fatalf("long done at %v ms, want 250", long.Milliseconds())
	}
}

func TestMultiLinkPathBottleneck(t *testing.T) {
	s := sim.New()
	n := New(s)
	fast := NewLink("fast", 20*gb)
	slow := NewLink("slow", 5*gb)
	var done sim.Time
	n.StartFlow("f", []*Link{fast, slow}, 1*gb, func(at sim.Time) { done = at })
	s.Run()
	if !almostEqual(done.Milliseconds(), 200, 0.01) {
		t.Fatalf("done at %v ms, want 200 (5 GB/s bottleneck)", done.Milliseconds())
	}
}

func TestDisjointPathsDoNotInterfere(t *testing.T) {
	s := sim.New()
	n := New(s)
	l1 := NewLink("l1", 10*gb)
	l2 := NewLink("l2", 10*gb)
	var a, b sim.Time
	n.StartFlow("a", []*Link{l1}, 1*gb, func(at sim.Time) { a = at })
	n.StartFlow("b", []*Link{l2}, 1*gb, func(at sim.Time) { b = at })
	s.Run()
	if !almostEqual(a.Milliseconds(), 100, 0.01) || !almostEqual(b.Milliseconds(), 100, 0.01) {
		t.Fatalf("completions %v/%v ms, want 100/100", a.Milliseconds(), b.Milliseconds())
	}
}

// The p3.8xlarge scenario behind Table 2: two GPUs behind one switch uplink
// get half bandwidth each; two GPUs on different switches get full bandwidth.
func TestSwitchUplinkContention(t *testing.T) {
	s := sim.New()
	n := New(s)
	uplink := NewLink("switch-uplink", 12*gb)
	lane0 := NewLink("gpu0-lane", 12*gb)
	lane1 := NewLink("gpu1-lane", 12*gb)
	var a, b sim.Time
	n.StartFlow("to-gpu0", []*Link{uplink, lane0}, 1.2*gb, func(at sim.Time) { a = at })
	n.StartFlow("to-gpu1", []*Link{uplink, lane1}, 1.2*gb, func(at sim.Time) { b = at })
	s.Run()
	// Each gets 6 GB/s through the shared uplink: 200 ms.
	if !almostEqual(a.Milliseconds(), 200, 0.01) || !almostEqual(b.Milliseconds(), 200, 0.01) {
		t.Fatalf("completions %v/%v ms, want 200/200", a.Milliseconds(), b.Milliseconds())
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("l", gb)
	var done bool
	f := n.StartFlow("empty", []*Link{l}, 0, func(at sim.Time) { done = true })
	if !f.done {
		t.Fatal("zero-byte flow not immediately Done")
	}
	s.Run()
	if !done {
		t.Fatal("zero-byte flow callback did not fire")
	}
	if s.Now() != 0 {
		t.Fatalf("zero-byte flow advanced clock to %v", s.Now())
	}
}

func TestEmptyPathFlowCompletesImmediately(t *testing.T) {
	s := sim.New()
	n := New(s)
	var done bool
	n.StartFlow("nopath", nil, 100, func(at sim.Time) { done = true })
	s.Run()
	if !done {
		t.Fatal("empty-path flow callback did not fire")
	}
}

func TestNegativeBytesPanics(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("l", gb)
	defer func() {
		if recover() == nil {
			t.Fatal("negative flow size did not panic")
		}
	}()
	n.StartFlow("bad", []*Link{l}, -1, nil)
}

func TestBadLinkCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive capacity did not panic")
		}
	}()
	NewLink("bad", 0)
}

func TestAbort(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("l", 10*gb)
	var aborted, other sim.Time
	fa := n.StartFlow("a", []*Link{l}, 1*gb, func(at sim.Time) { aborted = at })
	n.StartFlow("b", []*Link{l}, 1*gb, func(at sim.Time) { other = at })
	s.After(50*sim.Millisecond, func() { n.Abort(fa) })
	s.Run()
	if aborted != 0 {
		t.Fatal("aborted flow's callback fired")
	}
	// b: 50 ms at 5 GB/s (0.25 GB) then 0.75 GB at 10 GB/s (75 ms) = 125 ms.
	if !almostEqual(other.Milliseconds(), 125, 0.01) {
		t.Fatalf("b done at %v ms, want 125", other.Milliseconds())
	}
	if !fa.done {
		t.Fatal("aborted flow not marked Done")
	}
	// Aborting again is a no-op.
	n.Abort(fa)
	n.Abort(nil)
}

func TestRemainingAndSync(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("l", 10*gb)
	f := n.StartFlow("a", []*Link{l}, 1*gb, nil)
	s.At(50*1e6, func() {
		n.advance()
		if !almostEqual(f.remaining, 0.5*gb, 1e3) {
			t.Errorf("remaining at 50ms = %g, want 5e8", f.remaining)
		}
		if !almostEqual(f.rate, 10*gb, 1) {
			t.Errorf("rate = %g, want 1e10", f.rate)
		}
	})
	s.Run()
	if l.Name() != "l" || l.Capacity() != 10*gb {
		t.Fatal("accessors broken")
	}
}

// rateOracle is the property tests' record of link traffic, read from the
// network's one production record of it, the ObserveRates sample stream. It
// fails the test on any sample above the link's capacity at that instant and
// integrates each link's piecewise-constant rate into the bytes it carried.
type rateOracle struct {
	last    map[*Link]rateSample
	carried map[*Link]float64
}

type rateSample struct {
	at   sim.Time
	rate float64
}

func observeRates(t *testing.T, n *Network) *rateOracle {
	o := &rateOracle{last: map[*Link]rateSample{}, carried: map[*Link]float64{}}
	n.ObserveRates(func(at sim.Time, l *Link, bps float64) {
		if bps > l.Capacity()*(1+1e-12) {
			t.Errorf("%s at %v: sample %g B/s above capacity %g B/s", l.Name(), at, bps, l.Capacity())
		}
		prev := o.last[l]
		o.carried[l] += prev.rate * at.Sub(prev.at).Seconds()
		o.last[l] = rateSample{at, bps}
	})
	return o
}

// check fails the test unless every observed link's last sample is zero
// and each link of want integrated to its bytes within slack[link].
func (o *rateOracle) check(t *testing.T, trial int, want, slack map[*Link]float64) {
	t.Helper()
	for l, last := range o.last {
		if last.rate != 0 {
			t.Fatalf("trial %d: %s last sample %g B/s, want 0", trial, l.Name(), last.rate)
		}
	}
	for l, bytes := range want {
		if !almostEqual(o.carried[l], bytes, slack[l]) {
			t.Fatalf("trial %d: %s carried %g, want %g", trial, l.Name(), o.carried[l], bytes)
		}
	}
}

// Property-based max–min fairness checks on random single-link scenarios:
// (1) the link is saturated while >=1 flow is active (work conservation),
// (2) total bytes delivered equals the sum of flow sizes and no rate sample
// exceeds the link's capacity,
// (3) completion order matches size order for equal-start flows.
func TestPropertyFairnessSingleLink(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		s := sim.New()
		n := New(s)
		rates := observeRates(t, n)
		cap := (1 + rng.Float64()*20) * gb
		l := NewLink("l", cap)
		k := 1 + rng.Intn(8)
		sizes := make([]float64, k)
		done := make([]sim.Time, k)
		var total, slack float64
		for i := range sizes {
			sizes[i] = (0.01 + rng.Float64()) * gb
			total += sizes[i]
			slack += flowSlack(l, sizes[i])
			i := i
			n.StartFlow("f", []*Link{l}, sizes[i], func(at sim.Time) { done[i] = at })
		}
		s.Run()
		// (1)+(2): last completion = total/capacity (work conservation).
		var last sim.Time
		for _, d := range done {
			if d > last {
				last = d
			}
		}
		want := total / cap
		if !almostEqual(last.Seconds(), want, want*1e-6+1e-9) {
			t.Fatalf("trial %d: last completion %v s, want %v s", trial, last.Seconds(), want)
		}
		rates.check(t, trial, map[*Link]float64{l: total}, map[*Link]float64{l: slack})
		// (3) smaller flows finish no later than larger ones.
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if sizes[i] < sizes[j] && done[i] > done[j] {
					t.Fatalf("trial %d: flow of %g finished after flow of %g", trial, sizes[i], sizes[j])
				}
			}
		}
	}
}

// flowSlack bounds how far a flow of the given size can move l's integrated
// rate samples off its true size: float error, the sub-byte sliver a
// completion forgives, and the completion instant's round-up to the next
// nanosecond, during which the flow runs at up to l's capacity.
func flowSlack(l *Link, bytes float64) float64 { return bytes*1e-9 + 2 + l.Capacity()*1e-9 }

// Property: with random topologies, no link's rate sample ever exceeds its
// capacity, and each link's integrated samples equal the bytes of the flows
// crossing it.
func TestPropertyCapacityRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		s := sim.New()
		n := New(s)
		rates := observeRates(t, n)
		want, slack := map[*Link]float64{}, map[*Link]float64{}
		nl := 2 + rng.Intn(4)
		links := make([]*Link, nl)
		for i := range links {
			links[i] = NewLink("l", (1+rng.Float64()*10)*gb)
		}
		nf := 1 + rng.Intn(10)
		for i := 0; i < nf; i++ {
			// Random path of 1-3 distinct links.
			perm := rng.Perm(nl)
			plen := 1 + rng.Intn(3)
			if plen > nl {
				plen = nl
			}
			path := make([]*Link, plen)
			bytes := rng.Float64() * gb
			for j := 0; j < plen; j++ {
				path[j] = links[perm[j]]
				want[path[j]] += bytes
				slack[path[j]] += flowSlack(path[j], bytes)
			}
			n.StartFlow("f", path, bytes, nil)
		}
		s.Run()
		rates.check(t, trial, want, slack)
	}
}

// Regression: staggered arrivals must advance progress before reallocation.
func TestStaggeredArrivals(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("l", 10*gb)
	var a, b sim.Time
	n.StartFlow("a", []*Link{l}, 1*gb, func(at sim.Time) { a = at })
	s.After(50*sim.Millisecond, func() {
		n.StartFlow("b", []*Link{l}, 1*gb, func(at sim.Time) { b = at })
	})
	s.Run()
	// a: 0.5 GB alone (50 ms), then shares. Both need 0.5/1.0 GB at 5 GB/s.
	// a finishes 100 ms later at 150 ms; b then runs alone: 0.5 GB at 10 GB/s
	// done at 150+50=200... recompute: at t=150ms b has moved 0.5GB, 0.5GB
	// left at full 10 GB/s = 50 ms -> 200 ms.
	if !almostEqual(a.Milliseconds(), 150, 0.01) {
		t.Fatalf("a done at %v ms, want 150", a.Milliseconds())
	}
	if !almostEqual(b.Milliseconds(), 200, 0.01) {
		t.Fatalf("b done at %v ms, want 200", b.Milliseconds())
	}
}
