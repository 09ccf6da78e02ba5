package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"deepplan/internal/sim"
)

func TestSetLinkCapacityDegradesInFlightFlow(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("lane", 1000) // 1000 B/s
	var doneAt sim.Time
	n.StartFlow("xfer", []*Link{l}, 1000, func(at sim.Time) { doneAt = at })
	// Halfway through, the link collapses to a quarter of its bandwidth:
	// 500 B done at 0.5 s, the remaining 500 B at 250 B/s take 2 s more.
	s.At(sim.Time(500*sim.Millisecond), func() { n.SetLinkCapacity(l, 250) })
	s.Run()
	if !almostEqual(doneAt.Seconds(), 2.5, 1e-6) {
		t.Fatalf("completion at %v s, want 2.5 s", doneAt.Seconds())
	}
}

func TestSetLinkCapacityRecoveryResharesFlows(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("lane", 1000)
	var a, b sim.Time
	n.StartFlow("a", []*Link{l}, 1000, func(at sim.Time) { a = at })
	n.StartFlow("b", []*Link{l}, 1000, func(at sim.Time) { b = at })
	// Shared at 500 B/s each. At 1 s (500 B each done) the link doubles:
	// each flow gets 1000 B/s and finishes the remaining 500 B in 0.5 s.
	s.At(sim.Time(sim.Second), func() { n.SetLinkCapacity(l, 2000) })
	s.Run()
	if !almostEqual(a.Seconds(), 1.5, 1e-6) || !almostEqual(b.Seconds(), 1.5, 1e-6) {
		t.Fatalf("completions at %v/%v s, want 1.5/1.5", a.Seconds(), b.Seconds())
	}
}

func TestSetLinkCapacityRejectsNonPositive(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("lane", 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	n.SetLinkCapacity(l, 0)
}

func TestFlowLimiterCapsMatchingFlows(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("lane", 1000)
	n.LimitFlows(func(name string, path []*Link, bytes float64) float64 {
		if strings.HasPrefix(name, "slow") {
			return 100
		}
		return 0
	})
	var slow, fast sim.Time
	n.StartFlow("slow", []*Link{l}, 1000, func(at sim.Time) { slow = at })
	n.StartFlow("fast", []*Link{l}, 1800, func(at sim.Time) { fast = at })
	s.Run()
	// The capped flow holds 100 B/s; the uncapped flow receives the released
	// 900 B/s and finishes 1800 B at 2 s; the straggler needs the full 10 s.
	if !almostEqual(fast.Seconds(), 2, 1e-6) {
		t.Fatalf("fast done at %v s, want 2 s", fast.Seconds())
	}
	if !almostEqual(slow.Seconds(), 10, 1e-6) {
		t.Fatalf("slow done at %v s, want 10 s", slow.Seconds())
	}
}

func TestFlowLimiterUnregisteredLeavesFlowsUncapped(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("lane", 1000)
	n.LimitFlows(func(string, []*Link, float64) float64 { return 100 })
	n.LimitFlows(nil)
	var doneAt sim.Time
	n.StartFlow("xfer", []*Link{l}, 1000, func(at sim.Time) { doneAt = at })
	s.Run()
	if !almostEqual(doneAt.Seconds(), 1, 1e-6) {
		t.Fatalf("completion at %v s, want 1 s", doneAt.Seconds())
	}
}

// Property: conservation holds across the fault-injection paths. Flows start
// at staggered instants over random paths while links degrade and recover
// mid-flight and a limiter caps the stragglers; every rate sample stays
// within its link's capacity at that instant (a capped flow's private link
// included), each link's integrated samples equal the bytes of its flows,
// and every link's last sample is zero.
func TestPropertyConservationUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		s := sim.New()
		n := New(s)
		rates := observeRates(t, n)
		n.LimitFlows(func(name string, _ []*Link, _ float64) float64 {
			if strings.HasPrefix(name, "slow") {
				return 0.5 * gb
			}
			return 0
		})
		nl := 2 + rng.Intn(4)
		links := make([]*Link, nl)
		for i := range links {
			links[i] = NewLink(fmt.Sprintf("l%d", i), (1+rng.Float64()*10)*gb)
		}
		want, slack := map[*Link]float64{}, map[*Link]float64{}
		for i, nf := 0, 1+rng.Intn(12); i < nf; i++ {
			perm := rng.Perm(nl)
			path := make([]*Link, min(1+rng.Intn(3), nl))
			bytes := (0.01 + rng.Float64()) * gb
			for j := range path {
				path[j] = links[perm[j]]
				want[path[j]] += bytes
				slack[path[j]] += flowSlack(path[j], bytes)
			}
			name := "f"
			if rng.Intn(3) == 0 {
				name = "slow"
			}
			at := sim.Time(rng.Int63n(int64(200 * sim.Millisecond)))
			s.At(at, func() { n.StartFlow(name, path, bytes, nil) })
		}
		// Each degradation is followed by a recovery to the link's original
		// capacity, so every link ends the run at its capacity at the start.
		for i, nfaults := 0, 1+rng.Intn(4); i < nfaults; i++ {
			l := links[rng.Intn(nl)]
			orig, factor := l.Capacity(), 0.05+0.45*rng.Float64()
			at := sim.Time(rng.Int63n(int64(300 * sim.Millisecond)))
			back := at.Add(10*sim.Millisecond + sim.Duration(rng.Int63n(int64(200*sim.Millisecond))))
			s.At(at, func() { n.SetLinkCapacity(l, orig*factor) })
			s.At(back, func() { n.SetLinkCapacity(l, orig) })
		}
		s.Run()
		rates.check(t, trial, want, slack)
	}
}
