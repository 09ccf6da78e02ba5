package simnet

import (
	"testing"

	"deepplan/internal/sim"
)

// countDone is an allocation-free completion handler.
type countDone struct{ n int }

func (c *countDone) FlowDone(sim.Time) { c.n++ }

// A flow's whole life costs nothing once the network has warmed up: a
// completed, an aborted and a zero-byte flow each hand their object back for
// the next StartFlow.
func TestFlowLifecyclesAllocateNothing(t *testing.T) {
	s := sim.New()
	n := New(s)
	path := []*Link{NewLink("up", 12*gb), NewLink("lane", 10*gb)}
	h := &countDone{}
	cases := []struct {
		name string
		run  func()
	}{
		{"complete", func() {
			n.StartFlowHandler("x", path, 1e6, h)
			s.Run()
		}},
		{"abort", func() {
			n.Abort(n.StartFlowHandler("x", path, 1e6, h))
			s.Run()
		}},
		{"zero-byte", func() {
			n.StartFlowHandler("x", path, 0, h)
			s.Run()
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.run); allocs != 0 {
			t.Errorf("%s: %.1f allocations per flow, want 0", c.name, allocs)
		}
	}
	if h.n != 2*101 { // AllocsPerRun adds a warm-up call; aborts never report
		t.Fatalf("%d completions reported, want %d", h.n, 2*101)
	}
	f := n.StartFlowHandler("a", path, 1e6, nil)
	s.Run()
	if g := n.StartFlowHandler("b", path, 1e6, nil); g != f {
		t.Fatal("a completed flow's object was not reused by the next StartFlow")
	}
	s.Run()
}

// Flows finishing at the same instant report in start order, also when
// their objects come off the free list in reverse and an abort has
// reshuffled the active set.
func TestSimultaneousCompletionsFireInStartOrder(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("l", 10*gb)
	var order []string
	start := func(name string) *Flow {
		return n.StartFlow(name, []*Link{l}, 1*gb, func(sim.Time) { order = append(order, name) })
	}
	for round, want := range []string{"a b c d e", "f h i j"} {
		order = order[:0]
		if round == 0 {
			for _, name := range []string{"a", "b", "c", "d", "e"} {
				start(name)
			}
		} else {
			// Five recycled objects, handed out last-in first-out.
			var g *Flow
			for _, name := range []string{"f", "g", "h", "i", "j"} {
				if f := start(name); name == "g" {
					g = f
				}
			}
			n.Abort(g) // swap-removes j into g's slot
		}
		s.Run()
		got := ""
		for i, name := range order {
			if i > 0 {
				got += " "
			}
			got += name
		}
		if got != want {
			t.Fatalf("round %d: callbacks fired %q, want %q", round, got, want)
		}
	}
}

// A flow started inside one FlowDone of a completion batch never receives
// the object of a batch member, and every member stays readable until the
// whole batch has been delivered.
func TestFlowStartedInCallbackDoesNotReuseBatch(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("l", 10*gb)
	other := NewLink("other", 10*gb)
	names := []string{"a", "b", "c"}
	batch := make([]*Flow, len(names))
	var started []*Flow
	for i, name := range names {
		batch[i] = n.StartFlow(name, []*Link{l}, 1*gb, func(sim.Time) {
			for _, f := range batch {
				if !f.done || f.total != 1*gb {
					t.Fatalf("batch flow %q changed under a callback: done=%v total=%g", f.name, f.done, f.total)
				}
			}
			if batch[i].name != name {
				t.Fatalf("batch flow %q reads as %q inside its own callback", name, batch[i].name)
			}
			// Completed, zero-byte and aborted flows, all started mid-batch.
			started = append(started,
				n.StartFlow("late", []*Link{other}, 1*gb, nil),
				n.StartFlow("empty", []*Link{other}, 0, nil))
			n.Abort(n.StartFlow("dropped", []*Link{other}, 1*gb, nil))
			started = append(started, n.StartFlow("late2", []*Link{other}, 1*gb, nil))
		})
	}
	s.Run()
	if len(started) != 3*len(names) {
		t.Fatalf("%d flows started from callbacks, want %d", len(started), 3*len(names))
	}
	for _, f := range started {
		for _, b := range batch {
			if f == b {
				t.Fatalf("flow started inside a callback reused batch member %q", b.name)
			}
		}
	}
}

// Aborting a flow that completed, or aborting twice, changes nothing: it
// does not disturb the active set and does not recycle the object a second
// time (which would hand one object to two later flows). A recycled flow
// keeps no links alive.
func TestAbortCompletedFlowIsNoop(t *testing.T) {
	s := sim.New()
	n := New(s)
	l := NewLink("l", 10*gb)
	done := n.StartFlow("done", []*Link{l}, 1*gb, nil)
	aborted := n.StartFlow("aborted", []*Link{l}, 1*gb, nil)
	empty := n.StartFlow("empty", []*Link{l}, 0, nil)
	n.Abort(aborted)
	n.Abort(empty) // zero-byte flows are Done from the start
	s.Run()
	if !done.done || !aborted.done || !empty.done {
		t.Fatal("flows not Done after the run")
	}
	for _, f := range []*Flow{done, aborted, empty} {
		if f.path != nil {
			t.Fatalf("recycled flow %q still holds its path", f.name)
		}
	}
	n.Abort(done)
	n.Abort(aborted)
	n.Abort(empty)
	if n.ActiveFlows() != 0 || s.Pending() != 0 {
		t.Fatalf("no-op aborts left %d flows, %d events", n.ActiveFlows(), s.Pending())
	}
	seen := map[*Flow]bool{}
	for i := 0; i < 6; i++ {
		f := n.StartFlow("next", []*Link{l}, 1*gb, nil)
		if seen[f] {
			t.Fatal("one recycled object handed to two live flows")
		}
		seen[f] = true
	}
	if n.ActiveFlows() != 6 {
		t.Fatalf("%d active flows, want 6", n.ActiveFlows())
	}
	s.Run()
}
