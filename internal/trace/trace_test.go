package trace

import (
	"bytes"
	"strings"
	"testing"

	"deepplan/internal/sim"
	"deepplan/internal/simnet"
)

// TestNilRecorderIsSafeAndFree pins the disabled-mode contract: every method
// on a nil *Recorder is a no-op and allocates nothing.
func TestNilRecorderIsSafeAndFree(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Span(0, TIDExec, "exec", "layer", 0, 10)
		r.Instant(0, TIDLifecycle, "serving", "evict", 5)
		r.Counter(FabricPID, "lane (GB/s)", 5, 1.5)
		r.AsyncBegin(0, "request", "bert", r.NextID(), 0, nil)
		r.AsyncEnd(0, "request", "bert", 0, 10)
		r.AttachNetwork(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f per run; want 0", allocs)
	}
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder holds events")
	}
}

func TestRecorderOrderAndIDs(t *testing.T) {
	r := New()
	if !r.Enabled() {
		t.Fatal("fresh recorder disabled")
	}
	id1, id2 := r.NextID(), r.NextID()
	if id1 == id2 || id1 == 0 {
		t.Fatalf("NextID gave %d then %d; want distinct non-zero", id1, id2)
	}
	r.Span(1, TIDExec, "exec", "a", 100, 200)
	r.Instant(2, TIDLifecycle, "serving", "b", 50)
	r.Counter(FabricPID, "lane", 150, 3.25)
	r.MergeViews() // a no-op: r handed out no node view
	ev := r.Events()
	if len(ev) != 3 || r.Len() != 3 {
		t.Fatalf("recorded %d events; want 3", len(ev))
	}
	// Insertion order is preserved (exporters sort on their own copy).
	if ev[0].Phase != PhaseSpan || ev[0].Dur != 100 {
		t.Fatalf("event 0 = %+v", ev[0])
	}
	if ev[1].Phase != PhaseInstant || ev[1].TS != 50 {
		t.Fatalf("event 1 = %+v", ev[1])
	}
	if ev[2].Phase != PhaseCounter || ev[2].Value != 3.25 {
		t.Fatalf("event 2 = %+v", ev[2])
	}
}

// TestAttachNetworkCountersIntegrate checks the per-link rate samples against
// ground truth: integrating each link's piecewise-constant rate over time
// must reproduce exactly the bytes the link carried, and every link must be
// driven back to zero when its flows drain.
func TestAttachNetworkCountersIntegrate(t *testing.T) {
	s := sim.New()
	n := simnet.New(s)
	r := New()
	r.AttachNetwork(n)

	shared := simnet.NewLink("shared", 10e9)
	a := simnet.NewLink("lane-a", 8e9)
	b := simnet.NewLink("lane-b", 8e9)
	n.StartFlow("fa", []*simnet.Link{a, shared}, 4e9, nil)
	n.StartFlow("fb", []*simnet.Link{b, shared}, 8e9, nil)
	s.Run()

	type sample struct {
		at   sim.Time
		rate float64
	}
	byLink := map[string][]sample{}
	for _, e := range r.Events() {
		if e.Phase != PhaseCounter {
			continue
		}
		if e.PID != FabricPID {
			t.Fatalf("counter on pid %d; want FabricPID", e.PID)
		}
		byLink[e.Name] = append(byLink[e.Name], sample{e.TS, e.Value * 1e9})
	}
	if len(byLink) != 3 {
		t.Fatalf("counters for %d links; want 3 (%v)", len(byLink), byLink)
	}
	carried := map[string]float64{
		"shared (GB/s)": shared.BytesCarried(),
		"lane-a (GB/s)": a.BytesCarried(),
		"lane-b (GB/s)": b.BytesCarried(),
	}
	for name, samples := range byLink {
		last := samples[len(samples)-1]
		if last.rate != 0 {
			t.Fatalf("%s final sample is %.3g B/s; drained links must end at 0", name, last.rate)
		}
		var bytes float64
		for i := 0; i+1 < len(samples); i++ {
			dt := samples[i+1].at.Sub(samples[i].at).Seconds()
			bytes += samples[i].rate * dt
		}
		want := carried[name]
		if diff := bytes - want; diff > 1 || diff < -1 {
			t.Fatalf("%s: integrated %.6g bytes; link carried %.6g", name, bytes, want)
		}
	}
}

// TestAttachNetworkChangeOnly checks that consecutive samples for a link
// always differ — the observer must fire on changes, not on every event.
func TestAttachNetworkChangeOnly(t *testing.T) {
	s := sim.New()
	n := simnet.New(s)
	r := New()
	r.AttachNetwork(n)

	l := simnet.NewLink("lane", 1e9)
	// Two overlapping flows on one saturated link: the link's aggregate
	// rate is 1 GB/s from start to drain — while the second flow arrives
	// (0.5+0.5) and while the first completes (the survivor takes the full
	// link). Neither boundary changes the link total, so neither may emit.
	n.StartFlow("f1", []*simnet.Link{l}, 1e9, nil)
	n.StartFlow("f2", []*simnet.Link{l}, 3e9, nil)
	s.Run()

	var samples []float64
	for _, e := range r.Events() {
		if e.Phase == PhaseCounter {
			samples = append(samples, e.Value*1e9)
		}
	}
	if len(samples) != 2 || samples[0] != 1e9 || samples[1] != 0 {
		t.Fatalf("samples = %v; want exactly [1e9, 0] (change-only)", samples)
	}
}

// Node views remap PIDs into disjoint per-node ranges, record straight into
// the root's stream, and hand out async IDs unique across the whole
// cluster.
func TestNodeViewsShareRootWithDisjointPIDs(t *testing.T) {
	root := New()
	n0 := root.Node(0, 4)
	n1 := root.Node(1, 4)

	n0.Instant(2, TIDLifecycle, "serving", "a", 1)
	n1.Instant(2, TIDLifecycle, "serving", "b", 2)
	n0.Counter(FabricPID, "bw", 3, 1.5)
	n1.Instant(ServerPID, TIDLifecycle, "serving", "c", 4)

	if root.Len() != 4 {
		t.Fatalf("root.Len() = %d right after recording, want 4", root.Len())
	}
	root.MergeViews()
	if root.Len() != 4 || n0.Len() != 4 || n1.Len() != 4 {
		t.Fatalf("lens = %d/%d/%d, want 4 everywhere", root.Len(), n0.Len(), n1.Len())
	}
	ev := root.Events()
	// Stride is numGPUs+2 = 6: node0 GPUs are pids 0-3 (fabric 4, server 5),
	// node1 GPUs are pids 6-9 (fabric 10, server 11).
	wantPIDs := []int{2, 8, 4, 11}
	for i, want := range wantPIDs {
		if ev[i].PID != want {
			t.Errorf("event %d pid = %d, want %d", i, ev[i].PID, want)
		}
	}
	if a, b := n0.NextID(), n1.NextID(); a == b {
		t.Fatalf("async ids collide across views: %d", a)
	}

	var nilRec *Recorder
	if nilRec.Node(0, 4) != nil {
		t.Fatal("nil recorder's node view must stay nil (disabled)")
	}
}

// MergeViews orders the stream by (timestamp, source): the root's events
// first among equals, then node 0's, then node 1's, each source in its
// recording order. A merge makes every event so far the root's, so a
// second merge puts a late view event after every other event at its
// instant, even a root event recorded after it.
func TestMergeViewsOrdersByTimestampThenSource(t *testing.T) {
	root := New()
	n0 := root.Node(0, 2)
	n1 := root.Node(1, 2)
	n1.Instant(0, TIDLifecycle, "serving", "n1-a", 5)
	n1.Instant(0, TIDLifecycle, "serving", "n1-b", 5)
	root.Instant(ServerPID, TIDLifecycle, "router", "root-a", 5)
	n0.Instant(0, TIDLifecycle, "serving", "n0-a", 5)
	n1.Instant(0, TIDLifecycle, "serving", "n1-early", 3)
	root.MergeViews()
	checkNames(t, root, "n1-early", "root-a", "n0-a", "n1-a", "n1-b")

	n0.Instant(0, TIDLifecycle, "serving", "n0-late", 5)
	root.Instant(ServerPID, TIDLifecycle, "router", "root-late", 5)
	root.MergeViews()
	checkNames(t, root, "n1-early", "root-a", "n0-a", "n1-a", "n1-b", "root-late", "n0-late")
}

func checkNames(t *testing.T, r *Recorder, want ...string) {
	t.Helper()
	var got []string
	for _, e := range r.Events() {
		got = append(got, e.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("merged order %q, want %q", got, want)
	}
}

// The Chrome exporter must name node-view processes from the registered
// pid names so Perfetto shows per-node track groups.
func TestWriteChromeNamesNodeProcesses(t *testing.T) {
	root := New()
	n1 := root.Node(1, 2)
	n1.Instant(0, TIDLifecycle, "serving", "x", 1)
	n1.Counter(FabricPID, "bw", 2, 1)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, root, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"node1 GPU0"`, `"node1 fabric"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON missing process name %s", want)
		}
	}
}
