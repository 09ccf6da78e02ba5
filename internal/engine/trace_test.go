package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
	"deepplan/internal/trace"
)

// tracedRun executes one inference on a fresh sim with a recorder attached
// to both the engine and the network.
func tracedRun(t *testing.T, f *fixture, spec Spec) (*Result, *trace.Recorder) {
	t.Helper()
	rec := trace.New()
	s := sim.New()
	net := simnet.New(s)
	rec.AttachNetwork(net)
	e := New(Config{Sim: s, Net: net, Topo: topology.P38xlarge(), Cost: f.cost, Trace: rec})
	var res *Result
	spec.OnDone = func(r *Result) { res = r.Clone() }
	if err := e.Start(spec); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if res == nil {
		t.Fatal("run did not complete")
	}
	return res, rec
}

// TestTraceCountersMatchAvgPCIeBandwidth regression-tests the fabric counter
// track against the engine's own accounting: integrating the primary GPU's
// PCIe-lane rate samples over time must reproduce Result.BytesLoaded, and
// averaging over the load window must reproduce AvgPCIeBandwidth() — the
// quantity behind the paper's §3.2 bandwidth-collapse curve.
func TestTraceCountersMatchAvgPCIeBandwidth(t *testing.T) {
	f := fix(t, "bert-base")
	// PipeSwitch loads every layer over PCIe and uses no DHA, so the lane
	// carries exactly the copy traffic.
	res, rec := tracedRun(t, f, Spec{Model: f.model, Plan: f.pl.PlanPipeSwitch(f.prof), Primary: 0})

	type sample struct {
		at   sim.Time
		rate float64 // bytes/sec
	}
	var lane []sample
	for _, e := range rec.Events() {
		if e.Phase != trace.PhaseCounter || !strings.Contains(e.Name, "gpu0-lane") {
			continue
		}
		lane = append(lane, sample{e.TS, e.Value * 1e9})
	}
	if len(lane) < 2 {
		t.Fatalf("got %d lane samples; want a rate curve", len(lane))
	}

	var bytes float64
	for i := 0; i+1 < len(lane); i++ {
		bytes += lane[i].rate * lane[i+1].at.Sub(lane[i].at).Seconds()
	}
	// Tolerance covers nanosecond quantization of segment boundaries
	// (~16 B/ns × 1 ns per flow completion), nothing more.
	if rel := math.Abs(bytes-res.BytesLoaded) / res.BytesLoaded; rel > 1e-4 {
		t.Fatalf("integrated lane counters = %.6g bytes, BytesLoaded = %.6g (rel err %.2g)",
			bytes, res.BytesLoaded, rel)
	}

	window := res.LoadWindowEnd.Sub(res.LoadWindowStart).Seconds()
	avg := bytes / window
	want := res.AvgPCIeBandwidth()
	if rel := math.Abs(avg-want) / want; rel > 1e-4 {
		t.Fatalf("counter-derived avg = %.6g B/s, AvgPCIeBandwidth = %.6g (rel err %.2g)",
			avg, want, rel)
	}
}

// TestEmitTraceCoversAllGPUs checks the PT+DHA timeline lands spans on both
// the primary and the secondary GPU, on the right tracks.
func TestEmitTraceCoversAllGPUs(t *testing.T) {
	f := fix(t, "bert-base")
	res, rec := tracedRun(t, f, Spec{
		Model: f.model, Plan: f.pl.PlanPTDHA(f.prof, 2), Primary: 0, Secondaries: []int{2},
	})
	if len(res.Secondaries) != 1 || res.Secondaries[0] != 2 {
		t.Fatalf("result secondaries = %v", res.Secondaries)
	}
	count := map[[2]int]int{} // (pid, tid) → spans
	for _, e := range rec.Events() {
		if e.Phase == trace.PhaseSpan {
			count[[2]int{e.PID, e.TID}]++
		}
	}
	for _, want := range [][2]int{
		{0, trace.TIDExec},    // primary executes
		{0, trace.TIDLoad},    // primary loads partition 0
		{2, trace.TIDLoad},    // secondary loads partition 1
		{2, trace.TIDMigrate}, // secondary forwards over NVLink
	} {
		if count[want] == 0 {
			t.Fatalf("no spans on pid=%d tid=%d; per-GPU tracks incomplete (%v)",
				want[0], want[1], count)
		}
	}
	if count[[2]int{2, trace.TIDExec}] != 0 {
		t.Fatal("secondary GPU must not execute layers")
	}
}

// chromeExport replays a standalone PT+DHA run (secondary GPU 2) through
// EmitTrace and WriteChrome, the path behind `deepplan -trace`, and returns
// the raw export with its decoded events and metadata.
func chromeExport(t *testing.T) ([]byte, []map[string]any, map[string]string) {
	t.Helper()
	f := fix(t, "bert-base")
	res := f.run(t, f.pl.PlanPTDHA(f.prof, 2), []int{2})
	rec := trace.New()
	res.EmitTrace(rec)
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, rec, map[string]string{"model": res.Model, "mode": res.Mode}); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return buf.Bytes(), parsed.TraceEvents, parsed.OtherData
}

// TestEmitTraceChromeValidJSON: the export is valid JSON carrying the run
// metadata and layer names, and every track is populated on both GPUs.
func TestEmitTraceChromeValidJSON(t *testing.T) {
	raw, events, other := chromeExport(t)
	if other["model"] != "BERT-Base" {
		t.Fatalf("otherData = %v", other)
	}
	if !strings.Contains(string(raw), "embeddings.word") {
		t.Fatal("trace missing layer names")
	}
	tracks := map[int]int{}
	pids := map[int]bool{}
	for _, e := range events {
		if e["ph"] != "X" {
			continue
		}
		if e["dur"].(float64) < 0 {
			t.Fatal("negative duration event")
		}
		pids[int(e["pid"].(float64))] = true
		tracks[int(e["tid"].(float64))]++
	}
	if tracks[trace.TIDExec] == 0 || tracks[trace.TIDLoad] == 0 || tracks[trace.TIDMigrate] == 0 {
		t.Fatalf("track counts exec=%d load=%d migrate=%d; all should be populated for PT+DHA",
			tracks[trace.TIDExec], tracks[trace.TIDLoad], tracks[trace.TIDMigrate])
	}
	if !pids[0] || !pids[2] {
		t.Fatalf("span pids = %v; PT+DHA with secondary GPU 2 must emit on both GPUs", pids)
	}
}

// TestEmitTraceChromeSecondaryTracks: the secondary GPU's PCIe copies and
// NVLink forwards land under its own named pid rather than the primary's.
func TestEmitTraceChromeSecondaryTracks(t *testing.T) {
	_, events, _ := chromeExport(t)
	var secLoad, secMigrate, secNamed int
	for _, e := range events {
		if int(e["pid"].(float64)) != 2 {
			continue
		}
		switch {
		case e["ph"] == "X" && int(e["tid"].(float64)) == trace.TIDLoad:
			secLoad++
		case e["ph"] == "X" && int(e["tid"].(float64)) == trace.TIDMigrate:
			secMigrate++
		case e["ph"] == "M" && e["name"] == "process_name":
			secNamed++
		}
	}
	if secLoad == 0 {
		t.Fatal("no load spans on the secondary GPU")
	}
	if secMigrate == 0 {
		t.Fatal("no migrate (forward) spans on the secondary GPU")
	}
	if secNamed == 0 {
		t.Fatal("secondary GPU process is unnamed")
	}
}
