package serving

import (
	"reflect"
	"strings"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/metrics"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/trace"
	"deepplan/internal/workload"
)

// tracedServer builds a server with a fresh recorder (and telemetry when
// asked) attached.
func tracedServer(t *testing.T, policy Policy, telemetry bool) (*Server, *trace.Recorder) {
	t.Helper()
	rec := trace.New()
	srv, err := New(Config{
		Topo:      topology.P38xlarge(),
		Cost:      costmodel.Default(),
		Policy:    policy,
		SLO:       100 * sim.Millisecond,
		Trace:     rec,
		Telemetry: telemetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, rec
}

// countInstants tallies lifecycle instants whose name starts with prefix.
func countInstants(rec *trace.Recorder, prefix string) int {
	n := 0
	for _, e := range rec.Events() {
		if e.Phase == trace.PhaseInstant && strings.HasPrefix(e.Name, prefix) {
			n++
		}
	}
	return n
}

// TestTracingIsObservationOnly is the tentpole guarantee: the same workload
// produces an identical report whether or not tracing and telemetry are
// collecting. The recorder must never perturb scheduling.
func TestTracingIsObservationOnly(t *testing.T) {
	run := func(traced bool) (*Report, []metrics.WindowStat) {
		var srv *Server
		if traced {
			srv, _ = tracedServer(t, PolicyPTDHA, true)
		} else {
			srv = newServer(t, PolicyPTDHA)
		}
		deployBERT(t, srv, 120)
		srv.Warmup()
		rep, err := srv.Run(workload.Poisson(6, 100, 600, 120))
		if err != nil {
			t.Fatal(err)
		}
		return rep, Windows(srv)
	}
	plain, _ := run(false)
	traced, windows := run(true)
	if len(windows) == 0 || windows[0].Arrivals == 0 {
		t.Fatal("telemetry-enabled run recorded no arrivals")
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing changed the run:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// TestTraceRecordsEvictions drives the server over capacity and checks the
// eviction path against the recorded timeline, event for event.
func TestTraceRecordsEvictions(t *testing.T) {
	srv, rec := tracedServer(t, PolicyPipeSwitch, false)
	deployBERT(t, srv, 140)
	srv.Warmup()
	rep, err := srv.Run(workload.Poisson(2, 100, 1000, 140))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evictions == 0 || rep.ColdStarts == 0 {
		t.Fatalf("workload produced no pressure (evictions=%d colds=%d)",
			rep.Evictions, rep.ColdStarts)
	}
	if got := countInstants(rec, "evict "); got != rep.Evictions {
		t.Fatalf("trace has %d evict instants, report counted %d", got, rep.Evictions)
	}
	if got := countInstants(rec, "cold start "); got != rep.ColdStarts {
		t.Fatalf("trace has %d cold-start instants, report counted %d", got, rep.ColdStarts)
	}
	if got := countInstants(rec, "defer "); got != rep.Deferred {
		t.Fatalf("trace has %d defer instants, report counted %d", got, rep.Deferred)
	}

	// Every request produced exactly one lifecycle row: a begin carrying the
	// latency breakdown and a matching end.
	var begins, ends int
	for _, e := range rec.Events() {
		if e.Cat != "request" || e.Name == "queue" {
			continue
		}
		switch e.Phase {
		case trace.PhaseAsyncBegin:
			begins++
			for _, k := range []string{"class", "queue_us", "load_us", "exec_us", "total_us"} {
				if _, ok := e.Args[k]; !ok {
					t.Fatalf("request begin missing %q arg: %v", k, e.Args)
				}
			}
		case trace.PhaseAsyncEnd:
			ends++
		}
	}
	if begins != rep.Requests || ends != rep.Requests {
		t.Fatalf("request rows begin=%d end=%d; want %d each", begins, ends, rep.Requests)
	}
}

// TestTraceRecordsRelocations replays the skewed hotspot workload and checks
// each relocation left an instant on the *source* GPU's timeline.
func TestTraceRecordsRelocations(t *testing.T) {
	srv, rec := tracedServer(t, PolicyDHA, false)
	deployBERT(t, srv, 12)
	srv.Warmup()
	var reqs []workload.Request
	for i := 0; i < 2000; i++ {
		at := sim.Time(i) * sim.Time(10*sim.Millisecond)
		inst := (i % 2) * 4
		if i%40 == 7 {
			inst = 8
		}
		reqs = append(reqs, workload.Request{At: at, Instance: inst})
	}
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Relocations == 0 {
		t.Fatal("no relocations under a saturating hotspot")
	}
	var onSource int
	for _, e := range rec.Events() {
		if e.Phase == trace.PhaseInstant && strings.HasPrefix(e.Name, "relocate ") {
			// The hotspot lives on GPU 0; the instant must carry the GPU the
			// instance abandoned, not the one it lands on.
			if e.PID == 0 {
				onSource++
			}
		}
	}
	if got := countInstants(rec, "relocate "); got != rep.Relocations {
		t.Fatalf("trace has %d relocate instants, report counted %d", got, rep.Relocations)
	}
	if onSource == 0 {
		t.Fatal("no relocate instant on the congested source GPU")
	}
}

// TestTelemetrySnapshot sanity-checks the windowed resource counters against
// the run's totals.
func TestTelemetrySnapshot(t *testing.T) {
	rec := trace.New()
	srv, err := New(Config{
		Topo: topology.P38xlarge(), Cost: costmodel.Default(),
		Policy: PolicyPipeSwitch, SLO: 100 * sim.Millisecond,
		Trace: rec, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	deployBERT(t, srv, 140)
	srv.Warmup()
	rep, err := srv.Run(workload.Poisson(2, 12, 1000, 140)) // ~83 s of load
	if err != nil {
		t.Fatal(err)
	}
	windows := Windows(srv)
	if len(windows) < 2 {
		t.Fatalf("telemetry windows = %d; want at least two 60 s windows", len(windows))
	}
	var reqs, colds, evicts int
	for _, w := range windows {
		reqs += w.Arrivals
		colds += w.ColdLaunches
		evicts += w.Evictions
		if w.BusyFraction < 0 || w.BusyFraction > 1 {
			t.Fatalf("busy fraction %v out of range", w.BusyFraction)
		}
		if w.MeanQueueDepth < 0 {
			t.Fatalf("negative queue depth %v", w.MeanQueueDepth)
		}
	}
	if reqs != rep.Requests {
		t.Fatalf("telemetry requests = %d, report = %d", reqs, rep.Requests)
	}
	if colds != rep.ColdStarts {
		t.Fatalf("telemetry cold starts = %d, report = %d", colds, rep.ColdStarts)
	}
	if evicts != rep.Evictions {
		t.Fatalf("telemetry evictions = %d, report = %d", evicts, rep.Evictions)
	}
	// A loaded server must register real utilization somewhere.
	var peak float64
	for _, w := range windows {
		if w.BusyFraction > peak {
			peak = w.BusyFraction
		}
	}
	if peak == 0 {
		t.Fatal("busy fraction never rose above zero under load")
	}
}

// TestTraceMemoryCounters checks every GPU carries a memory-occupancy track
// and that samples move when evictions free memory.
func TestTraceMemoryCounters(t *testing.T) {
	srv, rec := tracedServer(t, PolicyPipeSwitch, false)
	deployBERT(t, srv, 140)
	srv.Warmup()
	if _, err := srv.Run(workload.Poisson(2, 100, 1000, 140)); err != nil {
		t.Fatal(err)
	}
	perGPU := map[int][]float64{}
	for _, e := range rec.Events() {
		if e.Phase == trace.PhaseCounter && e.Name == "gpu mem (MiB)" {
			perGPU[e.PID] = append(perGPU[e.PID], e.Value)
		}
	}
	for gpu := 0; gpu < 4; gpu++ {
		samples := perGPU[gpu]
		if len(samples) < 2 {
			t.Fatalf("GPU %d has %d memory samples; want a moving track", gpu, len(samples))
		}
		moved := false
		for i := 1; i < len(samples); i++ {
			if samples[i] != samples[0] {
				moved = true
				break
			}
		}
		if !moved {
			t.Fatalf("GPU %d memory track is flat across %d samples", gpu, len(samples))
		}
	}
}
