package serving

import (
	"fmt"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/faults"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/trace"
	"deepplan/internal/workload"
)

// faultServer builds a server with the given fault spec armed.
func faultServer(t *testing.T, policy Policy, spec string, admit float64, rec *trace.Recorder) *Server {
	t.Helper()
	sched, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Topo:        topology.P38xlarge(),
		Cost:        costmodel.Default(),
		Policy:      policy,
		SLO:         100 * sim.Millisecond,
		Faults:      sched,
		AdmitFactor: admit,
		Trace:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// A GPU failure mid-run must abort the in-flight work, retry each affected
// request exactly once on a surviving GPU, and leave the server consistent.
func TestGPUFailureRetriesInFlightRequests(t *testing.T) {
	srv := faultServer(t, PolicyDHA, "gpu=1@20ms+100ms", 0, nil)
	deployBERT(t, srv, 8)
	if got := srv.Warmup(); got != 8 {
		t.Fatalf("Warmup = %d, want 8", got)
	}
	// ~2000 req/s over ~0.2 s keeps every GPU busy when GPU 1 dies at 20 ms.
	reqs := workload.Poisson(1, 2000, 400, 8)
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUFailures != 1 {
		t.Fatalf("GPUFailures = %d, want 1", rep.GPUFailures)
	}
	if rep.Retried == 0 {
		t.Fatal("no requests were retried despite in-flight work on the failed GPU")
	}
	if rep.Degraded == 0 {
		t.Fatal("no completions were marked degraded during the fault window")
	}
	if rep.Requests != len(reqs) {
		t.Fatalf("Requests = %d, want %d", rep.Requests, len(reqs))
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// While a GPU is down, new placements must land on surviving GPUs only.
func TestPlacementAvoidsDownGPU(t *testing.T) {
	srv := faultServer(t, PolicyDHA, "gpu=2@0s+10s", 0, nil)
	deployBERT(t, srv, 4)
	reqs := workload.Poisson(3, 100, 40, 4)
	if _, err := srv.Run(reqs); err != nil {
		t.Fatal(err)
	}
	for _, inst := range srv.Instances() {
		if inst.State() == Warm && inst.GPU() == 2 {
			t.Fatalf("instance %d placed on the failed GPU", inst.ID)
		}
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The admission controller must shed cold-start requests once the projected
// latency blows the budget, and every request must still be accounted for.
func TestAdmissionShedsHopelessColdStarts(t *testing.T) {
	srv := faultServer(t, PolicyPipeSwitch, "gpu=1@10ms+400ms; link=gpu0-lane*0.2@0s+500ms", 0.8, nil)
	deployBERT(t, srv, 120)
	srv.Warmup()
	reqs := workload.Poisson(2, 1500, 600, 120)
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatal("admission control shed nothing under a saturating cold burst")
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func faultReport(t *testing.T, rec *trace.Recorder) *Report {
	t.Helper()
	srv := faultServer(t, PolicyDHA, "gpu=1@20ms+100ms; straggler=load/3@0s+150ms; rand=9/2@400ms", 0.9, rec)
	deployBERT(t, srv, 8)
	srv.Warmup()
	rep, err := srv.Run(workload.Poisson(1, 2000, 400, 8))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Fault injection is seed-driven and virtual-time-driven: the same spec over
// the same workload must reproduce the report byte for byte.
func TestFaultReplayIsByteIdentical(t *testing.T) {
	a := fmt.Sprintf("%+v", faultReport(t, nil))
	b := fmt.Sprintf("%+v", faultReport(t, nil))
	if a != b {
		t.Fatalf("same spec+seed diverged:\n%s\n%s", a, b)
	}
}

// Tracing stays observation-only under faults: recording must not perturb
// the schedule, the retries, or any reported number.
func TestTracingIsObservationFreeUnderFaults(t *testing.T) {
	plain := fmt.Sprintf("%+v", faultReport(t, nil))
	traced := fmt.Sprintf("%+v", faultReport(t, trace.New()))
	if plain != traced {
		t.Fatalf("tracing perturbed a faulted run:\n%s\n%s", plain, traced)
	}
}

// Without a fault schedule the fault counters stay zero.
func TestNoFaultsLeavesCountersZero(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 8)
	srv.Warmup()
	rep, err := srv.Run(workload.Poisson(1, 500, 200, 8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 0 || rep.Retried != 0 || rep.Degraded != 0 || rep.GPUFailures != 0 {
		t.Fatalf("fault counters nonzero without faults: %+v", rep)
	}
}
