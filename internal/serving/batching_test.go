package serving

import (
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/workload"
)

func batchServer(t *testing.T, maxBatch int) *Server {
	t.Helper()
	srv, err := New(Config{
		Topo: topology.P38xlarge(), Cost: costmodel.Default(),
		Policy: PolicyDHA, SLO: 100 * sim.Millisecond, MaxBatch: maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-base")
	if err := srv.Deploy(m, 1); err != nil {
		t.Fatal(err)
	}
	srv.Warmup()
	return srv
}

// burst produces n simultaneous requests to instance 0.
func burst(n int) []workload.Request {
	reqs := make([]workload.Request, n)
	return reqs
}

func TestDynamicBatchingCoalesces(t *testing.T) {
	srv := batchServer(t, 8)
	rep, err := srv.Run(burst(9))
	if err != nil {
		t.Fatal(err)
	}
	// Run 1 serves the first arrival solo; the other 8 coalesce into one
	// batched run.
	if rep.BatchedRuns != 1 || rep.BatchedRequests != 8 {
		t.Fatalf("batched runs/requests = %d/%d, want 1/8", rep.BatchedRuns, rep.BatchedRequests)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicBatchingRespectsMaxBatch(t *testing.T) {
	srv := batchServer(t, 4)
	rep, err := srv.Run(burst(13))
	if err != nil {
		t.Fatal(err)
	}
	// 1 solo + backlog of 12 drained in 4+4+4.
	if rep.BatchedRuns != 3 || rep.BatchedRequests != 12 {
		t.Fatalf("batched runs/requests = %d/%d, want 3/12", rep.BatchedRuns, rep.BatchedRequests)
	}
}

func TestBatchingImprovesBurstTail(t *testing.T) {
	serial, err := batchServer(t, 1).Run(burst(16))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := batchServer(t, 8).Run(burst(16))
	if err != nil {
		t.Fatal(err)
	}
	if serial.BatchedRuns != 0 {
		t.Fatalf("MaxBatch=1 still batched %d runs", serial.BatchedRuns)
	}
	// Batch-8 execution amortizes kernel overheads, so the burst drains
	// faster than 16 serial inferences.
	if batched.Max >= serial.Max {
		t.Fatalf("batched max %v not better than serial max %v", batched.Max, serial.Max)
	}
}

// A GPU failure under a dynamic batch must re-dispatch the whole batch AND
// everything coalesced into the instance's backlog (serving's abort path
// hands retryOrShed reqs + backlog). Regression test: every request must be
// accounted for exactly once — completed or shed, never lost or recorded
// twice.
func TestBatchAbortRedispatchesBacklog(t *testing.T) {
	sched, err := faults.Parse("gpu=1@10ms+100ms")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Topo: topology.P38xlarge(), Cost: costmodel.Default(),
		Policy: PolicyDHA, SLO: 100 * sim.Millisecond, MaxBatch: 8,
		Faults: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-base")
	if err := srv.Deploy(m, 8); err != nil {
		t.Fatal(err)
	}
	srv.Warmup()
	// Instance 1 sits on GPU 1 after round-robin warmup. A simultaneous
	// burst at it runs one request solo and coalesces the rest; GPU 1 dies
	// at 10 ms with the batch (or the solo run plus its backlog) in flight.
	const n = 10
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i].Instance = 1
	}
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUFailures != 1 {
		t.Fatalf("GPUFailures = %d, want 1", rep.GPUFailures)
	}
	if rep.Retried < 2 {
		t.Fatalf("Retried = %d; the aborted batch and its backlog should all retry", rep.Retried)
	}
	if rep.Requests != n {
		t.Fatalf("Requests = %d, want %d", rep.Requests, n)
	}
	// Conservation: each request completes exactly once or is shed — the
	// per-window series records completions only, so the window totals must
	// equal submitted minus shed. Before the fix a lost (or double-recorded)
	// backlog entry breaks this identity and Finish's accounting check.
	recorded := 0
	for _, ws := range Windows(srv) {
		recorded += ws.Requests
	}
	if recorded != n-rep.Shed {
		t.Fatalf("windows recorded %d requests, want %d submitted - %d shed", recorded, n, rep.Shed)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchingOffByDefault(t *testing.T) {
	srv := newServer(t, PolicyPTDHA)
	deployBERT(t, srv, 20)
	srv.Warmup()
	rep, err := srv.Run(workload.Poisson(5, 80, 500, 20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchedRuns != 0 {
		t.Fatalf("default config batched %d runs", rep.BatchedRuns)
	}
}

// TestRunAbortConservesBacklog aborts each kind of engine run — a demand
// cold start, a warm batch and a background prewarm load — with a GPU
// failure while arrivals are coalesced behind it. Every request must be
// retried and then completed or shed exactly once, and the server must be
// consistent afterwards.
func TestRunAbortConservesBacklog(t *testing.T) {
	const n = 6 // one run plus a backlog of five (MaxBatch 4)
	for _, tc := range []struct {
		name  string
		setup func(srv *Server)
	}{
		{"cold start", func(srv *Server) {}},
		{"warm batch", func(srv *Server) { srv.Warmup() }},
		{"prewarm load", func(srv *Server) {
			if !srv.PrewarmInstance(0) {
				t.Fatal("prewarm refused a cold instance")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Instance 0 lands on GPU 0, which fails while the run is in
			// flight.
			sched, err := faults.Parse("gpu=0@1ms+1s")
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{
				Topo: topology.P38xlarge(), Cost: costmodel.Default(),
				Policy: PolicyDHA, MaxBatch: 4, Faults: sched,
			})
			if err != nil {
				t.Fatal(err)
			}
			deployBERT(t, srv, 1)
			tc.setup(srv)
			if _, err := srv.Run(burst(n)); err != nil {
				t.Fatal(err)
			}
			if got := srv.n[kRetried]; got != n {
				t.Fatalf("retried %d of %d requests; the aborted run and its backlog should all retry", got, n)
			}
			if done, shed := srv.n[kCompletion], srv.n[kShed]; done+shed != n {
				t.Fatalf("%d completed + %d shed != %d submitted", done, shed, n)
			}
			if err := srv.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
