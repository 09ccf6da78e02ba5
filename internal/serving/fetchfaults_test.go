package serving

import (
	"fmt"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/hostmem"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/workload"
)

// cacheServer builds a server on the LRU host-cache tier with the given
// host budget, dynamic batching, and optional fault schedule.
func cacheServer(t *testing.T, hostMem int64, maxBatch int, spec string) *Server {
	t.Helper()
	cfg := Config{
		Topo:       topology.P38xlarge(),
		Cost:       costmodel.Default(),
		Policy:     PolicyDHA,
		SLO:        100 * sim.Millisecond,
		HostMemory: hostMem,
		HostPolicy: hostmem.PolicyLRU,
		MaxBatch:   maxBatch,
	}
	if spec != "" {
		sched, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = sched
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// Regression for the fetch-to-pin × faults seam: requests that coalesced
// behind a fetch land in the instance's dynamic-batching backlog when the
// fetch completes; a GPU failure that aborts the ensuing cold load must
// re-dispatch that backlog along with the in-flight request, not strand it.
// (The cold-abort path used to retry only its own request, so the run never
// quiesced: Finish reported completed+shed < submitted.)
func TestGPUFailureMidFetchDrainsCoalescedWaiters(t *testing.T) {
	m, err := dnn.ByName("bert-base")
	if err != nil {
		t.Fatal(err)
	}
	// Host budget fits one pinned copy: instance 0's weights are admitted at
	// deploy, instance 1's are not, so instance 1's first request fetches.
	hostMem := m.TotalParamBytes() * 3 / 2
	// Probe the fetch cost so the failure window can be timed to open while
	// the post-fetch cold load is in flight (with the coalesced waiters
	// sitting in the backlog).
	probe := cacheServer(t, hostMem, 4, "")
	if err := probe.Deploy(m, 2); err != nil {
		t.Fatal(err)
	}
	fetchMs := int(probe.instances[1].dep.FetchEst / sim.Millisecond)

	srv := cacheServer(t, hostMem, 4, fmt.Sprintf("gpu=0@%dms+200ms", fetchMs+5))
	if err := srv.Deploy(m, 2); err != nil {
		t.Fatal(err)
	}
	reqs := []workload.Request{
		{At: 0, Instance: 1}, // starts the fetch
		{At: sim.Time(1 * sim.Millisecond), Instance: 1},
		{At: sim.Time(2 * sim.Millisecond), Instance: 1},
		{At: sim.Time(3 * sim.Millisecond), Instance: 1},
	}
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HostMisses == 0 {
		t.Fatal("fetch path never exercised (no host misses)")
	}
	if rep.GPUFailures != 1 {
		t.Fatalf("GPUFailures = %d, want 1", rep.GPUFailures)
	}
	if rep.Retried != 4 {
		t.Fatalf("Retried = %d, want 4 (in-flight request plus 3 coalesced waiters)", rep.Retried)
	}
	if rep.Requests != 4 || rep.Shed != 0 {
		t.Fatalf("conservation: requests %d shed %d", rep.Requests, rep.Shed)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A GPU failure landing while the fetch itself is still in flight (waiters
// on fetchWait) must also conserve every request: the fetch completes on
// virtual time, placement avoids the downed GPU, and the waiters
// re-dispatch.
func TestGPUFailureDuringFetchConservesWaiters(t *testing.T) {
	m, err := dnn.ByName("bert-base")
	if err != nil {
		t.Fatal(err)
	}
	hostMem := m.TotalParamBytes() * 3 / 2
	srv := cacheServer(t, hostMem, 4, "gpu=0@5ms+300ms")
	if err := srv.Deploy(m, 2); err != nil {
		t.Fatal(err)
	}
	reqs := []workload.Request{
		{At: 0, Instance: 1},
		{At: sim.Time(1 * sim.Millisecond), Instance: 1},
		{At: sim.Time(2 * sim.Millisecond), Instance: 1},
	}
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HostMisses == 0 {
		t.Fatal("fetch path never exercised")
	}
	if rep.Requests != 3 || rep.Shed != 0 {
		t.Fatalf("conservation: requests %d shed %d", rep.Requests, rep.Shed)
	}
	for _, inst := range srv.Instances() {
		if inst.State() == Warm && inst.gpu == 0 {
			t.Fatalf("instance %d placed on the failed GPU", inst.ID)
		}
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Regression for relieveHostPressure when every host entry is locked: a
// cold request whose fetch hits ErrCacheBusy with no idle warm instance to
// evict must park deterministically (not spin), then complete once the busy
// instance goes idle and its entry can be unlocked.
func TestSaturatedHostCacheParksThenDrains(t *testing.T) {
	m, err := dnn.ByName("bert-base")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Report, error) {
		hostMem := m.TotalParamBytes() * 3 / 2
		srv := cacheServer(t, hostMem, 1, "")
		if err := srv.Deploy(m, 2); err != nil {
			t.Fatal(err)
		}
		// Keep instance 0 warm and continuously busy (back-to-back ~9 ms
		// runs) so its host entry stays locked and it is never an idle
		// eviction candidate while the instance-1 request arrives.
		reqs := []workload.Request{{At: 0, Instance: 0}}
		for at := sim.Time(2 * sim.Millisecond); at < sim.Time(60*sim.Millisecond); at += sim.Time(4 * sim.Millisecond) {
			reqs = append(reqs, workload.Request{At: at, Instance: 0})
		}
		reqs = append(reqs, workload.Request{At: sim.Time(30 * sim.Millisecond), Instance: 1})
		rep, err := srv.Run(reqs)
		if err != nil {
			return nil, err
		}
		if err := srv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return rep, nil
	}
	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deferred == 0 {
		t.Fatal("saturated cache never deferred the cold request")
	}
	if rep.Shed != 0 {
		t.Fatalf("Shed = %d, want 0 (the parked request must eventually run)", rep.Shed)
	}
	if rep.HostEvictions == 0 {
		t.Fatal("host pressure never propagated to a GPU eviction")
	}
	// Saturation handling is time-driven, not retry-count-driven: the same
	// input reproduces the same report.
	rep2, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprintf("%+v", rep), fmt.Sprintf("%+v", rep2); a != b {
		t.Fatalf("saturated-cache run diverged:\n%s\n%s", a, b)
	}
}

// Sustained load over the cache tier with repeated GPU-failure windows:
// every request is conserved (completed or shed, never stranded) and the
// server quiesces clean. This is the broad churn net over the fetch × fault
// seam.
func TestFetchFaultChurnConservesRequests(t *testing.T) {
	m, err := dnn.ByName("bert-base")
	if err != nil {
		t.Fatal(err)
	}
	hostMem := m.TotalParamBytes() * 7 / 2 // three of six instances pinned
	srv := cacheServer(t, hostMem, 4, "gpu=1@20ms+80ms; gpu=2@150ms+80ms; rand=5/3@40ms")
	if err := srv.Deploy(m, 6); err != nil {
		t.Fatal(err)
	}
	reqs := workload.Poisson(43, 800, 500, 6)
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 500 {
		t.Fatalf("Requests = %d, want 500", rep.Requests)
	}
	if rep.HostMisses == 0 || rep.Retried == 0 {
		t.Fatalf("churn too tame: misses=%d retried=%d", rep.HostMisses, rep.Retried)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
