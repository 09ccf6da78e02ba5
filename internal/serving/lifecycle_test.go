package serving

import (
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/hostmem"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/workload"
)

func TestSleepReleasesGPUAndKeepsHostCopy(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 2)
	srv.Warmup()
	inst := srv.Instances()[0]
	if !srv.SleepInstance(0) {
		t.Fatal("SleepInstance refused an idle warm instance")
	}
	if inst.State() != Sleeping {
		t.Fatalf("state = %v, want Sleeping", inst.State())
	}
	if inst.block != nil {
		t.Fatal("sleeping instance still holds a GPU memory block")
	}
	if inst.host == nil || !inst.host.Resident() {
		t.Fatal("sleeping instance lost its pinned host copy")
	}
	if srv.hostLocked(inst.ID) {
		t.Fatal("sleeping instance's host entry still locked (would never be evictable)")
	}
	if srv.n[kSleep] != 1 {
		t.Fatalf("sleeps = %d, want 1", srv.n[kSleep])
	}
	// Sleeping again is a no-op: the instance is no longer warm.
	if srv.SleepInstance(0) {
		t.Fatal("SleepInstance demoted a non-warm instance")
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSleepRefusesNonIdle(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 2)
	if srv.SleepInstance(0) {
		t.Fatal("SleepInstance demoted a cold instance")
	}
	if srv.SleepInstance(-1) || srv.SleepInstance(99) {
		t.Fatal("SleepInstance accepted an out-of-range id")
	}
	srv.Warmup()
	inst := srv.Instances()[0]
	inst.inflight++
	if srv.SleepInstance(0) {
		t.Fatal("SleepInstance demoted an instance with a request in flight")
	}
	inst.inflight--
	inst.loading = true
	if srv.SleepInstance(0) {
		t.Fatal("SleepInstance demoted an instance mid-load")
	}
	inst.loading = false
}

// TestDemandWakesSleepingInstance: a request landing on a sleeping
// instance pays exactly one direct-host-access load — it is counted as
// both a wake and a cold start (the load is real work), but never as a
// host fetch (the pinned copy never left).
func TestDemandWakesSleepingInstance(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 2)
	srv.Warmup()
	if !srv.SleepInstance(0) {
		t.Fatal("sleep refused")
	}
	rep, err := srv.Run([]workload.Request{{At: 0, Instance: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wakes != 1 {
		t.Fatalf("wakes = %d, want 1", rep.Wakes)
	}
	if rep.ColdStarts != 1 {
		t.Fatalf("cold starts = %d, want 1 (the wake pays the DHA load)", rep.ColdStarts)
	}
	if rep.HostMisses != 0 {
		t.Fatalf("host misses = %d, want 0 (copy stayed pinned)", rep.HostMisses)
	}
	if got := srv.Instances()[0].State(); got != Warm {
		t.Fatalf("state after wake = %v, want Warm", got)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrewarmFromSleeping(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 2)
	srv.Warmup()
	srv.SleepInstance(0)
	if !srv.PrewarmInstance(0) {
		t.Fatal("prewarm refused a sleeping instance")
	}
	srv.sim.Run()
	rep, err := srv.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Prewarms != 1 || rep.Wakes != 1 {
		t.Fatalf("prewarms = %d wakes = %d, want 1 and 1", rep.Prewarms, rep.Wakes)
	}
	if rep.ColdStarts != 0 {
		t.Fatalf("cold starts = %d, want 0 (prewarm loads are not demand cold starts)", rep.ColdStarts)
	}
	if got := srv.Instances()[0].State(); got != Warm {
		t.Fatalf("state after prewarm = %v, want Warm", got)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A prewarm under PT+DHA loads over the single-GPU fallback plan: it takes
// no transmission partner and counts neither a cold start nor a PT
// fallback.
func TestPrewarmLoadsOverFallback(t *testing.T) {
	srv := newServer(t, PolicyPTDHA)
	deployBERT(t, srv, 2)
	inst := srv.Instances()[0]
	if inst.dep.Plan.NumParts != 2 || inst.dep.Fallback == nil {
		t.Fatalf("test premise broken: plan has %d partitions, fallback %v",
			inst.dep.Plan.NumParts, inst.dep.Fallback != nil)
	}
	if !srv.PrewarmInstance(0) {
		t.Fatal("prewarm refused a cold instance")
	}
	if got := srv.gpus[inst.gpu].activeColds; got != 1 {
		t.Fatalf("primary activeColds = %d during the load, want 1", got)
	}
	for _, gs := range srv.gpus {
		if gs.secondaryColds != 0 {
			t.Fatalf("GPU %d secondaryColds = %d during a prewarm, want 0", gs.id, gs.secondaryColds)
		}
	}
	srv.sim.Run()
	rep, err := srv.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Prewarms != 1 || rep.ColdStarts != 0 || rep.PTFallbacks != 0 {
		t.Fatalf("prewarms = %d cold starts = %d PT fallbacks = %d, want 1, 0 and 0",
			rep.Prewarms, rep.ColdStarts, rep.PTFallbacks)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrewarmNoops(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 2)
	srv.Warmup()
	if srv.PrewarmInstance(0) {
		t.Fatal("prewarm actuated an already-warm instance")
	}
	if srv.PrewarmInstance(-1) || srv.PrewarmInstance(99) {
		t.Fatal("prewarm accepted an out-of-range id")
	}
}

// newSwapServer builds the smallest server where host-cache pressure is
// real: an LRU host tier sized for two BERT copies with three instances
// deployed, so any third resident entry must push one out.
func newSwapServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Config{
		Topo:       topology.P38xlarge(),
		Cost:       costmodel.Default(),
		Policy:     PolicyDHA,
		SLO:        sim.Second,
		HostMemory: 1 << 30, // fits two ~440 MB BERT-Base copies
		HostPolicy: hostmem.PolicyLRU,
	})
	if err != nil {
		t.Fatal(err)
	}
	deployBERT(t, srv, 3)
	return srv
}

// TestColdPathCountsHostHitsAndMisses: each cold dispatch counts one host
// hit (weights resident) or one miss (a fetch-to-pin first).
func TestColdPathCountsHostHitsAndMisses(t *testing.T) {
	srv := newSwapServer(t) // instances 0 and 1 resident, 2 not
	rep, err := srv.Run([]workload.Request{{At: 0, Instance: 0}, {At: sim.Time(sim.Second), Instance: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HostHits != 1 || rep.HostMisses != 1 || rep.HostFetches != 1 {
		t.Fatalf("hits=%d misses=%d fetches=%d, want 1/1/1", rep.HostHits, rep.HostMisses, rep.HostFetches)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHostEvictionSwapsOutSleepingInstance: once an instance is asleep its
// host entry is fair game for the cache tier; losing it demotes the
// instance to Swapped, where reactivation pays the full fetch-to-pin.
func TestHostEvictionSwapsOutSleepingInstance(t *testing.T) {
	srv := newSwapServer(t)
	if n := srv.Warmup(); n != 2 {
		t.Fatalf("warmup warmed %d instances, want 2 (instance 2 is not host-resident)", n)
	}
	srv.SleepInstance(0)
	// Demand for the non-resident instance 2 forces a fetch-to-pin, whose
	// admission evicts the only unlocked entry: the sleeper's.
	rep, err := srv.Run([]workload.Request{{At: 0, Instance: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Instances()[0].State(); got != Swapped {
		t.Fatalf("sleeper after host eviction = %v, want Swapped", got)
	}
	if rep.SwapOuts != 1 {
		t.Fatalf("swap-outs = %d, want 1", rep.SwapOuts)
	}
	if srv.Instances()[0].host != nil {
		t.Fatal("swapped instance still host-resident")
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrewarmSwappedPaysFetch: prewarming a swapped-out instance goes
// through the fetch-to-pin path and lands as a swap-in, not a wake.
func TestPrewarmSwappedPaysFetch(t *testing.T) {
	srv := newSwapServer(t)
	srv.Warmup()
	srv.SleepInstance(0)
	if _, err := srv.Run([]workload.Request{{At: 0, Instance: 2}}); err != nil {
		t.Fatal(err)
	}
	// Make room for the fetch: put instance 2 back to sleep so its entry
	// unlocks and can be traded for instance 0's.
	if !srv.SleepInstance(2) {
		t.Fatal("could not sleep instance 2")
	}
	before := srv.n[kHostFetch]
	if !srv.PrewarmInstance(0) {
		t.Fatal("prewarm refused a swapped instance with an evictable entry available")
	}
	if got := srv.n[kHostFetch] - before; got != 1 {
		t.Fatalf("prewarming a swapped instance started %d host fetches, want 1", got)
	}
	srv.sim.Run()
	rep, err := srv.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Instances()[0].State(); got != Warm {
		t.Fatalf("state after swap-in = %v, want Warm", got)
	}
	if rep.SwapIns != 1 {
		t.Fatalf("swap-ins = %d, want 1", rep.SwapIns)
	}
	if rep.Wakes != 0 {
		t.Fatalf("wakes = %d, want 0 (this promotion paid a fetch)", rep.Wakes)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrewarmAbandonedUnderLockedCache: when every host entry is locked
// and no warm instance is idle enough to evict, a speculative prewarm has
// nothing to trade and must give up rather than park.
func TestPrewarmAbandonedUnderLockedCache(t *testing.T) {
	srv := newSwapServer(t)
	srv.Warmup()
	srv.SleepInstance(0)
	if _, err := srv.Run([]workload.Request{{At: 0, Instance: 2}}); err != nil {
		t.Fatal(err)
	}
	// Instances 1 and 2 are warm with locked entries; pretend both are
	// mid-request so relieveHostPressure cannot evict either.
	for _, id := range []int{1, 2} {
		srv.Instances()[id].inflight++
	}
	if srv.PrewarmInstance(0) {
		t.Fatal("prewarm claimed to start with no evictable host entry")
	}
	for _, id := range []int{1, 2} {
		srv.Instances()[id].inflight--
	}
	if srv.n[kPrewarm] != 0 {
		t.Fatalf("abandoned prewarm still counted: %d", srv.n[kPrewarm])
	}
}
