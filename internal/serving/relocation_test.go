package serving

import (
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/workload"
)

// A skewed workload saturating one GPU must let that GPU's *other* warm
// instances relocate to cool GPUs when their own requests arrive.
func TestRelocationUnderSkew(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 12)
	srv.Warmup()
	// Round-robin warmup puts instances 0, 4, 8 on GPU 0. Instances 0 and
	// 4 are hammered (together >100% of the GPU, so its queue grows);
	// instance 8 receives occasional requests — those arrivals find it
	// idle on a congested GPU and should move it away.
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
	if got := srv.instances[8].gpu; got == 0 {
		t.Error("instance 8 still on the congested GPU")
	}
}

func TestNoRelocationWhenBalanced(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 20)
	srv.Warmup()
	rep, err := srv.Run(workload.Poisson(9, 60, 1500, 20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Relocations > rep.Requests/50 {
		t.Fatalf("%d relocations on a balanced workload", rep.Relocations)
	}
}

// Concurrent cold bursts under PT+DHA must degrade to the single-GPU
// fallback rather than convoy on each other's copy engines.
func TestPTFallbackOnConcurrentColds(t *testing.T) {
	srv, err := New(Config{
		Topo: topology.P38xlarge(), Cost: costmodel.Default(),
		Policy: PolicyPTDHA, SLO: 100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-large") // long loads maximize overlap
	if err := srv.Deploy(m, 8); err != nil {
		t.Fatal(err)
	}
	// No warmup: a burst of 8 simultaneous first-touches forces 8
	// overlapping cold starts on 4 GPUs.
	var reqs []workload.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, workload.Request{At: 0, Instance: i})
	}
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdStarts != 8 {
		t.Fatalf("cold starts = %d, want 8", rep.ColdStarts)
	}
	if rep.PTFallbacks == 0 {
		t.Fatal("no PT fallbacks despite 8 concurrent cold starts")
	}
}

func TestSingleGPUPlanFallbackEquivalence(t *testing.T) {
	// The fallback plan must have the identical resident set so eviction
	// accounting stays consistent.
	srv := newServer(t, PolicyPTDHA)
	deployBERT(t, srv, 1)
	dep := srv.instances[0].dep
	if dep.Fallback == nil {
		t.Fatal("PT+DHA deployment missing fallback plan")
	}
	if dep.Fallback.NumParts != 1 {
		t.Fatalf("fallback NumParts = %d", dep.Fallback.NumParts)
	}
	m := dep.Model
	if dep.Fallback.ResidentBytes(m) != dep.Plan.ResidentBytes(m) {
		t.Fatal("fallback plan changes the resident set")
	}
	if err := dep.Fallback.Validate(m); err != nil {
		t.Fatal(err)
	}
}
