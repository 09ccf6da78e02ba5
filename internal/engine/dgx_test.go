package engine

import (
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/planner"
	"deepplan/internal/profiler"
	"deepplan/internal/topology"
)

// Three-way parallel transmission on the DGX-1's hybrid cube-mesh.
func TestThreePartitionPTOnDGX1(t *testing.T) {
	m, err := dnn.ByName("bert-large")
	if err != nil {
		t.Fatal(err)
	}
	cost := costmodel.Default()
	prof, err := profiler.Run(m, cost, topology.DGX1(), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := planner.New(topology.DGX1())
	if pl.MaxPartitions() != 3 {
		t.Fatalf("DGX-1 MaxPartitions = %d, want 3 (NVLink reach)", pl.MaxPartitions())
	}
	latencies := map[int]float64{}
	for parts := 1; parts <= 3; parts++ {
		p := pl.PlanPTDHA(prof, parts)
		if p.NumParts != parts {
			t.Fatalf("requested %d partitions, planned %d", parts, p.NumParts)
		}
		topo := topology.DGX1()
		secs, err := topo.Secondaries(0, p.NumParts-1)
		if err != nil {
			t.Fatal(err)
		}
		if len(secs) != parts-1 {
			t.Fatalf("%d partitions -> %d secondaries", parts, len(secs))
		}
		// All secondaries must be on distinct switches, none sharing the
		// primary's, and NVLink-connected to it.
		seen := map[int]bool{topo.GPU(0).Switch: true}
		for _, s := range secs {
			sw := topo.GPU(s).Switch
			if seen[sw] {
				t.Fatalf("secondary %d shares a switch", s)
			}
			seen[sw] = true
			if !topo.HasNVLink(s, 0) {
				t.Fatalf("secondary %d lacks NVLink to primary", s)
			}
		}
		res, err := RunOnce(topology.DGX1(), cost, Spec{
			Model: m, Plan: p, Primary: 0, Secondaries: secs,
		})
		if err != nil {
			t.Fatal(err)
		}
		latencies[parts] = res.Latency().Seconds()
	}
	if !(latencies[2] < latencies[1] && latencies[3] < latencies[2]) {
		t.Fatalf("partition scaling broken: %v", latencies)
	}
	// Diminishing returns: the 2->3 gain is smaller than the 1->2 gain.
	if latencies[1]-latencies[2] < latencies[2]-latencies[3] {
		t.Fatalf("expected diminishing returns: %v", latencies)
	}
}

// A secondary without NVLink to the primary must be rejected on the DGX-1
// (GPUs 0 and 5 are in different quads with no cross link).
func TestDGX1RejectsUnlinkedSecondary(t *testing.T) {
	m, _ := dnn.ByName("bert-base")
	cost := costmodel.Default()
	prof, err := profiler.Run(m, cost, topology.DGX1(), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := planner.New(topology.DGX1())
	p := pl.PlanPTDHA(prof, 2)
	_, err = RunOnce(topology.DGX1(), cost, Spec{
		Model: m, Plan: p, Primary: 0, Secondaries: []int{5},
	})
	if err == nil {
		t.Fatal("secondary without NVLink accepted")
	}
}
