package planner

import (
	"math/rand"
	"testing"

	"deepplan/internal/plan"
	"deepplan/internal/profiler"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
)

// synthProfile builds a random but self-consistent per-layer performance
// table: every loadable layer has positive load time and a DHA time no
// faster than uncontended PCIe allows; some layers are parameterless.
func synthProfile(rng *rand.Rand, n int) *profiler.Profile {
	p := &profiler.Profile{ModelName: "synthetic", Topology: "p3.8xlarge", Batch: 1}
	for i := 0; i < n; i++ {
		lp := profiler.LayerProfile{Index: i, Name: "L"}
		lp.ExecInMem = sim.Duration(1+rng.Intn(500)) * sim.Microsecond
		if rng.Float64() < 0.8 { // loadable
			lp.ParamBytes = int64(1+rng.Intn(8<<20)) + 1024
			lp.LoadTime = 25*sim.Microsecond + sim.Duration(float64(lp.ParamBytes)/11.7e9*1e9)
			// DHA exec: sometimes much worse (FC-like), sometimes close
			// (BN-like), occasionally better is impossible by construction
			// but PerfDiff may be tiny.
			factor := 1 + rng.Float64()*20
			lp.ExecDHA = lp.ExecInMem + sim.Duration(factor*float64(10*sim.Microsecond))
			lp.DHABytes = float64(lp.ParamBytes) * (0.1 + rng.Float64()*12)
		} else {
			lp.ExecDHA = lp.ExecInMem
		}
		p.Layers = append(p.Layers, lp)
	}
	return p
}

// Properties checked over random profiles:
//  1. every planner mode emits a structurally valid plan;
//  2. the DHA plan's predicted latency never exceeds PipeSwitch's;
//  3. PT+DHA never applies DHA outside partition 0;
//  4. pipelined prediction never exceeds the baseline prediction.
func TestPropertyPlannerOnRandomProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	pl := New(topology.P38xlarge())
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(120)
		prof := synthProfile(rng, n)

		base := predict(t, pl, prof, pl.PlanBaseline(prof))
		ps := predict(t, pl, prof, pl.PlanPipeSwitch(prof))
		if ps > base {
			t.Fatalf("trial %d: pipeswitch %v > baseline %v", trial, ps, base)
		}

		dhaPlan := pl.PlanDHA(prof)
		dha := predict(t, pl, prof, dhaPlan)
		if dha > ps {
			t.Fatalf("trial %d: dha %v > pipeswitch %v", trial, dha, ps)
		}
		for i := range dhaPlan.Layers {
			if dhaPlan.Layers[i].Method == plan.DHA && prof.Layers[i].ParamBytes == 0 {
				t.Fatalf("trial %d: DHA on parameterless layer %d", trial, i)
			}
		}

		pt := pl.PlanPTDHA(prof, 2)
		for i := range pt.Layers {
			if pt.Layers[i].Method == plan.DHA && pt.Layers[i].Partition != 0 {
				t.Fatalf("trial %d: DHA outside partition 0", trial)
			}
			if i > 0 && pt.Layers[i].Partition < pt.Layers[i-1].Partition {
				t.Fatalf("trial %d: partitions not monotone", trial)
			}
		}
		stall, _ := recurrence(pl, prof, pt)
		for i, s := range stall {
			if s < 0 {
				t.Fatalf("trial %d: negative stall at %d", trial, i)
			}
		}
	}
}

// Property: a larger pruning threshold never increases the number of DHA
// conversions (monotonicity of the materiality filter).
func TestPropertyPruningMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		prof := synthProfile(rng, 5+rng.Intn(80))
		prev := -1
		for _, th := range []sim.Duration{0, 10 * sim.Microsecond, 100 * sim.Microsecond, sim.Millisecond} {
			pl := New(topology.P38xlarge())
			pl.MinDHAGain = th
			count := pl.PlanDHA(prof).CountDHA()
			if prev >= 0 && count > prev {
				t.Fatalf("trial %d: threshold %v increased conversions %d -> %d",
					trial, th, prev, count)
			}
			prev = count
		}
	}
}

// Property: PlanLargeModel always respects its budget (resident parameter
// bytes never exceed it), for arbitrary budgets.
func TestPropertyLargeModelBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pl := New(topology.P38xlarge())
	for trial := 0; trial < 25; trial++ {
		prof := synthProfile(rng, 5+rng.Intn(60))
		total := prof.TotalParamBytes()
		budget := int64(rng.Float64() * float64(total) * 1.2)
		p, err := pl.PlanLargeModel(prof, budget)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var resident int64
		for i := range p.Layers {
			if p.Layers[i].Method == plan.Load {
				resident += prof.Layers[i].ParamBytes
			}
		}
		if resident > budget {
			t.Fatalf("trial %d: resident %d > budget %d", trial, resident, budget)
		}
	}
}
