package engine

import (
	"testing"

	"deepplan/internal/plan"
	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/stream"
	"deepplan/internal/topology"
)

// runAllocBudget is a whole run's heap allocations in steady state. The run
// state with its Result, Timings, op records and stream events comes off the
// engine's free list, the simnet flows a cold run starts (a copy per loaded
// layer, a forward per secondary-partition layer, a read per DHA layer) off
// the network's, and the layer costs from the model's run template, whose
// cost table at the run's batch the first (warm-up) run built.
const runAllocBudget = 0

// engineRunAllocs measures, on one long-lived engine, the steady-state
// allocations of a whole warm PipeSwitch run (pure compute, no flows) and of
// a whole cold PT+DHA parallel-transmission run, flows included.
func engineRunAllocs(t *testing.T, name string) (warm, cold float64) {
	t.Helper()
	f := fix(t, name)
	s := sim.New()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: f.cost})
	done := 0
	onDone := func(r *Result) {
		if r.Aborted {
			t.Fatal("run aborted without a failure")
		}
		done++
	}
	warmSpec := Spec{Model: f.model, Plan: f.pl.PlanPipeSwitch(f.prof), Primary: 0, Warm: true, OnDone: onDone}
	pt := f.pl.PlanPTDHA(f.prof, 2)
	if pt.NumParts != 2 || pt.CountDHA() == 0 {
		t.Fatalf("%s: want a two-partition plan with DHA layers, got %d partitions and %d DHA layers",
			name, pt.NumParts, pt.CountDHA())
	}
	coldSpec := Spec{Model: f.model, Plan: pt, Primary: 0, Secondaries: []int{2}, OnDone: onDone}
	measure := func(spec Spec) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := e.Start(spec); err != nil {
				t.Fatal(err)
			}
			s.Run()
		})
	}
	warm = measure(warmSpec)
	cold = measure(coldSpec)
	if done != 42 { // AllocsPerRun adds one warm-up call to each 20
		t.Fatalf("%d runs completed, want 42", done)
	}
	return warm, cold
}

// A whole run, flows included, costs a constant number of allocations,
// independent of the model's layer count: BERT-Large (293 layers) must cost
// exactly what BERT-Base (149 layers) does, warm and cold.
func TestEngineRunAllocationsAreConstant(t *testing.T) {
	baseWarm, baseCold := engineRunAllocs(t, "bert-base")
	largeWarm, largeCold := engineRunAllocs(t, "bert-large")
	t.Logf("allocations per run: %.1f warm, %.1f cold", baseWarm, baseCold)
	if baseWarm > runAllocBudget || baseCold > runAllocBudget {
		t.Fatalf("bert-base run allocated %.1f warm, %.1f cold; budget %d",
			baseWarm, baseCold, runAllocBudget)
	}
	if largeWarm != baseWarm || largeCold != baseCold {
		t.Fatalf("allocations grow with layer count: bert-base %.1f warm / %.1f cold, bert-large %.1f / %.1f",
			baseWarm, baseCold, largeWarm, largeCold)
	}
}

// StartTask, the decode loop's per-iteration entry point, allocates nothing
// in steady state: its run state and op record are reused.
func TestStartTaskAllocatesNothing(t *testing.T) {
	f := fix(t, "bert-base")
	s := sim.New()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: f.cost})
	onDone := func(*Result) {}
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.StartTask(0, "decode", sim.Millisecond, onDone); err != nil {
			t.Fatal(err)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("StartTask allocated %.1f per task; want 0", allocs)
	}
}

// drained reports whether every stream of the engine is idle and nothing
// is left pending in the simulator or the network.
func drained(e *Engine) bool {
	for _, g := range e.gpus {
		for _, st := range []*stream.Stream{g.exec, g.load, g.migration} {
			if !st.Idle() {
				return false
			}
		}
	}
	return e.sim.Pending() == 0 && e.net.ActiveFlows() == 0 && len(e.active) == 0
}

// Aborting a run mid-copy, mid-DHA and mid-compute cancels its pending
// timers and flows
// for good: every stream drains, and fresh runs started back to back from
// the failure instant on the same engine each reproduce a fault-free run
// exactly (shifted in time), so no stale completion of the aborted run
// reaches them.
func TestAbortLeavesNoStaleCompletions(t *testing.T) {
	f := fix(t, "bert-base")
	pt := f.pl.PlanPTDHA(f.prof, 2)
	spec := func(onDone func(*Result)) Spec {
		return Spec{Model: f.model, Plan: pt, Primary: 0, Secondaries: []int{2}, OnDone: onDone}
	}
	ref, err := RunOnce(topology.P38xlarge(), f.cost, spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Failure instants inside a secondary copy's flow, a DHA layer's
	// execution and a loaded layer's compute, from the fault-free timeline.
	var midCopy, midDHA, midExec sim.Time
	for _, lt := range ref.Timings {
		if midExec == 0 && lt.Method == plan.Load && lt.LoadDone > 0 && lt.ExecDone > lt.ExecStart {
			midExec = lt.ExecStart + (lt.ExecDone-lt.ExecStart)/2
		}
		if midCopy == 0 && lt.Partition > 0 && lt.LoadDone > lt.LoadStart {
			midCopy = lt.LoadStart + (lt.LoadDone-lt.LoadStart)/2
		}
		if midDHA == 0 && lt.Method == plan.DHA && lt.ExecDone > lt.ExecStart {
			midDHA = lt.ExecStart + (lt.ExecDone-lt.ExecStart)/2
		}
	}
	if midCopy == 0 || midDHA == 0 || midExec == 0 {
		t.Fatal("reference run has no secondary copy, DHA layer or loaded layer to interrupt")
	}
	for _, c := range []struct {
		name string
		at   sim.Time
		gpu  int
	}{{"mid-copy", midCopy, 2}, {"mid-DHA", midDHA, 0}, {"mid-compute", midExec, 0}} {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New()
			e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: f.cost})
			var aborted, fresh []*Result
			var startFresh func(*Result)
			startFresh = func(r *Result) {
				if r != nil {
					fresh = append(fresh, r.Clone())
				}
				if len(fresh) < 2 {
					if err := e.Start(spec(startFresh)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := e.Start(spec(func(r *Result) { aborted = append(aborted, r.Clone()) })); err != nil {
				t.Fatal(err)
			}
			s.At(c.at, func() {
				e.FailGPU(c.gpu)
				if len(aborted) != 1 || !aborted[0].Aborted || aborted[0].Finish != c.at {
					t.Fatalf("FailGPU did not abort the run at %v", c.at)
				}
				e.RecoverGPU(c.gpu)
				startFresh(nil)
			})
			s.Run()
			if len(aborted) != 1 {
				t.Fatalf("aborted run reported %d times", len(aborted))
			}
			if !drained(e) {
				t.Fatal("streams, simulator or network not drained after the abort")
			}
			if len(fresh) != 2 || fresh[0].Aborted || fresh[1].Aborted {
				t.Fatalf("fresh runs did not complete: %+v", fresh)
			}
			// Each fresh run had the server to itself: it must match the
			// reference run layer by layer.
			for _, got := range fresh {
				if got.Latency() != ref.Latency() || got.TotalStall != ref.TotalStall {
					t.Fatalf("fresh run latency %v stall %v, want %v %v",
						got.Latency(), got.TotalStall, ref.Latency(), ref.TotalStall)
				}
				want := shifted(ref, sim.Duration(got.Submitted))
				for i := range want.Timings {
					if got.Timings[i] != want.Timings[i] {
						t.Fatalf("layer %d timing %+v, want %+v", i, got.Timings[i], want.Timings[i])
					}
				}
			}
		})
	}
}

// simnet recycles a Flow once it completes or is aborted, so a pointer kept
// past that moment would later observe (and could abort) an unrelated flow.
// Every op record must drop its flow pointer when the flow lands and when
// the run is aborted mid-flight. The records are checked inside OnDone,
// before a completed run's state is released and cleared for reuse.
func TestEngineDropsFlowPointers(t *testing.T) {
	f := fix(t, "bert-base")
	pt := f.pl.PlanPTDHA(f.prof, 2)
	ref, err := RunOnce(topology.P38xlarge(), f.cost,
		Spec{Model: f.model, Plan: pt, Primary: 0, Secondaries: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		abortAt sim.Time // 0: let the run complete
	}{{"complete", 0}, {"abort", ref.Finish / 2}} {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New()
			e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: f.cost})
			var rs *runState
			reported := false
			onDone := func(r *Result) {
				reported = true
				if c.abortAt > 0 != r.Aborted {
					t.Fatalf("run aborted = %v, want %v", r.Aborted, c.abortAt > 0)
				}
				flows := 0
				for i := range rs.ops {
					o := &rs.ops[i]
					if o.kind == opCopy || o.kind == opForward || o.kind == opDHA {
						flows++
					}
					if o.flow != nil {
						t.Fatalf("op %d (kind %d, layer %d) still holds a flow", i, o.kind, o.layer)
					}
				}
				if flows == 0 {
					t.Fatal("run started no flows")
				}
			}
			if err := e.Start(Spec{Model: f.model, Plan: pt, Primary: 0, Secondaries: []int{2},
				OnDone: onDone}); err != nil {
				t.Fatal(err)
			}
			rs = e.active[len(e.active)-1]
			if c.abortAt > 0 {
				s.At(c.abortAt, func() {
					if e.net.ActiveFlows() == 0 {
						t.Fatalf("no flow in flight at %v", c.abortAt)
					}
					e.FailGPU(0)
				})
			}
			s.Run()
			if !reported {
				t.Fatal("run never reported")
			}
		})
	}
}
