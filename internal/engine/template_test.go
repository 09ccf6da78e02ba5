package engine

import (
	"testing"

	"deepplan/internal/plan"
	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
)

// A run priced from the model's run template must match the cost model
// layer by layer. One engine per model runs every batch × scale × warm/cold
// × plan combination, so its tables are built, reused and interleaved
// across batch sizes. Every layer that is not a DHA read executes for
// exactly its scaled ComputeTime; a DHA layer for at least that plus the
// fixed DHA penalty; and BytesDHA is the sum of the DHA layers' DHABytes.
func TestRunTemplateMatchesCostModel(t *testing.T) {
	for _, name := range []string{"bert-base", "resnet50", "gpt2"} {
		f := fix(t, name)
		s := sim.New()
		e := New(Config{Sim: s, Net: simnet.New(s), Topo: topology.P38xlarge(), Cost: f.cost})
		plans := []struct {
			p    *plan.Plan
			secs []int
		}{
			{f.pl.PlanDHA(f.prof), nil},
			{f.pl.PlanPTDHA(f.prof, 2), []int{2}},
		}
		for _, batch := range []int{1, 3, 8} {
			for _, scale := range []float64{0, 0.37, 1} {
				for _, warm := range []bool{false, true} {
					for _, pc := range plans {
						if pc.p.CountDHA() == 0 {
							t.Fatalf("%s %s plan has no DHA layer", name, pc.p.Mode)
						}
						spec := Spec{Model: f.model, Plan: pc.p, Batch: batch, Primary: 0,
							Warm: warm, ComputeScale: scale}
						if !warm {
							spec.Secondaries = pc.secs
						}
						var res *Result
						spec.OnDone = func(r *Result) { res = r.Clone() }
						if err := e.Start(spec); err != nil {
							t.Fatal(err)
						}
						s.Run()
						if res == nil || res.Aborted {
							t.Fatalf("%s %s batch %d did not complete", name, pc.p.Mode, batch)
						}
						var dha float64
						for i := range f.model.Layers {
							l := &f.model.Layers[i]
							want := scaleDur(f.cost.ComputeTime(l, batch), scale)
							got := res.Timings[i].ExecDone.Sub(res.Timings[i].ExecStart)
							if pc.p.Layers[i].Method == plan.DHA && l.HasParams() {
								dha += f.cost.DHABytes(l, batch)
								want += f.cost.DHAFixedOverhead
								if got < want {
									t.Fatalf("%s %s batch %d scale %v warm %v: DHA layer %d ran %v, want at least %v",
										name, pc.p.Mode, batch, scale, warm, i, got, want)
								}
								continue
							}
							if got != want {
								t.Fatalf("%s %s batch %d scale %v warm %v: layer %d ran %v, want %v",
									name, pc.p.Mode, batch, scale, warm, i, got, want)
							}
						}
						if res.BytesDHA != dha {
							t.Fatalf("%s %s batch %d: BytesDHA %v, want %v", name, pc.p.Mode, batch, res.BytesDHA, dha)
						}
					}
				}
			}
		}
		if tmpl := e.templates[f.model]; len(tmpl.costs) != 3 {
			t.Fatalf("%s template holds %d cost tables after three batch sizes", name, len(tmpl.costs))
		}
	}
}
