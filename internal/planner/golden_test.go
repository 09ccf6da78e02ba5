package planner

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/plan"
	"deepplan/internal/profiler"
	"deepplan/internal/topology"
)

// update rewrites the plan golden from the current planner:
//
//	go test ./internal/planner -run TestPlanGoldens -update
var update = flag.Bool("update", false, "rewrite testdata/golden/plans.txt from the current planner")

// TestPlanGoldens pins every plan the planner makes for the model zoo: the
// five modes on p3.8xlarge, dual-A5000 and DGX-1, PT+DHA at every partition
// count DGX-1 allows (ablate-parts), the naive per-layer plan (table3) and
// raw Algorithm 1 without pruning. Each line holds the partition count, the
// DHA layer indices, the first layer of each partition after the first,
// and the predicted latency in integer nanoseconds, so any change to a
// planning decision or to the analytic timeline shows up as a diff.
func TestPlanGoldens(t *testing.T) {
	var out bytes.Buffer
	for _, build := range []func() *topology.Topology{topology.P38xlarge, topology.DualA5000PCIe4, topology.DGX1} {
		topo := build()
		pl := New(topo)
		raw := New(topo)
		raw.MinDHAGain = 0
		for _, name := range dnn.ModelNames() {
			m, err := dnn.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := profiler.Run(m, costmodel.Default(), topo, profiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			emit := func(label string, p *plan.Plan) {
				fmt.Fprintf(&out, "%s %s %s %s\n", topo.Name, name, label, describe(t, pl, prof, p))
			}
			for _, mode := range []plan.Mode{plan.ModeBaseline, plan.ModePipeSwitch, plan.ModeDHA, plan.ModePT, plan.ModePTDHA} {
				p, err := pl.Plan(prof, mode)
				if err != nil {
					t.Fatal(err)
				}
				emit(string(mode), p)
			}
			if topo.Name == topology.DGX1().Name {
				for parts := 2; parts <= pl.MaxPartitions(); parts++ {
					emit(fmt.Sprintf("pt+dha/%d", parts), pl.PlanPTDHA(prof, parts))
				}
			}
			emit("initial-dha", pl.PlanInitialDHA(prof))
			emit("raw-dha", raw.PlanDHA(prof))
			emit("raw-pt+dha", raw.PlanPTDHA(prof, raw.MaxPartitions()))
		}
	}
	checkGolden(t, "plans.txt", out.Bytes())
}

// describe renders one plan as a golden line: partition count, DHA layer
// indices, partition boundaries and the predicted latency in nanoseconds.
func describe(t *testing.T, pl *Planner, prof *profiler.Profile, p *plan.Plan) string {
	var dha, bounds []int
	for i := range p.Layers {
		if p.Layers[i].Method == plan.DHA {
			dha = append(dha, i)
		}
		if i > 0 && p.Layers[i].Partition != p.Layers[i-1].Partition {
			bounds = append(bounds, i)
		}
	}
	return fmt.Sprintf("parts=%d dha=%v bounds=%v predict=%d", p.NumParts, dha, bounds, int64(predict(t, pl, prof, p)))
}

// checkGolden compares got with testdata/golden/<name>, or rewrites the
// golden under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			t.Fatalf("output differs from %s at line %d (regenerate with -update only for a deliberate change)\n--- golden ---\n%s\n--- got ---\n%s",
				path, i+1, wl, gl)
		}
	}
}
