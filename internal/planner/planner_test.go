package planner

import (
	"fmt"
	"strings"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/plan"
	"deepplan/internal/profiler"
	"deepplan/internal/topology"
)

func profile(t *testing.T, name string) (*dnn.Model, *profiler.Profile) {
	t.Helper()
	m, err := dnn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.Run(m, costmodel.Default(), topology.P38xlarge(), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func TestPlansValidateForAllModels(t *testing.T) {
	pl := New(topology.P38xlarge())
	for _, name := range dnn.ModelNames() {
		m, prof := profile(t, name)
		for _, p := range []*plan.Plan{
			pl.PlanBaseline(prof),
			pl.PlanPipeSwitch(prof),
			pl.PlanInitialDHA(prof),
			pl.PlanDHA(prof),
			pl.PlanPT(prof, 2),
			pl.PlanPTDHA(prof, 2),
		} {
			if err := p.Validate(m); err != nil {
				t.Errorf("%s/%s: %v", name, p.Mode, err)
			}
		}
	}
}

// TestPlanDispatchesEveryMode checks the one mode → planner-method switch:
// each of the paper's five modes yields a plan tagged with it, the
// parallel-transmission modes at MaxPartitions, and any other mode is an
// error that names it.
func TestPlanDispatchesEveryMode(t *testing.T) {
	pl := New(topology.P38xlarge())
	_, prof := profile(t, "bert-base")
	for _, c := range []struct {
		mode  plan.Mode
		parts int
	}{
		{plan.ModeBaseline, 1},
		{plan.ModePipeSwitch, 1},
		{plan.ModeDHA, 1},
		{plan.ModePT, pl.MaxPartitions()},
		{plan.ModePTDHA, pl.MaxPartitions()},
	} {
		p, err := pl.Plan(prof, c.mode)
		if err != nil {
			t.Fatalf("%s: %v", c.mode, err)
		}
		if p.Mode != c.mode || p.NumParts != c.parts {
			t.Errorf("%s: plan mode %s with %d partitions, want %d", c.mode, p.Mode, p.NumParts, c.parts)
		}
	}
	for _, mode := range []plan.Mode{"warp-drive", "streaming", ""} {
		if _, err := pl.Plan(prof, mode); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", mode)) {
			t.Errorf("mode %q: got %v, want an error naming it", mode, err)
		}
	}
}

func TestPipeSwitchPlanLoadsEverything(t *testing.T) {
	pl := New(topology.P38xlarge())
	_, prof := profile(t, "bert-base")
	p := pl.PlanPipeSwitch(prof)
	if p.CountDHA() != 0 || p.NumParts != 1 {
		t.Fatalf("PipeSwitch plan: dha=%d parts=%d", p.CountDHA(), p.NumParts)
	}
}

func TestDHAPlanSelectsEmbeddings(t *testing.T) {
	pl := New(topology.P38xlarge())
	m, prof := profile(t, "bert-base")
	p := pl.PlanDHA(prof)
	byName := map[string]plan.Method{}
	for i := range p.Layers {
		byName[m.Layers[i].Name] = p.Layers[i].Method
	}
	// The paper's flagship decision: the large word embedding stays in host
	// memory under DHA.
	if byName["embeddings.word"] != plan.DHA {
		t.Error("word embedding not DHA")
	}
	// FC layers must remain load-then-execute (12x reuse penalty, §3.1).
	for i := range m.Layers {
		l := &m.Layers[i]
		if l.Kind == dnn.Linear && l.ParamBytes > 0 && byName[l.Name] == plan.DHA {
			t.Errorf("FC layer %s marked DHA", l.Name)
		}
	}
	if p.CountDHA() == 0 {
		t.Fatal("DHA plan converted nothing")
	}
}

func TestDHAPlanNeverSlowerThanPipeSwitch(t *testing.T) {
	pl := New(topology.P38xlarge())
	for _, name := range dnn.ModelNames() {
		_, prof := profile(t, name)
		ps := pl.Predict(prof, pl.PlanPipeSwitch(prof)).Total
		dha := pl.Predict(prof, pl.PlanDHA(prof)).Total
		if dha > ps {
			t.Errorf("%s: DHA plan (%v) slower than PipeSwitch (%v)", name, dha, ps)
		}
	}
}

func TestPipelinedNeverSlowerThanBaseline(t *testing.T) {
	pl := New(topology.P38xlarge())
	for _, name := range dnn.ModelNames() {
		_, prof := profile(t, name)
		base := pl.Predict(prof, pl.PlanBaseline(prof)).Total
		ps := pl.Predict(prof, pl.PlanPipeSwitch(prof)).Total
		if ps > base {
			t.Errorf("%s: PipeSwitch (%v) slower than baseline (%v)", name, ps, base)
		}
	}
}

func TestPTDHAFastestForTransferBoundModels(t *testing.T) {
	pl := New(topology.P38xlarge())
	for _, name := range []string{"bert-base", "bert-large", "roberta-base", "roberta-large"} {
		_, prof := profile(t, name)
		ps := pl.Predict(prof, pl.PlanPipeSwitch(prof)).Total
		dha := pl.Predict(prof, pl.PlanDHA(prof)).Total
		ptdha := pl.Predict(prof, pl.PlanPTDHA(prof, 2)).Total
		if !(ptdha < dha && dha < ps) {
			t.Errorf("%s: want pt+dha (%v) < dha (%v) < pipeswitch (%v)", name, ptdha, dha, ps)
		}
	}
}

// Figure 11 headline numbers: PT+DHA speedup over PipeSwitch is ~1.94x for
// BERT-Base and ~2.21x for RoBERTa-Base (we accept ±15%); GPT-2's PT alone
// shows no improvement (§5.2 ②).
func TestPaperSpeedupAnchors(t *testing.T) {
	pl := New(topology.P38xlarge())

	_, bert := profile(t, "bert-base")
	ps := pl.Predict(bert, pl.PlanPipeSwitch(bert)).Total
	ptdha := pl.Predict(bert, pl.PlanPTDHA(bert, 2)).Total
	sp := float64(ps) / float64(ptdha)
	if sp < 1.94*0.85 || sp > 1.94*1.15 {
		t.Errorf("BERT-Base PT+DHA speedup = %0.2fx, want ~1.94x", sp)
	}

	_, rob := profile(t, "roberta-base")
	ps = pl.Predict(rob, pl.PlanPipeSwitch(rob)).Total
	ptdha = pl.Predict(rob, pl.PlanPTDHA(rob, 2)).Total
	sp = float64(ps) / float64(ptdha)
	if sp < 2.21*0.8 || sp > 2.21*1.15 {
		t.Errorf("RoBERTa-Base PT+DHA speedup = %0.2fx, want ~2.21x", sp)
	}

	_, gpt := profile(t, "gpt2")
	ps = pl.Predict(gpt, pl.PlanPipeSwitch(gpt)).Total
	pt := pl.Predict(gpt, pl.PlanPT(gpt, 2)).Total
	if float64(ps)/float64(pt) > 1.15 {
		t.Errorf("GPT-2 PT speedup = %0.2fx, paper shows none", float64(ps)/float64(pt))
	}
}

// Figure 2: stall share of pipelined cold inference is 73-75% for
// BERT/RoBERTa and 27-37% for ResNet/GPT.
func TestStallDecompositionAnchors(t *testing.T) {
	pl := New(topology.P38xlarge())
	check := func(name string, lo, hi float64) {
		_, prof := profile(t, name)
		tl := pl.Predict(prof, pl.PlanPipeSwitch(prof))
		share := tl.TotalStall().Seconds() / tl.Total.Seconds()
		if share < lo || share > hi {
			t.Errorf("%s stall share = %0.0f%%, want %0.0f-%0.0f%%",
				name, share*100, lo*100, hi*100)
		}
	}
	check("bert-base", 0.68, 0.82)
	check("roberta-base", 0.68, 0.82)
	check("resnet50", 0.2, 0.45)
	check("gpt2", 0.2, 0.45)
}

func TestPTPartitioningEvenByBytes(t *testing.T) {
	pl := New(topology.P38xlarge())
	m, prof := profile(t, "bert-large")
	p := pl.PlanPT(prof, 2)
	if p.NumParts != 2 {
		t.Fatalf("NumParts = %d", p.NumParts)
	}
	var bytes [2]int64
	for i := range p.Layers {
		bytes[p.Layers[i].Partition] += m.Layers[i].ParamBytes
	}
	total := m.TotalParamBytes()
	for k, b := range bytes {
		frac := float64(b) / float64(total)
		if frac < 0.40 || frac > 0.60 {
			t.Errorf("partition %d holds %0.0f%% of bytes, want ~50%%", k, frac*100)
		}
	}
}

func TestPTClampsToMaxPartitions(t *testing.T) {
	pl := New(topology.P38xlarge()) // 2 switches -> max 2 partitions
	if pl.MaxPartitions() != 2 {
		t.Fatalf("MaxPartitions = %d, want 2", pl.MaxPartitions())
	}
	_, prof := profile(t, "bert-base")
	p := pl.PlanPT(prof, 4)
	if p.NumParts != 2 {
		t.Fatalf("requested 4 partitions, got %d (want clamp to 2)", p.NumParts)
	}
	if q := pl.PlanPT(prof, 0); q.NumParts != 1 {
		t.Fatalf("requested 0 partitions, got %d", q.NumParts)
	}
}

func TestNoNVLinkDisablesPT(t *testing.T) {
	topo, err := topology.New(topology.Spec{
		Name: "nonvlink", GPUName: "g", NumGPUs: 4, GPUMemoryBytes: topology.GiB,
		GPUsPerSwitch: 2, LaneBandwidth: 11e9, UplinkBandwidth: 12e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := New(topo)
	if pl.MaxPartitions() != 1 {
		t.Fatalf("MaxPartitions without NVLink = %d, want 1", pl.MaxPartitions())
	}
}

func TestPTDHARestrictsDHAToFirstPartition(t *testing.T) {
	pl := New(topology.P38xlarge())
	m, prof := profile(t, "roberta-base")
	p := pl.PlanPTDHA(prof, 2)
	for i := range p.Layers {
		if p.Layers[i].Method == plan.DHA && p.Layers[i].Partition != 0 {
			t.Fatalf("DHA outside partition 0 at layer %s", m.Layers[i].Name)
		}
	}
	if p.CountDHA() == 0 {
		t.Fatal("PT+DHA plan has no DHA layers")
	}
}

func TestInitialDHADiffersFromAlgorithm1(t *testing.T) {
	// Table 3's point: naive per-layer choice and the stall-aware plan
	// disagree on at least some layers.
	pl := New(topology.P38xlarge())
	_, prof := profile(t, "resnet101")
	naive := pl.PlanInitialDHA(prof)
	smart := pl.PlanDHA(prof)
	diff := 0
	for i := range naive.Layers {
		if naive.Layers[i].Method != smart.Layers[i].Method {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("initial approach and Algorithm 1 fully agree; pipeline-awareness has no effect")
	}
}

func TestPredictBaselineSemantics(t *testing.T) {
	pl := New(topology.P38xlarge())
	_, prof := profile(t, "bert-base")
	tl := pl.Predict(prof, pl.PlanBaseline(prof))
	wantMin := prof.TotalLoad() + prof.TotalExecInMem()
	if tl.Total != wantMin {
		t.Fatalf("baseline total = %v, want load+exec = %v", tl.Total, wantMin)
	}
	if tl.ExecStart[0] != prof.TotalLoad() {
		t.Fatal("baseline execution started before the full copy finished")
	}
}

func TestTimelineInvariants(t *testing.T) {
	pl := New(topology.P38xlarge())
	for _, name := range []string{"bert-base", "resnet50", "gpt2"} {
		_, prof := profile(t, name)
		for _, p := range []*plan.Plan{
			pl.PlanPipeSwitch(prof), pl.PlanDHA(prof), pl.PlanPTDHA(prof, 2),
		} {
			tl := pl.Predict(prof, p)
			for i := range tl.ExecStart {
				if tl.ExecDone[i] < tl.ExecStart[i] {
					t.Fatalf("%s/%s: layer %d done before start", name, p.Mode, i)
				}
				if i > 0 && tl.ExecStart[i] < tl.ExecDone[i-1] {
					t.Fatalf("%s/%s: layer %d overlaps predecessor", name, p.Mode, i)
				}
				if tl.Stall[i] < 0 {
					t.Fatalf("%s/%s: negative stall at %d", name, p.Mode, i)
				}
			}
			if tl.Total != tl.ExecDone[len(tl.ExecDone)-1] {
				t.Fatalf("%s/%s: total != last ExecDone", name, p.Mode)
			}
		}
	}
}

func TestNilTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil)
}
