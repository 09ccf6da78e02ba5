package planner

import (
	"fmt"
	"strings"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/plan"
	"deepplan/internal/profiler"
	"deepplan/internal/sim"
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

// predict is Predict for a plan the test built to match prof.
func predict(t *testing.T, pl *Planner, prof *profiler.Profile, p *plan.Plan) sim.Duration {
	t.Helper()
	d, err := pl.Predict(prof, p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// recurrence runs the analytic timeline on p and returns its per-layer
// stalls and total.
func recurrence(pl *Planner, prof *profiler.Profile, p *plan.Plan) ([]sim.Duration, sim.Duration) {
	methods := make([]plan.Method, len(p.Layers))
	parts := make([]int, len(p.Layers))
	for i := range p.Layers {
		methods[i], parts[i] = p.Layers[i].Method, p.Layers[i].Partition
	}
	stall := make([]sim.Duration, len(p.Layers))
	total := timeline(prof, methods, parts, make([]sim.Duration, 2*p.NumParts), pl.params(), stall)
	return stall, total
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
		ps := predict(t, pl, prof, pl.PlanPipeSwitch(prof))
		dha := predict(t, pl, prof, pl.PlanDHA(prof))
		if dha > ps {
			t.Errorf("%s: DHA plan (%v) slower than PipeSwitch (%v)", name, dha, ps)
		}
	}
}

func TestPipelinedNeverSlowerThanBaseline(t *testing.T) {
	pl := New(topology.P38xlarge())
	for _, name := range dnn.ModelNames() {
		_, prof := profile(t, name)
		base := predict(t, pl, prof, pl.PlanBaseline(prof))
		ps := predict(t, pl, prof, pl.PlanPipeSwitch(prof))
		if ps > base {
			t.Errorf("%s: PipeSwitch (%v) slower than baseline (%v)", name, ps, base)
		}
	}
}

func TestPTDHAFastestForTransferBoundModels(t *testing.T) {
	pl := New(topology.P38xlarge())
	for _, name := range []string{"bert-base", "bert-large", "roberta-base", "roberta-large"} {
		_, prof := profile(t, name)
		ps := predict(t, pl, prof, pl.PlanPipeSwitch(prof))
		dha := predict(t, pl, prof, pl.PlanDHA(prof))
		ptdha := predict(t, pl, prof, pl.PlanPTDHA(prof, 2))
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
	ps := predict(t, pl, bert, pl.PlanPipeSwitch(bert))
	ptdha := predict(t, pl, bert, pl.PlanPTDHA(bert, 2))
	sp := float64(ps) / float64(ptdha)
	if sp < 1.94*0.85 || sp > 1.94*1.15 {
		t.Errorf("BERT-Base PT+DHA speedup = %0.2fx, want ~1.94x", sp)
	}

	_, rob := profile(t, "roberta-base")
	ps = predict(t, pl, rob, pl.PlanPipeSwitch(rob))
	ptdha = predict(t, pl, rob, pl.PlanPTDHA(rob, 2))
	sp = float64(ps) / float64(ptdha)
	if sp < 2.21*0.8 || sp > 2.21*1.15 {
		t.Errorf("RoBERTa-Base PT+DHA speedup = %0.2fx, want ~2.21x", sp)
	}

	_, gpt := profile(t, "gpt2")
	ps = predict(t, pl, gpt, pl.PlanPipeSwitch(gpt))
	pt := predict(t, pl, gpt, pl.PlanPT(gpt, 2))
	if float64(ps)/float64(pt) > 1.15 {
		t.Errorf("GPT-2 PT speedup = %0.2fx, paper shows none", float64(ps)/float64(pt))
	}
}

// Figure 2: stall share of pipelined cold inference is 73-75% for
// BERT/RoBERTa and 27-37% for ResNet/GPT. PipeSwitch loads every layer, so
// its execution is the in-memory sum and the rest of the latency is stall.
func TestStallDecompositionAnchors(t *testing.T) {
	pl := New(topology.P38xlarge())
	check := func(name string, lo, hi float64) {
		_, prof := profile(t, name)
		total := predict(t, pl, prof, pl.PlanPipeSwitch(prof))
		share := (total - prof.TotalExecInMem()).Seconds() / total.Seconds()
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
	got := predict(t, pl, prof, pl.PlanBaseline(prof))
	if want := prof.TotalLoad() + prof.TotalExecInMem(); got != want {
		t.Fatalf("baseline total = %v, want load+exec = %v", got, want)
	}
}

// TestTimelineInvariants checks the recurrence directly: no stall is
// negative, the total is every layer's execution plus every stall, and
// Predict returns the recurrence's total.
func TestTimelineInvariants(t *testing.T) {
	pl := New(topology.P38xlarge())
	for _, name := range []string{"bert-base", "resnet50", "gpt2"} {
		_, prof := profile(t, name)
		for _, p := range []*plan.Plan{
			pl.PlanPipeSwitch(prof), pl.PlanDHA(prof), pl.PlanPTDHA(prof, 2),
		} {
			stall, total := recurrence(pl, prof, p)
			var sum sim.Duration
			for i := range stall {
				if stall[i] < 0 {
					t.Fatalf("%s/%s: negative stall at %d", name, p.Mode, i)
				}
				lp := &prof.Layers[i]
				exec := lp.ExecInMem
				if p.Layers[i].Method == plan.DHA && lp.ParamBytes > 0 {
					exec = lp.ExecDHA
				}
				sum += exec + stall[i]
			}
			if total != sum {
				t.Fatalf("%s/%s: total %v != execution plus stalls %v", name, p.Mode, total, sum)
			}
			if got := predict(t, pl, prof, p); got != total {
				t.Fatalf("%s/%s: Predict %v != recurrence total %v", name, p.Mode, got, total)
			}
		}
	}
}

// TestPredictRejectsMismatchedPlan checks that a plan which does not fit
// the profile is an error naming the mismatch, not an index panic.
func TestPredictRejectsMismatchedPlan(t *testing.T) {
	pl := New(topology.P38xlarge())
	_, bert := profile(t, "bert-base")
	_, gpt := profile(t, "gpt2")
	onePart := pl.PlanPTDHA(bert, 2)
	onePart.NumParts = 1
	for _, c := range []struct {
		name string
		p    *plan.Plan
		want string
	}{
		{"layer count", pl.PlanPTDHA(gpt, 2), "124 layer plans for 149-layer profile"},
		{"partition", onePart, `layer "encoder.4.intermediate.act" partition 1 out of range [0,1)`},
	} {
		if _, err := pl.Predict(bert, c.p); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// A partition count beyond the layers' is valid and costs nothing.
	p := pl.PlanPTDHA(bert, 2)
	want := predict(t, pl, bert, p)
	p.NumParts = 1 << 40
	if got := predict(t, pl, bert, p); got != want {
		t.Errorf("NumParts 1<<40: Predict %v, want %v", got, want)
	}
}

// TestPlanAllocationsBounded pins the planner's allocation budget: the
// analytic timeline allocates nothing, so a plan costs only its output and
// Algorithm 1's few reused buffers.
func TestPlanAllocationsBounded(t *testing.T) {
	pl := New(topology.P38xlarge())
	_, prof := profile(t, "bert-base")
	for _, c := range []struct {
		mode plan.Mode
		max  float64
	}{
		{plan.ModeDHA, 15},
		{plan.ModePTDHA, 30},
	} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := pl.Plan(prof, c.mode); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: Plan made %.0f allocations, want at most %.0f", c.mode, got, c.max)
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
