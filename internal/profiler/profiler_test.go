package profiler

import (
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
)

func run(t *testing.T, name string, opts Options) *Profile {
	t.Helper()
	m, err := dnn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(m, costmodel.Default(), topology.P38xlarge(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileShape(t *testing.T) {
	m, _ := dnn.ByName("bert-base")
	p := run(t, "bert-base", Options{})
	if len(p.Layers) != m.NumLayers() {
		t.Fatalf("profile has %d rows for %d layers", len(p.Layers), m.NumLayers())
	}
	if p.Batch != 1 || p.Cost.Iterations != 10 {
		t.Fatalf("defaults not applied: batch=%d iters=%d", p.Batch, p.Cost.Iterations)
	}
	for i := range p.Layers {
		lp := &p.Layers[i]
		if lp.Index != i {
			t.Fatalf("row %d has index %d", i, lp.Index)
		}
		if lp.ExecInMem <= 0 {
			t.Fatalf("row %s: nonpositive ExecInMem", lp.Name)
		}
		if lp.ParamBytes > 0 && lp.LoadTime <= 0 {
			t.Fatalf("row %s: loadable layer with zero LoadTime", lp.Name)
		}
		if lp.ParamBytes == 0 {
			if lp.LoadTime != 0 {
				t.Fatalf("row %s: paramless layer with load time", lp.Name)
			}
			if lp.ExecDHA != lp.ExecInMem {
				t.Fatalf("row %s: paramless ExecDHA != ExecInMem", lp.Name)
			}
		}
	}
}

func TestProfileTotalsMatchAnchors(t *testing.T) {
	p := run(t, "bert-base", Options{})
	if ms := p.TotalExecInMem().Seconds() * 1e3; ms < 8.4 || ms > 10.3 {
		t.Errorf("warm exec total = %0.2f ms, want ~9.35", ms)
	}
	if ms := p.TotalLoad().Seconds() * 1e3; ms < 38 || ms > 43 {
		t.Errorf("load total = %0.2f ms, want ~40", ms)
	}
	m, _ := dnn.ByName("bert-base")
	if p.TotalParamBytes() != m.TotalParamBytes() {
		t.Error("param byte totals disagree with the model")
	}
}

// execAnchors pin warm (in-GPU-memory) inference latency to the paper's
// measurements / consistent ranges. BERT-Base's 9.35 ms is quoted directly
// in §1 of the paper.
var execAnchors = []struct {
	name      string
	wantMs    float64
	tolerance float64 // relative
}{
	{"bert-base", 9.35, 0.10},
	{"resnet50", 7.5, 0.20},
	{"resnet101", 14, 0.25},
	{"bert-large", 26, 0.30},
	{"roberta-base", 9.6, 0.15},
	{"roberta-large", 26, 0.30},
	{"gpt2", 33, 0.20},
	{"gpt2-medium", 85, 0.30},
}

func TestWarmExecutionAnchors(t *testing.T) {
	for _, a := range execAnchors {
		gotMs := run(t, a.name, Options{}).TotalExecInMem().Seconds() * 1e3
		lo, hi := a.wantMs*(1-a.tolerance), a.wantMs*(1+a.tolerance)
		if gotMs < lo || gotMs > hi {
			t.Errorf("%s warm exec = %0.2f ms, want %0.2f ± %0.0f%%",
				a.name, gotMs, a.wantMs, a.tolerance*100)
		}
	}
}

// Effective average PCIe bandwidth emerges from bytes / serial load time;
// Table 2's serial column reports 9.10 (ResNet-50) through 11.52 (GPT-2
// Medium) GB/s — small layers drag the average down via per-copy overhead.
func TestEffectiveBandwidthShape(t *testing.T) {
	bw := func(name string) float64 {
		p := run(t, name, Options{})
		return float64(p.TotalParamBytes()) / p.TotalLoad().Seconds() / 1e9
	}
	resnet := bw("resnet50")
	bert := bw("bert-base")
	gptm := bw("gpt2-medium")
	if !(resnet < bert && bert < gptm) {
		t.Errorf("bandwidth ordering resnet(%0.2f) < bert(%0.2f) < gpt2-medium(%0.2f) violated",
			resnet, bert, gptm)
	}
	if resnet < 8.3 || resnet > 10.0 {
		t.Errorf("ResNet-50 effective bw = %0.2f GB/s, want ~9.1", resnet)
	}
	if bert < 10.3 || bert > 11.5 {
		t.Errorf("BERT-Base effective bw = %0.2f GB/s, want ~10.9", bert)
	}
	if gptm < 10.9 || gptm > 11.7 {
		t.Errorf("GPT-2 Medium effective bw = %0.2f GB/s, want ~11.5", gptm)
	}
}

func TestPerfDiffSigns(t *testing.T) {
	p := run(t, "bert-base", Options{})
	for i := range p.Layers {
		lp := &p.Layers[i]
		switch lp.Kind {
		case dnn.Linear:
			if lp.ParamBytes > 0 && lp.PerfDiff() <= 0 {
				t.Errorf("%s: FC PerfDiff should be positive", lp.Name)
			}
		case dnn.Embedding:
			// Even large embeddings pay a small positive PerfDiff (PCIe
			// gather beats nothing); the win comes from eliminating load.
			if lp.PerfDiff() > 2*sim.Millisecond {
				t.Errorf("%s: embedding PerfDiff %v implausibly large", lp.Name, lp.PerfDiff())
			}
		}
	}
}

// Each measurement is a single cost-model evaluation: the model is
// noise-free, so an average over repeated measurements is that one value.
// Cost still charges Table 5's ten iterations per measurement, each paying
// the measured value plus the harness overhead.
func TestMeasurementsAreSingleCostModelEvaluations(t *testing.T) {
	cm := costmodel.Default()
	topo := topology.P38xlarge()
	bw, copyOverhead := topo.LaneBandwidth(), sim.Duration(topo.PerCopyOverheadNanos)
	for _, m := range dnn.EvaluationOrder() {
		for _, batch := range []int{1, 4} {
			p, err := Run(m, cm, topo, Options{Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			want := Cost{Iterations: 10}
			for i := range m.Layers {
				l, lp := &m.Layers[i], &p.Layers[i]
				inMem := cm.ComputeTime(l, batch)
				load, dha := sim.Duration(0), inMem
				if l.HasParams() {
					load = cm.LoadTime(l, bw, copyOverhead)
					dha = cm.DHAExecNominal(l, batch, bw)
					want.DHA += 10 * (dha + 2*sim.Millisecond)
					want.Load += 10 * (load + 2*sim.Millisecond)
				}
				want.InMem += 10 * (inMem + 300*sim.Microsecond)
				if lp.ExecInMem != inMem || lp.LoadTime != load || lp.ExecDHA != dha {
					t.Fatalf("%s batch %d layer %s: measured (%v, %v, %v), cost model (%v, %v, %v)",
						m.Name, batch, lp.Name, lp.ExecInMem, lp.LoadTime, lp.ExecDHA, inMem, load, dha)
				}
			}
			if p.Cost != want {
				t.Fatalf("%s batch %d: Cost = %+v, want %+v", m.Name, batch, p.Cost, want)
			}
		}
	}
}

// Table 5: profiling cost ordering and magnitude. The paper reports
// BERT-Base 12.40 s total, ResNet-50 3.92 s, RoBERTa-Large 75.87 s,
// GPT-2 Medium 40.81 s with 10 iterations — DHA profiling dominates, and
// bigger models cost more.
func TestProfilingCostShape(t *testing.T) {
	resnet := run(t, "resnet50", Options{})
	bert := run(t, "bert-base", Options{})
	robertaL := run(t, "roberta-large", Options{})
	for _, p := range []*Profile{resnet, bert, robertaL} {
		if p.Cost.DHA <= p.Cost.InMem {
			t.Errorf("%s: DHA profiling (%v) should dominate in-mem (%v)",
				p.ModelName, p.Cost.DHA, p.Cost.InMem)
		}
		if p.Cost.Total() != p.Cost.DHA+p.Cost.InMem+p.Cost.Load {
			t.Errorf("%s: Total() inconsistent", p.ModelName)
		}
	}
	if !(resnet.Cost.Total() < bert.Cost.Total() && bert.Cost.Total() < robertaL.Cost.Total()) {
		t.Errorf("profiling cost ordering violated: %v < %v < %v",
			resnet.Cost.Total(), bert.Cost.Total(), robertaL.Cost.Total())
	}
	// Magnitudes: seconds, not milliseconds or hours.
	if s := bert.Cost.Total().Seconds(); s < 2 || s > 30 {
		t.Errorf("BERT-Base profiling cost = %0.1f s, want O(10 s)", s)
	}
}

func TestBatchOption(t *testing.T) {
	b1 := run(t, "bert-base", Options{Batch: 1})
	b8 := run(t, "bert-base", Options{Batch: 8})
	t1, t8 := b1.TotalExecInMem(), b8.TotalExecInMem()
	if t8 <= t1 {
		t.Fatal("batch 8 profile not slower than batch 1")
	}
	// Sub-linear latency growth per item: fixed overheads amortize.
	if float64(t8) >= 8*float64(t1) {
		t.Errorf("batch 8 exec %v >= 8x batch 1 %v: no amortization", t8, t1)
	}
	if b8.Batch != 8 {
		t.Fatalf("Batch = %d", b8.Batch)
	}
}

func TestNilInputs(t *testing.T) {
	m, _ := dnn.ByName("bert-base")
	if _, err := Run(nil, costmodel.Default(), topology.P38xlarge(), Options{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := Run(m, nil, topology.P38xlarge(), Options{}); err == nil {
		t.Fatal("nil cost model accepted")
	}
	if _, err := Run(m, costmodel.Default(), nil, Options{}); err == nil {
		t.Fatal("nil topology accepted")
	}
}
