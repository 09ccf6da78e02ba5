package costmodel

import (
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/sim"
)

const (
	pcie3 = 11.7e9 // lane bandwidth of the p3.8xlarge preset
	copyO = 25 * sim.Microsecond
)

// Table 1 of the paper: PCIe transaction counts for load vs DHA, at 64 B per
// transaction. The DHA gather for a large embedding is ~18.5k events; a
// medium (2.25 MiB) conv is ~66k; a small (2.25 MiB) FC is ~446k.
func TestTable1ReuseTraffic(t *testing.T) {
	p := Default()
	m, _ := dnn.ByName("bert-base")
	var word *dnn.Layer
	for i := range m.Layers {
		if m.Layers[i].Name == "embeddings.word" {
			word = &m.Layers[i]
		}
	}
	// 384 rows x 3072 B = 1.18 MB -> 18432 events (paper: 18,459).
	events := p.DHABytes(word, 1) / 64
	if events < 18000 || events > 19000 {
		t.Errorf("word embedding DHA events = %0.0f, want ~18.4k", events)
	}

	conv := &dnn.Layer{Kind: dnn.Conv2D, ParamBytes: 2359296} // 2.25 MiB
	if ev := p.DHABytes(conv, 1) / 64; ev < 60000 || ev > 72000 {
		t.Errorf("2.25 MiB conv DHA events = %0.0f, want ~66k", ev)
	}
	fc := &dnn.Layer{Kind: dnn.Linear, ParamBytes: 2359296}
	if ev := p.DHABytes(fc, 1) / 64; ev < 420000 || ev > 470000 {
		t.Errorf("2.25 MiB FC DHA events = %0.0f, want ~446k", ev)
	}
}

// §3.1's qualitative findings must hold layer-by-layer:
// embeddings and BatchNorm favour DHA; FC and LayerNorm favour load.
func TestDHAPreferenceByKind(t *testing.T) {
	p := Default()
	m, _ := dnn.ByName("bert-base")
	r, _ := dnn.ByName("resnet50")

	totalDHA := func(l *dnn.Layer) sim.Duration {
		return p.DHAExecNominal(l, 1, pcie3)
	}
	totalLoad := func(l *dnn.Layer) sim.Duration {
		return p.LoadTime(l, pcie3, copyO) + p.ComputeTime(l, 1)
	}

	for i := range m.Layers {
		l := &m.Layers[i]
		switch l.Kind {
		case dnn.Embedding:
			// Large tables favour DHA decisively; tiny tables (token-type:
			// 6 KB) do not, because uncached zero-copy re-reads rows per
			// token — the paper's Table 3b likewise loads small embeddings.
			if float64(l.ParamBytes) > p.DHABytes(l, 1) && totalDHA(l) >= totalLoad(l) {
				t.Errorf("embedding %s: DHA (%v) should beat load+exec (%v)",
					l.Name, totalDHA(l), totalLoad(l))
			}
		case dnn.Linear:
			if l.ParamBytes > 0 && totalDHA(l) <= totalLoad(l) {
				t.Errorf("FC %s: load+exec (%v) should beat DHA (%v)",
					l.Name, totalLoad(l), totalDHA(l))
			}
		case dnn.LayerNorm:
			// LayerNorm *execution* slows under DHA (the paper's point);
			// total time may still favour DHA because the load overhead
			// disappears, which is exactly why Algorithm 1 reasons about
			// stalls rather than naive totals.
			if p.DHAExecNominal(l, 1, pcie3) <= p.ComputeTime(l, 1) {
				t.Errorf("LN %s: DHA exec should exceed in-memory exec", l.Name)
			}
		}
	}
	for i := range r.Layers {
		l := &r.Layers[i]
		if l.Kind == dnn.BatchNorm {
			if totalDHA(l) >= totalLoad(l) {
				t.Errorf("BN %s: DHA should beat load+exec", l.Name)
			}
		}
	}
}

// Figure 5b: small/medium convs are close between the two methods; large
// convs favour load-then-execute clearly.
func TestConvCrossover(t *testing.T) {
	p := Default()
	mk := func(bytes int64, flops float64) *dnn.Layer {
		return &dnn.Layer{Kind: dnn.Conv2D, ParamBytes: bytes, FLOPs: flops}
	}
	// Medium conv: 2.25 MiB.
	med := mk(2359296, 2*2.36e6/4*196) // rough flops
	medDHA := p.DHAExecNominal(med, 1, pcie3)
	medLoad := p.LoadTime(med, pcie3, copyO) + p.ComputeTime(med, 1)
	ratio := float64(medDHA) / float64(medLoad)
	if ratio > 1.6 {
		t.Errorf("medium conv DHA/load ratio = %0.2f, should be close to 1", ratio)
	}
	// Large conv: 9 MiB. Gap should widen.
	big := mk(9437184, 2*9.44e6/4*196)
	bigDHA := p.DHAExecNominal(big, 1, pcie3)
	bigLoad := p.LoadTime(big, pcie3, copyO) + p.ComputeTime(big, 1)
	if float64(bigDHA)/float64(bigLoad) <= ratio {
		t.Error("large conv should favour load more than medium conv")
	}
}

func TestBatchScaling(t *testing.T) {
	// Batch < 1 is clamped. The whole-model batch scaling is checked on
	// the profile's totals (profiler.TestBatchOption).
	p := Default()
	m, _ := dnn.ByName("bert-base")
	if p.ComputeTime(&m.Layers[0], 0) != p.ComputeTime(&m.Layers[0], 1) {
		t.Error("batch 0 not clamped to 1")
	}
	if p.DHABytes(&m.Layers[0], 0) != p.DHABytes(&m.Layers[0], 1) {
		t.Error("DHABytes batch 0 not clamped")
	}
}

func TestParamlessLayersFreeToLoad(t *testing.T) {
	p := Default()
	l := &dnn.Layer{Kind: dnn.Activation, FLOPs: 1e6, ActBytes: 1e6}
	if p.LoadTime(l, pcie3, copyO) != 0 {
		t.Error("paramless layer has nonzero load time")
	}
	if p.DHABytes(l, 1) != 0 {
		t.Error("paramless layer has DHA traffic")
	}
}

func TestWorkspace(t *testing.T) {
	p := Default()
	m, _ := dnn.ByName("bert-base")
	w1 := p.Workspace(m, 1)
	w8 := p.Workspace(m, 8)
	if w1 < p.WorkspaceBase {
		t.Error("workspace below base")
	}
	if w8 <= w1 {
		t.Error("workspace should grow with batch")
	}
	if p.Workspace(m, 0) != w1 {
		t.Error("batch 0 not clamped")
	}
	// Instance-count anchor: BERT-Base params+workspace should allow ~25
	// instances on a 15 GiB usable V100 (paper: 100 instances on 4 GPUs).
	foot := m.TotalParamBytes() + w1
	per := int64(15.5 * (1 << 30) / float64(foot))
	if per < 23 || per > 28 {
		t.Errorf("BERT-Base instances per GPU = %d, want ~25 (footprint %d MB)",
			per, foot/1e6)
	}
}

func TestDHAExecNominalPCIeBound(t *testing.T) {
	p := Default()
	// A huge FC is PCIe-bound under DHA: latency tracks traffic/bandwidth.
	l := &dnn.Layer{Kind: dnn.Linear, ParamBytes: 100e6, FLOPs: 1e6}
	got := p.DHAExecNominal(l, 1, pcie3).Seconds()
	want := p.ReuseLinear * 100e6 / pcie3
	if got < want || got > want*1.1 {
		t.Errorf("PCIe-bound DHA exec = %gs, want ~%gs", got, want)
	}
}

// Default prices every layer kind's launch, and a copied Params owns its
// kernel-overhead table: changing the copy leaves the original alone.
func TestKernelOverheadTable(t *testing.T) {
	p := Default()
	for k := dnn.Kind(0); k < dnn.NumKinds; k++ {
		if p.KernelOverhead[k] <= 0 {
			t.Errorf("%v has kernel overhead %v", k, p.KernelOverhead[k])
		}
	}
	c := *p
	c.KernelOverhead[dnn.Linear] = 0
	if p.KernelOverhead[dnn.Linear] == 0 {
		t.Fatal("a copied Params shares its kernel-overhead table")
	}
}

func TestPCIeReadEvents(t *testing.T) {
	cases := []struct {
		bytes float64
		want  uint64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2},
		{93763584, 1465056}, // BERT-Base word embedding: paper's ~1,465,112
	}
	p := Default()
	for _, c := range cases {
		if got := p.PCIeReadEvents(c.bytes); got != c.want {
			t.Errorf("PCIeReadEvents(%g) = %d, want %d", c.bytes, got, c.want)
		}
	}
}
