package planner

import (
	"slices"
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/plan"
	"deepplan/internal/topology"
)

func TestPlanLargeModelFitsBudget(t *testing.T) {
	pl := New(topology.P38xlarge())
	m, prof := profile(t, "synthetic-13b")
	if m.TotalParamBytes() <= 16<<30 {
		t.Fatal("test model unexpectedly fits a V100")
	}
	budget := int64(14) << 30 // 16 GiB minus workspace headroom
	p, err := pl.PlanLargeModel(prof, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(m); err != nil {
		t.Fatal(err)
	}
	if got := p.ResidentBytes(m); got > budget {
		t.Fatalf("resident %d exceeds budget %d", got, budget)
	}
	if p.CountDHA() == 0 {
		t.Fatal("large-model plan converted nothing")
	}
	// The plan must remain executable end to end.
	if predict(t, pl, prof, p) <= 0 {
		t.Fatal("nonpositive predicted latency")
	}
}

func TestPlanLargeModelPrefersCheapLayers(t *testing.T) {
	pl := New(topology.P38xlarge())
	m, prof := profile(t, "synthetic-13b")
	budget := m.TotalParamBytes() * 9 / 10 // evict only ~10%
	p, err := pl.PlanLargeModel(prof, budget)
	if err != nil {
		t.Fatal(err)
	}
	// With slack to spare, the embeddings (cheapest penalty per byte) go
	// host-resident before any FFN weight does.
	for i := range m.Layers {
		l := &m.Layers[i]
		if l.Kind == dnn.Embedding && l.ParamBytes > 100<<20 {
			if p.Layers[i].Method != plan.DHA {
				t.Errorf("large embedding %s not host-resident", l.Name)
			}
		}
	}
	// Count of DHA FC layers should be minimal at a 90% budget.
	fcDHA := 0
	for i := range m.Layers {
		if m.Layers[i].Kind == dnn.Linear && p.Layers[i].Method == plan.DHA {
			fcDHA++
		}
	}
	if fcDHA > m.NumLoadable()/4 {
		t.Errorf("%d FC layers forced to DHA at a 90%% budget", fcDHA)
	}
}

func TestPlanLargeModelSmallBudgetStillWorks(t *testing.T) {
	pl := New(topology.P38xlarge())
	m, prof := profile(t, "bert-base")
	// Force almost everything host-resident.
	p, err := pl.PlanLargeModel(prof, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ResidentBytes(m); got > 32<<20 {
		t.Fatalf("resident %d exceeds tiny budget", got)
	}
	// Zero budget: fully host-resident.
	p0, err := pl.PlanLargeModel(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p0.ResidentBytes(m) != 0 {
		t.Fatal("zero budget left resident bytes")
	}
	if _, err := pl.PlanLargeModel(prof, -1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestPlanLargeModelNoOpWhenFits(t *testing.T) {
	pl := New(topology.P38xlarge())
	m, prof := profile(t, "bert-base")
	p, err := pl.PlanLargeModel(prof, m.TotalParamBytes())
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is *forced*, but Algorithm 1 still applies (embeddings DHA).
	if p.CountDHA() == 0 {
		t.Fatal("expected Algorithm 1 conversions")
	}
	dha := pl.PlanDHA(prof)
	if p.CountDHA() != dha.CountDHA() {
		t.Errorf("unconstrained large-model plan (%d DHA) differs from PlanDHA (%d)",
			p.CountDHA(), dha.CountDHA())
	}
}

// TestResidentSuffix checks the streaming residency rule on a plan with
// both methods: only parameterized Load layers are marked, the marked bytes
// fit the budget, and every eligible layer left unmarked would have
// overflowed the budget at its turn in the back-to-front fill.
func TestResidentSuffix(t *testing.T) {
	pl := New(topology.P38xlarge())
	m, prof := profile(t, "bert-base")
	p := pl.PlanPTDHA(prof, 2)
	if p.CountDHA() == 0 {
		t.Fatal("PT+DHA plan has no DHA layers to exclude")
	}
	budget := m.TotalParamBytes() / 3
	mask := ResidentSuffix(prof, p, budget)
	if len(mask) != len(prof.Layers) {
		t.Fatalf("mask has %d entries for %d layers", len(mask), len(prof.Layers))
	}
	var used int64
	marked, skipped := 0, 0
	for i := len(mask) - 1; i >= 0; i-- {
		b := prof.Layers[i].ParamBytes
		eligible := p.Layers[i].Method == plan.Load && b > 0
		switch {
		case mask[i] && !eligible:
			t.Fatalf("layer %d (%s, %d bytes) marked resident", i, p.Layers[i].Method, b)
		case mask[i]:
			used += b
			marked++
		case eligible:
			if used+b <= budget {
				t.Fatalf("layer %d (%d bytes) left unmarked with %d of %d bytes used",
					i, b, used, budget)
			}
			skipped++
		}
	}
	if used > budget {
		t.Fatalf("marked %d bytes over budget %d", used, budget)
	}
	if marked == 0 || skipped == 0 {
		t.Fatalf("budget %d marked %d and skipped %d layers; want both", budget, marked, skipped)
	}

	sp, smask, err := pl.PlanStreaming(prof, budget)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Mode != "streaming" {
		t.Fatalf("PlanStreaming mode = %q", sp.Mode)
	}
	want := ResidentSuffix(prof, pl.PlanDHA(prof), budget)
	if !slices.Equal(smask, want) {
		t.Fatal("PlanStreaming's mask differs from ResidentSuffix over PlanDHA")
	}
}
