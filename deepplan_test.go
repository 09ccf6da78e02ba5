package deepplan_test

import (
	"strings"
	"testing"

	"deepplan"
)

func TestModelsZoo(t *testing.T) {
	names := deepplan.Models()
	if len(names) < 8 {
		t.Fatalf("Models() = %d entries, want >= 8", len(names))
	}
	for _, n := range names {
		m, err := deepplan.LoadModel(n)
		if err != nil {
			t.Fatal(err)
		}
		if m.TotalParamBytes() <= 0 {
			t.Fatalf("%s: no parameters", n)
		}
	}
	if _, err := deepplan.LoadModel("vgg16"); err == nil {
		t.Fatal("unknown model accepted")
	}
	order := deepplan.EvaluationModels()
	if len(order) != 8 || order[0].Name != "ResNet-50" {
		t.Fatalf("EvaluationModels order wrong: %v", order[0].Name)
	}
}

func TestModes(t *testing.T) {
	modes := deepplan.Modes()
	if len(modes) != 5 || modes[0] != deepplan.ModeBaseline || modes[4] != deepplan.ModePTDHA {
		t.Fatalf("Modes() = %v", modes)
	}
}

func TestProfilePlanExecuteRoundTrip(t *testing.T) {
	platform := deepplan.NewP38xlarge()
	m, err := deepplan.LoadModel("bert-base")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := platform.Profile(m, deepplan.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var last deepplan.Duration
	for _, mode := range deepplan.Modes() {
		pln, err := platform.Plan(prof, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if err := pln.Validate(m); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		res, err := platform.Execute(m, pln, deepplan.ExecuteOptions{})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Latency() <= 0 {
			t.Fatalf("%s: nonpositive latency", mode)
		}
		// The paper's ordering: every successive mode is at least as fast.
		if last > 0 && res.Latency() > last+last/20 {
			t.Errorf("%s (%v) much slower than previous mode (%v)", mode, res.Latency(), last)
		}
		last = res.Latency()
	}
}

func TestPredictTracksExecute(t *testing.T) {
	platform := deepplan.NewP38xlarge()
	m, _ := deepplan.LoadModel("roberta-base")
	prof, err := platform.Profile(m, deepplan.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := platform.Plan(prof, deepplan.ModePTDHA)
	if err != nil {
		t.Fatal(err)
	}
	predicted, err := platform.PredictLatency(prof, pln)
	if err != nil {
		t.Fatal(err)
	}
	pred := predicted.Seconds()
	res, err := platform.Execute(m, pln, deepplan.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Latency().Seconds()
	if got < pred*0.85 || got > pred*1.2 {
		t.Fatalf("Execute %.3fms far from Predict %.3fms", got*1e3, pred*1e3)
	}
}

// TestPredictLatencyRejectsMismatchedPlan checks that a plan from outside
// the program which does not fit the profile is an error, not a panic.
func TestPredictLatencyRejectsMismatchedPlan(t *testing.T) {
	platform := deepplan.NewP38xlarge()
	plan := func(name string) (*deepplan.Profile, *deepplan.Plan) {
		m, err := deepplan.LoadModel(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := platform.Profile(m, deepplan.ProfileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pln, err := platform.Plan(prof, deepplan.ModePTDHA)
		if err != nil {
			t.Fatal(err)
		}
		return prof, pln
	}
	bert, bertPlan := plan("bert-base")
	_, gptPlan := plan("gpt2")
	bertPlan.NumParts = 1
	for _, c := range []struct {
		name string
		pln  *deepplan.Plan
		want string
	}{
		{"gpt2 plan for bert-base", gptPlan, "124 layer plans for 149-layer profile"},
		{"partition beyond NumParts", bertPlan, "partition 1 out of range [0,1)"},
	} {
		if _, err := platform.PredictLatency(bert, c.pln); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestUnknownModeRejected(t *testing.T) {
	platform := deepplan.NewP38xlarge()
	m, _ := deepplan.LoadModel("resnet50")
	prof, _ := platform.Profile(m, deepplan.ProfileOptions{})
	if _, err := platform.Plan(prof, "warp-drive"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := deepplan.NewPlatform("x", nil, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	p, err := deepplan.NewPlatform("custom", deepplan.NewP38xlarge().Topology, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "custom" || p.Cost() == nil || p.Topology() == nil {
		t.Fatal("custom platform incomplete")
	}
}

func TestPlatformAccessors(t *testing.T) {
	p := deepplan.NewDualA5000()
	if p.Name() != "dual-a5000-pcie4" {
		t.Fatalf("Name = %q", p.Name())
	}
	if p.Topology().NumGPUs() != 2 {
		t.Fatalf("NumGPUs = %d", p.Topology().NumGPUs())
	}
	// Fresh topology per call (no shared simulation state).
	if p.Topology() == p.Topology() {
		t.Fatal("Topology() returned a shared instance")
	}
}

// oneNode builds a one-node cluster, the facade's serving system for the
// paper's single server.
func oneNode(platform *deepplan.Platform, opts deepplan.ClusterOptions) (*deepplan.Cluster, error) {
	opts.Nodes = 1
	return platform.NewCluster(opts)
}

func TestServerFacade(t *testing.T) {
	platform := deepplan.NewP38xlarge()
	c, err := oneNode(platform, deepplan.ClusterOptions{Policy: deepplan.ModeDHA})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := deepplan.LoadModel("bert-base")
	if err := c.Deploy(m, 12); err != nil {
		t.Fatal(err)
	}
	c.Warmup()
	reqs, err := c.Requests(deepplan.PoissonWorkload(1, 40, 200, 12))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 200 || rep.Goodput <= 0 || rep.Policy != deepplan.ModeDHA {
		t.Fatalf("report = %+v", rep)
	}
	// Default policy when empty is PT+DHA; plain PT is not a serving policy.
	c, err = oneNode(platform, deepplan.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(m, 12); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Run(reqs); err != nil || rep.Policy != deepplan.ModePTDHA {
		t.Fatalf("empty policy: report %+v, err %v; want policy %s", rep, err, deepplan.ModePTDHA)
	}
	if _, err := oneNode(platform, deepplan.ClusterOptions{Policy: deepplan.ModePT}); err == nil {
		t.Fatal("plain PT accepted as serving policy")
	}
}

// TestNewClusterRejectsPlatformFields checks that the platform owns the
// topology factory and the cost model: a caller-set one is an error that
// names the field, not silently replaced.
func TestNewClusterRejectsPlatformFields(t *testing.T) {
	platform := deepplan.NewP38xlarge()
	for _, c := range []struct {
		field string
		opts  deepplan.ClusterOptions
	}{
		{"NewTopology", deepplan.ClusterOptions{NewTopology: platform.Topology}},
		{"Cost", deepplan.ClusterOptions{Cost: platform.Cost()}},
	} {
		_, err := oneNode(platform, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s set: err %v, want an error naming %s", c.field, err, c.field)
		}
	}
}

func TestWorkloadFacades(t *testing.T) {
	reqs := deepplan.PoissonWorkload(3, 50, 100, 4)
	if len(reqs) != 100 {
		t.Fatalf("Poisson = %d requests", len(reqs))
	}
	tr, err := deepplan.MAFWorkload(3, 60*1e9, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 {
		t.Fatal("empty MAF workload")
	}
	if _, err := deepplan.MAFWorkload(3, 0, 20, 10); err == nil {
		t.Fatal("invalid MAF spec accepted")
	}
}

func TestLargeModelFacades(t *testing.T) {
	platform := deepplan.NewP38xlarge()
	m, err := deepplan.LoadModel("synthetic-13b")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := platform.Profile(m, deepplan.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(14) << 30

	dhaPlan, err := platform.PlanLargeModel(prof, budget)
	if err != nil {
		t.Fatal(err)
	}
	if dhaPlan.ResidentBytes(m) > budget {
		t.Fatal("PlanLargeModel exceeded the budget")
	}

	strPlan, mask, err := platform.PlanStreaming(prof, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(mask) != m.NumLayers() {
		t.Fatalf("mask length %d", len(mask))
	}
	res, err := platform.Execute(m, strPlan, deepplan.ExecuteOptions{ResidentMask: mask})
	if err != nil {
		t.Fatal(err)
	}
	// Per-inference streaming latency must beat the all-DHA plan clearly.
	dhaRes, err := platform.Execute(m, dhaPlan, deepplan.ExecuteOptions{Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	if float64(dhaRes.Latency()) < 3*float64(res.Latency()) {
		t.Fatalf("streaming %v not clearly faster than all-DHA %v",
			res.Latency(), dhaRes.Latency())
	}
}

func TestPlanJSONThroughFacade(t *testing.T) {
	platform := deepplan.NewP38xlarge()
	m, _ := deepplan.LoadModel("gpt2")
	prof, _ := platform.Profile(m, deepplan.ProfileOptions{})
	pln, _ := platform.Plan(prof, deepplan.ModeDHA)
	b, err := pln.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"mode": "dha"`) {
		t.Fatal("serialized plan missing mode")
	}
}

func TestLLMFacade(t *testing.T) {
	platform := deepplan.NewP38xlarge()
	c, err := oneNode(platform, deepplan.ClusterOptions{
		Policy: deepplan.ModeDHA,
		LLM:    deepplan.LLMOptions{Enabled: true, Batching: deepplan.LLMBatchContinuous},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := deepplan.LoadModel("gpt2")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(m, 4); err != nil {
		t.Fatal(err)
	}
	c.Warmup()
	reqs := deepplan.AssignTokens(deepplan.PoissonWorkload(7, 60, 120, 4), 7, 128, 16)
	for _, r := range reqs {
		if r.PromptTokens < 1 || r.OutputTokens < 1 {
			t.Fatalf("AssignTokens left a request without tokens: %+v", r)
		}
	}
	creqs, err := c.Requests(reqs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(creqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 120 || rep.Shed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.TokensGenerated <= 120 {
		t.Fatalf("decode path not exercised: %d tokens", rep.TokensGenerated)
	}
	// Static batching is the only other accepted discipline.
	if _, err := oneNode(platform, deepplan.ClusterOptions{
		LLM: deepplan.LLMOptions{Enabled: true, Batching: "bogus"},
	}); err == nil {
		t.Fatal("unknown batching discipline accepted")
	}
	// Prefill/decode disaggregation threads through a multi-node cluster
	// too, and the cluster's addressing keeps the token annotations.
	c, err = platform.NewCluster(deepplan.ClusterOptions{
		LLM:   deepplan.LLMOptions{Enabled: true, PrefillDecode: true},
		Nodes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(m, 4); err != nil {
		t.Fatal(err)
	}
	c.Warmup()
	creqs, err = c.Requests(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range creqs {
		r := reqs[i]
		if cr.Model != "GPT-2" || cr.Key != r.Instance || cr.At != r.At ||
			cr.PromptTokens != r.PromptTokens || cr.OutputTokens != r.OutputTokens {
			t.Fatalf("Cluster.Requests mapped %+v to %+v", r, cr)
		}
	}
	crep, err := c.Run(creqs)
	if err != nil {
		t.Fatal(err)
	}
	if crep.TokensGenerated <= crep.Requests || crep.TTFTP99 <= 0 {
		t.Fatalf("cluster LLM report = %+v", crep)
	}
}
