package serving

import (
	"math"
	"strings"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/plan"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/workload"
)

func newServer(t *testing.T, policy Policy) *Server {
	t.Helper()
	srv, err := New(Config{
		Topo:   topology.P38xlarge(),
		Cost:   costmodel.Default(),
		Policy: policy,
		SLO:    100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func deployBERT(t *testing.T, srv *Server, n int) {
	t.Helper()
	m, err := dnn.ByName("bert-base")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Deploy(m, n); err != nil {
		t.Fatal(err)
	}
}

// TestDeployRejectsModelNoGPUHolds checks that a model whose per-instance
// footprint exceeds every GPU's usable memory is refused at deploy, naming
// the model, rather than deployed with requests that can never be placed.
func TestDeployRejectsModelNoGPUHolds(t *testing.T) {
	big, err := dnn.ByName("synthetic-13b")
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{PolicyBaseline, PolicyPipeSwitch, PolicyDHA, PolicyPTDHA} {
		srv := newServer(t, policy)
		err := srv.Deploy(big, 1)
		if err == nil || !strings.Contains(err.Error(), big.Name) || !strings.Contains(err.Error(), "usable") {
			t.Errorf("%s: Deploy(%s) = %v, want an error naming the model and the usable memory", policy, big.Name, err)
		}
		deployBERT(t, srv, 1)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	for _, c := range []struct {
		policy Policy
		want   string
	}{
		{"teleport", `unknown policy "teleport"`},
		{plan.ModePT, "plain PT is a planning mode"},
	} {
		_, err := New(Config{Topo: topology.P38xlarge(), Cost: costmodel.Default(), Policy: c.policy})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("policy %q: got %v, want an error containing %q", c.policy, err, c.want)
		}
	}
	small := topology.P38xlarge()
	for _, g := range small.GPUs {
		g.MemoryBytes = reservePerGPU // nothing left after the reserve
	}
	if _, err := New(Config{Topo: small, Cost: costmodel.Default(),
		Policy: PolicyDHA}); err == nil {
		t.Error("reserve as large as the GPU accepted")
	}
}

// Zero selects a field's default; a negative or non-finite value is an
// error that names the field.
func TestNegativeConfigRejected(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"SLO", func(c *Config) { c.SLO = -5 * sim.Millisecond }},
		{"HostMemory", func(c *Config) { c.HostMemory = -1 }},
		{"HostFetchBandwidth", func(c *Config) { c.HostFetchBandwidth = -1e9 }},
		{"HostFetchBandwidth", func(c *Config) { c.HostFetchBandwidth = math.NaN() }},
		{"HostFetchBandwidth", func(c *Config) { c.HostFetchBandwidth = math.Inf(1) }},
		{"AdmitFactor", func(c *Config) { c.AdmitFactor = -1 }},
		{"AdmitFactor", func(c *Config) { c.AdmitFactor = math.NaN() }},
		{"AdmitFactor", func(c *Config) { c.AdmitFactor = math.Inf(1) }},
		{"MaxBatch", func(c *Config) { c.MaxBatch = -2 }},
		{"LLM.TokenBudget", func(c *Config) { c.LLM = LLMConfig{Enabled: true, TokenBudget: -8} }},
		{"LLM.MaxOutput", func(c *Config) { c.LLM = LLMConfig{Enabled: true, MaxOutput: -1} }},
	} {
		cfg := Config{Topo: topology.P38xlarge(), Cost: costmodel.Default(), Policy: PolicyDHA}
		tc.set(&cfg)
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field+" ") {
			t.Errorf("bad %s: got %v, want an error naming the field", tc.field, err)
		}
	}
	srv, err := New(Config{Topo: topology.P38xlarge(), Cost: costmodel.Default(), Policy: PolicyDHA})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.SLO != 100*sim.Millisecond ||
		srv.cfg.HostMemory != 244e9 || srv.cfg.HostFetchBandwidth != 10e9 {
		t.Fatalf("zero fields did not take their defaults: %+v", srv.cfg)
	}
}

// A request at a negative instant (an overflowed arrival time) is refused
// with an error naming it, instead of panicking in the scheduler.
func TestRunRejectsNegativeArrival(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 2)
	_, err := srv.Run([]workload.Request{{At: 0, Instance: 0}, {At: math.MinInt64, Instance: 1}})
	if err == nil || !strings.Contains(err.Error(), "request 1 ") {
		t.Fatalf("got %v, want an error naming request 1", err)
	}
}

func TestDeployValidation(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	m, _ := dnn.ByName("bert-base")
	if err := srv.Deploy(m, 0); err == nil {
		t.Error("zero instances accepted")
	}
	if err := srv.Deploy(m, 3); err != nil {
		t.Fatal(err)
	}
	if srv.NumInstances() != 3 {
		t.Fatalf("NumInstances = %d", srv.NumInstances())
	}
	// Second deploy of the same model reuses the deployment.
	if err := srv.Deploy(m, 2); err != nil {
		t.Fatal(err)
	}
	if srv.NumInstances() != 5 {
		t.Fatalf("NumInstances = %d", srv.NumInstances())
	}
}

func TestWarmRequestsStayFast(t *testing.T) {
	srv := newServer(t, PolicyPipeSwitch)
	deployBERT(t, srv, 20)
	if got := srv.Warmup(); got != 20 {
		t.Fatalf("Warmup = %d, want 20", got)
	}
	reqs := workload.Poisson(1, 50, 500, 20)
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdStarts != 0 {
		t.Fatalf("cold starts = %d, want 0 (everything warm)", rep.ColdStarts)
	}
	if rep.Goodput != 1 {
		t.Fatalf("goodput = %v, want 1", rep.Goodput)
	}
	// Warm BERT-Base inference ~9.35 ms; p50 must sit near it.
	if ms := rep.P50.Seconds() * 1e3; ms < 8 || ms > 25 {
		t.Fatalf("warm p50 = %0.1f ms", ms)
	}
	if rep.Requests != 500 {
		t.Fatalf("Requests = %d", rep.Requests)
	}
}

func TestColdStartsAppearBeyondCapacity(t *testing.T) {
	srv := newServer(t, PolicyPipeSwitch)
	deployBERT(t, srv, 140)
	cap := srv.WarmCapacity()
	if cap >= 140 {
		t.Fatalf("warm capacity %d should be below 140", cap)
	}
	// The paper's capacity anchor: ~100 BERT-Base instances for PipeSwitch
	// on 4x16 GB.
	if cap < 88 || cap > 110 {
		t.Errorf("PipeSwitch warm capacity = %d, want ~96-100", cap)
	}
	srv.Warmup()
	rep, err := srv.Run(workload.Poisson(2, 100, 1000, 140))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdStarts == 0 {
		t.Fatal("no cold starts despite over-capacity deployment")
	}
	if rep.Evictions == 0 {
		t.Fatal("no evictions despite over-capacity deployment")
	}
	if rep.ColdStarts >= rep.Requests {
		t.Fatalf("%d cold starts for %d requests", rep.ColdStarts, rep.Requests)
	}
}

func TestDeepPlanPacksMoreInstances(t *testing.T) {
	ps := newServer(t, PolicyPipeSwitch)
	deployBERT(t, ps, 160)
	dha := newServer(t, PolicyDHA)
	deployBERT(t, dha, 160)
	if dha.WarmCapacity() <= ps.WarmCapacity() {
		t.Fatalf("DHA capacity %d not above PipeSwitch %d (host-resident embeddings should free GPU memory)",
			dha.WarmCapacity(), ps.WarmCapacity())
	}
	// Paper: 24 extra instances (100 -> 124). Accept 12-32 extra.
	extra := dha.WarmCapacity() - ps.WarmCapacity()
	if extra < 12 || extra > 32 {
		t.Errorf("DHA packs %d extra instances, want ~24", extra)
	}
}

// Figure 13's crossover: at concurrency 160 with 100 rps, PipeSwitch
// violates the 100 ms SLO while PT+DHA still meets it.
func TestFigure13Crossover(t *testing.T) {
	run := func(policy Policy, conc int) *Report {
		srv := newServer(t, policy)
		deployBERT(t, srv, conc)
		srv.Warmup()
		rep, err := srv.Run(workload.Poisson(42, 100, 1000, conc))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ps := run(PolicyPipeSwitch, 160)
	ptdha := run(PolicyPTDHA, 160)
	if ps.P99 < 100*sim.Millisecond {
		t.Errorf("PipeSwitch p99 at 160 = %v, expected SLO violation", ps.P99)
	}
	if ptdha.P99 > 100*sim.Millisecond {
		t.Errorf("PT+DHA p99 at 160 = %v, expected within SLO", ptdha.P99)
	}
	if ptdha.Goodput <= ps.Goodput {
		t.Errorf("PT+DHA goodput %v <= PipeSwitch %v", ptdha.Goodput, ps.Goodput)
	}
}

func TestLatenciesIncludeQueueing(t *testing.T) {
	// One instance, burst of simultaneous requests: each waits behind the
	// previous (one inference at a time per GPU).
	srv := newServer(t, PolicyPipeSwitch)
	deployBERT(t, srv, 1)
	srv.Warmup()
	reqs := make([]workload.Request, 5)
	for i := range reqs {
		reqs[i] = workload.Request{At: 0, Instance: 0}
	}
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// 5 back-to-back ~9.35 ms inferences: latencies climb ~10/20/30/40/50 ms,
	// so the median sits near 30 ms and the max near 50 ms.
	if ms := rep.P50.Seconds() * 1e3; ms < 24 || ms > 38 {
		t.Fatalf("queued p50 = %0.1f ms, want ~30", ms)
	}
	if ms := rep.Max.Seconds() * 1e3; ms < 40 || ms > 62 {
		t.Fatalf("queued max = %0.1f ms, want ~50", ms)
	}
}

func TestRunRejectsUnknownInstance(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 2)
	if _, err := srv.Run([]workload.Request{{At: 0, Instance: 7}}); err == nil {
		t.Fatal("unknown instance accepted")
	}
}

func TestInstanceAccessors(t *testing.T) {
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 2)
	in := srv.Instances()[0]
	if in.State() != Cold {
		t.Fatal("fresh instance not cold")
	}
	if in.Model() != "BERT-Base" {
		t.Fatalf("Model = %q", in.Model())
	}
	srv.Warmup()
	if in.State() != Warm {
		t.Fatal("warmed instance not warm")
	}
	if g := in.gpu; g < 0 || g > 3 {
		t.Fatalf("GPU = %d", g)
	}
}

func TestMixedModelDeployment(t *testing.T) {
	// Figure 15's deployment: BERT-Base, RoBERTa-Base, GPT-2 at 4:4:1.
	srv := newServer(t, PolicyPTDHA)
	for _, d := range []struct {
		name string
		n    int
	}{{"bert-base", 16}, {"roberta-base", 16}, {"gpt2", 4}} {
		m, err := dnn.ByName(d.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Deploy(m, d.n); err != nil {
			t.Fatal(err)
		}
	}
	srv.Warmup()
	rep, err := srv.Run(workload.Poisson(3, 60, 800, srv.NumInstances()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 800 {
		t.Fatalf("Requests = %d", rep.Requests)
	}
	if rep.Goodput < 0.95 {
		t.Errorf("under-capacity mixed deployment goodput = %v", rep.Goodput)
	}
}

func TestPerWindowSeries(t *testing.T) {
	srv, err := New(Config{
		Topo: topology.P38xlarge(), Cost: costmodel.Default(),
		Policy: PolicyDHA, SLO: 100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	deployBERT(t, srv, 10)
	srv.Warmup()
	if _, err := srv.Run(workload.Poisson(4, 20, 2000, 10)); err != nil { // ~100 s of load
		t.Fatal(err)
	}
	windows := Windows(srv)
	if len(windows) < 2 {
		t.Fatalf("windows = %d, want at least two 60 s windows", len(windows))
	}
	total := 0
	for _, w := range windows {
		total += w.Requests
	}
	if total != 2000 {
		t.Fatalf("window request sum = %d, want 2000", total)
	}
}

func TestBaselinePolicySlowestColdStarts(t *testing.T) {
	run := func(policy Policy) sim.Duration {
		srv := newServer(t, policy)
		deployBERT(t, srv, 8)
		// No warmup: the first request to each instance is a cold start.
		rep, err := srv.Run(workload.Poisson(5, 20, 100, 8))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Max
	}
	if base, ptdha := run(PolicyBaseline), run(PolicyPTDHA); base <= ptdha {
		t.Errorf("baseline max %v not slower than pt+dha %v", base, ptdha)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Report {
		srv := newServer(t, PolicyPTDHA)
		deployBERT(t, srv, 120)
		srv.Warmup()
		rep, err := srv.Run(workload.Poisson(6, 100, 600, 120))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.P99 != b.P99 || a.ColdStarts != b.ColdStarts || a.Goodput != b.Goodput {
		t.Fatalf("identical runs diverged: %+v vs %+v", a, b)
	}
}

func TestHostMemoryExhaustion(t *testing.T) {
	srv, err := New(Config{
		Topo: topology.P38xlarge(), Cost: costmodel.Default(),
		Policy: PolicyDHA, HostMemory: 1 << 30, // 1 GiB: fits only 2 BERTs
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-base")
	if err := srv.Deploy(m, 10); err == nil {
		t.Fatal("host memory exhaustion not reported")
	}
}
