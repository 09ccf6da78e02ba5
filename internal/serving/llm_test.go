package serving

import (
	"errors"
	"fmt"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/hostmem"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/workload"
)

// llmServer builds a server in autoregressive mode with n warm gpt2
// instances.
func llmServer(t *testing.T, llm LLMConfig, n int) *Server {
	t.Helper()
	srv, err := New(Config{
		Topo:   topology.P38xlarge(),
		Cost:   costmodel.Default(),
		Policy: PolicyDHA,
		SLO:    100 * sim.Millisecond,
		LLM:    llm,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnn.ByName("gpt2")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Deploy(m, n); err != nil {
		t.Fatal(err)
	}
	if got := srv.Warmup(); got != n {
		t.Fatalf("Warmup = %d, want %d", got, n)
	}
	return srv
}

// llmRequests is a token-annotated Poisson workload.
func llmRequests(seed int64, rate float64, n, instances, promptMean, outputMean int) []workload.Request {
	return workload.WithTokens(workload.Poisson(seed, rate, n, instances), seed, promptMean, outputMean)
}

func TestLLMConfigValidation(t *testing.T) {
	base := Config{Topo: topology.P38xlarge(), Cost: costmodel.Default(), Policy: PolicyDHA}
	cfg := base
	cfg.LLM = LLMConfig{Enabled: true, Batching: "rolling"}
	if _, err := New(cfg); err == nil {
		t.Error("unknown batching mode accepted")
	}
	cfg = base
	cfg.LLM = LLMConfig{PrefillDecode: true}
	if _, err := New(cfg); err == nil {
		t.Error("PrefillDecode without LLM mode accepted")
	}
	cfg = base
	cfg.LLM = LLMConfig{Enabled: true}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.LLM.Batching != LLMBatchContinuous || srv.cfg.LLM.TokenBudget != 8 || srv.cfg.LLM.MaxOutput != 64 {
		t.Fatalf("defaults not applied: %+v", srv.cfg.LLM)
	}
	cfg = base
	cfg.LLM = LLMConfig{Enabled: true, Batching: LLMBatchStatic, TokenBudget: 16, MaxOutput: 32, PrefillDecode: true}
	if srv, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if srv.cfg.LLM != cfg.LLM {
		t.Fatalf("explicit settings not kept: %+v", srv.cfg.LLM)
	}
	// A token budget is not a mode switch: without Enabled, a budget alone
	// leaves single-shot serving on.
	cfg = base
	cfg.LLM = LLMConfig{TokenBudget: 8}
	if srv, err = New(cfg); err != nil || srv.cfg.LLM.Enabled {
		t.Fatalf("budget without LLM mode: %+v, %v", srv.cfg.LLM, err)
	}
}

// A zoo serves single-shot inference: LLM mode is refused before any
// variant deploys.
func TestDeployZooRefusesLLM(t *testing.T) {
	srv, err := New(Config{Topo: topology.P38xlarge(), Cost: costmodel.Default(),
		Policy: PolicyDHA, HostPolicy: hostmem.PolicyLRU, LLM: LLMConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	err = srv.DeployZoo(zooFixture(t, 8))
	if !errors.Is(err, ErrZooLLM) {
		t.Fatalf("zoo deployed in LLM mode: %v", err)
	}
	if srv.NumInstances() != 0 {
		t.Fatalf("refused zoo left %d instances behind", srv.NumInstances())
	}
}

// Vision models have no attention layers, hence no KV state to cache;
// deploying one under -llm must fail loudly rather than decode garbage.
func TestLLMRejectsNonTransformer(t *testing.T) {
	srv, err := New(Config{Topo: topology.P38xlarge(), Cost: costmodel.Default(),
		Policy: PolicyDHA, LLM: LLMConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("resnet50")
	if err := srv.Deploy(m, 1); err == nil {
		t.Error("resnet50 accepted in autoregressive mode")
	}
}

// Every request generates its full token count, KV fully drains at
// quiescence, and the invariant checker stays green.
func TestLLMContinuousGeneratesAllTokens(t *testing.T) {
	srv := llmServer(t, LLMConfig{Enabled: true, MaxOutput: 32}, 8)
	reqs := llmRequests(7, 80, 200, 8, 128, 16)
	wantTokens := 0
	for _, r := range reqs {
		out := r.OutputTokens
		if out > 32 {
			out = 32
		}
		wantTokens += out
	}
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests-rep.Shed != 200 {
		t.Fatalf("Completed = %d, want 200", rep.Requests-rep.Shed)
	}
	if rep.TokensGenerated != wantTokens {
		t.Fatalf("TokensGenerated = %d, want %d", rep.TokensGenerated, wantTokens)
	}
	if rep.DecodeIters == 0 || rep.MeanDecodeBatch < 1 {
		t.Fatalf("decode never ran: iters=%d mean=%v", rep.DecodeIters, rep.MeanDecodeBatch)
	}
	if rep.TTFTP99 <= 0 || rep.TTFTP99 >= rep.P99 {
		t.Fatalf("TTFT p99 = %v should be positive and below e2e p99 %v", rep.TTFTP99, rep.P99)
	}
	if rep.TokenRate <= 0 {
		t.Fatalf("TokenRate = %v", rep.TokenRate)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The headline of the mode: at equal saturating load, continuous batching
// must beat static run-to-completion batching on BOTH token goodput and
// TTFT tail latency.
func TestLLMContinuousBeatsStatic(t *testing.T) {
	run := func(batching string) *Report {
		srv := llmServer(t, LLMConfig{Enabled: true, Batching: batching, TokenBudget: 8, MaxOutput: 64}, 4)
		rep, err := srv.Run(llmRequests(11, 120, 400, 4, 256, 32))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cont := run(LLMBatchContinuous)
	stat := run(LLMBatchStatic)
	if cont.TokenRate <= stat.TokenRate {
		t.Errorf("continuous token rate %.0f/s not above static %.0f/s", cont.TokenRate, stat.TokenRate)
	}
	if cont.TTFTP99 >= stat.TTFTP99 {
		t.Errorf("continuous TTFT p99 %v not below static %v", cont.TTFTP99, stat.TTFTP99)
	}
}

// Prefill/decode disaggregation ships prompt KV state across the fabric and
// runs decode on the partner GPU; accounting and invariants must hold.
func TestLLMPrefillDecodeDisaggregation(t *testing.T) {
	srv := llmServer(t, LLMConfig{Enabled: true, PrefillDecode: true, MaxOutput: 32}, 4)
	for _, inst := range srv.Instances() {
		if inst.pdBlock == nil || inst.pdGPU == inst.gpu {
			t.Fatalf("instance %d: no decode replica (pdGPU=%d gpu=%d)", inst.ID, inst.pdGPU, inst.gpu)
		}
	}
	rep, err := srv.Run(llmRequests(13, 60, 150, 4, 128, 16))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests-rep.Shed != 150 {
		t.Fatalf("Completed = %d, want 150", rep.Requests-rep.Shed)
	}
	if rep.KVTransfers == 0 {
		t.Fatal("no KV transfers despite disaggregated placement")
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A GPU holding decode replicas can die mid-generation: sequences must be
// re-dispatched (retried or shed), everything conserved, invariants green.
func TestLLMSurvivesDecodeGPUFailure(t *testing.T) {
	for _, pd := range []bool{false, true} {
		name := "colocated"
		if pd {
			name = "disaggregated"
		}
		t.Run(name, func(t *testing.T) {
			srv := faultServer(t, PolicyDHA, "gpu=1@30ms+200ms", 0, nil)
			srv.cfg.LLM = LLMConfig{Enabled: true, TokenBudget: 8, MaxOutput: 64, PrefillDecode: pd}
			m, err := dnn.ByName("gpt2")
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Deploy(m, 8); err != nil {
				t.Fatal(err)
			}
			srv.Warmup()
			rep, err := srv.Run(llmRequests(17, 300, 400, 8, 256, 24))
			if err != nil {
				t.Fatal(err)
			}
			if rep.GPUFailures != 1 {
				t.Fatalf("GPUFailures = %d, want 1", rep.GPUFailures)
			}
			if rep.Retried == 0 {
				t.Fatal("no sequences retried despite a decode-time GPU failure")
			}
			if err := srv.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// When KV reservations outrun device memory the join defers instead of
// OOMing, and deferred sequences still finish once memory frees.
func TestLLMKVAdmissionDefersUnderPressure(t *testing.T) {
	m, err := dnn.ByName("gpt2")
	if err != nil {
		t.Fatal(err)
	}
	// Probe the instance's device footprint, then size usable memory to the
	// weights plus room for only ~2 worst-case KV reservations (~77 MiB each
	// at prompt 1024 + output 64), so concurrent sequences must defer.
	probe := llmServer(t, LLMConfig{Enabled: true}, 1)
	usable := probe.instances[0].dep.gpuBytes + 200*(1<<20)
	topo := topology.P38xlarge()
	for _, g := range topo.GPUs {
		g.MemoryBytes = usable + reservePerGPU
	}
	srv, err := New(Config{
		Topo:   topo,
		Cost:   costmodel.Default(),
		Policy: PolicyDHA,
		LLM:    LLMConfig{Enabled: true, TokenBudget: 64, MaxOutput: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Deploy(m, 1); err != nil {
		t.Fatal(err)
	}
	if got := srv.Warmup(); got != 1 {
		t.Fatalf("Warmup = %d", got)
	}
	reqs := workload.Poisson(19, 2000, 40, 1)
	for i := range reqs {
		reqs[i].PromptTokens = 1024
		reqs[i].OutputTokens = 64
	}
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KVDeferred == 0 {
		t.Fatal("no KV admissions deferred despite reservations exceeding memory")
	}
	if rep.Requests != 40 {
		t.Fatalf("conservation: requests %d shed %d", rep.Requests, rep.Shed)
	}
	if rep.Requests-rep.Shed == 0 {
		t.Fatal("every request shed; deferral never recovered")
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Requests that want a single token (or none) complete at prefill with no
// KV reservation and no decode iterations.
func TestLLMSingleTokenRequestsSkipDecode(t *testing.T) {
	srv := llmServer(t, LLMConfig{Enabled: true}, 4)
	reqs := workload.Poisson(23, 50, 60, 4)
	for i := range reqs {
		reqs[i].PromptTokens = 64
		reqs[i].OutputTokens = 1
	}
	rep, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests-rep.Shed != 60 {
		t.Fatalf("Completed = %d", rep.Requests-rep.Shed)
	}
	if rep.DecodeIters != 0 {
		t.Fatalf("DecodeIters = %d, want 0", rep.DecodeIters)
	}
	if rep.TokensGenerated != 60 {
		t.Fatalf("TokensGenerated = %d, want 60 (one per prefill)", rep.TokensGenerated)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Autoregressive runs are as deterministic as everything else: the same
// config and workload reproduce the report byte for byte, including under
// disaggregation and faults.
func TestLLMRunsAreByteIdentical(t *testing.T) {
	run := func() string {
		srv := faultServer(t, PolicyDHA, "gpu=2@40ms+150ms", 0, nil)
		srv.cfg.LLM = LLMConfig{Enabled: true, TokenBudget: 8, MaxOutput: 48, PrefillDecode: true}
		m, err := dnn.ByName("gpt2")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Deploy(m, 6); err != nil {
			t.Fatal(err)
		}
		srv.Warmup()
		rep, err := srv.Run(llmRequests(29, 200, 300, 6, 192, 24))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", rep)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same config diverged:\n%s\n%s", a, b)
	}
}

// Zero-valued LLM config must leave single-shot serving byte-identical to a
// server built before the mode existed (the regression the whole feature is
// gated behind).
func TestLLMDisabledLeavesReportsUntouched(t *testing.T) {
	run := func(cfg Config) string {
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		deployBERT(t, srv, 8)
		srv.Warmup()
		rep, err := srv.Run(workload.Poisson(31, 400, 300, 8))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", rep)
	}
	base := Config{Topo: topology.P38xlarge(), Cost: costmodel.Default(),
		Policy: PolicyDHA, SLO: 100 * sim.Millisecond}
	withLLM := base
	withLLM.LLM = LLMConfig{} // explicit zero value
	if a, b := run(base), run(withLLM); a != b {
		t.Fatalf("zero LLM config perturbed single-shot serving:\n%s\n%s", a, b)
	}
}
