package cluster

import (
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/metrics"
	"deepplan/internal/serving"
	"deepplan/internal/workload"
)

// llmRunOnce builds a cluster in autoregressive mode, deploys gpt2, replays
// a token-annotated Poisson workload, and returns the report, windows and
// trace (see runTraced). It fails the test if the decode path barely ran.
func llmRunOnce(t *testing.T, cfg Config, replicas, requests int, rate float64) (*Report, []metrics.WindowStat, []byte) {
	t.Helper()
	rep, win, tr := runTraced(t, cfg, "gpt2", replicas, func(c *Cluster) []Request {
		base := workload.WithTokens(
			workload.Poisson(17, rate, requests, c.models["GPT-2"].active), 17, 192, 24)
		reqs := make([]Request, len(base))
		for i, r := range base {
			reqs[i] = Request{At: r.At, Model: "GPT-2", Key: r.Instance,
				PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens}
		}
		return reqs
	})
	if rep.TokensGenerated <= rep.Requests {
		t.Fatalf("decode path barely exercised: %d tokens over %d requests",
			rep.TokensGenerated, rep.Requests)
	}
	return rep, win, tr
}

// A GPU failure evicts the instances on it before their decode sequences
// are retried, so no retry lands on an instance still warm on the failing
// GPU. Each case replays a deepplan-server run (40 GPT-2 instances, 800
// requests at 100 rps, seed 42) that, with the retries dispatched before
// the release, shed requests granted a retry or freed a nil block.
func TestGPUFailureRetriesLLMSequences(t *testing.T) {
	for _, tc := range []struct {
		name, faults string
		llm          serving.LLMConfig
	}{
		{"prefill-decode", "gpu=2@2s+3s", serving.LLMConfig{Enabled: true, PrefillDecode: true, TokenBudget: 8}},
		{"static", "gpu=0@1s+3s", serving.LLMConfig{Enabled: true, Batching: serving.LLMBatchStatic, TokenBudget: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := faults.Parse(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(Config{Nodes: 1, Faults: sched, LLM: tc.llm})
			if err != nil {
				t.Fatal(err)
			}
			m, err := dnn.ByName("gpt2")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Deploy(m, 40); err != nil {
				t.Fatal(err)
			}
			reqs, err := c.Requests(workload.WithTokens(workload.Poisson(42, 100, 800, 40), 42, 128, 32))
			if err != nil {
				t.Fatal(err)
			}
			c.Warmup()
			rep, err := c.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if rep.GPUFailures != 1 || rep.Retried == 0 {
				t.Fatalf("test premise broken: %d GPU failures, %d retried", rep.GPUFailures, rep.Retried)
			}
			if rep.Shed != 0 {
				t.Errorf("%d requests shed after %d retries, want 0", rep.Shed, rep.Retried)
			}
		})
	}
}
