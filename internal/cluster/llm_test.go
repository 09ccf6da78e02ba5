package cluster

import (
	"testing"

	"deepplan/internal/workload"
)

// llmRunOnce builds a cluster in autoregressive mode, deploys gpt2, replays
// a token-annotated Poisson workload, and returns the report and trace
// (see runTraced). It fails the test if the decode path barely ran.
func llmRunOnce(t *testing.T, cfg Config, replicas, requests int, rate float64) (*Report, []byte) {
	t.Helper()
	rep, tr := runTraced(t, cfg, "gpt2", replicas, func(c *Cluster) []Request {
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
	return rep, tr
}
