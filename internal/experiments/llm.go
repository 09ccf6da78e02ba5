package experiments

import (
	"fmt"
	"io"

	"deepplan/internal/cluster"
	"deepplan/internal/experiments/runner"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/workload"
)

// FigLLM extends the paper's serving evaluation past single-shot inference:
// GPT-2 served autoregressively, where every request is a prefill followed
// by a token-by-token decode and the KV cache competes with weights for GPU
// memory. The comparison is iteration-level continuous batching (sequences
// join and leave the running decode batch at token boundaries) against
// static batching (each admitted batch runs to completion while later
// arrivals wait). Zipf-skewed traffic over more instances than warm
// capacity keeps both of the paper's questions in frame at once: hot
// instances accumulate concurrent sequences — where the batching
// discipline decides token goodput and time-to-first-token — while the
// cold tail still pays the cold-start path, so PipeSwitch and
// direct-host-access separate exactly as in the single-shot experiments.
func FigLLM(w io.Writer, opts Options) error {
	header(w, "Autoregressive GPT-2 serving: continuous vs static batching (2 nodes, affinity)")
	requests := 1600
	rate := 160.0
	instances := 60 // per node; warm capacity is 48, so the Zipf tail cold-starts
	promptMean, outputMean := 256, 32
	budget := 8
	skew := 0.9
	if opts.Quick {
		requests = 400
		rate = 140
	}
	batchings := []string{serving.LLMBatchContinuous, serving.LLMBatchStatic}
	policies := []serving.Policy{serving.PolicyPipeSwitch, serving.PolicyDHA}
	fmt.Fprintf(w, "%d requests at %.0f rps, Zipf skew %.1f, prompts ~%d -> outputs ~%d tokens, token budget %d\n\n",
		requests, rate, skew, promptMean, outputMean, budget)

	type point struct {
		policy   serving.Policy
		batching string
		rep      *cluster.Report
	}
	var points []point
	for _, p := range policies {
		for _, b := range batchings {
			points = append(points, point{policy: p, batching: b})
		}
	}
	reqs := workload.WithTokens(
		workload.PoissonZipf(42, rate, requests, instances, skew),
		42, promptMean, outputMean)
	err := runner.ForEach(opts.Workers, len(points), func(i int) (err error) {
		pt := &points[i]
		_, pt.rep, err = serve(cluster.Config{
			Nodes:  2,
			Route:  cluster.RouteAffinity,
			Policy: pt.policy,
			SLO:    300 * sim.Millisecond,
			LLM: serving.LLMConfig{
				Enabled:     true,
				Batching:    pt.batching,
				TokenBudget: budget,
			},
		}, []deployment{{"gpt2", instances}}, reqs, true)
		return err
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-12s %-11s %8s %9s %9s %12s %8s %6s %8s %5s\n",
		"policy", "batching", "tok/s", "ttft-p50", "ttft-p99", "cold-p99(ms)", "goodput", "batch", "kv-defer", "shed")
	for _, pt := range points {
		r := pt.rep
		fmt.Fprintf(w, "%-12s %-11s %8.0f %9.1f %9.1f %12.1f %7.1f%% %6.2f %8d %5d\n",
			pt.policy, pt.batching, r.TokenRate, ms(r.TTFTP50), ms(r.TTFTP99),
			ms(r.ColdP99), r.Goodput*100, r.MeanDecodeBatch, r.KVDeferred, r.Shed)
	}

	// The headline: what iteration-level scheduling buys at equal offered
	// load, per cold-start policy so the two dimensions stay separated.
	fmt.Fprintf(w, "\ncontinuous vs static at equal load:\n")
	for _, p := range policies {
		var cont, stat *cluster.Report
		for i := range points {
			if points[i].policy != p {
				continue
			}
			if points[i].batching == serving.LLMBatchContinuous {
				cont = points[i].rep
			} else {
				stat = points[i].rep
			}
		}
		tok := 0.0
		if stat.TokenRate > 0 {
			tok = cont.TokenRate / stat.TokenRate
		}
		ttft := 0.0
		if cont.TTFTP99 > 0 {
			ttft = float64(stat.TTFTP99) / float64(cont.TTFTP99)
		}
		fmt.Fprintf(w, "  %-12s %.2fx token goodput, %.2fx lower ttft-p99\n", p, tok, ttft)
	}

	fmt.Fprintln(w, "\nstatic batching runs each decode batch to completion, so arrivals queue")
	fmt.Fprintln(w, "behind whole generations: prefills wait (ttft tail) and the batch thins as")
	fmt.Fprintln(w, "sequences finish (idle budget). continuous batching joins sequences at")
	fmt.Fprintln(w, "iteration boundaries, keeping the budget full and prefills immediate; the")
	fmt.Fprintln(w, "cold tail still separates pipeswitch from direct-host-access underneath")
	return nil
}
