// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 and §5) on the simulated platform. Each experiment writes
// a plain-text table, including the paper's published values alongside the
// reproduced ones where the paper reports them, so the shape comparison is
// immediate. cmd/deepplan-bench exposes the registry on the command line.
// EXPERIMENTS.md is written by hand from full-scale runs of these routines;
// their -quick output is pinned in testdata/golden.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/engine"
	"deepplan/internal/plan"
	"deepplan/internal/planner"
	"deepplan/internal/profiler"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks the serving experiments (fewer requests, shorter
	// trace, coarser sweeps) for use in benchmarks and smoke tests.
	Quick bool
	// Workers bounds the worker pool used for independent sweep points
	// inside an experiment (each point builds its own simulator, so points
	// share nothing). 0 or 1 computes points serially on the calling
	// goroutine. Output is byte-identical for every value: parallelism
	// exists only between simulations, never inside one, and results are
	// always printed in sweep order.
	Workers int
	// Metrics, when non-nil, makes experiments that run a monitored
	// simulation (fig-slo) write one representative configuration's final
	// OpenMetrics exposition to it. Observation-only: the table is
	// unchanged.
	Metrics io.Writer
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string // e.g. "fig11", "table4"
	Title string
	Run   func(w io.Writer, opts Options) error
}

// registry in presentation order.
var registry = []Experiment{
	{"fig2", "Figure 2: stall decomposition of pipelined cold inference", Figure2},
	{"fig5", "Figure 5: layer micro-benchmark, load-then-execute vs direct-host-access", Figure5},
	{"table1", "Table 1: PCIe read events, load vs direct-host-access", Table1},
	{"fig6", "Figure 6: model loading time, serial vs parallel vs parallel-pipeline", Figure6},
	{"table2", "Table 2: average PCIe bandwidth per transmission scheme", Table2},
	{"fig11", "Figure 11: single-inference speedup over Baseline (batch 1)", Figure11},
	{"table3", "Table 3: execution-plan excerpts (initial approach vs DeepPlan)", Table3},
	{"table4", "Table 4: parallel-transmission interference", Table4},
	{"fig12", "Figure 12: throughput with batching 1-8", Figure12},
	{"table5", "Table 5: profiling cost (10 iterations)", Table5},
	{"fig13", "Figure 13: serving BERT-Base, p99/goodput/cold-starts vs #instances", Figure13},
	{"fig14", "Figure 14: serving p99 for BERT-Large and GPT-2", Figure14},
	{"fig15", "Figure 15: MAF-like trace replay (3 hours)", Figure15},
	{"fig16", "Figure 16: speedups on 2x RTX A5000 with PCIe 4.0", Figure16},
	{"fig-faults", "Fault injection: graceful degradation under GPU/link faults", FigFaults},
	{"fig-cluster", "Cluster serving: routing policies and autoscaling across nodes", FigCluster},
	{"fig-capacity", "Capacity planning: cost-vs-capacity frontier over the config grid", FigCapacity},
	{"fig-slo", "SLO monitor: burn-rate alerts under faults, per cold-start policy", FigSLO},
	{"fig-zoo", "Model zoo: cold-start tail vs zoo size under a pinned host-cache tier", FigZoo},
	{"fig-llm", "Autoregressive serving: continuous vs static batching with a KV cache", FigLLM},
	{"fig-forecast", "Predictive actuation: reactive vs forecast-driven autoscaling under a spiky trace", FigForecast},
	{"ablate-prune", "Ablation: planner pruning threshold (cold gain vs warm tax)", AblatePrune},
	{"ablate-parts", "Ablation: partition count for parallel transmission (DGX-1, 8 GPUs)", AblateParts},
	{"ablate-pcie", "Ablation: PCIe generation vs DeepPlan benefit", AblatePCIe},
	{"ablate-nvlink", "Ablation: NVLink bandwidth vs parallel-transmission benefit", AblateNVLink},
	{"ext-large", "Extension (§7): serving a 13B model that exceeds single-GPU memory", ExtLargeModel},
	{"ext-moe", "Extension (§7): mixture-of-experts cold-starts with expert-aware transmission", ExtMoE},
}

// All returns every experiment in presentation order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the experiment identifiers in order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// header prints a titled rule.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
}

func ms(d sim.Duration) float64 { return d.Seconds() * 1e3 }

// profile builds a zoo model and runs its one-time profiling pre-run on a
// p3.8xlarge at batch 1.
func profile(name string) (*dnn.Model, *profiler.Profile, error) {
	m, err := dnn.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	prof, err := profiler.Run(m, costmodel.Default(), topology.P38xlarge(), profiler.Options{})
	return m, prof, err
}

// coldRun profiles a zoo model at the batch size on build's server, plans
// it in mode and runs one cold inference on GPU 0.
func coldRun(build func() *topology.Topology, name string, mode plan.Mode, batch int) (*engine.Result, error) {
	m, err := dnn.ByName(name)
	if err != nil {
		return nil, err
	}
	cost := costmodel.Default()
	prof, err := profiler.Run(m, cost, build(), profiler.Options{Batch: batch})
	if err != nil {
		return nil, err
	}
	p, err := planner.New(build()).Plan(prof, mode)
	if err != nil {
		return nil, err
	}
	return engine.RunOnce(build(), cost, engine.Spec{Model: m, Plan: p, Batch: batch})
}
