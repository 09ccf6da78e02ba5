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

	"deepplan"
	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/planner"
	"deepplan/internal/profiler"
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
	// MetricsPath, when non-empty, makes experiments that run a monitored
	// simulation (fig-slo) write one representative configuration's final
	// OpenMetrics exposition there. Observation-only: the table is
	// unchanged.
	MetricsPath string
	// Telemetry appends a per-window resource table (cold-start ratio,
	// queue depth, busy fraction, evictions) for one representative
	// configuration to the supporting experiments' (fig13, fig15) output.
	Telemetry bool
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

// evaluationNames is the canonical-name order matching dnn.EvaluationOrder.
var evaluationNames = []string{
	"resnet50", "resnet101", "bert-base", "bert-large",
	"roberta-base", "roberta-large", "gpt2", "gpt2-medium",
}

// header prints a titled rule.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
}

func ms(d deepplan.Duration) float64 { return d.Seconds() * 1e3 }

// profiled caches (profile, planner inputs) per model for the default
// platform, since most experiments need them.
type bench struct {
	platform *deepplan.Platform
	profiles map[string]*profiler.Profile
	models   map[string]*dnn.Model
}

func newBench(platform *deepplan.Platform) *bench {
	return &bench{
		platform: platform,
		profiles: map[string]*profiler.Profile{},
		models:   map[string]*dnn.Model{},
	}
}

func (b *bench) model(name string) *dnn.Model {
	if m, ok := b.models[name]; ok {
		return m
	}
	m, err := dnn.ByName(name)
	if err != nil {
		panic(err) // static names only
	}
	b.models[name] = m
	return m
}

func (b *bench) profile(name string) *profiler.Profile {
	if p, ok := b.profiles[name]; ok {
		return p
	}
	p, err := b.platform.Profile(b.model(name), deepplan.ProfileOptions{})
	if err != nil {
		panic(err)
	}
	b.profiles[name] = p
	return p
}

// coldLatency executes one cold inference in the given mode.
func (b *bench) coldLatency(name string, mode deepplan.Mode) deepplan.Duration {
	prof := b.profile(name)
	pln, err := b.platform.Plan(prof, mode)
	if err != nil {
		panic(err)
	}
	res, err := b.platform.Execute(b.model(name), pln, deepplan.ExecuteOptions{})
	if err != nil {
		panic(err)
	}
	return res.Latency()
}

// defaultCost and defaultTopo are shorthands for experiment internals that
// bypass the facade.
func defaultCost() *costmodel.Params   { return costmodel.Default() }
func defaultTopo() *topology.Topology  { return topology.P38xlarge() }
func defaultPlanner() *planner.Planner { return planner.New(topology.P38xlarge()) }
