// deepplan-server runs serving experiments on simulated multi-GPU servers:
// a Poisson workload, a model zoo, or a synthetic MAF-like trace against a
// chosen cold-start policy, on one node or on a fleet of them.
//
// Usage:
//
//	deepplan-server -policy pt+dha -model bert-base -instances 180 -rate 100 -requests 1000
//	deepplan-server -policy dha -maf -duration 30m -rate 150 \
//	    -mix bert-base:48,roberta-base:48,gpt2:12
//	deepplan-server -policy pt+dha -instances 140 -trace run.json -telemetry
//	deepplan-server -policy dha -instances 140 -admit 1.5 \
//	    -faults "gpu=1@2s+3s; link=gpu0-lane*0.4@1s+4s"
//	deepplan-server -nodes 2 -autoscale -autoscale-policy predictive \
//	    -route affinity -instances 32 -rate 120
//
// Every run is a cluster: -nodes (default 1) independent servers on one
// virtual clock behind the -route front-end router, each holding the whole
// deployment. A one-node cluster is exactly one bare server (the router
// passes every request through), so the report has one format whatever
// the node count.
//
// -autoscale-policy picks the replica controller's algorithm: reactive (the
// default) widens a model only after observed queueing, while predictive
// forecasts each model's arrival rate from its history, prewarms replicas
// ahead of predicted spikes, and puts idle replicas to sleep in host memory
// (GPU memory freed, pinned copy kept) between them. It requires
// -autoscale.
//
// -trace writes the run's full timeline (request lifecycle, per-layer
// streams, PCIe/NVLink bandwidth, memory occupancy) as Chrome trace-event
// JSON for https://ui.perfetto.dev, each node's tracks under "node<i>";
// summarize it with deepplan-trace. Tracing is observation-only: results
// are identical with it on or off.
//
// -faults arms a deterministic fault-injection schedule (GPU failures,
// PCIe link degradation, straggler transfers, host-memory pressure) on
// node 0; the same spec and seed replay byte-identically, and the router
// routes around the failed node. -admit enables SLO-aware admission
// control, shedding cold-starts projected past admit×SLO.
//
// -metrics exports the run's dimensional metrics registry as OpenMetrics
// text (Prometheus-compatible), arms the SLO burn-rate monitor —
// multi-window alert rules over the goodput, cold-p99, warm-p99, and shed
// error budgets — and prints the alert log; -metrics-interval appends
// intermediate registry snapshots on the virtual clock. Monitoring is
// observation-only and deterministic: the exposition is byte-identical
// across reruns.
//
// Stdout is a pure function of the flags — wall-clock timing goes to
// stderr — so two runs of the same command diff clean.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"deepplan"
	"deepplan/internal/sim"
)

func main() {
	policy := flag.String("policy", "pt+dha", "baseline | pipeswitch | dha | pt+dha")
	modelName := flag.String("model", "bert-base", "model for single-model runs")
	instances := flag.Int("instances", 120, "number of model instances on each node")
	rate := flag.Float64("rate", 100, "offered load, requests/second")
	requests := flag.Int("requests", 1000, "requests to serve (Poisson runs)")
	sloMs := flag.Int("slo", 100, "SLO in milliseconds")
	maxBatch := flag.Int("maxbatch", 1, "dynamic batching limit for warm requests (1 disables)")
	seed := flag.Int64("seed", 42, "workload seed")
	maf := flag.Bool("maf", false, "replay a MAF-like trace instead of Poisson")
	duration := flag.Duration("duration", 3*time.Hour, "trace duration (with -maf)")
	mix := flag.String("mix", "", "deployment in place of -model/-instances, e.g. bert-base:48,roberta-base:48,gpt2:12")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON of the run to this file")
	telemetry := flag.Bool("telemetry", false, "print the per-window resource telemetry table")
	faultSpec := flag.String("faults", "", `fault-injection schedule for node 0, e.g. "gpu=1@2s+5s; link=gpu0-lane*0.3@1s+10s; rand=7/3@60s"`)
	admit := flag.Float64("admit", 0, "SLO-aware admission: shed cold-starts projected over admit*SLO (0 disables)")
	metricsPath := flag.String("metrics", "", "write an OpenMetrics snapshot of the run's metrics registry to this file and print SLO alerts")
	metricsEvery := flag.Duration("metrics-interval", 0, "with -metrics: also append a registry snapshot every interval of sim time (0 = final snapshot only)")
	nodes := flag.Int("nodes", 1, "number of serving nodes behind the router")
	route := flag.String("route", "least-outstanding", "cluster routing policy: round-robin | least-outstanding | affinity")
	autoscale := flag.Bool("autoscale", false, "per-model replica autoscaling from a 1-replica floor")
	autoscalePolicy := flag.String("autoscale-policy", "", "with -autoscale: reactive | predictive (forecast-driven prewarm/sleep; default reactive)")
	zoo := flag.Int("zoo", 0, "deploy an N-variant model zoo (tenants with Zipf popularity) instead of -model/-instances")
	zooPolicy := flag.String("zoo-policy", "", "host-memory cache policy for the zoo: pinned | lru | cost (default lru with -zoo)")
	llmMode := flag.String("llm", "", "autoregressive serving: continuous | static batching (empty = single-shot inference)")
	prefillDecode := flag.Bool("prefill-decode", false, "with -llm: disaggregate prefill and decode GPUs (KV handoff over NVLink/PCIe)")
	promptTokens := flag.Int("prompt-tokens", 128, "with -llm: mean prompt length, tokens")
	outputTokens := flag.Int("output-tokens", 32, "with -llm: mean output length, tokens")
	tokenBudget := flag.Int("token-budget", 8, "with -llm: decode-batch token budget per iteration")
	flag.Parse()

	// The library validates every mode and combination of modes; this
	// command checks only the inputs of its own workload generators.
	switch {
	case !(*rate > 0) || math.IsInf(*rate, 1):
		fail("-rate must be positive and finite, got %g", *rate)
	case *requests <= 0:
		fail("-requests must be positive, got %d", *requests)
	case *sloMs <= 0:
		fail("-slo must be positive, got %d", *sloMs)
	case *zoo < 0:
		fail("-zoo must not be negative, got %d", *zoo)
	case *promptTokens <= 0:
		fail("-prompt-tokens must be positive, got %d", *promptTokens)
	case *outputTokens <= 0:
		fail("-output-tokens must be positive, got %d", *outputTokens)
	}
	if *maf {
		// A MAF trace carries no tokens and addresses -model or -mix.
		switch {
		case *duration <= 0:
			fail("-duration must be positive, got %s", *duration)
		case *zoo > 0:
			fail("-zoo supports Poisson workloads without -maf")
		case *llmMode != "":
			fail("-llm needs token-annotated Poisson workloads; -maf traces carry none")
		}
	}
	// A workload flag the run would ignore is an error, not a silent no-op.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, r := range []struct {
		flag, when string
		ignored    bool
	}{
		{"model", "with -zoo or -mix", *zoo > 0 || *mix != ""},
		{"instances", "with -zoo or -mix", *zoo > 0 || *mix != ""},
		{"mix", "with -zoo", *zoo > 0},
		{"zoo-policy", "without -zoo", *zoo == 0},
		{"requests", "with -maf", *maf},
		{"duration", "without -maf", !*maf},
		{"prompt-tokens", "without -llm", *llmMode == ""},
		{"output-tokens", "without -llm", *llmMode == ""},
		{"token-budget", "without -llm", *llmMode == ""},
	} {
		if r.ignored && set[r.flag] {
			fail("-%s has no effect %s", r.flag, r.when)
		}
	}
	if *zoo > 0 && *zooPolicy == "" {
		*zooPolicy = "lru"
	}
	llm := deepplan.LLMOptions{
		Enabled:       *llmMode != "",
		Batching:      *llmMode,
		TokenBudget:   *tokenBudget,
		PrefillDecode: *prefillDecode,
	}
	opts := deepplan.ClusterOptions{
		Policy:      deepplan.Mode(*policy),
		SLO:         deepplan.Duration(*sloMs) * sim.Millisecond,
		MaxBatch:    *maxBatch,
		Telemetry:   *telemetry,
		AdmitFactor: *admit,
		LLM:         llm,
		Nodes:       *nodes,
		Route:       deepplan.RoutePolicy(*route),
		Autoscale: deepplan.AutoscaleConfig{
			Enabled:  *autoscale,
			Interval: sim.Second,
			Policy:   deepplan.AutoscalePolicy(*autoscalePolicy),
		},
		MetricsInterval: deepplan.Duration(*metricsEvery),
	}
	if *faultSpec != "" {
		var err error
		if opts.Faults, err = deepplan.ParseFaults(*faultSpec); err != nil {
			fail("%v", err)
		}
	}
	// Output files are opened before the run, so a path that cannot be
	// written fails before anything is printed. -metrics enables the
	// registry and the SLO burn-rate monitor; the file gets one exposition
	// block per -metrics-interval of sim time (if set) plus a final
	// snapshot, all byte-identical across reruns.
	var traceFile, metricsFile *os.File
	if *tracePath != "" {
		opts.Trace = deepplan.NewTraceRecorder()
		traceFile = create(*tracePath)
	}
	if *metricsPath != "" {
		opts.Monitor = deepplan.NewMetricsRegistry()
		opts.Alerts = &deepplan.SLOConfig{}
		metricsFile = create(*metricsPath)
		opts.MetricsWriter = metricsFile
	}
	if *zoo > 0 {
		// Zoo mode: the host cache is the elastic tier, so many small
		// tenants share each GPU's memory.
		opts.HostPolicy = deepplan.HostPolicy(*zooPolicy)
		opts.Pack = deepplan.PackDense
	}
	c, err := deepplan.NewP38xlarge().NewCluster(opts)
	if err != nil {
		fail("%v", err)
	}

	// Deploy, generate the workload and run it before printing anything, so
	// a bad deployment, generator input or arrival time leaves stdout empty.
	var header []string
	var reqs []deepplan.ClusterRequest
	perNode := 0 // instances deployed on every node
	if *zoo > 0 {
		z, err := deepplan.NewModelZoo(deepplan.ZooSpec{N: *zoo})
		if err != nil {
			fail("%v", err)
		}
		if err := c.DeployZoo(z); err != nil {
			fail("%v", err)
		}
		perNode = len(z.Variants)
		reqs = deepplan.ZooClusterRequests(z, z.Requests(*seed, *rate, *requests))
		header = append(header,
			fmt.Sprintf("deployed zoo of %d variants over %d shapes (%.1f GB weights) per node, host policy %s",
				len(z.Variants), len(z.Shapes), float64(z.TotalBytes)/1e9, *zooPolicy),
			fmt.Sprintf("%d Zipf(%.1f) Poisson requests at %.0f rps", len(reqs), z.Spec.Skew, *rate))
	} else {
		deps, err := parseMix(*mix, *modelName, *instances)
		if err != nil {
			fail("%v", err)
		}
		for _, d := range deps {
			if err := c.Deploy(d.model, d.count); err != nil {
				fail("%v", err)
			}
			perNode += d.count
			header = append(header, fmt.Sprintf("deployed %d x %s per node", d.count, d.model.Name))
		}
		var raw []deepplan.Request
		if *maf {
			if raw, err = deepplan.MAFWorkload(*seed, deepplan.Duration(*duration), *rate, perNode); err != nil {
				fail("%v", err)
			}
			header = append(header, fmt.Sprintf("trace: %d requests over %s", len(raw), *duration))
		} else {
			raw = deepplan.PoissonWorkload(*seed, *rate, *requests, perNode)
			if llm.Enabled {
				raw = deepplan.AssignTokens(raw, *seed, *promptTokens, *outputTokens)
				pd := ""
				if llm.PrefillDecode {
					pd = ", prefill/decode disaggregated"
				}
				header = append(header, fmt.Sprintf("llm mode:      %s batching, token budget %d, prompts ~%d -> outputs ~%d tokens%s",
					llm.Batching, llm.TokenBudget, *promptTokens, *outputTokens, pd))
			}
			header = append(header, fmt.Sprintf("%d Poisson requests at %.0f rps", len(raw), *rate))
		}
		if reqs, err = c.Requests(raw); err != nil {
			fail("%v", err)
		}
	}
	warm := c.Warmup()
	start := time.Now()
	rep, err := c.Run(reqs)
	if err != nil {
		fail("%v", err)
	}
	var windows []deepplan.WindowStat // read once the run has quiesced
	if *maf || *telemetry {
		windows = c.Windows()
	}
	// Wall-clock timing goes to stderr so stdout stays a pure function of
	// the flags (diffable across runs).
	fmt.Fprintf(os.Stderr, "wall clock: %s\n", time.Since(start).Round(time.Millisecond))
	if opts.Faults != nil {
		fmt.Printf("faults armed:  %s (node 0)\n", opts.Faults)
	}
	for _, line := range header {
		fmt.Println(line)
	}
	fmt.Printf("warmed up %d of %d instances (capacity %d)\n\n", warm, perNode*rep.Nodes, rep.WarmCapacity)
	fmt.Printf("policy:        %s, %d nodes, %s routing\n", rep.Policy, rep.Nodes, rep.Route)
	fmt.Printf("requests:      %d (simulated)\n", rep.Requests)
	fmt.Printf("p50 / p99:     %.1f ms / %.1f ms (max %.1f ms)\n",
		rep.P50.Seconds()*1e3, rep.P99.Seconds()*1e3, rep.Max.Seconds()*1e3)
	fmt.Printf("cold / warm:   p99 %.1f ms / %.1f ms\n",
		rep.ColdP99.Seconds()*1e3, rep.WarmP99.Seconds()*1e3)
	fmt.Printf("goodput:       %.2f%% (SLO %d ms)\n", rep.Goodput*100, *sloMs)
	fmt.Printf("cold starts:   %d (%.1f%%), evictions %d, deferred %d, shed %d\n",
		rep.ColdStarts, float64(rep.ColdStarts)/float64(rep.Requests)*100, rep.Evictions, rep.Deferred, rep.Shed)
	if rep.BatchedRuns > 0 {
		fmt.Printf("batching:      %d runs carried %d coalesced requests\n",
			rep.BatchedRuns, rep.BatchedRequests)
	}
	if rep.Relocations > 0 || rep.PTFallbacks > 0 {
		fmt.Printf("rebalancing:   %d relocations, %d PT fallbacks\n",
			rep.Relocations, rep.PTFallbacks)
	}
	if *zoo > 0 {
		hitRate := 0.0 // before any lookup
		if lookups := rep.HostHits + rep.HostMisses; lookups > 0 {
			hitRate = float64(rep.HostHits) / float64(lookups)
		}
		fmt.Printf("host cache:    %.1f%% hit rate (%d fetches), %d evictions, %.1f GB pinned\n",
			hitRate*100, rep.HostFetches, rep.HostEvictions, float64(rep.HostPinned)/1e9)
	}
	if opts.Faults != nil {
		fmt.Printf("faults:        %d GPU failures; %d retried, %d completed degraded\n",
			rep.GPUFailures, rep.Retried, rep.Degraded)
	}
	if llm.Enabled {
		fmt.Printf("llm:           %d tokens (%.1f tok/s) over %d decode iterations (mean batch %.2f)\n",
			rep.TokensGenerated, rep.TokenRate, rep.DecodeIters, rep.MeanDecodeBatch)
		fmt.Printf("               TTFT p50 / p99: %.1f ms / %.1f ms; kv deferred %d, kv transfers %d\n",
			rep.TTFTP50.Seconds()*1e3, rep.TTFTP99.Seconds()*1e3,
			rep.KVDeferred, rep.KVTransfers)
	}
	if opts.Monitor != nil {
		fmt.Printf("\nalerts (SLO burn-rate monitor):\n")
		if len(rep.Alerts) == 0 {
			fmt.Printf("  none — every error budget held\n")
		}
		for _, a := range rep.Alerts {
			fmt.Printf("  %s\n", a)
		}
	}
	if *autoscale {
		for _, rs := range rep.Replicas {
			fmt.Printf("autoscale:     %s: %d ups, %d downs; %d of %d replicas active\n",
				rs.Model, rep.ScaleUps, rep.ScaleDowns, rs.Active, rs.Max)
		}
		if opts.Autoscale.Policy == deepplan.AutoscalePredictive {
			fmt.Printf("lifecycle:     %d prewarms, %d wakes, %d sleeps, %d swap-ins\n",
				rep.Prewarms, rep.Wakes, rep.Sleeps, rep.SwapIns)
		}
	}
	fmt.Printf("\nper-node:      %-6s %9s %7s %9s %6s\n", "node", "routed", "colds", "p99(ms)", "shed")
	for _, ns := range rep.PerNode {
		fmt.Printf("               %-6d %9d %7d %9.1f %6d\n",
			ns.Node, ns.Routed, ns.ColdStarts, ns.P99.Seconds()*1e3, ns.Shed)
	}

	if *maf {
		// Request-free windows (reported explicitly through the end of the
		// trace) have no latency sample and miss no SLO: render p99 and
		// goodput as "-" instead of a misleading 0.
		fmt.Printf("\nper-15-minute windows:\n%-8s %9s %9s %9s %7s\n",
			"minute", "requests", "p99(ms)", "goodput", "colds")
		for i, ws := range windows {
			// A window starting at the horizon holds only telemetry
			// recorded at that instant; it is not a window of the trace.
			if i%15 != 0 || ws.Start >= deepplan.Time(rep.Horizon) {
				continue
			}
			if ws.Requests == 0 {
				fmt.Printf("%-8d %9d %9s %9s %7d\n", i, 0, "-", "-", ws.ColdStarts)
				continue
			}
			fmt.Printf("%-8d %9d %9.1f %8.1f%% %7d\n",
				i, ws.Requests, ws.P99.Seconds()*1e3, ws.Goodput*100, ws.ColdStarts)
		}
	}

	if *telemetry {
		fmt.Print("\nper-window telemetry (all nodes):\n")
		deepplan.WriteTelemetry(os.Stdout, windows)
	}

	if traceFile != nil {
		werr := deepplan.WriteTrace(traceFile, opts.Trace, map[string]string{
			"policy": *policy, "route": *route,
			"nodes": strconv.Itoa(*nodes),
			"seed":  strconv.FormatInt(*seed, 10),
		})
		closeOutput(traceFile, werr, "trace")
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", opts.Trace.Len(), *tracePath)
	}
	if metricsFile != nil {
		closeOutput(metricsFile, opts.Monitor.WriteOpenMetrics(metricsFile), "metrics")
		fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", *metricsPath)
	}
}

// create creates (or truncates) an output file.
func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	return f
}

// closeOutput closes an output file after writing what to it, failing on
// the write error werr or on the close error.
func closeOutput(f *os.File, werr error, what string) {
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fail("writing %s: %v", what, werr)
	}
}

// deployment is one model and the instances of it deployed on every node.
type deployment struct {
	model *deepplan.Model
	count int
}

// parseMix resolves -mix ("model:count,...") into deployments, in order,
// or returns the single -model/-instances deployment when mix is empty. A
// model may appear only once.
func parseMix(mix, fallbackModel string, fallbackCount int) ([]deployment, error) {
	if mix == "" {
		m, err := deepplan.LoadModel(fallbackModel)
		return []deployment{{m, fallbackCount}}, err
	}
	var out []deployment
	seen := map[string]bool{}
	for _, part := range strings.Split(mix, ",") {
		name, count, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("-mix: bad entry %q (want model:count)", part)
		}
		n, err := strconv.Atoi(count)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-mix: bad count in %q", part)
		}
		m, err := deepplan.LoadModel(name)
		if err != nil {
			return nil, fmt.Errorf("-mix: %w", err)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("-mix: %s listed twice", m.Name)
		}
		seen[m.Name] = true
		out = append(out, deployment{m, n})
	}
	return out, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "deepplan-server: "+format+"\n", args...)
	os.Exit(1)
}
