// deepplan-server runs serving experiments on the simulated multi-GPU
// server: a Poisson workload or a synthetic MAF-like trace against a chosen
// cold-start policy.
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
// -autoscale-policy picks the replica controller's algorithm: reactive (the
// default) widens a model only after observed queueing, while predictive
// forecasts each model's arrival rate from its history, prewarms replicas
// ahead of predicted spikes, and puts idle replicas to sleep in host memory
// (GPU memory freed, pinned copy kept) between them. It requires
// -autoscale.
//
// -trace writes the run's full timeline (request lifecycle, per-layer
// streams, PCIe/NVLink bandwidth, memory occupancy) as Chrome trace-event
// JSON for https://ui.perfetto.dev; summarize it with deepplan-trace.
// Tracing is observation-only: results are identical with it on or off.
//
// -faults arms a deterministic fault-injection schedule (GPU failures,
// PCIe link degradation, straggler transfers, host-memory pressure); the
// same spec and seed replay byte-identically. In cluster mode the schedule
// strikes node 0 and the router routes around it. -admit enables SLO-aware
// admission control, shedding cold-starts projected past admit×SLO.
//
// -metrics exports the run's dimensional metrics registry as OpenMetrics
// text (Prometheus-compatible). In cluster mode it also arms the SLO
// burn-rate monitor — multi-window alert rules over the goodput, cold-p99,
// warm-p99, and shed error budgets — and prints the alert log;
// -metrics-interval appends intermediate registry snapshots on the virtual
// clock. Monitoring is observation-only and deterministic: the exposition
// is byte-identical across reruns.
//
// Stdout is a pure function of the flags — wall-clock timing goes to
// stderr — so two runs of the same command diff clean.
package main

import (
	"flag"
	"fmt"
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
	instances := flag.Int("instances", 120, "number of model instances")
	rate := flag.Float64("rate", 100, "offered load, requests/second")
	requests := flag.Int("requests", 1000, "requests to serve (Poisson runs)")
	sloMs := flag.Int("slo", 100, "SLO in milliseconds")
	maxBatch := flag.Int("maxbatch", 1, "dynamic batching limit for warm requests (1 disables)")
	seed := flag.Int64("seed", 42, "workload seed")
	maf := flag.Bool("maf", false, "replay a MAF-like trace instead of Poisson")
	duration := flag.Duration("duration", 3*time.Hour, "trace duration (with -maf)")
	mix := flag.String("mix", "", "trace deployment, e.g. bert-base:48,roberta-base:48,gpt2:12")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON of the run to this file")
	telemetry := flag.Bool("telemetry", false, "print the per-window resource telemetry table")
	faultSpec := flag.String("faults", "", `fault-injection schedule, e.g. "gpu=1@2s+5s; link=gpu0-lane*0.3@1s+10s; rand=7/3@60s"`)
	admit := flag.Float64("admit", 0, "SLO-aware admission: shed cold-starts projected over admit*SLO (0 disables)")
	metricsPath := flag.String("metrics", "", "write an OpenMetrics snapshot of the run's metrics registry to this file")
	metricsEvery := flag.Duration("metrics-interval", 0, "cluster mode: also append a registry snapshot every interval of sim time (0 = final snapshot only)")
	nodes := flag.Int("nodes", 1, "cluster mode: number of serving nodes (any value but 1 runs the multi-node router)")
	route := flag.String("route", "least-outstanding", "cluster routing policy: round-robin | least-outstanding | affinity")
	autoscale := flag.Bool("autoscale", false, "cluster mode: per-model replica autoscaling from a 1-replica floor")
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
	case *rate <= 0:
		fail("-rate must be positive, got %g", *rate)
	case *requests <= 0:
		fail("-requests must be positive, got %d", *requests)
	case *sloMs <= 0:
		fail("-slo must be positive, got %d", *sloMs)
	}
	clustered := *nodes != 1 || *autoscale || *autoscalePolicy != ""
	if *maf {
		// A MAF trace is replayed on one node and carries no tokens.
		switch {
		case clustered:
			fail("cluster mode (-nodes, -autoscale) supports Poisson workloads without -maf")
		case *zoo > 0:
			fail("-zoo supports Poisson workloads without -maf")
		case *llmMode != "":
			fail("-llm needs token-annotated Poisson workloads; -maf traces carry none")
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
	var rec *deepplan.TraceRecorder
	if *tracePath != "" {
		rec = deepplan.NewTraceRecorder()
	}
	var sched *deepplan.FaultSchedule
	if *faultSpec != "" {
		var err error
		if sched, err = deepplan.ParseFaults(*faultSpec); err != nil {
			fail("%v", err)
		}
		where := ""
		if clustered {
			where = " (node 0)" // faults strike one machine; the router works around it
		}
		fmt.Printf("faults armed:  %s%s\n", sched, where)
	}
	if clustered {
		runCluster(*nodes, *route, *autoscale, *autoscalePolicy, *policy, *modelName,
			*instances, *rate, *requests, *sloMs, *maxBatch, *seed,
			sched, *admit, *tracePath, rec, *telemetry,
			*metricsPath, deepplan.Duration(*metricsEvery), *zoo, *zooPolicy,
			llm, *promptTokens, *outputTokens)
		return
	}

	var reg *deepplan.MetricsRegistry
	if *metricsPath != "" {
		reg = deepplan.NewMetricsRegistry()
	}
	platform := deepplan.NewP38xlarge()
	opts := deepplan.ServerOptions{
		Policy:      deepplan.Mode(*policy),
		SLO:         deepplan.Duration(*sloMs) * sim.Millisecond,
		MaxBatch:    *maxBatch,
		Trace:       rec,
		Telemetry:   *telemetry,
		Faults:      sched,
		AdmitFactor: *admit,
		Monitor:     reg,
		LLM:         llm,
	}
	if *zoo > 0 {
		// Zoo mode: the host cache is the elastic tier, so many small
		// tenants share each GPU's memory.
		opts.HostPolicy = deepplan.HostPolicy(*zooPolicy)
		opts.Pack = deepplan.PackDense
	}
	srv, err := platform.NewServer(opts)
	if err != nil {
		fail("%v", err)
	}

	var z *deepplan.ModelZoo
	var reqs []deepplan.Request
	if *zoo > 0 {
		if z, err = deepplan.NewModelZoo(deepplan.ZooSpec{N: *zoo}); err != nil {
			fail("%v", err)
		}
		if err := srv.DeployZoo(z); err != nil {
			fail("%v", err)
		}
		reqs = z.Requests(*seed, *rate, *requests)
		fmt.Printf("deployed zoo of %d variants over %d shapes (%.1f GB weights), host policy %s\n",
			len(z.Variants), len(z.Shapes), float64(z.TotalBytes)/1e9, *zooPolicy)
		fmt.Printf("%d Zipf(%.1f) Poisson requests at %.0f rps\n",
			len(reqs), z.Spec.Skew, *rate)
	} else if *maf {
		deployments, err := parseMix(*mix, *modelName, *instances)
		if err != nil {
			fail("%v", err)
		}
		total := 0
		for _, d := range deployments {
			m, err := deepplan.LoadModel(d.name)
			if err != nil {
				fail("%v", err)
			}
			if err := srv.Deploy(m, d.count); err != nil {
				fail("%v", err)
			}
			total += d.count
			fmt.Printf("deployed %3d x %s\n", d.count, m.Name)
		}
		reqs, err = deepplan.MAFWorkload(*seed, deepplan.Duration(*duration), *rate, total)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("trace: %d requests over %s\n", len(reqs), *duration)
	} else {
		m, err := deepplan.LoadModel(*modelName)
		if err != nil {
			fail("%v", err)
		}
		if err := srv.Deploy(m, *instances); err != nil {
			fail("%v", err)
		}
		reqs = deepplan.PoissonWorkload(*seed, *rate, *requests, *instances)
		fmt.Printf("deployed %d x %s; %d Poisson requests at %.0f rps\n",
			*instances, m.Name, len(reqs), *rate)
		if llm.Enabled {
			reqs = deepplan.AssignTokens(reqs, *seed, *promptTokens, *outputTokens)
			printLLMMode(llm, *promptTokens, *outputTokens)
		}
	}

	warm := srv.Warmup()
	fmt.Printf("warmed up %d of %d instances (capacity %d)\n\n",
		warm, srv.NumInstances(), srv.WarmCapacity())

	start := time.Now()
	rep, err := srv.Run(reqs)
	if err != nil {
		fail("%v", err)
	}
	// Wall-clock timing goes to stderr so stdout stays a pure function of
	// the flags (diffable across runs).
	fmt.Fprintf(os.Stderr, "wall clock: %s\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("policy:        %s\n", rep.Policy)
	fmt.Printf("requests:      %d (simulated)\n", rep.Requests)
	fmt.Printf("p50 / p99:     %.1f ms / %.1f ms (max %.1f ms)\n",
		rep.P50.Seconds()*1e3, rep.P99.Seconds()*1e3, rep.Max.Seconds()*1e3)
	fmt.Printf("goodput:       %.2f%% (SLO %d ms)\n", rep.Goodput*100, *sloMs)
	fmt.Printf("cold starts:   %d (%.1f%%), evictions %d, deferred %d\n",
		rep.ColdStarts, rep.ColdStartRate*100, rep.Evictions, rep.Deferred)
	if rep.BatchedRuns > 0 {
		fmt.Printf("batching:      %d runs carried %d coalesced requests\n",
			rep.BatchedRuns, rep.BatchedRequests)
	}
	if rep.Relocations > 0 || rep.PTFallbacks > 0 {
		fmt.Printf("rebalancing:   %d relocations, %d PT fallbacks\n",
			rep.Relocations, rep.PTFallbacks)
	}
	if *zoo > 0 {
		fmt.Printf("host cache:    %.1f%% hit rate (%d fetches), %d evictions, %.1f GB pinned\n",
			hitRate(rep.HostHits, rep.HostMisses)*100, rep.HostFetches, rep.HostEvictions, float64(rep.HostPinned)/1e9)
	}
	if sched != nil {
		fmt.Printf("faults:        %d GPU failures; %d retried, %d shed, %d completed degraded\n",
			rep.GPUFailures, rep.Retried, rep.Shed, rep.Degraded)
	}
	if llm.Enabled {
		fmt.Printf("llm:           %d tokens over %d decode iterations (mean batch %.2f)\n",
			rep.TokensGenerated, rep.DecodeIters, rep.MeanDecodeBatch)
		fmt.Printf("               TTFT p50 / p99: %.1f ms / %.1f ms; kv deferred %d, kv transfers %d\n",
			rep.TTFTP50.Seconds()*1e3, rep.TTFTP99.Seconds()*1e3,
			rep.KVDeferred, rep.KVTransfers)
	}

	if *maf {
		// Request-free windows (now reported explicitly through the end of
		// the trace) have no latency sample and miss no SLO: render p99 and
		// goodput as "-" instead of a misleading 0.
		fmt.Printf("\nper-15-minute windows:\n%-8s %9s %9s %9s %7s\n",
			"minute", "requests", "p99(ms)", "goodput", "colds")
		for i, ws := range rep.PerWindow {
			if i%15 != 0 {
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
		fmt.Printf("\nper-window telemetry:\n%-8s %9s %7s %7s %7s %7s %7s\n",
			"minute", "requests", "cold%", "queue", "busy%", "evict", "reloc")
		for _, w := range rep.Telemetry {
			if w.Requests == 0 && w.Evictions == 0 {
				continue
			}
			fmt.Printf("%-8.0f %9d %6.1f%% %7.2f %6.1f%% %7d %7d\n",
				w.Start.Seconds()/60, w.Requests, w.ColdRatio*100,
				w.MeanQueueDepth, w.BusyFraction*100, w.Evictions, w.Relocations)
		}
	}

	if rec != nil {
		writeTrace(*tracePath, rec, map[string]string{
			"policy": *policy,
			"seed":   strconv.FormatInt(*seed, 10),
		})
	}
	if reg != nil {
		writeMetrics(create(*metricsPath), reg)
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

// writeMetrics appends the registry's final OpenMetrics exposition to f and
// closes it.
func writeMetrics(f *os.File, reg *deepplan.MetricsRegistry) {
	werr := reg.WriteOpenMetrics(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fail("writing metrics: %v", werr)
	}
	fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", f.Name())
}

// writeTrace writes the recorded timeline as Chrome trace-event JSON.
func writeTrace(path string, rec *deepplan.TraceRecorder, meta map[string]string) {
	f := create(path)
	werr := deepplan.WriteTrace(f, rec, meta)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fail("writing trace: %v", werr)
	}
	fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", rec.Len(), path)
}

// printLLMMode reports the autoregressive settings of an -llm run.
func printLLMMode(llm deepplan.LLMOptions, promptTokens, outputTokens int) {
	pd := ""
	if llm.PrefillDecode {
		pd = ", prefill/decode disaggregated"
	}
	fmt.Printf("llm mode:      %s batching, token budget %d, prompts ~%d -> outputs ~%d tokens%s\n",
		llm.Batching, llm.TokenBudget, promptTokens, outputTokens, pd)
}

// hitRate is the host cache's lookup hit rate (0 before any lookup).
func hitRate(hits, misses int) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// runCluster is the multi-node path: N independent simulated servers behind
// the front-end router (and, with -autoscale, the reactive replica
// controller). The model is replicated on every node, and every node runs
// on one shared virtual clock.
func runCluster(nodes int, route string, autoscale bool, autoscalePolicy string, policy, modelName string,
	instances int, rate float64, requests, sloMs, maxBatch int, seed int64,
	sched *deepplan.FaultSchedule, admit float64, tracePath string, rec *deepplan.TraceRecorder, telemetry bool,
	metricsPath string, metricsEvery deepplan.Duration, zoo int, zooPolicy string,
	llm deepplan.LLMOptions, promptTokens, outputTokens int) {
	// -metrics enables the registry and the SLO burn-rate monitor; the file
	// gets one exposition block per -metrics-interval of sim time (if set)
	// plus a final snapshot, all byte-identical across reruns.
	var reg *deepplan.MetricsRegistry
	var alerts *deepplan.SLOConfig
	var metricsFile *os.File
	if metricsPath != "" {
		reg = deepplan.NewMetricsRegistry()
		alerts = &deepplan.SLOConfig{}
		metricsFile = create(metricsPath)
	}
	platform := deepplan.NewP38xlarge()
	copts := deepplan.ClusterOptions{
		Nodes:    nodes,
		Policy:   deepplan.Mode(policy),
		Route:    deepplan.RoutePolicy(route),
		SLO:      deepplan.Duration(sloMs) * sim.Millisecond,
		MaxBatch: maxBatch,
		Autoscale: deepplan.AutoscaleConfig{
			Enabled:  autoscale,
			Interval: sim.Second,
			Policy:   deepplan.AutoscalePolicy(autoscalePolicy),
		},
		Trace:           rec,
		Telemetry:       telemetry,
		Faults:          sched,
		AdmitFactor:     admit,
		Monitor:         reg,
		Alerts:          alerts,
		MetricsWriter:   metricsFile,
		MetricsInterval: metricsEvery,
		LLM:             llm,
	}
	if zoo > 0 {
		copts.HostPolicy = deepplan.HostPolicy(zooPolicy)
		copts.Pack = deepplan.PackDense
	}
	c, err := platform.NewCluster(copts)
	if err != nil {
		fail("%v", err)
	}
	var reqs []deepplan.ClusterRequest
	if zoo > 0 {
		z, err := deepplan.NewModelZoo(deepplan.ZooSpec{N: zoo})
		if err != nil {
			fail("%v", err)
		}
		if err := c.DeployZoo(z); err != nil {
			fail("%v", err)
		}
		warm := c.Warmup()
		fmt.Printf("deployed zoo of %d variants over %d shapes on each of %d nodes (%d warm), route %s, host policy %s\n",
			len(z.Variants), len(z.Shapes), nodes, warm, route, zooPolicy)
		reqs = deepplan.ZooClusterRequests(z, z.Requests(seed, rate, requests))
		fmt.Printf("%d Zipf(%.1f) Poisson requests at %.0f rps\n\n", len(reqs), z.Spec.Skew, rate)
	} else {
		m, err := deepplan.LoadModel(modelName)
		if err != nil {
			fail("%v", err)
		}
		if err := c.Deploy(m, instances); err != nil {
			fail("%v", err)
		}
		warm := c.Warmup()
		fmt.Printf("deployed %d x %s on each of %d nodes (%d instances warm), route %s\n",
			instances, m.Name, nodes, warm, route)
		base := deepplan.PoissonWorkload(seed, rate, requests, instances)
		if llm.Enabled {
			base = deepplan.AssignTokens(base, seed, promptTokens, outputTokens)
			printLLMMode(llm, promptTokens, outputTokens)
		}
		reqs = deepplan.ClusterRequests(m.Name, base)
		fmt.Printf("%d Poisson requests at %.0f rps\n\n", len(reqs), rate)
	}

	start := time.Now()
	rep, err := c.Run(reqs)
	if err != nil {
		fail("%v", err)
	}
	// Stderr, so reruns' stdout diffs clean (see package doc).
	fmt.Fprintf(os.Stderr, "wall clock: %s\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("policy:        %s, %d nodes, %s routing\n", rep.Policy, rep.Nodes, rep.Route)
	fmt.Printf("requests:      %d (simulated)\n", rep.Requests)
	fmt.Printf("p50 / p99:     %.1f ms / %.1f ms (max %.1f ms)\n",
		rep.P50.Seconds()*1e3, rep.P99.Seconds()*1e3, rep.Max.Seconds()*1e3)
	fmt.Printf("cold / warm:   p99 %.1f ms / %.1f ms\n",
		rep.ColdP99.Seconds()*1e3, rep.WarmP99.Seconds()*1e3)
	fmt.Printf("goodput:       %.2f%% (SLO %d ms)\n", rep.Goodput*100, sloMs)
	fmt.Printf("cold starts:   %d, evictions %d, shed %d\n",
		rep.ColdStarts, rep.Evictions, rep.Shed)
	if zoo > 0 {
		fmt.Printf("host cache:    %.1f%% hit rate (%d fetches), %d evictions\n",
			hitRate(rep.HostHits, rep.HostMisses)*100, rep.HostFetches, rep.HostEvictions)
	}
	if sched != nil {
		fmt.Printf("faults:        %d GPU failures; %d retried\n",
			rep.GPUFailures, rep.Retried)
	}
	if llm.Enabled {
		fmt.Printf("llm:           %d tokens (%.1f tok/s) over %d decode iterations (mean batch %.2f)\n",
			rep.TokensGenerated, rep.TokenRate, rep.DecodeIters, rep.MeanDecodeBatch)
		fmt.Printf("               TTFT p50 / p99: %.1f ms / %.1f ms; kv deferred %d, kv transfers %d\n",
			rep.TTFTP50.Seconds()*1e3, rep.TTFTP99.Seconds()*1e3,
			rep.KVDeferred, rep.KVTransfers)
	}
	if reg != nil {
		fmt.Printf("\nalerts (SLO burn-rate monitor):\n")
		if len(rep.Alerts) == 0 {
			fmt.Printf("  none — every error budget held\n")
		}
		for _, a := range rep.Alerts {
			fmt.Printf("  %s\n", a)
		}
	}
	if autoscale {
		for _, rs := range rep.Replicas {
			fmt.Printf("autoscale:     %s: %d ups, %d downs; %d of %d replicas active\n",
				rs.Model, rep.ScaleUps, rep.ScaleDowns, rs.Active, rs.Max)
		}
		if deepplan.AutoscalePolicy(autoscalePolicy) == deepplan.AutoscalePredictive {
			fmt.Printf("lifecycle:     %d prewarms, %d wakes, %d sleeps, %d swap-ins\n",
				rep.Prewarms, rep.Wakes, rep.Sleeps, rep.SwapIns)
		}
	}
	fmt.Printf("\nper-node:      %-6s %9s %7s %9s %6s\n", "node", "routed", "colds", "p99(ms)", "shed")
	for _, ns := range rep.PerNode {
		fmt.Printf("               %-6d %9d %7d %9.1f %6d\n",
			ns.Node, ns.Routed, ns.ColdStarts, ns.P99.Seconds()*1e3, ns.Shed)
	}

	if telemetry {
		fmt.Printf("\ncluster telemetry (all nodes):\n%-8s %9s %7s %7s %7s %7s\n",
			"minute", "requests", "cold%", "queue", "busy%", "evict")
		for _, w := range rep.Telemetry {
			if w.Requests == 0 && w.Evictions == 0 {
				continue
			}
			fmt.Printf("%-8.0f %9d %6.1f%% %7.2f %6.1f%% %7d\n",
				w.Start.Seconds()/60, w.Requests, w.ColdRatio*100,
				w.MeanQueueDepth, w.BusyFraction*100, w.Evictions)
		}
	}

	if rec != nil {
		writeTrace(tracePath, rec, map[string]string{
			"policy": policy, "route": route,
			"nodes": strconv.Itoa(nodes),
			"seed":  strconv.FormatInt(seed, 10),
		})
	}
	if metricsFile != nil {
		writeMetrics(metricsFile, reg)
	}
}

type deployment struct {
	name  string
	count int
}

func parseMix(mix, fallbackModel string, fallbackCount int) ([]deployment, error) {
	if mix == "" {
		return []deployment{{fallbackModel, fallbackCount}}, nil
	}
	var out []deployment
	for _, part := range strings.Split(mix, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad mix entry %q (want model:count)", part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count in %q", part)
		}
		out = append(out, deployment{kv[0], n})
	}
	return out, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "deepplan-server: "+format+"\n", args...)
	os.Exit(1)
}
