package deepplan_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus micro-benchmarks on the simulation substrate's
// hot paths. The per-figure benchmarks run the same code that
// cmd/deepplan-bench uses (serving figures in Quick mode to keep
// `go test -bench=.` tractable); EXPERIMENTS.md records the full-scale runs.

import (
	"io"
	"testing"

	"deepplan"
	"deepplan/internal/dnn"
	"deepplan/internal/experiments"
	"deepplan/internal/forecast"
	"deepplan/internal/forward"
	"deepplan/internal/hostmem"
	"deepplan/internal/monitor"
	"deepplan/internal/sim"
	"deepplan/internal/simnet"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(io.Discard, experiments.Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-figure/table benchmarks (paper evaluation order).

func BenchmarkFigure2StallDecomposition(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFigure5LayerMicro(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkTable1PCIeEvents(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkFigure6Transmission(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkTable2PCIeBandwidth(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkFigure11Speedups(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkTable3PlanExcerpts(b *testing.B)         { benchExperiment(b, "table3") }
func BenchmarkTable4Interference(b *testing.B)         { benchExperiment(b, "table4") }
func BenchmarkFigure12Batching(b *testing.B)           { benchExperiment(b, "fig12") }
func BenchmarkTable5ProfilingCost(b *testing.B)        { benchExperiment(b, "table5") }
func BenchmarkFigure13ServingSweep(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFigure14ServingLargeModels(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFigure15TraceReplay(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkFigure16PCIe4(b *testing.B)              { benchExperiment(b, "fig16") }

// Extension (§7 future work) and ablation benchmarks.

func BenchmarkExtLargeModel(b *testing.B)       { benchExperiment(b, "ext-large") }
func BenchmarkExtMixtureOfExperts(b *testing.B) { benchExperiment(b, "ext-moe") }
func BenchmarkAblatePruning(b *testing.B)       { benchExperiment(b, "ablate-prune") }
func BenchmarkAblatePartitions(b *testing.B)    { benchExperiment(b, "ablate-parts") }
func BenchmarkAblatePCIeGen(b *testing.B)       { benchExperiment(b, "ablate-pcie") }
func BenchmarkAblateNVLink(b *testing.B)        { benchExperiment(b, "ablate-nvlink") }

// Substrate micro-benchmarks.

// BenchmarkProfileBERTBase measures the one-time profiling pre-run.
func BenchmarkProfileBERTBase(b *testing.B) {
	platform := deepplan.NewP38xlarge()
	m, err := deepplan.LoadModel("bert-base")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.Profile(m, deepplan.ProfileOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanAlgorithm1 measures plan generation (Algorithm 1 + pruning)
// for the deepest model.
func BenchmarkPlanAlgorithm1(b *testing.B) {
	platform := deepplan.NewP38xlarge()
	m, err := deepplan.LoadModel("resnet101")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := platform.Profile(m, deepplan.ProfileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.Plan(prof, deepplan.ModePTDHA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStartSimulation measures one full event-simulated PT+DHA
// cold start end to end.
func BenchmarkColdStartSimulation(b *testing.B) {
	platform := deepplan.NewP38xlarge()
	m, err := deepplan.LoadModel("bert-base")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := platform.Profile(m, deepplan.ProfileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pln, err := platform.Plan(prof, deepplan.ModePTDHA)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.Execute(m, pln, deepplan.ExecuteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmInferenceSimulation measures the coalesced warm path the
// serving system leans on for million-request traces.
func BenchmarkWarmInferenceSimulation(b *testing.B) {
	platform := deepplan.NewP38xlarge()
	m, err := deepplan.LoadModel("bert-base")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := platform.Profile(m, deepplan.ProfileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pln, err := platform.Plan(prof, deepplan.ModeDHA)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.Execute(m, pln, deepplan.ExecuteOptions{Warm: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimnetFairShare measures max-min reallocation under churn:
// staggered flows arriving and completing across a shared uplink.
func BenchmarkSimnetFairShare(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New()
		n := simnet.New(s)
		up := simnet.NewLink("uplink", 12e9)
		lanes := []*simnet.Link{
			simnet.NewLink("l0", 11e9), simnet.NewLink("l1", 11e9),
		}
		for f := 0; f < 64; f++ {
			f := f
			s.At(sim.Time(f)*sim.Time(sim.Millisecond), func() {
				n.StartFlow("f", []*simnet.Link{up, lanes[f%2]}, 50e6, nil)
			})
		}
		s.Run()
	}
}

// BenchmarkMaxMinRates isolates the progressive-filling rate computation:
// 64 persistent flows over a two-switch shared-uplink topology (the
// p3.8xlarge shape), re-triggering reallocation by starting and aborting a
// probe flow. Steady-state allocs/op is the headline number: the epoch-
// stamped link scratch state and the recycled probe Flow keep it at zero.
func BenchmarkMaxMinRates(b *testing.B) {
	s := sim.New()
	n := simnet.New(s)
	uplinks := []*simnet.Link{
		simnet.NewLink("sw0-up", 12e9), simnet.NewLink("sw1-up", 12e9),
	}
	paths := make([][]*simnet.Link, 4)
	for i := range paths {
		lane := simnet.NewLink("lane", 11e9)
		paths[i] = []*simnet.Link{uplinks[i/2], lane}
	}
	// Persistent background load: 64 flows that never complete.
	for f := 0; f < 64; f++ {
		n.StartFlow("bg", paths[f%4], 1e18, nil)
	}
	// One probe up front, so the timed loop reuses its recycled Flow.
	n.Abort(n.StartFlow("probe", paths[0], 1e18, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe := n.StartFlow("probe", paths[i%4], 1e18, nil)
		n.Abort(probe)
	}
}

// BenchmarkFunctionalForwardPass measures the functional tensor runtime on
// the tiny GPT model the correctness tests execute.
func BenchmarkFunctionalForwardPass(b *testing.B) {
	m := dnn.TinyGPT(97, 16, 24, 2, 48, 16, 4)
	w, err := forward.InitWeights(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	ids := []int{5, 17, 3, 96, 0, 42, 7, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forward.Run(m, w, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingThousandRequests measures the serving system's event
// throughput at the Figure 13 operating point.
func BenchmarkServingThousandRequests(b *testing.B) {
	benchServingThousand(b, false, false)
}

// BenchmarkServingThousandRequestsTraced repeats the same operating point
// with the trace recorder and telemetry attached, so the observation
// overhead stays an explicit, tracked number next to the untraced baseline.
func BenchmarkServingThousandRequestsTraced(b *testing.B) {
	benchServingThousand(b, true, false)
}

// BenchmarkServingThousandRequestsMonitored attaches the dimensional
// metrics registry instead: every request updates per-class counters and
// latency histograms, so the monitoring hot path's cost is tracked next to
// the unobserved baseline the same way tracing's is.
func BenchmarkServingThousandRequestsMonitored(b *testing.B) {
	benchServingThousand(b, false, true)
}

func benchServingThousand(b *testing.B, traced, monitored bool) {
	b.Helper()
	platform := deepplan.NewP38xlarge()
	m, err := deepplan.LoadModel("bert-base")
	if err != nil {
		b.Fatal(err)
	}
	reqs := deepplan.PoissonWorkload(42, 100, 1000, 140)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := deepplan.ServerOptions{Policy: deepplan.ModePTDHA}
		if traced {
			opts.Trace = deepplan.NewTraceRecorder()
			opts.Telemetry = true
		}
		if monitored {
			opts.Monitor = deepplan.NewMetricsRegistry()
		}
		srv, err := platform.NewServer(opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Deploy(m, 140); err != nil {
			b.Fatal(err)
		}
		srv.Warmup()
		if _, err := srv.Run(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCluster replays a Poisson workload over an n-node cluster at the
// least-outstanding routing point, one BERT-Base replica per node.
func benchCluster(b *testing.B, nodes int) {
	b.Helper()
	platform := deepplan.NewP38xlarge()
	m, err := deepplan.LoadModel("bert-base")
	if err != nil {
		b.Fatal(err)
	}
	reqs := deepplan.ClusterRequests("BERT-Base",
		deepplan.PoissonWorkload(7, 25*float64(nodes), 2000, nodes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := platform.NewCluster(deepplan.ClusterOptions{
			Nodes: nodes,
			Route: deepplan.RouteLeastOutstanding,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Deploy(m, nodes); err != nil {
			b.Fatal(err)
		}
		c.Warmup()
		if _, err := c.Run(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSixteenNodes runs the fig-cluster node count.
func BenchmarkClusterSixteenNodes(b *testing.B) { benchCluster(b, 16) }

// BenchmarkClusterHundredNodes scales the node count past the paper's
// largest configuration to expose super-linear router costs.
func BenchmarkClusterHundredNodes(b *testing.B) { benchCluster(b, 100) }

// BenchmarkHistogramRecord measures the monitoring hot path: one histogram
// observation on a pre-resolved handle (bucket index via float-bit
// arithmetic, no label formatting, no map lookups). Steady state must stay
// at 0 allocs/op — the handle and its bucket slots are resolved at setup.
func BenchmarkHistogramRecord(b *testing.B) {
	reg := monitor.New()
	h := reg.Histogram("bench_latency_seconds", "bench", monitor.DefaultLatencyBuckets(),
		"class", "warm")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000+1) * 1e-4)
	}
}

// TestDisabledTracingAddsNoAllocations pins the zero-overhead-when-disabled
// contract at the API boundary: every recorder entry point on a nil
// *TraceRecorder — the disabled state the serving hot path sees — must not
// allocate.
func TestDisabledTracingAddsNoAllocations(t *testing.T) {
	var rec *deepplan.TraceRecorder
	allocs := testing.AllocsPerRun(100, func() {
		rec.Span(0, 0, "exec", "layer", 0, 10)
		rec.Instant(0, 4, "serving", "evict", 5)
		rec.Counter(0, "gpu mem (MiB)", 5, 128)
		rec.AsyncBegin(0, "request", "bert", rec.NextID(), 0, nil)
		rec.AsyncEnd(0, "request", "bert", 0, 10)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %.1f per run; want 0", allocs)
	}
}

// BenchmarkZooPinnedCacheLookup measures the host-cache tier's hot path: a
// Lookup hit on a resident entry plus the recency Touch that follows it on
// every cold dispatch. Steady state must stay at 0 allocs/op — the entry
// handle is resolved once and hit/miss accounting is plain integer
// arithmetic (gated by scripts/bench_compare.sh).
func BenchmarkZooPinnedCacheLookup(b *testing.B) {
	c, err := hostmem.NewCache(1<<30, hostmem.PolicyLRU)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = "model-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if _, _, err := c.Admit(names[i], 1<<20, sim.Millisecond, 0.5, sim.Time(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, ok := c.Lookup(names[i%len(names)])
		if !ok {
			b.Fatal("miss on resident entry")
		}
		c.Touch(e, sim.Time(i))
	}
}

// BenchmarkForecastObserve measures the predictive autoscaler's per-request
// hot path: one arrival observation on the bucket ring, advancing virtual
// time so ring rotation (the amortized part) is included. Steady state must
// stay at 0 allocs/op — the ring is sized at construction and Observe is
// integer bucket arithmetic only (gated by scripts/bench_compare.sh).
func BenchmarkForecastObserve(b *testing.B) {
	f := forecast.New(forecast.Config{Window: sim.Second})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Observe(sim.Time(i) * sim.Time(sim.Millisecond))
	}
}

// TestForecastObserveAddsNoAllocations pins the allocation-free contract
// the benchmark above measures, so it fails fast under plain `go test`
// instead of only under the bench gate.
func TestForecastObserveAddsNoAllocations(t *testing.T) {
	f := forecast.New(forecast.Config{Window: sim.Second})
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += sim.Time(sim.Millisecond)
		f.Observe(now)
	})
	if allocs != 0 {
		t.Fatalf("forecast.Observe allocated %.1f per run; want 0", allocs)
	}
}

// TestZooCacheLookupAddsNoAllocations pins the allocation-free contract the
// benchmark above measures, so it fails fast under plain `go test` instead
// of only under the bench gate.
func TestZooCacheLookupAddsNoAllocations(t *testing.T) {
	c, err := hostmem.NewCache(1<<30, hostmem.PolicyCostAware)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Admit("m", 1<<20, sim.Millisecond, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(100, func() {
		now++
		e, ok := c.Lookup("m")
		if !ok {
			t.Fatal("miss on resident entry")
		}
		c.Touch(e, now)
		c.Peek("m")
	})
	if allocs != 0 {
		t.Fatalf("cache lookup allocated %.1f per run; want 0", allocs)
	}
}
