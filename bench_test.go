package deepplan_test

// Micro-benchmarks on the simulation substrate's hot paths
// (scripts/bench_set.sh names the set that is snapshotted and gated). The
// experiments themselves are pinned by their goldens
// (internal/experiments TestExperimentGoldens), not benchmarked here.

import (
	"strconv"
	"testing"

	"deepplan"
	"deepplan/internal/costmodel"
	"deepplan/internal/forecast"
	"deepplan/internal/hostmem"
	"deepplan/internal/monitor"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
)

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

// benchServingThousand times one bare node, serving.Server, the reference
// driver a one-node cluster must match.
func benchServingThousand(b *testing.B, traced, monitored bool) {
	b.Helper()
	cost := costmodel.Default()
	m, err := deepplan.LoadModel("bert-base")
	if err != nil {
		b.Fatal(err)
	}
	reqs := deepplan.PoissonWorkload(42, 100, 1000, 140)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := serving.Config{Topo: topology.P38xlarge(), Cost: cost, Policy: serving.PolicyPTDHA}
		if traced {
			cfg.Trace = deepplan.NewTraceRecorder()
			cfg.Telemetry = true
		}
		if monitored {
			cfg.Monitor = deepplan.NewMetricsRegistry()
		}
		srv, err := serving.New(cfg)
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
	deployed := func() *deepplan.Cluster {
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
		return c
	}
	reqs, err := deployed().Requests(deepplan.PoissonWorkload(7, 25*float64(nodes), 2000, nodes))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := deployed()
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

// BenchmarkHistogramRecord measures the monitoring hot path: histogram
// observations on a pre-resolved handle (bucket index via float-bit
// arithmetic, no label formatting, no map lookups). One op is a batch of
// observeBatch observations, so that the two-iteration snapshots of
// scripts/bench.sh still time thousands of them; ns/observe is the
// per-observation figure. Steady state must stay at 0 allocs/op — the
// handle and its bucket slots are resolved at setup.
func BenchmarkHistogramRecord(b *testing.B) {
	reg := monitor.New()
	h := reg.Histogram("bench_latency_seconds", "bench", monitor.DefaultLatencyBuckets(),
		"class", "warm")
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < observeBatch; i++ {
			h.Observe(float64(i%1000+1) * 1e-4)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*observeBatch), "ns/observe")
}

// observeBatch is the number of observations in one op of
// BenchmarkHistogramRecord and BenchmarkForecastObserve.
const observeBatch = 4096

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

// BenchmarkZooCacheEvictingAdmit measures the host-cache tier's churn
// path: an LRU admission into a full cache of cacheResident entries, which
// scans them for the least recently used and evicts it (zoo-churn evicts
// about 0.58 host entries per request). One op is a batch of cacheBatch
// admissions, so that the two-iteration snapshots of scripts/bench.sh still
// time hundreds of them; ns/admit is the per-admission figure. Each admit
// allocates its entry and nothing else.
func BenchmarkZooCacheEvictingAdmit(b *testing.B) {
	admit := fullCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < cacheBatch; i++ {
			admit()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cacheBatch), "ns/admit")
}

// cacheResident is the entry count of BenchmarkZooCacheEvictingAdmit's
// full cache, and cacheBatch the number of admissions in one op.
const (
	cacheResident = 1024
	cacheBatch    = 256
)

// fullCache fills an LRU cache of cacheResident 1 MiB entries and returns
// a function that admits one more, evicting the least recently used. Owners
// cycle over twice the resident count, so names stay unique among
// residents.
func fullCache(tb testing.TB) func() {
	c, err := hostmem.NewCache(cacheResident<<20, hostmem.PolicyLRU, func(int) bool { return false })
	if err != nil {
		tb.Fatal(err)
	}
	names := make([]string, 2*cacheResident)
	for i := range names {
		names[i] = "model-" + strconv.Itoa(i)
	}
	next := 0
	admit := func() {
		owner := next % len(names)
		next++
		if _, _, err := c.Admit(owner, names[owner], 1<<20, sim.Millisecond, 0.5, sim.Time(next)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < cacheResident; i++ {
		admit()
	}
	return admit
}

// TestZooCacheEvictingAdmitAllocatesOneEntry pins the allocation contract
// the benchmark above measures, so it fails fast under plain `go test`
// instead of only under the bench gate: one allocation, the entry, per
// evicting admit.
func TestZooCacheEvictingAdmitAllocatesOneEntry(t *testing.T) {
	admit := fullCache(t)
	if allocs := testing.AllocsPerRun(100, admit); allocs != 1 {
		t.Fatalf("evicting admit allocated %.1f per run; want 1 (the entry)", allocs)
	}
}

// BenchmarkForecastObserve measures the predictive autoscaler's per-request
// hot path: arrival observations on the bucket ring, advancing virtual time
// so ring rotation (the amortized part) is included. One op is a batch of
// observeBatch observations; ns/observe is the per-observation figure.
// Steady state must stay at 0 allocs/op — the ring is sized at construction
// and Observe is integer bucket arithmetic only (gated by
// scripts/bench_compare.sh).
func BenchmarkForecastObserve(b *testing.B) {
	f := forecast.New(forecast.Config{Window: sim.Second})
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < observeBatch; i++ {
			f.Observe(now)
			now += sim.Time(sim.Millisecond)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*observeBatch), "ns/observe")
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
