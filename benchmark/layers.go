package main

import (
	"runtime"
	"time"

	"deepplan/internal/capacity"
	"deepplan/internal/cluster"
	"deepplan/internal/serving"
)

// traced is what the traced pass measured, before it is turned into the
// printed per-layer metrics.
type traced struct {
	untracedUS     float64 // untraced host_us_per_req of this run's baseline reps
	tracedUS       float64 // host µs per request of the traced, profiled reps
	tracedCPUUS    float64 // process CPU µs per request of the profiled reps
	untracedAllocs float64 // allocs_per_req of the untraced baseline reps
	scale          float64 // reference normalisation of the traced reps
	tr             *tracer
	cpu            map[string]float64 // serve-phase CPU µs per request, per bucket
	setupCPU       map[string]float64 // set-up CPU ms per set-up, per bucket
	allocs         map[string]float64 // serve-phase allocations per request, per bucket
	saturateS      float64            // capacity search, reference-normalised seconds
	slo            capacity.Result
}

// layers runs the traced pass of a run of the given seconds: the capacity
// search, untraced baseline reps, a profiled batch of set-ups, profiled and
// spanned serve reps, and one rep under the heap profiler. Modelled results
// of every rep must equal the first.
func (r *run) layers(seconds int) (*traced, int, error) {
	t := &traced{}
	var err error
	t.saturateS, err = r.bracket(func() error {
		var err error
		t.slo, err = sloRPS(r.seed)
		return err
	})
	if err != nil {
		return nil, 0, err
	}

	// Half the untraced run's reps, and at least minReps, run untraced as the
	// baseline; then twice the untraced run's reps run profiled, which at
	// -seconds 10 gives about 2 000 CPU samples at profileHz.
	reps := r.w.repCount(seconds)
	profiled := 2 * reps
	base, err := r.reps(max(minReps, reps/2))
	if err != nil {
		return nil, 0, err
	}
	n := float64(r.w.requests)
	us := make([]float64, len(base))
	allocs := make([]float64, len(base))
	for i, s := range base {
		us[i] = s.hostS / n * 1e6
		allocs[i] = float64(s.mallocs) / n
	}
	t.untracedUS, t.untracedAllocs = median(us), median(allocs)

	// Set-up CPU: three timed batches' worth of set-ups under the profiler.
	setups := 3 * r.w.setups
	counts, err := cpuProfile(setupBuckets, r.setupBatch(setups))
	if err != nil {
		return nil, 0, err
	}
	scale, err := r.refScale()
	if err != nil {
		return nil, 0, err
	}
	t.setupCPU = cpuTimes(counts, scale*1e3/float64(setups))

	// Traced serve reps: spans around every call into a layer and the CPU
	// profiler on. The reference runs bracket the whole loop, so every
	// traced duration shares one normalisation.
	t.tr = newTracer()
	counts = map[string]int64{}
	var serve, cpu time.Duration
	for i := 0; i < profiled; i++ {
		sys, err := r.w.setup(t.tr)
		if err != nil {
			return nil, 0, err
		}
		runtime.GC()
		c, err := cpuProfile(cpuBuckets, func() error {
			cpu0, start := processCPU(), time.Now()
			out, err := sys.serve(r.in, t.tr)
			serve += time.Since(start)
			cpu += processCPU() - cpu0
			if err == nil {
				r.record(out)
			}
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		for b, k := range c {
			counts[b] += k
		}
	}
	if t.scale, err = r.refScale(); err != nil {
		return nil, 0, err
	}
	perReq := t.scale * 1e6 / (float64(profiled) * n)
	t.tracedUS = serve.Seconds() * perReq
	t.tracedCPUUS = cpu.Seconds() * perReq
	t.cpu = cpuTimes(counts, perReq)

	// One rep under the heap profiler: its exact allocation count, split by
	// the profile's per-bucket shares.
	sys, err := r.w.setup(nil)
	if err != nil {
		return nil, 0, err
	}
	var m0, m1 runtime.MemStats
	share, err := allocShares(func() error {
		runtime.ReadMemStats(&m0)
		out, err := sys.serve(r.in, nil)
		runtime.ReadMemStats(&m1)
		if err == nil {
			r.record(out)
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	t.allocs = map[string]float64{}
	for b, s := range share {
		t.allocs[b] = s * float64(m1.Mallocs-m0.Mallocs) / n
	}
	return t, len(base) + profiled + 1, nil
}

// cpuTimes converts CPU sample counts per bucket into CPU time: each sample
// is 1/profileHz s, multiplied by per (a normalisation and a unit per
// amount of work).
func cpuTimes(counts map[string]int64, per float64) map[string]float64 {
	out := map[string]float64{}
	for b, c := range counts {
		out[b] = float64(c) / profileHz * per
	}
	return out
}

// sloRPS asks the capacity planner for the highest Poisson rate one
// p3.8xlarge under PT+DHA sustains within its SLO gates.
func sloRPS(seed int64) (capacity.Result, error) {
	return capacity.Saturate(capacity.Point{
		Topology: "p3.8xlarge", Nodes: 1, Policy: serving.PolicyPTDHA,
		Route: cluster.RouteLeastOutstanding, MaxBatch: 1,
	}, capacity.SearchSpec{Seed: seed, MinRate: 120, MaxRate: 480, Step: 5}, capacity.DefaultPricing())
}

// perLayer turns the traced pass into the printed per-layer metrics. Every
// name is printed on every workload; a layer the workload does not reach
// reads 0.
func (r *run) perLayer(t *traced) []metric {
	n := float64(r.w.requests)
	m := r.first.modelled
	per := func(v float64) float64 { return v / n }
	perK := func(v float64) float64 { return v / n * 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// spanMean is a span's mean normalised duration in unit (1e3: ms, 1e6: µs).
	spanMean := func(unit float64, names ...string) float64 {
		var d time.Duration
		k := 0
		for _, name := range names {
			dd, kk := t.tr.total(name)
			d, k = d+dd, k+kk
		}
		if k == 0 {
			return 0
		}
		return d.Seconds() / float64(k) * t.scale * unit
	}
	events := per(m["events"])
	out := []metric{
		{"bench.traced_us_per_req", t.tracedUS, "us"},
		{"bench.traced_cpu_us_per_req", t.tracedCPUUS, "us"},
		{"bench.trace_overhead", ratio(t.tracedUS, t.untracedUS), "x"},
		{"sim.events_per_req", events, "count"},
		{"sim.ns_per_event", ratio(t.untracedUS*1e3, events), "ns"},
		{"serving.submit_us", spanMean(1e6, "serving.Submit"), "us"},
		{"serving.cold_ratio", per(m["cold_starts"]), "frac"},
		{"serving.pt_fallback_ratio", ratio(m["pt_fallbacks"], m["cold_starts"]), "frac"},
		{"serving.evictions_per_kreq", perK(m["evictions"]), "count/kreq"},
		{"serving.deferred_per_kreq", perK(m["deferred"]), "count/kreq"},
		{"serving.deploy_ms", spanMean(1e3, "serving.Deploy"), "ms"},
		{"serving.warmup_ms", spanMean(1e3, "serving.Warmup", "cluster.Warmup"), "ms"},
		{"llm.decode_batch_mean", m["mean_decode_batch"], "count"},
		{"llm.iters_per_req", per(m["decode_iters"]), "count"},
		{"llm.kv_deferred_per_kreq", perK(m["kv_deferred"]), "count/kreq"},
		{"hostmem.hit_ratio", ratio(m["host_hits"], m["host_hits"]+m["host_misses"]), "frac"},
		{"hostmem.evictions_per_kreq", perK(m["host_evictions"]), "count/kreq"},
		{"registry.new_ms", spanMean(1e3, "registry.New"), "ms"},
		{"cluster.deploy_ms", spanMean(1e3, "cluster.Deploy"), "ms"},
		{"cluster.scale_events", m["scale_events"], "count"},
		{"cluster.sleeps", m["sleeps"], "count"},
		{"cluster.wakes", m["wakes"], "count"},
		{"cluster.prewarms", m["prewarms"], "count"},
		{"monitor.alerts", m["alerts"], "count"},
		{"capacity.slo_rps", float64(t.slo.SustainedRPS), "1/s"},
		{"capacity.saturate_s", t.saturateS, "s"},
		{"capacity.probes", float64(t.slo.Evals), "count"},
		{"model.p50_ms", m["p50_ms"], "ms"},
		{"model.p99_ms", m["p99_ms"], "ms"},
		{"model.cold_p99_ms", m["cold_p99_ms"], "ms"},
		{"model.ttft_p99_ms", m["ttft_p99_ms"], "ms"},
	}
	for _, b := range cpuBuckets {
		out = append(out, metric{"cpu_us." + b, t.cpu[b], "us"})
	}
	for _, b := range setupBuckets {
		out = append(out, metric{"setup_ms." + b, t.setupCPU[b], "ms"})
	}
	for _, b := range allocBuckets {
		out = append(out, metric{"allocs." + b, t.allocs[b], "count"})
	}
	return out
}
