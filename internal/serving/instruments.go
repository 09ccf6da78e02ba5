package serving

import (
	"reflect"
	"strconv"

	"deepplan/internal/engine"
	"deepplan/internal/faults"
	"deepplan/internal/metrics"
	"deepplan/internal/monitor"
	"deepplan/internal/trace"
	"deepplan/internal/workload"
)

// This file is the server's one instrumentation spine. Every countable
// serving event is a kind; Server.emit bumps the kind's count and feeds
// whichever sinks are on — the series' telemetry columns, the monitor
// registry, the trace — as the kind's row in the kinds table directs.
// Report's Counters, the telemetry columns and the OpenMetrics counters are
// therefore views of one stream and cannot disagree. No other file touches
// srv.ins or records into srv.series (scripts/lint_instruments.sh).

// kind is one countable serving event.
type kind int

// The serving event kinds, in kinds-table order.
const (
	kArrival    kind = iota // a request's first dispatch
	kCompletion             // a request fully served
	kColdStart
	kPTFallback
	kRelocation
	kBatchedRun
	kBatchedRequest
	kEviction
	kDeferred
	kSleep
	kWake
	kPrewarm
	kSwapIn
	kSwapOut
	kHostHit  // a cold dispatch found its weights host-resident
	kHostMiss // a cold dispatch found them not resident
	kHostFetch
	kHostEviction
	kShed
	kRetried
	kDegraded
	kGPUFailure
	kToken
	kDecodeIter
	kDecodeSeq
	kKVDeferred
	kKVTransfer
	numKinds
)

// kindRow says where one kind's occurrences go. Empty fields mean "not in
// that sink".
type kindRow struct {
	report string                // Counters field the count fills
	tel    metrics.TelemetryKind // series telemetry column
	metric string                // monitor counter family
	help   string                // the family's HELP text
	label  string                // "gpu" or "model": the counter is per GPU or per deployment
	verb   string                // trace instant name prefix ("<verb> <model>")
}

// kinds is the spine's table: one row per kind.
var kinds = [numKinds]kindRow{
	kArrival: {metric: monitor.MetricArrivals,
		help: "Requests received (first attempts, before admission)."},
	kCompletion: {},
	kColdStart: {report: "ColdStarts", tel: metrics.TelColdLaunches, verb: "cold start",
		metric: "deepplan_cold_starts", label: "model",
		help: "Cold-start runs launched."},
	kPTFallback: {report: "PTFallbacks", verb: "pt-fallback"},
	kRelocation: {report: "Relocations", tel: metrics.TelRelocations, verb: "relocate",
		metric: "deepplan_relocations",
		help:   "Warm instances relocated off a congested GPU."},
	kBatchedRun:     {report: "BatchedRuns", verb: "batch"},
	kBatchedRequest: {report: "BatchedRequests"},
	kEviction: {report: "Evictions", tel: metrics.TelEvictions, verb: "evict",
		metric: "deepplan_evictions",
		help:   "Instances evicted from GPU residency."},
	kDeferred: {report: "Deferred", tel: metrics.TelDeferred, verb: "defer",
		metric: "deepplan_deferred",
		help:   "Requests parked on the waitlist for GPU memory."},
	kSleep: {report: "Sleeps", verb: "sleep",
		metric: "deepplan_sleeps",
		help:   "Warm instances demoted to the sleeping state (GPU memory released, host copy kept)."},
	kWake: {report: "Wakes", verb: "wake",
		metric: "deepplan_wakes",
		help:   "Sleeping instances promoted back to warm via a direct-host-access load."},
	kPrewarm: {report: "Prewarms", verb: "prewarm",
		metric: "deepplan_prewarms",
		help:   "Prewarm actuations started by the predictive autoscaler."},
	kSwapIn: {report: "SwapIns", verb: "swap-in",
		metric: "deepplan_swap_ins",
		help:   "Swapped-out instances promoted back to warm (host fetch + load)."},
	kSwapOut:  {report: "SwapOuts", verb: "swap-out"},
	kHostHit:  {report: "HostHits"},
	kHostMiss: {report: "HostMisses"},
	kHostFetch: {report: "HostFetches", verb: "host-fetch",
		metric: "deepplan_host_fetches",
		help:   "Fetch-to-pin operations for weights that were not host-resident."},
	// A host eviction's instant is named after the evicted entry, not a
	// model (noteHostEvictions records it).
	kHostEviction: {report: "HostEvictions",
		metric: "deepplan_host_evictions",
		help:   "Entries evicted from the pinned host-memory cache tier."},
	kShed: {report: "Shed", tel: metrics.TelShed, verb: "shed",
		metric: monitor.MetricShed,
		help:   "Requests dropped by admission control or a failed retry."},
	kRetried: {report: "Retried", tel: metrics.TelRetried, verb: "retry",
		metric: "deepplan_retried",
		help:   "Requests re-dispatched after a GPU failure."},
	kDegraded: {report: "Degraded"},
	// A GPU failure's instant goes on the faults track (gpuTransition).
	kGPUFailure: {report: "GPUFailures",
		metric: "deepplan_gpu_failures", label: "gpu",
		help: "Injected GPU failures."},
	kToken:      {report: "TokensGenerated"},
	kDecodeIter: {report: "DecodeIters"},
	kDecodeSeq:  {report: "DecodeSeqSum"},
	kKVDeferred: {report: "KVDeferred"},
	kKVTransfer: {report: "KVTransfers"},
}

// Counters are a run's event counts: one field per counted kind.
// serving.Report and cluster.Report both embed them, and a cluster's are
// the sum of its nodes' (Add).
type Counters struct {
	ColdStarts int
	// PTFallbacks counts cold-starts that degraded to the single-GPU plan
	// because no transmission partner was free.
	PTFallbacks int
	// Relocations counts warm instances that moved to a cooler GPU.
	Relocations int
	// BatchedRuns / BatchedRequests account dynamic batching (MaxBatch>1):
	// how many multi-request runs were issued and how many requests they
	// carried.
	BatchedRuns     int
	BatchedRequests int
	Evictions       int
	Deferred        int
	// Sleeps/Wakes/Prewarms/SwapIns/SwapOuts account the explicit instance
	// lifecycle the predictive autoscaler actuates: demotions to the
	// sleeping state, direct-host-access wake-ups from it, speculative
	// prewarm actuations, and the swapped-out round trips paid when host
	// pressure pushed a sleeping copy out.
	Sleeps   int
	Wakes    int
	Prewarms int
	SwapIns  int
	SwapOuts int
	// HostHits / HostMisses count host-residency checks on the cold path. A
	// request parked on the waitlist looks up again each time it is
	// re-driven, so misses can far exceed fetches. HostFetches counts the
	// fetch-to-pin operations actually started, by demand or by prewarm.
	// HostEvictions counts entries the cache policy pushed out of host
	// memory under capacity pressure. Misses, fetches and evictions are zero
	// under the legacy pinned host policy (every check hits).
	HostHits      int
	HostMisses    int
	HostFetches   int
	HostEvictions int
	// Shed counts requests dropped entirely: rejected by the SLO admission
	// controller, too large for host memory or a GPU's KV space, or lost
	// after their single post-failure retry also died.
	Shed int
	// Retried counts requests re-dispatched to a surviving GPU after a fault
	// aborted their run.
	Retried int
	// Degraded counts requests that completed while at least one injected
	// fault was active — the population whose latency the faults perturbed.
	Degraded int
	// GPUFailures counts GPU-failure fault windows that opened during the run.
	GPUFailures int
	// Autoregressive-mode counts, zero unless Config.LLM was enabled: tokens
	// generated, decode iterations, the sum of their batch widths, KV
	// admission deferrals, and prefill→decode KV handoffs.
	TokensGenerated int
	DecodeIters     int
	DecodeSeqSum    int
	KVDeferred      int
	KVTransfers     int
}

// Add sums o into c, field by field.
func (c *Counters) Add(o Counters) {
	dst, src := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := 0; i < dst.NumField(); i++ {
		dst.Field(i).SetInt(dst.Field(i).Int() + src.Field(i).Int())
	}
}

// counters returns the run's counts so far.
func (srv *Server) counters() Counters {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for k, row := range kinds {
		if row.report != "" {
			v.FieldByName(row.report).SetInt(int64(srv.n[k]))
		}
	}
	return c
}

// count adds n occurrences of k. It is the whole of emit for kinds whose
// row names no sink (token and batch-width tallies).
func (srv *Server) count(k kind, n int) { srv.n[k] += n }

// emit records one occurrence of k at the current instant: it bumps the
// kind's count and feeds every sink that is on and that the kind's row
// names. pid is the trace track (a GPU id or trace.ServerPID) and, for
// per-GPU monitor counters, the GPU; inst is the event's subject. The trace
// instant's arguments are {"instance": inst.ID} unless args is given; args
// runs only while tracing, so with the trace off emit allocates nothing.
func (srv *Server) emit(k kind, pid int, inst *Instance, args func() map[string]any) {
	srv.n[k]++
	row := &kinds[k]
	if srv.cfg.Telemetry && row.tel != 0 {
		srv.series.Count(srv.sim.Now(), row.tel)
	}
	if ins := srv.ins; ins != nil {
		c := ins.byKind[k]
		switch row.label {
		case "gpu":
			c = ins.byGPU[k][pid]
		case "model":
			c = inst.dep.mon.byKind[k]
		}
		c.Inc()
	}
	if srv.rec == nil || row.verb == "" {
		return
	}
	var a map[string]any
	if args != nil {
		a = args()
	} else {
		a = map[string]any{"instance": inst.ID}
	}
	srv.rec.InstantArgs(pid, trace.TIDLifecycle, "serving", row.verb+" "+inst.dep.Model.Name, srv.sim.Now(), a)
}

// instruments are the server's pre-resolved monitor handles. They are
// created once at New (and per deployment at Deploy), so the per-event
// cost is a nil check plus a float add — no label formatting, no map
// lookups, no allocations (TestEmitAllocatesNothing). The whole struct is
// nil when Config.Monitor is nil.
type instruments struct {
	byKind [numKinds]*monitor.Counter   // unlabelled kind counters
	byGPU  [numKinds][]*monitor.Counter // per-GPU kind counters

	depth      *monitor.Gauge
	depthH     *monitor.Histogram
	hostPinned *monitor.Gauge

	gpuBusy     []*monitor.Counter
	gpuBusyFrac []*monitor.Gauge
	gpuUp       []*monitor.Gauge

	faultEvents [faults.NumKinds]*monitor.Counter
}

// depInstruments are the per-deployment handles: the model-labelled kind
// counters, and the request counters and latency histograms indexed by
// class (0 = cold-served, 1 = warm-served).
type depInstruments struct {
	byKind     [numKinds]*monitor.Counter
	requests   [2]*monitor.Counter
	violations [2]*monitor.Counter
	latency    [2]*monitor.Histogram
}

// attachSinks resolves the monitor registry's handles when the
// configuration asks for monitoring.
func (srv *Server) attachSinks() {
	reg := srv.cfg.Monitor
	if reg == nil {
		return
	}
	ins := &instruments{
		depth: reg.Gauge("deepplan_queue_depth",
			"Outstanding inference runs across all GPUs, sampled at the last arrival."),
		depthH: reg.Histogram("deepplan_arrival_queue_depth",
			"Queue depth observed by each arriving request.", monitor.DefaultDepthBuckets()),
		hostPinned: reg.Gauge("deepplan_host_pinned_bytes",
			"Bytes pinned in the host-memory tier, sampled at each fetch."),
	}
	for k, row := range kinds {
		if row.metric != "" && row.label == "" {
			ins.byKind[k] = reg.Counter(row.metric, row.help)
		}
	}
	for g := range srv.gpus {
		id := strconv.Itoa(g)
		ins.gpuBusy = append(ins.gpuBusy, reg.Counter("deepplan_gpu_busy_seconds",
			"Seconds with at least one run outstanding on the GPU.", "gpu", id))
		ins.gpuBusyFrac = append(ins.gpuBusyFrac, reg.Gauge("deepplan_gpu_busy_fraction",
			"Busy seconds over elapsed sim time, set when the run finishes.", "gpu", id))
		up := reg.Gauge(monitor.MetricGPUUp,
			"1 while the GPU is serving, 0 while failed by fault injection.", "gpu", id)
		up.Set(1)
		ins.gpuUp = append(ins.gpuUp, up)
		for k, row := range kinds {
			if row.label == "gpu" {
				ins.byGPU[k] = append(ins.byGPU[k], reg.Counter(row.metric, row.help, "gpu", id))
			}
		}
	}
	for k := range ins.faultEvents {
		ins.faultEvents[k] = reg.Counter("deepplan_fault_events",
			"Fault windows opened, by kind.", "kind", faults.Kind(k).String())
	}
	srv.ins = ins
}

// deployInstruments resolves a deployment's monitor handles; policy and
// model become labels so cluster-level sums can slice by either. Nil when
// monitoring is off.
func (srv *Server) deployInstruments(model string) *depInstruments {
	if srv.ins == nil {
		return nil
	}
	reg, p := srv.cfg.Monitor, string(srv.cfg.Policy)
	d := &depInstruments{}
	for k, row := range kinds {
		if row.label == "model" {
			d.byKind[k] = reg.Counter(row.metric, row.help, "model", model)
		}
	}
	for i, class := range [...]string{"cold", "warm"} {
		d.requests[i] = reg.Counter(monitor.MetricRequests,
			"First responses by serving class (the whole answer; the first token in LLM mode).", "class", class, "model", model, "policy", p)
		d.violations[i] = reg.Counter(monitor.MetricViolations,
			"First responses whose latency exceeded the SLO (the whole answer; the first token in LLM mode).", "class", class, "model", model, "policy", p)
		d.latency[i] = reg.Histogram("deepplan_request_latency_seconds",
			"Latency from arrival to first response (the whole answer; the first token in LLM mode).", monitor.DefaultLatencyBuckets(),
			"class", class, "model", model, "policy", p)
	}
	return d
}

// arrive records a request's first dispatch, with the total queue depth it
// observed.
func (srv *Server) arrive() {
	srv.emit(kArrival, trace.ServerPID, nil, nil)
	if !srv.cfg.Telemetry && srv.ins == nil {
		return
	}
	depth := srv.Outstanding()
	if srv.cfg.Telemetry {
		srv.series.Arrival(srv.sim.Now(), depth)
	}
	if srv.ins != nil {
		srv.ins.depth.Set(float64(depth))
		srv.ins.depthH.Observe(float64(depth))
	}
}

// respond records a request's first response — the whole answer in
// single-shot mode, the first token in LLM mode: its latency sample in the
// (window, class) series, the monitor's per-class counters, and a request
// span on the trace. A single-shot response also completes the request.
func (srv *Server) respond(req workload.Request, res *engine.Result, cold bool) {
	lat := res.Finish.Sub(req.At)
	srv.series.Record(req.At, lat, cold)
	llm := srv.cfg.LLM.Enabled
	if !llm {
		srv.complete()
	}
	class := 1 // warm
	if cold {
		class = 0
	}
	if srv.ins != nil {
		m := srv.instances[req.Instance].dep.mon
		m.requests[class].Inc()
		if lat > srv.cfg.SLO {
			m.violations[class].Inc()
		}
		m.latency[class].Observe(lat.Seconds())
	}
	if srv.rec == nil {
		return
	}
	// One async row per request: an outer span covering the whole response
	// with the latency breakdown attached to its begin event (so summarizers
	// never need to pair begins with ends) and, for single-shot requests, a
	// nested "queue" span up to first execution. Async events tolerate the
	// overlap that concurrent requests on one GPU always produce.
	srv.traceSeq++
	id := srv.traceSeq
	queue := res.ExecBegin.Sub(req.At)
	args := map[string]any{
		"class":    [...]string{"cold", "warm"}[class],
		"instance": req.Instance,
		"queue_us": float64(queue) / 1e3,
	}
	if llm {
		args["ttft_us"] = float64(lat) / 1e3
	} else {
		args["load_us"] = float64(res.TotalStall) / 1e3
		args["exec_us"] = float64(res.Finish.Sub(res.ExecBegin)-res.TotalStall) / 1e3
		args["total_us"] = float64(lat) / 1e3
	}
	srv.rec.AsyncBegin(res.Primary, "request", res.Model, id, req.At, args)
	if queue > 0 && !llm {
		srv.rec.AsyncBegin(res.Primary, "request", "queue", id, req.At, nil)
		srv.rec.AsyncEnd(res.Primary, "request", "queue", id, res.ExecBegin)
	}
	srv.rec.AsyncEnd(res.Primary, "request", res.Model, id, res.Finish)
}

// complete counts a fully served request, and whether a fault window was
// open when it finished.
func (srv *Server) complete() {
	srv.count(kCompletion, 1)
	if srv.inj != nil && srv.inj.Active() > 0 {
		srv.count(kDegraded, 1)
	}
}

// creditBusy credits a GPU that just went idle with the busy time since its
// queue last went 0→1.
func (srv *Server) creditBusy(gs *gpuState) {
	if srv.cfg.Telemetry {
		srv.series.Busy(gs.busySince, srv.sim.Now())
	}
	if srv.ins != nil {
		srv.ins.gpuBusy[gs.id].Add(srv.sim.Now().Sub(gs.busySince).Seconds())
	}
}

// gpuTransition records a GPU failing (up false) or recovering: its
// gpu_up gauge and a faults-track instant.
func (srv *Server) gpuTransition(id int, up bool) {
	name, v := "gpu-fail", 0.0
	if up {
		name, v = "gpu-recover", 1
	}
	if srv.ins != nil {
		srv.ins.gpuUp[id].Set(v)
	}
	if srv.rec != nil {
		srv.rec.InstantArgs(id, trace.TIDLifecycle, "faults", name, srv.sim.Now(), map[string]any{"gpu": id})
	}
}

// onFaultEvent records fault window transitions onto the trace timeline
// and counts window openings per kind in the registry.
func (srv *Server) onFaultEvent(e faults.Event, active bool) {
	if srv.ins != nil && active && int(e.Kind) < len(srv.ins.faultEvents) {
		srv.ins.faultEvents[e.Kind].Inc()
	}
	if srv.rec == nil {
		return
	}
	name := "fault-clear " + e.Kind.String()
	if active {
		name = "fault " + e.Kind.String()
	}
	srv.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "faults", name,
		srv.sim.Now(), map[string]any{"event": e.Kind.String(), "active": active})
}

// samplePinned samples the host tier's pinned bytes into its gauge.
func (srv *Server) samplePinned() {
	if srv.ins != nil {
		srv.ins.hostPinned.Set(float64(srv.host.Pinned()))
	}
}

// finishSinks closes the monitor's view of the run at the current clock:
// each GPU's busy fraction goes into its gauge.
func (srv *Server) finishSinks() {
	if srv.ins == nil {
		return
	}
	elapsed := srv.sim.Now().Seconds()
	for g := range srv.gpus {
		frac := 0.0
		if elapsed > 0 {
			frac = srv.ins.gpuBusy[g].Value() / elapsed
		}
		srv.ins.gpuBusyFrac[g].Set(frac)
	}
}
