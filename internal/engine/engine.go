// Package engine executes inference plans on the simulated multi-GPU
// server, reproducing the paper's execution coordination (§4.3.4).
//
// Each GPU has three streams, mirroring the paper's libTorch engine:
//
//   - a load stream that copies Load-method layers host→GPU in plan order;
//   - a migration stream (on secondary GPUs) that forwards arrived
//     partitions to the primary GPU over NVLink, layer by layer;
//   - an execution stream that runs layers in order, synchronizing with the
//     other streams through events (cudaEventRecord/cudaStreamWaitEvent).
//
// Direct-host-access layers skip the load stream entirely: their execution
// task issues a PCIe read flow concurrently with compute, so DHA traffic
// contends with in-flight copies on the same lane exactly as on real
// hardware — this is what produces Table 4's interference numbers.
//
// Like the paper's engine, which replays a fixed per-layer plan, a run does
// not re-derive the cost model. Each model the engine serves has one run
// template: its stream-task names and one immutable cost table per batch
// size it has run at, giving each layer's unscaled compute time and DHA
// bytes. Templates are bounded by the distinct models served, and each
// one's tables by the distinct batch sizes (a short slice scanned
// linearly). A run applies its ComputeScale to each layer's entry before
// summing a segment, so prefill pricing is exactly what the cost model
// gives. The cost Params must not change after New.
//
// A steady-state run allocates nothing, whatever its layer count. A
// runState embeds the run's Result and owns slices sized from the plan:
// Timings, one op record per stream task issued, and one stream event per
// copy or forward. Completed run states go back to a free list and are
// reused with their slices, which grow only when a larger plan needs them.
// An op is its own stream.Handler, sim.Handler and simnet.Handler, so it is
// queued, timed and notified without closures. It holds the pending timer
// or flow, so FailGPU can abort any run by walking its ops. Fault support
// therefore needs no opt-in: the active-run registry is always kept.
package engine

import (
	"fmt"
	"slices"
	"strconv"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/monitor"
	"deepplan/internal/plan"
	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/stream"
	"deepplan/internal/topology"
	"deepplan/internal/trace"
)

// Config wires an Engine to its simulation substrate. Sim, Net, Topo and
// Cost are required; Trace is optional.
type Config struct {
	Sim  *sim.Simulator
	Net  *simnet.Network
	Topo *topology.Topology
	Cost *costmodel.Params
	// Trace, when non-nil, receives per-layer exec/load/migrate spans for
	// every completed run, attributed to the GPU that did the work
	// (secondary-partition copies land on the secondary's tracks).
	// Recording is observation-only and never perturbs the simulation.
	Trace *trace.Recorder
	// Monitor, when non-nil, receives per-GPU run counters (completed and
	// aborted runs, execution-stream seconds, host→GPU copy and DHA bytes)
	// keyed by a gpu label. Instruments resolve once at construction; the
	// per-run cost is a few counter adds. Like Trace, observation-only.
	Monitor *monitor.Registry
}

// gpuStreams is the per-device stream set.
type gpuStreams struct {
	exec      *stream.Stream
	load      *stream.Stream
	migration *stream.Stream
}

// Engine schedules inference runs onto the simulated server.
type Engine struct {
	sim   *sim.Simulator
	net   *simnet.Network
	topo  *topology.Topology
	cost  *costmodel.Params
	trace *trace.Recorder
	gpus  []gpuStreams

	// hostPath[g] is GPU g's host→GPU PCIe path and nvPath[s][d] the NVLink
	// path from s to d (nil without a link), resolved once so scheduling
	// builds no path slices.
	hostPath [][]*simnet.Link
	nvPath   [][][]*simnet.Link

	// failed marks GPUs out of service; active holds every unfinished run
	// so FailGPU can abort the ones using a failed GPU.
	failed []bool
	active []*runState
	// free holds completed run states for reuse, at most len(active)+1 of
	// them, so an idle engine keeps one.
	free []*runState

	// templates holds what each served model's runs share (task names and
	// per-batch cost tables), so steady-state scheduling concatenates no
	// strings and prices no layer. Keyed by model pointer: models are
	// constructed once and shared across runs, so the map stays bounded by
	// the number of distinct models the engine ever serves.
	templates map[*dnn.Model]*modelTemplate

	// mon holds per-GPU monitoring instruments; nil when monitoring is off.
	mon *engInstruments
}

// engInstruments are the engine's pre-resolved monitor handles, one slot
// per GPU so the per-run path does no label work.
type engInstruments struct {
	runs, aborted, execSeconds, loadedBytes, dhaBytes []*monitor.Counter
}

// layerNames holds the pre-built stream-task names for one layer.
type layerNames struct {
	exec, dha, cp, seg string
}

// modelTemplate is the run template of one model: its pre-built task names
// and one immutable cost table per batch size the engine has run it at.
// The tables are a short slice scanned linearly, so a huge batch costs one
// table rather than a slot per smaller batch; serving runs a model at a
// handful of batch sizes (up to its MaxBatch).
type modelTemplate struct {
	begin, finish string
	layers        []layerNames
	costs         []batchCosts
}

// batchCosts is one model's cost table at one batch size.
type batchCosts struct {
	batch  int
	layers []layerCost
}

// layerCost is one layer's unscaled in-memory compute time and its
// direct-host-access read traffic at a batch size.
type layerCost struct {
	compute sim.Duration
	dha     float64
}

// templateFor returns m's run template, building its names on first use.
func (e *Engine) templateFor(m *dnn.Model) *modelTemplate {
	if t, ok := e.templates[m]; ok {
		return t
	}
	t := &modelTemplate{
		begin:  "begin:" + m.Name,
		finish: "finish:" + m.Name,
		layers: make([]layerNames, m.NumLayers()),
	}
	for i := range t.layers {
		ln := m.Layers[i].Name
		t.layers[i] = layerNames{
			exec: "exec:" + ln,
			dha:  "dha:" + ln,
			cp:   "copy:" + ln,
			seg:  "exec-seg:" + ln,
		}
	}
	if e.templates == nil {
		e.templates = make(map[*dnn.Model]*modelTemplate)
	}
	e.templates[m] = t
	return t
}

// costsAt returns m's cost table at batch, deriving it from the cost model
// on first use. The engine's Params must not change after New.
func (t *modelTemplate) costsAt(m *dnn.Model, cost *costmodel.Params, batch int) []layerCost {
	for i := range t.costs {
		if t.costs[i].batch == batch {
			return t.costs[i].layers
		}
	}
	lc := make([]layerCost, len(m.Layers))
	for i := range m.Layers {
		l := &m.Layers[i]
		lc[i] = layerCost{compute: cost.ComputeTime(l, batch), dha: cost.DHABytes(l, batch)}
	}
	t.costs = append(t.costs, batchCosts{batch: batch, layers: lc})
	return lc
}

// New returns an Engine over the given substrate.
func New(cfg Config) *Engine {
	if cfg.Sim == nil || cfg.Net == nil || cfg.Topo == nil || cfg.Cost == nil {
		panic("engine: incomplete config")
	}
	ngpu := cfg.Topo.NumGPUs()
	e := &Engine{sim: cfg.Sim, net: cfg.Net, topo: cfg.Topo, cost: cfg.Cost, trace: cfg.Trace,
		failed: make([]bool, ngpu)}
	for i := 0; i < ngpu; i++ {
		e.gpus = append(e.gpus, gpuStreams{
			exec:      stream.New(cfg.Sim, fmt.Sprintf("gpu%d/exec", i)),
			load:      stream.New(cfg.Sim, fmt.Sprintf("gpu%d/load", i)),
			migration: stream.New(cfg.Sim, fmt.Sprintf("gpu%d/migration", i)),
		})
		e.hostPath = append(e.hostPath, cfg.Topo.HostToGPUPath(i))
		nv := make([][]*simnet.Link, ngpu)
		for j := range nv {
			nv[j], _ = cfg.Topo.GPUToGPUPath(i, j)
		}
		e.nvPath = append(e.nvPath, nv)
	}
	if reg := cfg.Monitor; reg != nil {
		m := &engInstruments{}
		for i := 0; i < cfg.Topo.NumGPUs(); i++ {
			g := strconv.Itoa(i)
			m.runs = append(m.runs, reg.Counter("deepplan_engine_runs",
				"Completed inference runs by primary GPU.", "gpu", g))
			m.aborted = append(m.aborted, reg.Counter("deepplan_engine_aborted_runs",
				"Runs aborted mid-flight by an injected GPU failure.", "gpu", g))
			m.execSeconds = append(m.execSeconds, reg.Counter("deepplan_engine_exec_seconds",
				"Execution-stream occupancy (first layer start to finish).", "gpu", g))
			m.loadedBytes = append(m.loadedBytes, reg.Counter("deepplan_engine_loaded_bytes",
				"Host→GPU copy traffic.", "gpu", g))
			m.dhaBytes = append(m.dhaBytes, reg.Counter("deepplan_engine_dha_bytes",
				"Direct-host-access traffic.", "gpu", g))
		}
		e.mon = m
	}
	return e
}

// Spec describes one inference to run.
type Spec struct {
	Model *dnn.Model
	Plan  *plan.Plan
	// Batch overrides the plan's batch size when positive.
	Batch int
	// Primary is the GPU that executes the inference.
	Primary int
	// Secondaries are the GPUs receiving partitions 1..N-1, in order.
	// Start requires them iff a cold run's plan has multiple partitions;
	// RunOnce fills in the topology's default partners when nil.
	Secondaries []int
	// Warm skips all loading: Load-method layers are already resident.
	// DHA-method layers still read host memory — DeepPlan keeps them there
	// permanently, which is how it packs more instances per GPU (§5.3).
	Warm bool
	// ResidentMask, when non-nil, marks individual layers as already
	// resident on the primary GPU: they are executed in place without
	// transmission while the rest of the model streams in per inference.
	// This is the partial-residency mode behind serving models larger than
	// GPU memory (§7 future work). Ignored when Warm is set. Must match
	// the model's layer count.
	ResidentMask []bool
	// ComputeScale, when in (0,1), scales every layer's compute duration.
	// The autoregressive serving mode uses it to price a prefill over a
	// prompt shorter than the model's calibrated sequence length. Copy and
	// DHA traffic are unscaled (weight movement is token-independent).
	// Zero and one both mean "unscaled", exactly — no float round-trip —
	// so single-shot runs stay byte-identical. Start rejects NaN and values
	// outside [0,1].
	ComputeScale float64
	// OnDone receives the result when the last layer retires. The Result
	// is valid only until OnDone returns: the engine then reuses it for a
	// later run. Copy what is needed, or keep r.Clone().
	OnDone func(*Result)
}

// LayerTiming records one layer's lifecycle within a run.
type LayerTiming struct {
	Index     int
	Name      string
	Method    plan.Method
	Partition int

	// LoadStart/LoadDone bound the host→GPU copy (zero for DHA, warm,
	// and parameterless layers). For secondary partitions this is the copy
	// onto the secondary GPU.
	LoadStart, LoadDone sim.Time
	// AvailAt is when the layer became usable on the primary GPU (after
	// NVLink forwarding for secondary partitions).
	AvailAt sim.Time
	// ExecStart/ExecDone bound execution on the primary GPU.
	ExecStart, ExecDone sim.Time
	// Stall is execution-stream idle time waiting for this layer.
	Stall sim.Duration
}

// Result summarizes one completed inference. A Result handed to OnDone
// belongs to the engine and is reused once OnDone returns; RunOnce returns
// a copy the caller owns.
type Result struct {
	Model   string
	Mode    string
	Batch   int
	Primary int
	// Secondaries are the GPUs that received partitions 1..N-1 (aliases the
	// spec's slice; empty for single-partition and warm runs). Needed to
	// attribute per-partition load/migrate work to the right GPU.
	Secondaries []int
	Warm        bool
	// Aborted marks a run cut short by a GPU failure: Finish is the abort
	// instant, Timings cover only completed work, and no trace is emitted.
	// The serving layer retries aborted requests on a surviving GPU.
	Aborted   bool
	Submitted sim.Time
	// ExecBegin is when the execution stream reached this run's first layer
	// (queueing behind earlier runs excluded from stalls).
	ExecBegin sim.Time
	Finish    sim.Time
	Timings   []LayerTiming

	// TotalStall is summed per-layer stall (the paper's Figure 2 metric).
	TotalStall sim.Duration
	// BytesLoaded is host→GPU copy traffic; BytesDHA is direct-host-access
	// traffic; BytesNVLink is forwarding traffic.
	BytesLoaded, BytesDHA, BytesNVLink float64
}

// Clone returns a copy of r that owns its Timings, so it stays valid after
// the engine reuses r. Secondaries still aliases the spec's slice.
func (r *Result) Clone() *Result {
	c := *r
	c.Timings = slices.Clone(r.Timings)
	return &c
}

// Latency is submission-to-finish time.
func (r *Result) Latency() sim.Duration { return r.Finish.Sub(r.Submitted) }

// ExecTime is the execution-stream occupancy (first layer start to finish).
func (r *Result) ExecTime() sim.Duration { return r.Finish.Sub(r.ExecBegin) }

// Start validates the spec and schedules the run. The returned error covers
// structural problems only; execution itself proceeds inside the simulator.
func (e *Engine) Start(spec Spec) error {
	if spec.Model == nil || spec.Plan == nil {
		return fmt.Errorf("engine: spec needs a model and a plan")
	}
	if err := spec.Plan.Validate(spec.Model); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if spec.Primary < 0 || spec.Primary >= len(e.gpus) {
		return fmt.Errorf("engine: primary GPU %d out of range", spec.Primary)
	}
	if e.failed[spec.Primary] {
		return fmt.Errorf("engine: primary GPU %d is failed", spec.Primary)
	}
	want := spec.Plan.NumParts - 1
	if spec.Warm {
		want = 0 // nothing is transmitted on a warm run
	}
	if got := len(spec.Secondaries); got != want {
		return fmt.Errorf("engine: plan %s/%s needs %d secondaries, got %d",
			spec.Plan.ModelName, spec.Plan.Mode, want, got)
	}
	for _, s := range spec.Secondaries {
		if s < 0 || s >= len(e.gpus) || s == spec.Primary {
			return fmt.Errorf("engine: bad secondary GPU %d", s)
		}
		if e.nvPath[s][spec.Primary] == nil {
			return fmt.Errorf("engine: no NVLink from GPU %d to primary %d", s, spec.Primary)
		}
		if e.failed[s] {
			return fmt.Errorf("engine: secondary GPU %d is failed", s)
		}
	}
	if spec.ResidentMask != nil && len(spec.ResidentMask) != spec.Model.NumLayers() {
		return fmt.Errorf("engine: resident mask has %d entries for %d layers",
			len(spec.ResidentMask), spec.Model.NumLayers())
	}
	if s := spec.ComputeScale; !(s >= 0 && s <= 1) {
		return fmt.Errorf("engine: compute scale %v outside [0,1]", s)
	}
	batch := spec.Batch
	if batch < 1 {
		batch = spec.Plan.Batch
	}
	if batch < 1 {
		batch = 1
	}
	e.schedule(spec, batch)
	return nil
}

// resident reports whether layer i needs no transmission in this run.
func resident(spec *Spec, i int) bool {
	return spec.Warm || (spec.ResidentMask != nil && spec.ResidentMask[i])
}

// scaleDur applies a spec's ComputeScale to a compute duration. Scale 0 and
// 1 return d unchanged so the common single-shot path never round-trips
// through float64.
func scaleDur(d sim.Duration, s float64) sim.Duration {
	if s == 0 || s == 1 {
		return d
	}
	return sim.Duration(float64(d) * s)
}

// transmits reports whether layer i is copied host→GPU in this run.
func transmits(spec *Spec, i int) bool {
	return !resident(spec, i) && spec.Plan.Layers[i].Method == plan.Load && spec.Model.Layers[i].HasParams()
}

// plainCompute reports whether layer i needs neither an arrival wait nor a
// PCIe flow: it is pure GPU compute. Contiguous plain-compute layers are
// coalesced into one stream task — semantically identical (the durations
// sum) but far cheaper to simulate, which matters for the million-request
// trace replays of Figure 15.
func plainCompute(spec *Spec, i int) bool {
	dha := spec.Plan.Layers[i].Method == plan.DHA && spec.Model.Layers[i].HasParams()
	return !dha && !transmits(spec, i)
}

// runState is everything one run owns: the Result handed to OnDone
// (embedded, so it costs no separate allocation), one op record per stream
// task the run issued, and one stream event per transmission op, sliced
// exactly from the plan. A completed run's state is released to the
// engine's free list once its last stream task has returned; an aborted
// run's never is, because its queued ops may still sit in load and
// migration streams.
type runState struct {
	Result
	e      *Engine
	tmpl   *modelTemplate // nil for StartTask runs, which emit no trace
	costs  []layerCost    // tmpl's cost table at this run's batch
	scale  float64        // Spec.ComputeScale
	onDone func(*Result)
	ops    []op
	// evs[o.ev] is recorded on a copy or forward op's stream right after
	// it; an arrival op's event fires when its layer reaches the primary.
	evs []stream.Event

	// prevDone is when the exec stream last retired one of this run's
	// layers; the next layer's stall is measured from it.
	prevDone sim.Time
	// started counts ops that began work, stamping each with its start
	// order so an abort cancels in-flight ops in the order they started.
	started uint32
	// index is the run's slot in Engine.active (-1 once finished or
	// aborted); aborted makes every not-yet-started op a pass-through.
	index   int
	aborted bool
}

// newOp appends an op record of the given kind. The record's address is
// handed to streams and events, so the slice must never grow past the
// capacity the run was sized with.
func (rs *runState) newOp(kind opKind, layer int) *op {
	if len(rs.ops) == cap(rs.ops) {
		panic("engine: op records under-sized for " + rs.Model)
	}
	rs.ops = append(rs.ops, op{rs: rs, kind: kind, layer: int32(layer)})
	return &rs.ops[len(rs.ops)-1]
}

// opKind is the stream task an op record performs.
type opKind uint8

const (
	opBegin   opKind = iota // exec stream reaches the run: stamp ExecBegin
	opCopy                  // host→GPU copy: fixed overhead, then a PCIe flow
	opForward               // NVLink forward: fixed overhead, then a flow
	opSegment               // coalesced plain-compute layers [layer, hi)
	opExec                  // one layer's compute after its weights arrived
	opDHA                   // compute ∥ PCIe reads, then the fixed DHA tail
	opTask                  // StartTask's opaque occupancy; reports the run
	opFinish                // last task: finalize and report the run
)

// opStage is an op's progress; opRunning and opTail are in flight, the
// only stages an abort has to undo.
type opStage uint8

const (
	opQueued  opStage = iota
	opRunning         // started; its timer or flow is pending
	opTail            // DHA only: the fixed-overhead timer is pending
	opDone
)

// op is one stream task of a run. It is its own stream.Handler (Start),
// sim.Handler (Fire: its one pending timer expired) and simnet.Handler
// (FlowDone: its one pending flow landed), so issuing and completing the
// task allocates nothing beyond the simnet Flow itself. At most one timer
// and one flow are pending per op; both are held here for abort.
type op struct {
	rs      *runState
	kind    opKind
	stage   opStage
	pending uint8        // DHA: compute timer and read flow still outstanding
	arrival bool         // evs[ev] marks the layer's arrival on the primary GPU
	gpu     int32        // copy destination or forwarding source
	layer   int32        // the op's layer (first layer of a segment)
	hi      int32        // segment end, exclusive
	order   uint32       // start order within the run, for aborts
	ev      int32        // copy and forward: index into runState.evs
	d       sim.Duration // compute time (segment total, task length)
	bytes   float64      // copy, forward or DHA traffic
	done    func()       // the stream's completion callback while in flight
	timer   *sim.Event
	flow    *simnet.Flow
}

// Start implements stream.Handler: the op's stream reached it.
func (o *op) Start(done func()) {
	rs := o.rs
	e := rs.e
	now := e.sim.Now()
	switch o.kind {
	case opBegin:
		rs.ExecBegin = now
		rs.prevDone = now
		done()
		return
	case opFinish:
		if rs.aborted { // abortRun already finalized and reported it
			done()
			return
		}
		e.complete(rs)
		done()
		e.release(rs)
		return
	}
	if rs.aborted {
		o.stage = opDone
		done()
		return
	}
	o.done = done
	o.stage = opRunning
	o.order = rs.started
	rs.started++
	switch o.kind {
	case opCopy:
		rs.Timings[o.layer].LoadStart = now
		o.timer = e.sim.AfterHandler(sim.Duration(e.topo.PerCopyOverheadNanos), o)
	case opForward:
		o.timer = e.sim.AfterHandler(sim.Duration(e.topo.NVLinkCopyOverheadNanos), o)
	case opSegment:
		rs.Timings[o.layer].Stall = now.Sub(rs.prevDone)
		o.timer = e.sim.AfterHandler(o.d, o)
	case opExec:
		t := &rs.Timings[o.layer]
		t.ExecStart = now
		t.Stall = now.Sub(rs.prevDone)
		o.timer = e.sim.AfterHandler(o.d, o)
	case opDHA:
		t := &rs.Timings[o.layer]
		t.ExecStart = now
		t.Stall = now.Sub(rs.prevDone)
		o.pending = 2
		o.flow = e.net.StartFlowHandler(rs.tmpl.layers[o.layer].dha, e.hostPath[rs.Primary], o.bytes, o)
		o.timer = e.sim.AfterHandler(o.d, o)
	case opTask:
		rs.ExecBegin = now
		o.timer = e.sim.AfterHandler(o.d, o)
	}
}

// Fire implements sim.Handler: the op's pending timer expired.
func (o *op) Fire() {
	o.timer = nil
	rs := o.rs
	e := rs.e
	now := e.sim.Now()
	switch o.kind {
	case opCopy:
		o.flow = e.net.StartFlowHandler(rs.tmpl.layers[o.layer].cp, e.hostPath[o.gpu], o.bytes, o)
	case opForward:
		o.flow = e.net.StartFlowHandler("forward", e.nvPath[o.gpu][rs.Primary], o.bytes, o)
	case opSegment:
		// Attribute per-layer windows inside the segment, which began
		// exactly o.d ago.
		at := now.Add(-o.d)
		for k := o.layer; k < o.hi; k++ {
			tk := &rs.Timings[k]
			tk.ExecStart = at
			at = at.Add(scaleDur(rs.costs[k].compute, rs.scale))
			tk.ExecDone = at
		}
		rs.prevDone = now
		o.finish()
	case opExec:
		rs.Timings[o.layer].ExecDone = now
		rs.prevDone = now
		o.finish()
	case opDHA:
		if o.stage == opTail {
			rs.Timings[o.layer].ExecDone = now
			rs.prevDone = now
			o.finish()
			return
		}
		o.joinDHA()
	case opTask:
		// The report precedes the stream's advance, exactly as a separate
		// finish task queued right behind this one would run.
		e.complete(rs)
		o.finish()
		e.release(rs)
	}
}

// FlowDone implements simnet.Handler: the op's pending flow landed.
func (o *op) FlowDone(at sim.Time) {
	o.flow = nil
	switch o.kind {
	case opCopy:
		o.rs.Timings[o.layer].LoadDone = at
		o.finish()
	case opForward:
		o.finish()
	case opDHA:
		o.joinDHA()
	}
}

// joinDHA retires one of a DHA layer's two concurrent halves (compute and
// host reads); the fixed DHA penalty lands after both.
func (o *op) joinDHA() {
	o.pending--
	if o.pending != 0 {
		return
	}
	o.stage = opTail
	e := o.rs.e
	o.timer = e.sim.AfterHandler(e.cost.DHAFixedOverhead, o)
}

// finish completes the op's stream task.
func (o *op) finish() {
	o.stage = opDone
	done := o.done
	o.done = nil
	done()
}

// abort cancels an in-flight op's pending timer and flow and completes its
// stream task, so the stream keeps draining.
func (o *op) abort() {
	e := o.rs.e
	e.net.Abort(o.flow) // no-op when nil
	e.sim.Cancel(o.timer)
	o.flow, o.timer = nil, nil
	o.finish()
}

// acquire returns a run state from the free list, or a new one.
func (e *Engine) acquire() *runState {
	n := len(e.free)
	if n == 0 {
		return &runState{e: e, index: -1}
	}
	rs := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	return rs
}

// release parks a completed run state for reuse. The run's last stream task
// has returned, so no stream, timer or flow still refers to it. Release
// drops every pointer the state holds except its own slices' storage: the
// op records are cleared and the Result zeroed. Each reuse overwrites every
// Timings entry and zeroes its events. The list is trimmed to one more
// state than there are active runs.
func (e *Engine) release(rs *runState) {
	clear(rs.ops)
	*rs = runState{
		Result: Result{Timings: rs.Timings[:0]},
		e:      e,
		ops:    rs.ops[:0],
		evs:    rs.evs[:0],
		index:  -1,
	}
	e.free = append(e.free, rs)
	if keep := len(e.active) + 1; len(e.free) > keep {
		clear(e.free[keep:])
		e.free = e.free[:keep]
	}
}

// track adds rs to the active-run registry.
func (e *Engine) track(rs *runState) {
	rs.index = len(e.active)
	e.active = append(e.active, rs)
}

// untrack removes rs from the registry by swapping the last entry into its
// slot. Registry order is not meaningful; abort order is still deterministic
// because the registry's history is itself a pure function of the event
// sequence.
func (e *Engine) untrack(rs *runState) {
	i := rs.index
	if i < 0 {
		return
	}
	last := len(e.active) - 1
	e.active[i] = e.active[last]
	e.active[i].index = i
	e.active[last] = nil
	e.active = e.active[:last]
	rs.index = -1
}

// FailGPU takes a GPU out of service: every active run using it as primary
// or secondary aborts immediately (its OnDone fires with Result.Aborted
// set), and Start rejects new runs on it until RecoverGPU.
func (e *Engine) FailGPU(gpu int) {
	if gpu < 0 || gpu >= len(e.gpus) {
		panic(fmt.Sprintf("engine: FailGPU(%d) out of range", gpu))
	}
	if e.failed[gpu] {
		return
	}
	e.failed[gpu] = true
	// Collect first: aborting mutates the registry, and an abort's OnDone
	// may even start new (retried) runs.
	var victims []*runState
	for _, rs := range e.active {
		if rs.Primary == gpu {
			victims = append(victims, rs)
			continue
		}
		for _, s := range rs.Secondaries {
			if s == gpu {
				victims = append(victims, rs)
				break
			}
		}
	}
	for _, rs := range victims {
		e.abortRun(rs)
	}
}

// RecoverGPU returns a failed GPU to service. In-flight state needs no
// repair: the failure already aborted the GPU's runs and its streams were
// drained by the abort.
func (e *Engine) RecoverGPU(gpu int) {
	if gpu < 0 || gpu >= len(e.gpus) {
		panic(fmt.Sprintf("engine: RecoverGPU(%d) out of range", gpu))
	}
	e.failed[gpu] = false
}

// abortRun cancels every in-flight op of rs, in the order the ops started,
// and completes the run as aborted. Cancelled ops complete their stream
// tasks so the streams keep draining: queued ops of the aborted run see
// rs.aborted and pass through instantly, Record tasks still fire their
// events, and therefore no Wait on any stream can hang on an aborted
// producer.
func (e *Engine) abortRun(rs *runState) {
	if rs.aborted || rs.index < 0 {
		return
	}
	rs.aborted = true
	e.untrack(rs)
	for {
		// At most one op per stream is in flight, so this scan runs a
		// handful of times.
		var next *op
		for i := range rs.ops {
			o := &rs.ops[i]
			if (o.stage == opRunning || o.stage == opTail) && (next == nil || o.order < next.order) {
				next = o
			}
		}
		if next == nil {
			break
		}
		next.abort()
	}
	rs.Aborted = true
	rs.Finish = e.sim.Now()
	e.finalize(rs)
	if rs.onDone != nil {
		rs.onDone(&rs.Result)
	}
}

// complete finalizes and reports a run that ran to its end.
func (e *Engine) complete(rs *runState) {
	e.untrack(rs)
	rs.Finish = e.sim.Now()
	e.finalize(rs)
	if e.trace != nil && rs.tmpl != nil {
		rs.EmitTrace(e.trace)
	}
	if rs.onDone != nil {
		rs.onDone(&rs.Result)
	}
}

func (e *Engine) schedule(spec Spec, batch int) {
	m := spec.Model
	p := spec.Plan
	tmpl := e.templateFor(m)
	costs := tmpl.costsAt(m, e.cost, batch)
	primary := e.gpus[spec.Primary]
	n := m.NumLayers()

	rs := e.acquire()
	rs.Result = Result{
		Model:       m.Name,
		Mode:        string(p.Mode),
		Batch:       batch,
		Primary:     spec.Primary,
		Secondaries: spec.Secondaries,
		Warm:        spec.Warm,
		Submitted:   e.sim.Now(),
		Timings:     grow(rs.Timings, n),
	}
	rs.tmpl, rs.costs, rs.scale, rs.onDone = tmpl, costs, spec.ComputeScale, spec.OnDone
	e.track(rs)

	// Reset the timings and stamp each layer's identity field by field (one
	// clear, not a composite-literal copy per layer). Alongside, size the op
	// records: begin and finish, one or two transmission tasks per
	// transmitted layer (a secondary partition's copy is forwarded), and one
	// exec task per layer or coalesced plain-compute run.
	nops, nevs := 2, 0
	prevPlain := false
	clear(rs.Timings)
	for i := range rs.Timings {
		t := &rs.Timings[i]
		t.Index = i
		t.Name = m.Layers[i].Name
		t.Method = p.Layers[i].Method
		t.Partition = p.Layers[i].Partition
		if transmits(&spec, i) {
			nops++
			nevs++
			if p.Layers[i].Partition > 0 {
				nops++
				nevs++
			}
		}
		plain := plainCompute(&spec, i)
		if !plain || !prevPlain {
			nops++
		}
		prevPlain = plain
	}
	rs.ops = grow(rs.ops, nops)[:0]
	// A reused event may have fired in an earlier run; a stream waiting on
	// it would pass straight through.
	rs.evs = grow(rs.evs, nevs)
	clear(rs.evs)

	// Phase 1: schedule transmissions.
	var lastArrival *stream.Event
	var nev int32
	for i := range m.Layers {
		if !transmits(&spec, i) {
			continue
		}
		bytes := float64(m.Layers[i].ParamBytes)
		rs.BytesLoaded += bytes
		part := p.Layers[i].Partition
		cp := rs.newOp(opCopy, i)
		cp.bytes = bytes
		cp.ev = nev
		nev++
		if part == 0 {
			cp.gpu = int32(spec.Primary)
			cp.arrival = true
			primary.load.SubmitHandler(tmpl.layers[i].cp, cp)
			lastArrival = &rs.evs[cp.ev]
			primary.load.Record(lastArrival)
			continue
		}
		// A secondary partition lands on its GPU, then is forwarded over
		// NVLink to the primary.
		secID := spec.Secondaries[part-1]
		sec := e.gpus[secID]
		cp.gpu = int32(secID)
		sec.load.SubmitHandler(tmpl.layers[i].cp, cp)
		sec.load.Record(&rs.evs[cp.ev])
		rs.BytesNVLink += bytes
		sec.migration.Wait(&rs.evs[cp.ev])
		fw := rs.newOp(opForward, i)
		fw.gpu, fw.bytes, fw.arrival, fw.ev = int32(secID), bytes, true, nev
		nev++
		sec.migration.SubmitHandler("forward", fw)
		lastArrival = &rs.evs[fw.ev]
		sec.migration.Record(lastArrival)
	}

	// Phase 2: schedule execution on the primary GPU. Arrival ops were
	// appended in layer order, so a cursor pairs each transmitted layer
	// with its arrival event.
	primary.exec.SubmitHandler(tmpl.begin, rs.newOp(opBegin, 0))
	next := 0
	for i := 0; i < n; {
		if plainCompute(&spec, i) {
			o := rs.newOp(opSegment, i)
			j := i
			for j < n && plainCompute(&spec, j) {
				o.d += scaleDur(costs[j].compute, spec.ComputeScale)
				j++
			}
			o.hi = int32(j)
			primary.exec.SubmitHandler(tmpl.layers[i].seg, o)
			i = j
			continue
		}
		if transmits(&spec, i) {
			for !rs.ops[next].arrival {
				next++
			}
			arrival := &rs.evs[rs.ops[next].ev]
			next++
			if p.Mode == plan.ModeBaseline {
				arrival = lastArrival // the baseline waits for the whole model
			}
			primary.exec.Wait(arrival)
		}
		if p.Layers[i].Method == plan.DHA {
			o := rs.newOp(opDHA, i)
			o.bytes = costs[i].dha
			rs.BytesDHA += o.bytes
			o.d = scaleDur(costs[i].compute, spec.ComputeScale)
			primary.exec.SubmitHandler(tmpl.layers[i].dha, o)
		} else {
			o := rs.newOp(opExec, i)
			o.d = scaleDur(costs[i].compute, spec.ComputeScale)
			primary.exec.SubmitHandler(tmpl.layers[i].exec, o)
		}
		i++
	}
	primary.exec.SubmitHandler(tmpl.finish, rs.newOp(opFinish, 0))
}

// grow returns s resliced to length n, allocating only when its capacity
// is too small. Existing elements are kept, not zeroed.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// finalize derives the aggregate result fields from per-layer timings and
// the arrival events of the run's op records.
func (e *Engine) finalize(rs *runState) {
	r := &rs.Result
	for i := range rs.ops {
		if o := &rs.ops[i]; o.arrival && rs.evs[o.ev].Fired() {
			r.Timings[o.layer].AvailAt = rs.evs[o.ev].FiredAt()
		}
	}
	for i := range r.Timings {
		r.TotalStall += r.Timings[i].Stall
	}
	if m := e.mon; m != nil {
		g := r.Primary
		if r.Aborted {
			m.aborted[g].Inc()
		} else {
			m.runs[g].Inc()
			m.execSeconds[g].Add(r.ExecTime().Seconds())
		}
		m.loadedBytes[g].Add(r.BytesLoaded)
		m.dhaBytes[g].Add(r.BytesDHA)
	}
}

// EmitTrace records the run's per-layer timeline into rec: execution spans
// on the primary GPU's exec track, host→GPU copy spans on the load track of
// the GPU that received each partition, and NVLink forwarding spans on the
// secondary's migration track. It is called automatically for engines built
// with Config.Trace; exporters for standalone Results (cmd/deepplan -trace)
// call it directly. Safe on a nil recorder.
func (r *Result) EmitTrace(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	for i := range r.Timings {
		t := &r.Timings[i]
		if t.ExecDone > t.ExecStart {
			rec.SpanArgs(r.Primary, trace.TIDExec, "exec", t.Name, t.ExecStart, t.ExecDone,
				map[string]any{
					"method":    t.Method.String(),
					"stall_us":  float64(t.Stall) / 1e3,
					"partition": t.Partition,
				})
		}
		if t.LoadDone > t.LoadStart {
			loadGPU := r.Primary
			if t.Partition > 0 && t.Partition-1 < len(r.Secondaries) {
				loadGPU = r.Secondaries[t.Partition-1]
			}
			rec.Span(loadGPU, trace.TIDLoad, "load", "copy "+t.Name, t.LoadStart, t.LoadDone)
		}
		if t.Partition > 0 && t.LoadDone > 0 && t.AvailAt > t.LoadDone &&
			t.Partition-1 < len(r.Secondaries) {
			rec.Span(r.Secondaries[t.Partition-1], trace.TIDMigrate, "migrate",
				"forward "+t.Name, t.LoadDone, t.AvailAt)
		}
	}
}

// StartTask occupies a GPU's execution stream with one opaque task of the
// given duration — the serving layer's decode iterations, which have no
// per-layer structure worth simulating individually. The task queues FIFO
// behind (and ahead of) ordinary runs on the same stream, so prefills and
// decode iterations serialize exactly like kernels on one CUDA stream. The
// task is tracked like a run: FailGPU on its GPU aborts it and onDone fires
// with Result.Aborted set. As with Spec.OnDone, the Result is valid only
// until onDone returns.
func (e *Engine) StartTask(gpu int, name string, d sim.Duration, onDone func(*Result)) error {
	if gpu < 0 || gpu >= len(e.gpus) {
		return fmt.Errorf("engine: task GPU %d out of range", gpu)
	}
	if e.failed[gpu] {
		return fmt.Errorf("engine: task GPU %d is failed", gpu)
	}
	if d < 0 {
		return fmt.Errorf("engine: task %q has negative duration %v", name, d)
	}
	// A task's one op record reports the run itself when its time is up.
	rs := e.acquire()
	rs.Result = Result{Model: name, Mode: "task", Primary: gpu, Submitted: e.sim.Now(),
		Timings: rs.Timings[:0]}
	rs.onDone = onDone
	rs.ops = grow(rs.ops, 1)[:0]
	e.track(rs)
	task := rs.newOp(opTask, 0)
	task.d = d
	e.gpus[gpu].exec.SubmitHandler(name, task)
	return nil
}

// RunOnce builds a fresh simulator+network around the given topology, runs a
// single inference to completion, and returns its result. The topology must
// be freshly constructed (its links carry simulation state). A cold run of
// a multi-partition plan with nil Secondaries takes the topology's default
// partners, topo.Secondaries(spec.Primary, NumParts-1): one GPU on each
// other PCIe switch.
func RunOnce(topo *topology.Topology, cost *costmodel.Params, spec Spec) (*Result, error) {
	if spec.Secondaries == nil && !spec.Warm && spec.Plan != nil && spec.Plan.NumParts > 1 {
		secs, err := topo.Secondaries(spec.Primary, spec.Plan.NumParts-1)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		spec.Secondaries = secs
	}
	s := sim.New()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topo, Cost: cost})
	var res *Result
	prev := spec.OnDone
	spec.OnDone = func(r *Result) {
		res = r.Clone()
		if prev != nil {
			prev(r)
		}
	}
	if err := e.Start(spec); err != nil {
		return nil, err
	}
	s.Run()
	if res == nil {
		return nil, fmt.Errorf("engine: run did not complete")
	}
	return res, nil
}
