package serving

import (
	"fmt"
	"sort"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/engine"
	"deepplan/internal/faults"
	"deepplan/internal/gpumem"
	"deepplan/internal/hostmem"
	"deepplan/internal/metrics"
	"deepplan/internal/monitor"
	"deepplan/internal/plan"
	"deepplan/internal/planner"
	"deepplan/internal/profiler"
	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
	"deepplan/internal/trace"
	"deepplan/internal/workload"
)

// Policy selects how instances are planned and cold-started.
type Policy string

// Available serving policies (the paper's evaluation legends).
const (
	PolicyBaseline   Policy = "baseline"
	PolicyPipeSwitch Policy = "pipeswitch"
	PolicyDHA        Policy = "dha"
	PolicyPTDHA      Policy = "pt+dha"
)

// Config configures a Server.
type Config struct {
	// Topo must be freshly constructed (links carry simulation state).
	Topo   *topology.Topology
	Cost   *costmodel.Params
	Policy Policy
	// Sim, when non-nil, drives the server from an externally owned virtual
	// clock instead of a private one. The cluster layer uses this to run N
	// independent nodes (each with its own topology, network, and engine)
	// against one shared timeline; such a server is driven with Submit and
	// Finish rather than Run (which would run the shared clock to
	// completion).
	Sim *sim.Simulator
	// SLO is the target latency; the paper uses 100 ms.
	SLO sim.Duration
	// ReservePerGPU is GPU memory withheld from instance packing (runtime,
	// CUDA context, parallel-transmission staging). Default 1 GiB.
	ReservePerGPU int64
	// HostMemory is pinned-memory capacity. Default 244 GB (p3.8xlarge).
	HostMemory int64
	// Batch is the serving batch size. Default 1 (the paper's serving
	// experiments do not batch; see §5.2 "Batching inference").
	Batch int
	// MaxBatch enables dynamic batching: requests arriving for an
	// instance that is already executing coalesce, and when the running
	// inference retires they are served together in one batched run of up
	// to MaxBatch items. 0 or 1 disables coalescing (the paper's setting —
	// batching delays latency-critical cold-starts, §5.2). Applies to warm
	// inferences only.
	MaxBatch int
	// WindowWidth buckets the per-window series. Default 1 minute.
	WindowWidth sim.Duration
	// Trace, when non-nil, records the full request lifecycle (arrive →
	// queue → cold-load/warm-hit → batch → execute → complete), instant
	// events for evictions/relocations/waitlist drains, per-GPU memory
	// occupancy counters, and — via the engine and network — per-layer
	// stream spans and per-link PCIe/NVLink bandwidth counters. Tracing is
	// observation-only: a traced run is byte-identical to an untraced one.
	Trace *trace.Recorder
	// Telemetry enables the windowed resource snapshot (cold-start ratio,
	// queue depth, GPU busy fraction, eviction counts) in Report.Telemetry.
	Telemetry bool
	// Faults, when non-nil and non-empty, arms a fault-injection schedule
	// against this run: GPU failures abort in-flight engine runs (each
	// affected request is retried once on a surviving GPU), new placements
	// avoid down GPUs, and link/straggler/memory events degrade the
	// simulated fabric. A nil schedule costs nothing: the run is
	// byte-identical to a server built before faults existed.
	Faults *faults.Schedule
	// AdmitFactor, when positive, enables SLO-aware admission control for
	// cold-start requests: a request whose projected latency (queue wait on
	// the least-loaded live GPU plus the deployment's load and execution
	// estimates) exceeds AdmitFactor×SLO is shed immediately instead of
	// deepening the queue. The paper's serving experiments run without
	// admission control (zero disables it); under fault injection shedding
	// hopeless cold-starts is what keeps the tail bounded while degraded.
	AdmitFactor float64
	// Monitor, when non-nil, streams the run into a dimensional metrics
	// registry: request/violation counters and latency histograms by
	// class+model+policy, queue depth, per-GPU busy time and failure
	// state, shed/evict/relocate/defer/retry counts, plus the engine's
	// per-GPU run counters. In cluster mode each node receives a registry
	// view (Registry.Node) carrying a node label. Like Trace, monitoring
	// is observation-only: a monitored run is byte-identical to an
	// unmonitored one, and a nil registry costs zero allocations.
	Monitor *monitor.Registry
	// HostPolicy selects the pinned host-memory tier's admission/eviction
	// policy (hostmem.ParsePolicy spellings). The default, PolicyPinned,
	// is the paper's setup: every deployed model's weights are pinned at
	// deploy time and stay pinned, and overflowing host memory is a
	// deploy-time error. The cache policies (lru, cost) turn host memory
	// into a capacity-pressured cache for model-zoo serving: models admit
	// lazily, evict under pressure, and a request for an unpinned model
	// pays a fetch-to-pin delay before its cold-start plan begins.
	HostPolicy hostmem.Policy
	// HostFetchBandwidth is the sustained bytes/sec at which unpinned
	// weights are fetched (from local NVMe or a model store) into freshly
	// pinned host memory. Default 10 GB/s. Only paid under the cache
	// policies.
	HostFetchBandwidth float64
	// HostFetchOverhead is the fixed setup cost of a fetch-to-pin
	// (allocation, page-locking, registration). Default 2 ms.
	HostFetchOverhead sim.Duration
	// Pack selects GPU placement packing. PackSpread (default) is the
	// paper's queue-balancing placement; PackDense bin-packs fractional
	// instances (footprint ≤ ¼ GPU) onto the fullest GPU that still fits
	// them, at page granularity, so many small models share one GPU.
	Pack PackMode
	// LLM configures the autoregressive serving mode (token-by-token decode
	// with KV-cache admission). The zero value keeps the paper's single-shot
	// regime byte-identical.
	LLM LLMConfig
}

// InstanceState is an instance's residency state.
type InstanceState int

// Instance lifecycle states. Cold and Warm are the paper's two residency
// states; Sleeping and Swapped extend them into the explicit lifecycle the
// predictive autoscaler actuates: a demoted instance first *sleeps* —
// GPU memory released but the host-pinned copy kept, so waking is one DHA
// load — and only becomes *swapped* if host-memory pressure later pushes
// its pinned copy out, making the next activation pay a full host fetch
// plus load.
const (
	Cold     InstanceState = iota // weights only in host memory (never yet placed, or evicted)
	Warm                          // resident on a GPU (possibly still loading)
	Sleeping                      // demoted from Warm: GPU memory freed, host copy retained
	Swapped                       // demoted further: host copy evicted under cache pressure
)

// String names the state ("cold", "warm", "sleeping", "swapped").
func (s InstanceState) String() string {
	switch s {
	case Cold:
		return "cold"
	case Warm:
		return "warm"
	case Sleeping:
		return "sleeping"
	case Swapped:
		return "swapped"
	default:
		return fmt.Sprintf("InstanceState(%d)", int(s))
	}
}

// Instance is one deployed model replica, standing in for "a model
// corresponding to a different user or service" (§5.3.1).
type Instance struct {
	ID    int
	dep   *Deployment
	state InstanceState
	gpu   int
	block *gpumem.Block
	// loading is true while the cold-start run is in flight.
	loading  bool
	inflight int
	lastUsed sim.Time
	// backlog holds requests coalescing for the next dynamic batch.
	backlog []pending
	// pinName keys the instance's weights in the host pinned-cache tier.
	pinName string
	// popularity is the instance's request probability (zoo variants);
	// the cost-aware host eviction policy ranks entries by it.
	popularity float64
	// fetching is true while a fetch-to-pin is in flight; arrivals for the
	// instance coalesce onto fetchWait instead of starting another fetch.
	fetching  bool
	fetchWait []pending
	// pdGPU/pdBlock hold the decode replica under prefill/decode
	// disaggregation: the weights live on a second GPU so decode iterations
	// never contend with prefills. pdBlock is nil outside that mode.
	pdGPU   int
	pdBlock *gpumem.Block
	// llm is the instance's decode-batch state; nil until the first
	// sequence enters decode.
	llm *llmState
}

// pending is a request threaded through dispatch with its retry count: a
// request whose run aborts on a GPU failure is re-dispatched once with
// attempt incremented, and shed if it fails again.
type pending struct {
	req     workload.Request
	attempt int
}

// State returns the instance's residency state.
func (in *Instance) State() InstanceState { return in.state }

// GPU returns the instance's GPU, meaningful when Warm.
func (in *Instance) GPU() int { return in.gpu }

// Model returns the instance's model name.
func (in *Instance) Model() string { return in.dep.Model.Name }

// Deployment is a model prepared for serving: profiled once, planned once
// (the paper's one-time pre-run), weights pinned in host memory.
type Deployment struct {
	Model   *dnn.Model
	Profile *profiler.Profile
	Plan    *plan.Plan
	// Fallback is the single-GPU plan used when every transmission partner
	// is already busy loading. A parallel-transmission cold-start occupies
	// two GPUs' copy engines; issuing one while the partner is mid-load
	// convoys every later cold behind the forwarding copies. The paper
	// does not statically assign GPUs either (§4.3); degrading to DHA-only
	// under load keeps cold bursts from cascading. Nil when Plan is
	// already single-GPU.
	Fallback *plan.Plan
	// Footprint is the GPU bytes an instance occupies: plan-resident
	// parameters plus workspace. DHA layers do not count.
	Footprint int64
	// LoadEst and ExecEst are the admission controller's cost estimates,
	// computed once at Deploy time from the cost model: the serial cold-load
	// time over an uncontended lane, and the warm execution time. They are
	// deliberately optimistic (no contention) so admission only sheds
	// requests that cannot meet the latency budget even on an idle server.
	LoadEst sim.Duration
	ExecEst sim.Duration
	// FetchEst is the fetch-to-pin cost a request pays when the model's
	// weights are not host-resident (cache policies only): fixed overhead
	// plus weight bytes over the fetch bandwidth.
	FetchEst sim.Duration
	// gpuBytes is the device allocation an instance actually makes:
	// Footprint, page-aligned under PackDense so simulated packing density
	// never exceeds what CUDA's 2 MiB mapping granularity allows.
	gpuBytes int64
	// decodeName is the cached exec-stream task label for decode iterations.
	decodeName string
	// decodeIter[n] memoizes the cost model's DecodeIterTime for a batch of
	// n sequences (zero until first asked), filled lazily by decodeIterTime.
	decodeIter []sim.Duration
	// mon holds the deployment's pre-resolved monitor handles; nil when
	// monitoring is off.
	mon *depInstruments
}

type gpuState struct {
	id        int
	mem       *gpumem.Allocator
	residents map[*Instance]bool
	// kv manages per-sequence KV-cache reservations out of the same
	// allocator as the weights, so weights + KV can never exceed capacity.
	kv             *gpumem.KVCache
	queued         int // outstanding inference runs
	activeColds    int
	secondaryColds int
	// down marks the GPU failed by fault injection: placement, relocation,
	// and secondary selection all skip it until recovery.
	down bool
	// busySince is the instant queued last went 0→1; meaningful only while
	// queued > 0 and only when telemetry is enabled.
	busySince sim.Time
}

type waiting struct {
	inst *Instance
	p    pending
}

// Server is the simulated inference server.
type Server struct {
	cfg  Config
	sim  *sim.Simulator
	net  *simnet.Network
	eng  *engine.Engine
	pl   *planner.Planner
	host *hostmem.Cache

	gpus        []*gpuState
	deployments map[string]*Deployment
	instances   []*Instance
	// byPin maps host-cache entry names back to instances, so host-tier
	// evictions can demote a Sleeping instance to Swapped.
	byPin map[string]*Instance

	rec      *trace.Recorder    // nil when tracing is off
	tel      *metrics.Telemetry // nil when telemetry is off
	ins      *instruments       // nil when monitoring is off
	inj      *faults.Injector   // nil when no fault schedule is armed
	traceSeq int64              // request ids for async lifecycle spans

	digest          metrics.Digest
	coldDigest      metrics.Digest // latency of requests served by a cold-start run
	warmDigest      metrics.Digest
	ttftDigest      metrics.Digest // time-to-first-token (LLM mode)
	series          *metrics.Series
	submitted       int
	coldStarts      int
	ptFallbacks     int
	relocations     int
	evictions       int
	batchedRuns     int
	batchedRequests int
	deferred        int // requests that had to wait for memory
	shed            int // requests dropped by admission or a failed retry
	retried         int // requests re-dispatched after a GPU failure
	degraded        int // requests completed while a fault window was open
	gpuFailures     int
	// Lifecycle actuation counters (predictive autoscaling).
	sleeps    int // Warm→Sleeping demotions
	wakes     int // Sleeping→Warm activations (one DHA load from the host copy)
	prewarms  int // PrewarmInstance actuations that started a load or fetch
	swapIns   int // Swapped→Warm activations (host fetch + load)
	swapOuts  int // Sleeping→Swapped demotions under host-cache pressure
	waitlist  []waiting
	completed int

	// Autoregressive-mode counters (zero when Config.LLM is off).
	tokensGenerated int
	decodeIters     int
	decodeSeqSum    int // sum of per-iteration batch widths
	kvDeferred      int // KV admission deferral events
	kvTransfers     int // prefill→decode KV handoffs (disaggregated mode)
	kvTransferBytes float64
}

// New builds a Server. The topology must not be shared with another
// simulation.
func New(cfg Config) (*Server, error) {
	if cfg.Topo == nil || cfg.Cost == nil {
		return nil, fmt.Errorf("serving: config needs Topo and Cost")
	}
	switch cfg.Policy {
	case PolicyBaseline, PolicyPipeSwitch, PolicyDHA, PolicyPTDHA:
	default:
		return nil, fmt.Errorf("serving: unknown policy %q", cfg.Policy)
	}
	if cfg.SLO <= 0 {
		cfg.SLO = 100 * sim.Millisecond
	}
	if cfg.ReservePerGPU <= 0 {
		cfg.ReservePerGPU = 1 << 30
	}
	if cfg.HostMemory <= 0 {
		cfg.HostMemory = 244e9
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	if cfg.WindowWidth <= 0 {
		cfg.WindowWidth = sim.Second * 60
	}
	if cfg.AdmitFactor < 0 {
		return nil, fmt.Errorf("serving: AdmitFactor must be non-negative, got %g", cfg.AdmitFactor)
	}
	hostPolicy, err := hostmem.ParsePolicy(string(cfg.HostPolicy))
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	cfg.HostPolicy = hostPolicy
	if cfg.HostFetchBandwidth <= 0 {
		cfg.HostFetchBandwidth = 10e9
	}
	if cfg.HostFetchOverhead <= 0 {
		cfg.HostFetchOverhead = 2 * sim.Millisecond
	}
	switch cfg.Pack {
	case "":
		cfg.Pack = PackSpread
	case PackSpread, PackDense:
	default:
		return nil, fmt.Errorf("serving: unknown pack mode %q", cfg.Pack)
	}
	if cfg.LLM.Enabled {
		switch cfg.LLM.Batching {
		case "":
			cfg.LLM.Batching = LLMBatchContinuous
		case LLMBatchContinuous, LLMBatchStatic:
		default:
			return nil, fmt.Errorf("serving: unknown LLM batching mode %q (want %s or %s)",
				cfg.LLM.Batching, LLMBatchContinuous, LLMBatchStatic)
		}
		if cfg.LLM.TokenBudget <= 0 {
			cfg.LLM.TokenBudget = 8
		}
		if cfg.LLM.MaxOutput <= 0 {
			cfg.LLM.MaxOutput = 64
		}
		if cfg.LLM.PrefillDecode && cfg.Topo.NumGPUs() < 2 {
			return nil, fmt.Errorf("serving: prefill/decode disaggregation needs at least 2 GPUs, topology has %d",
				cfg.Topo.NumGPUs())
		}
	} else if cfg.LLM.PrefillDecode {
		return nil, fmt.Errorf("serving: PrefillDecode requires LLM mode")
	}
	host, err := hostmem.NewCache(cfg.HostMemory, hostPolicy)
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	s := cfg.Sim
	if s == nil {
		s = sim.New()
	}
	net := simnet.New(s)
	srv := &Server{
		cfg: cfg,
		sim: s,
		net: net,
		eng: engine.New(engine.Config{
			Sim: s, Net: net, Topo: cfg.Topo, Cost: cfg.Cost, Trace: cfg.Trace,
			Monitor: cfg.Monitor,
		}),
		pl:          planner.New(cfg.Topo),
		host:        host,
		deployments: map[string]*Deployment{},
		byPin:       map[string]*Instance{},
		series:      metrics.NewSeries(cfg.WindowWidth, cfg.SLO),
		rec:         cfg.Trace,
	}
	srv.rec.AttachNetwork(net) // no-op when tracing is off
	if cfg.Telemetry {
		srv.tel = metrics.NewTelemetry(cfg.WindowWidth, cfg.Topo.NumGPUs())
	}
	srv.ins = newInstruments(cfg.Monitor, cfg.Policy, cfg.Topo.NumGPUs())
	for _, g := range cfg.Topo.GPUs {
		usable := g.MemoryBytes - cfg.ReservePerGPU
		if usable <= 0 {
			return nil, fmt.Errorf("serving: GPU %d has no usable memory after reserve", g.ID)
		}
		mem := gpumem.New(usable)
		srv.gpus = append(srv.gpus, &gpuState{
			id:        g.ID,
			mem:       mem,
			kv:        gpumem.NewKVCache(mem),
			residents: map[*Instance]bool{},
		})
	}
	if !cfg.Faults.Empty() {
		inj, err := faults.Install(s, net, cfg.Topo, cfg.Faults, faults.Hooks{
			GPUDown: srv.onGPUDown,
			GPUUp:   srv.onGPUUp,
			OnEvent: srv.onFaultEvent,
		})
		if err != nil {
			return nil, err
		}
		srv.inj = inj
	}
	return srv, nil
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

// onGPUDown reacts to an injected GPU failure: the device's residents are
// force-evicted (device memory does not survive), placement starts avoiding
// it, and every in-flight run using it aborts — each aborted request is then
// retried once on a surviving GPU via the normal dispatch path.
func (srv *Server) onGPUDown(id int) {
	gs := srv.gpus[id]
	if gs.down {
		return
	}
	gs.down = true
	srv.gpuFailures++
	if srv.ins != nil {
		srv.ins.gpuFailures[id].Inc()
		srv.ins.gpuUp[id].Set(0)
	}
	if srv.rec != nil {
		srv.rec.InstantArgs(gs.id, trace.TIDLifecycle, "faults",
			"gpu-fail", srv.sim.Now(), map[string]any{"gpu": id})
	}
	victims := make([]*Instance, 0, len(gs.residents))
	// deterministic: victims are collected and sorted by ID before use.
	for inst := range gs.residents {
		victims = append(victims, inst)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].ID < victims[j].ID })
	for _, inst := range victims {
		srv.evict(inst)
	}
	if srv.cfg.LLM.PrefillDecode {
		// Instances whose decode replica lived on the failed GPU lose their
		// KV caches even though their prefill GPU is healthy; evict them too
		// (the instance slice gives a deterministic order).
		for _, inst := range srv.instances {
			if inst.state == Warm && inst.pdBlock != nil && inst.pdGPU == id {
				srv.evict(inst)
			}
		}
	}
	// Abort in-flight runs last: their OnDone callbacks re-dispatch the
	// aborted requests, and by now placement already avoids this GPU.
	srv.eng.FailGPU(id)
}

// onGPUUp returns a recovered GPU to service and retries any parked work.
func (srv *Server) onGPUUp(id int) {
	gs := srv.gpus[id]
	gs.down = false
	srv.eng.RecoverGPU(id)
	if srv.ins != nil {
		srv.ins.gpuUp[id].Set(1)
	}
	if srv.rec != nil {
		srv.rec.InstantArgs(gs.id, trace.TIDLifecycle, "faults",
			"gpu-recover", srv.sim.Now(), map[string]any{"gpu": id})
	}
	srv.drainWaitlist()
}

// Deploy profiles and plans a model under the server's policy (a one-time
// pre-run, §4.3.1), pins its weights, and registers count instances.
// It may be called multiple times with different models.
func (srv *Server) Deploy(model *dnn.Model, count int) error {
	if count <= 0 {
		return fmt.Errorf("serving: instance count must be positive")
	}
	dep, err := srv.deployment(model)
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		if _, err := srv.addInstance(dep, 0); err != nil {
			return err
		}
	}
	return nil
}

// deployment returns the model's Deployment, profiling and planning it on
// first use. Zoo variants sharing an architectural shape share one
// Deployment, so registering 100k variants profiles O(shapes) models.
func (srv *Server) deployment(model *dnn.Model) (*Deployment, error) {
	if dep, ok := srv.deployments[model.Name]; ok {
		return dep, nil
	}
	if srv.cfg.LLM.Enabled && model.KVBytesPerToken() <= 0 {
		return nil, fmt.Errorf("serving: model %s has no attention layers; autoregressive serving needs a transformer",
			model.Name)
	}
	prof, err := profiler.Run(model, srv.cfg.Cost, srv.cfg.Topo, profiler.Options{Batch: srv.cfg.Batch})
	if err != nil {
		return nil, err
	}
	var p, fb *plan.Plan
	switch srv.cfg.Policy {
	case PolicyBaseline:
		p = srv.pl.PlanBaseline(prof)
	case PolicyPipeSwitch:
		p = srv.pl.PlanPipeSwitch(prof)
	case PolicyDHA:
		p = srv.pl.PlanDHA(prof)
	case PolicyPTDHA:
		p = srv.pl.PlanPTDHA(prof, srv.pl.MaxPartitions())
		if p.NumParts > 1 {
			fb = p.SingleGPU()
		}
	}
	dep := &Deployment{
		Model:     model,
		Profile:   prof,
		Plan:      p,
		Fallback:  fb,
		Footprint: p.ResidentBytes(model) + srv.cfg.Cost.Workspace(model, srv.cfg.Batch),
		LoadEst: srv.cfg.Cost.ModelLoadTime(model, srv.cfg.Topo.LaneBandwidth(),
			sim.Duration(srv.cfg.Topo.PerCopyOverheadNanos)),
		ExecEst: srv.cfg.Cost.ModelExecTime(model, srv.cfg.Batch),
	}
	dep.FetchEst = srv.cfg.HostFetchOverhead +
		sim.Duration(float64(model.TotalParamBytes())/srv.cfg.HostFetchBandwidth*1e9)
	dep.gpuBytes = dep.Footprint
	if srv.cfg.Pack == PackDense {
		dep.gpuBytes = gpumem.AlignUp(dep.Footprint, gpumem.PageBytes)
	}
	dep.mon = srv.ins.deployInstruments(srv.cfg.Policy, model.Name)
	dep.decodeName = "decode:" + model.Name
	srv.deployments[model.Name] = dep
	return dep, nil
}

// addInstance registers one instance of a prepared deployment. Under the
// legacy pinned host policy the instance's weights are pinned immediately
// and overflow is an error (the paper's deploy-everything setup); under
// the cache policies pinning is best-effort without eviction, so a zoo
// deployed in popularity order starts with its head resident and its tail
// cold, and deploy order never forces evictions.
func (srv *Server) addInstance(dep *Deployment, popularity float64) (int, error) {
	id := len(srv.instances)
	name := fmt.Sprintf("%s/instance-%d", dep.Model.Name, id)
	bytes := dep.Model.TotalParamBytes()
	now := srv.sim.Now()
	if srv.cfg.HostPolicy == hostmem.PolicyPinned {
		if _, _, err := srv.host.Admit(name, bytes, dep.LoadEst, popularity, now); err != nil {
			return 0, fmt.Errorf("serving: %w", err)
		}
	} else {
		srv.host.TryAdmit(name, bytes, dep.LoadEst, popularity, now)
	}
	inst := &Instance{
		ID: id, dep: dep, state: Cold, pinName: name, popularity: popularity,
	}
	srv.instances = append(srv.instances, inst)
	srv.byPin[name] = inst
	return id, nil
}

// NumInstances returns the number of deployed instances.
func (srv *Server) NumInstances() int { return len(srv.instances) }

// Instances exposes the instance table (read-only use).
func (srv *Server) Instances() []*Instance { return srv.instances }

// Warmup places instances round-robin across GPUs until memory is full (no
// eviction), mirroring the paper's warm-up phase before measurement. It
// returns the number of instances made warm.
func (srv *Server) Warmup() int {
	warm := 0
	g := 0
	for _, inst := range srv.instances {
		e, resident := srv.host.Peek(inst.pinName)
		if !resident {
			continue // zoo tail: not host-resident, warming it would skip the fetch path
		}
		placed := false
		for try := 0; try < len(srv.gpus); try++ {
			gs := srv.gpus[(g+try)%len(srv.gpus)]
			if blk, err := gs.mem.Alloc(inst.dep.gpuBytes, inst.dep.Model.Name); err == nil {
				if srv.cfg.LLM.PrefillDecode {
					// Warmup never evicts, so the decode replica is
					// best-effort too.
					pdGS, pdBlk := srv.allocDecode(inst, gs, false)
					if pdBlk == nil {
						if err := gs.mem.Free(blk); err != nil {
							panic("serving: warmup accounting bug: " + err.Error())
						}
						continue
					}
					inst.pdGPU, inst.pdBlock = pdGS.id, pdBlk
				}
				srv.setState(inst, Warm, "warmup")
				inst.gpu = gs.id
				inst.block = blk
				gs.residents[inst] = true
				e.SetLocked(true)
				placed = true
				g = (g + try + 1) % len(srv.gpus)
				break
			}
		}
		if !placed {
			break
		}
		warm++
	}
	for _, gs := range srv.gpus {
		srv.memCounter(gs) // baseline occupancy sample for each GPU track
	}
	return warm
}

// WarmCapacity returns how many of the deployed instances could be warm
// simultaneously on empty GPUs — the packing limit that determines when
// cold-starts begin (the paper's "100 instances for PipeSwitch, 124 for
// DeepPlan" comparison). It does not mutate server state.
func (srv *Server) WarmCapacity() int {
	free := make([]int64, len(srv.gpus))
	for i, g := range srv.gpus {
		free[i] = g.mem.Capacity()
	}
	n := 0
	for _, inst := range srv.instances {
		placed := false
		for i := range free {
			if free[i] >= inst.dep.gpuBytes {
				free[i] -= inst.dep.gpuBytes
				placed = true
				break
			}
		}
		if !placed {
			break
		}
		n++
	}
	return n
}

// Run replays the request sequence to completion and returns the report.
// Servers on a shared external clock (Config.Sim) are driven with Submit
// and Finish instead.
func (srv *Server) Run(requests []workload.Request) (*Report, error) {
	for _, r := range requests {
		if r.Instance < 0 || r.Instance >= len(srv.instances) {
			return nil, fmt.Errorf("serving: request for unknown instance %d", r.Instance)
		}
		req := r
		srv.sim.At(req.At, func() {
			srv.submitted++
			srv.handle(req)
		})
	}
	srv.sim.Run()
	return srv.Finish()
}

// Submit injects one request at the current virtual time. It is the
// cluster router's entry point: the cluster schedules arrivals on the
// shared clock and submits each to the node it routed to. The caller later
// runs the shared simulator and calls Finish.
func (srv *Server) Submit(req workload.Request) error {
	if req.Instance < 0 || req.Instance >= len(srv.instances) {
		return fmt.Errorf("serving: request for unknown instance %d", req.Instance)
	}
	srv.submitted++
	srv.handle(req)
	return nil
}

// Finish validates that every submitted request was accounted for (served
// or shed) and returns the report. It is called after the driving clock —
// private (Run) or shared (cluster) — has run to quiescence.
func (srv *Server) Finish() (*Report, error) {
	if srv.completed+srv.shed != srv.submitted {
		return nil, fmt.Errorf("serving: %d of %d requests completed (%d shed)",
			srv.completed, srv.submitted, srv.shed)
	}
	return srv.report(srv.submitted), nil
}

// Outstanding returns the number of inference runs currently queued or
// executing across all GPUs — the router's primary load signal.
func (srv *Server) Outstanding() int {
	n := 0
	for _, g := range srv.gpus {
		n += g.queued
	}
	return n
}

// DownGPUs returns how many GPUs are currently failed by fault injection.
// A node with every GPU down cannot serve and routers skip it.
func (srv *Server) DownGPUs() int {
	n := 0
	for _, g := range srv.gpus {
		if g.down {
			n++
		}
	}
	return n
}

// NumGPUs returns the node's GPU count.
func (srv *Server) NumGPUs() int { return len(srv.gpus) }

// WarmInstances returns how many deployed instances of the named model are
// currently GPU-resident — the router's locality signal.
func (srv *Server) WarmInstances(model string) int {
	n := 0
	for _, inst := range srv.instances {
		if inst.state == Warm && inst.dep.Model.Name == model {
			n++
		}
	}
	return n
}

// ColdStartCount returns the cumulative cold-start count so far; the
// cluster autoscaler differences it per window for its cold-ratio signal.
func (srv *Server) ColdStartCount() int { return srv.coldStarts }

// Digests exposes the latency digests (all / cold-served / warm-served)
// for cluster-level merging. Read-only use after the run has finished.
func (srv *Server) Digests() (all, cold, warm *metrics.Digest) {
	return &srv.digest, &srv.coldDigest, &srv.warmDigest
}

// handle routes one arrival.
func (srv *Server) handle(req workload.Request) {
	srv.dispatch(pending{req: req})
}

// dispatch routes one request attempt: fresh arrivals and post-failure
// retries take the same path, so a retried request re-enters placement,
// relocation, and batching exactly like a new one.
func (srv *Server) dispatch(p pending) {
	inst := srv.instances[p.req.Instance]
	inst.lastUsed = srv.sim.Now()
	if (srv.tel != nil || srv.ins != nil) && p.attempt == 0 {
		depth := 0
		for _, g := range srv.gpus {
			depth += g.queued
		}
		if srv.tel != nil {
			srv.tel.Arrival(srv.sim.Now(), depth)
		}
		if srv.ins != nil {
			srv.ins.arrivals.Inc()
			srv.ins.depth.Set(float64(depth))
			srv.ins.depthH.Observe(float64(depth))
		}
	}
	if inst.state == Warm && srv.shouldRelocate(inst) {
		// The instance's GPU is congested while another is nearly idle:
		// relocating via a cold start on the cool GPU costs tens of
		// milliseconds once but sheds seconds of queueing. This mirrors
		// how serving controllers (e.g. Clockwork's) shift models between
		// GPUs under skewed load.
		if srv.rec != nil {
			srv.rec.InstantArgs(inst.gpu, trace.TIDLifecycle, "serving",
				"relocate "+inst.dep.Model.Name, srv.sim.Now(),
				map[string]any{"instance": inst.ID})
		}
		srv.evict(inst)
		srv.relocations++
		if srv.tel != nil {
			srv.tel.Relocation(srv.sim.Now())
		}
		if srv.ins != nil {
			srv.ins.relocations.Inc()
		}
	}
	if inst.state == Warm {
		srv.startWarm(inst, p)
		return
	}
	if !srv.admit(inst, p) {
		return // shed by the SLO admission controller
	}
	if inst.fetching {
		// A fetch-to-pin for this instance is already in flight; coalesce
		// behind it rather than starting another.
		inst.fetchWait = append(inst.fetchWait, p)
		return
	}
	srv.startColdPath(inst, p, true)
}

// startColdPath serves an admitted cold request: host-resident weights go
// straight to placement, unpinned weights first pay the fetch-to-pin cost.
// fresh marks a first deferral (drainWaitlist retries re-park silently).
func (srv *Server) startColdPath(inst *Instance, p pending, fresh bool) {
	if e, ok := srv.host.Lookup(inst.pinName); ok {
		srv.host.Touch(e, srv.sim.Now())
		if !srv.place(inst) {
			// No memory can be freed right now (every resident instance is
			// busy); park the request until a run completes.
			srv.park(inst, p, fresh)
			return
		}
		srv.startCold(inst, p)
		return
	}
	srv.startFetch(inst, p, fresh)
}

// park puts a request on the waitlist; count marks a first-time deferral.
func (srv *Server) park(inst *Instance, p pending, count bool) {
	if count {
		srv.deferred++
		if srv.rec != nil {
			srv.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "serving",
				"defer "+inst.dep.Model.Name, srv.sim.Now(),
				map[string]any{"instance": inst.ID, "waitlist": len(srv.waitlist) + 1})
		}
		if srv.tel != nil {
			srv.tel.Deferred(srv.sim.Now())
		}
		if srv.ins != nil {
			srv.ins.deferred.Inc()
		}
	}
	srv.waitlist = append(srv.waitlist, waiting{inst, p})
}

// admit applies SLO-aware admission control to a cold-start attempt: the
// projected latency is the queue wait on the least-loaded live GPU (each
// queued run costing one warm execution) plus the deployment's uncontended
// load and execution estimates. Exceeding AdmitFactor×SLO sheds the request
// — serving it would burst PCIe traffic for an answer nobody is waiting for,
// slowing every request that could still meet its deadline. Returns true to
// proceed. Warm requests are never shed: their marginal cost is one
// execution, not a model load.
func (srv *Server) admit(inst *Instance, p pending) bool {
	if srv.cfg.AdmitFactor <= 0 {
		return true
	}
	budget := sim.Duration(srv.cfg.AdmitFactor * float64(srv.cfg.SLO))
	projected := inst.dep.LoadEst + inst.dep.ExecEst +
		sim.Duration(srv.minQueuedAlive())*inst.dep.ExecEst
	if _, resident := srv.host.Peek(inst.pinName); !resident {
		projected += inst.dep.FetchEst // unpinned weights fetch before loading
	}
	if projected <= budget {
		return true
	}
	srv.shedRequest(inst, p, "admission")
	return false
}

// minQueuedAlive returns the shortest run queue among live GPUs (0 when
// every GPU is down; placement fails separately in that case).
func (srv *Server) minQueuedAlive() int {
	min := -1
	for _, g := range srv.gpus {
		if g.down {
			continue
		}
		if min < 0 || g.queued < min {
			min = g.queued
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// shedRequest drops a request permanently, counting it toward Report.Shed.
func (srv *Server) shedRequest(inst *Instance, p pending, why string) {
	srv.shed++
	if srv.tel != nil {
		srv.tel.Shed(srv.sim.Now())
	}
	if srv.ins != nil {
		srv.ins.shed.Inc()
	}
	if srv.rec != nil {
		srv.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "serving",
			"shed "+inst.dep.Model.Name, srv.sim.Now(),
			map[string]any{"instance": inst.ID, "attempt": p.attempt, "why": why})
	}
}

// retryOrShed handles a request whose run was aborted by a GPU failure:
// first failure re-dispatches it (once) through the normal path, which now
// avoids the failed GPU; a second failure sheds it.
func (srv *Server) retryOrShed(inst *Instance, p pending) {
	if p.attempt >= 1 {
		srv.shedRequest(inst, p, "retry-failed")
		return
	}
	srv.retried++
	if srv.tel != nil {
		srv.tel.Retried(srv.sim.Now())
	}
	if srv.ins != nil {
		srv.ins.retried.Inc()
	}
	if srv.rec != nil {
		srv.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "serving",
			"retry "+inst.dep.Model.Name, srv.sim.Now(),
			map[string]any{"instance": inst.ID})
	}
	srv.dispatch(pending{req: p.req, attempt: p.attempt + 1})
}

// busyUp marks one more outstanding run on gs, starting the busy clock on
// the 0→1 transition when telemetry is on.
func (srv *Server) busyUp(gs *gpuState) {
	gs.queued++
	if (srv.tel != nil || srv.ins != nil) && gs.queued == 1 {
		gs.busySince = srv.sim.Now()
	}
}

// busyDown retires one outstanding run on gs, crediting busy time on the
// 1→0 transition.
func (srv *Server) busyDown(gs *gpuState) {
	gs.queued--
	if gs.queued == 0 {
		if srv.tel != nil {
			srv.tel.Busy(gs.busySince, srv.sim.Now())
		}
		if srv.ins != nil {
			srv.ins.gpuBusy[gs.id].Add(srv.sim.Now().Sub(gs.busySince).Seconds())
		}
	}
}

// memCounter samples gs's memory occupancy onto its counter track.
func (srv *Server) memCounter(gs *gpuState) {
	if srv.rec == nil {
		return
	}
	srv.rec.Counter(gs.id, "gpu mem (MiB)", srv.sim.Now(), float64(gs.mem.Used())/(1<<20))
}

// shouldRelocate reports whether a warm, idle instance should abandon its
// congested GPU for a markedly cooler one.
func (srv *Server) shouldRelocate(inst *Instance) bool {
	if inst.loading || inst.inflight > 0 {
		return false
	}
	cur := srv.gpus[inst.gpu].queued
	if cur < 4 {
		return false
	}
	min := cur
	for _, g := range srv.gpus {
		if g.down {
			continue // a failed GPU's empty queue is not a relocation target
		}
		if g.queued < min {
			min = g.queued
		}
	}
	return min <= cur/4
}

// place finds a GPU for a cold instance, evicting LRU idle instances as
// needed. Reports success.
func (srv *Server) place(inst *Instance) bool {
	need := inst.dep.gpuBytes
	order := make([]*gpuState, len(srv.gpus))
	copy(order, srv.gpus)
	if srv.cfg.Pack == PackDense && srv.fractional(need) {
		// Fractional packing: a small instance goes to the fullest live GPU
		// that still fits it without eviction (best-fit decreasing density),
		// keeping whole GPUs free for large instances and leaving the other
		// GPUs' warm sets undisturbed. Ties break toward the shorter queue,
		// then the lower GPU id (stable sort).
		sort.SliceStable(order, func(i, j int) bool {
			fi := !order[i].down && order[i].mem.Fits(need)
			fj := !order[j].down && order[j].mem.Fits(need)
			if fi != fj {
				return fi
			}
			if fi && order[i].mem.Available() != order[j].mem.Available() {
				return order[i].mem.Available() < order[j].mem.Available()
			}
			return order[i].queued < order[j].queued
		})
	} else {
		// Prefer the GPU with the shortest queue, then the most free memory.
		sort.SliceStable(order, func(i, j int) bool {
			if order[i].queued != order[j].queued {
				return order[i].queued < order[j].queued
			}
			return order[i].mem.Available() > order[j].mem.Available()
		})
	}
	for _, gs := range order {
		if gs.down {
			continue
		}
		if srv.makeRoom(gs, need) {
			blk, err := gs.mem.Alloc(need, inst.dep.Model.Name)
			if err != nil {
				continue // fragmentation raced us; try next GPU
			}
			if srv.cfg.LLM.PrefillDecode {
				pdGS, pdBlk := srv.allocDecode(inst, gs, true)
				if pdBlk == nil {
					// No second GPU can host the decode replica right now.
					if err := gs.mem.Free(blk); err != nil {
						panic("serving: placement accounting bug: " + err.Error())
					}
					continue
				}
				inst.pdGPU, inst.pdBlock = pdGS.id, pdBlk
				srv.memCounter(pdGS)
			}
			prev := inst.state
			srv.setState(inst, Warm, "place")
			inst.loading = true
			inst.gpu = gs.id
			inst.block = blk
			gs.residents[inst] = true
			if e, ok := srv.host.Peek(inst.pinName); ok {
				e.SetLocked(true) // warm weights must stay host-resident (DHA reads them)
			}
			srv.notePromotion(inst, prev, gs)
			srv.memCounter(gs)
			return true
		}
	}
	return false
}

// allocDecode finds a second GPU for an instance's decode replica under
// prefill/decode disaggregation: the canonical partner (primary + N/2, the
// far half of the topology) first, then any other live GPU in id order.
// evictOK lets the search evict LRU idle residents to make room (placement
// path); Warmup passes false.
func (srv *Server) allocDecode(inst *Instance, primary *gpuState, evictOK bool) (*gpuState, *gpumem.Block) {
	n := len(srv.gpus)
	cands := make([]int, 0, n)
	cands = append(cands, (primary.id+n/2)%n)
	for i := 0; i < n; i++ {
		if i != cands[0] {
			cands = append(cands, i)
		}
	}
	need := inst.dep.gpuBytes
	for _, id := range cands {
		gs := srv.gpus[id]
		if gs.down || gs.id == primary.id {
			continue
		}
		if evictOK && !srv.makeRoom(gs, need) {
			continue
		}
		if blk, err := gs.mem.Alloc(need, inst.dep.Model.Name); err == nil {
			return gs, blk
		}
	}
	return nil, nil
}

// fractional reports whether a footprint is small enough (≤ ¼ of a GPU)
// for dense bin-packing; larger instances keep the queue-balancing
// placement.
func (srv *Server) fractional(need int64) bool {
	return need*4 <= srv.gpus[0].mem.Capacity()
}

// makeRoom evicts LRU idle residents of gs until need bytes fit.
func (srv *Server) makeRoom(gs *gpuState, need int64) bool {
	for !gs.mem.Fits(need) {
		victim := srv.lruIdle(gs)
		if victim == nil {
			return false
		}
		srv.evict(victim)
	}
	return true
}

func (srv *Server) lruIdle(gs *gpuState) *Instance {
	var victim *Instance
	// deterministic: the min-by-(lastUsed, ID) reduction picks the same
	// victim whatever order the map yields.
	for inst := range gs.residents {
		if inst.inflight > 0 || inst.loading {
			continue
		}
		if victim == nil || inst.lastUsed < victim.lastUsed ||
			(inst.lastUsed == victim.lastUsed && inst.ID < victim.ID) {
			victim = inst
		}
	}
	return victim
}

// evict drops an idle instance's GPU residency. Host weights stay pinned
// (the entry merely unlocks, making it an eviction candidate for the host
// cache tier), so GPU eviction is free — metadata only.
func (srv *Server) evict(inst *Instance) {
	// Sequences mid-decode die with their KV cache; failLLM re-dispatches
	// them (no-op outside the autoregressive mode, where eviction candidates
	// are always idle).
	srv.failLLM(inst)
	gs := srv.gpus[inst.gpu]
	if err := gs.mem.Free(inst.block); err != nil {
		panic("serving: eviction accounting bug: " + err.Error())
	}
	delete(gs.residents, inst)
	srv.setState(inst, Cold, "evict")
	inst.block = nil
	if inst.pdBlock != nil {
		pgs := srv.gpus[inst.pdGPU]
		if err := pgs.mem.Free(inst.pdBlock); err != nil {
			panic("serving: decode-replica eviction accounting bug: " + err.Error())
		}
		inst.pdBlock = nil
		srv.memCounter(pgs)
	}
	if e, ok := srv.host.Peek(inst.pinName); ok {
		e.SetLocked(false)
	}
	srv.evictions++
	if srv.rec != nil {
		srv.rec.InstantArgs(gs.id, trace.TIDLifecycle, "serving",
			"evict "+inst.dep.Model.Name, srv.sim.Now(),
			map[string]any{"instance": inst.ID})
	}
	srv.memCounter(gs)
	if srv.tel != nil {
		srv.tel.Eviction(srv.sim.Now())
	}
	if srv.ins != nil {
		srv.ins.evictions.Inc()
	}
}

// startCold launches the cold-start run that also serves the request.
func (srv *Server) startCold(inst *Instance, p pending) {
	srv.coldStarts++
	gs := srv.gpus[inst.gpu]
	srv.busyUp(gs)
	gs.activeColds++
	inst.inflight++
	if srv.tel != nil {
		srv.tel.ColdStart(srv.sim.Now())
	}
	if srv.ins != nil {
		inst.dep.mon.coldStarts.Inc()
	}

	coldPlan := inst.dep.Plan
	var secondaries []int
	var secondary *gpuState
	if coldPlan.NumParts > 1 {
		secondary = srv.pickSecondary(inst.gpu)
		busy := secondary != nil && secondary.activeColds+secondary.secondaryColds > 0
		if secondary == nil || (busy && inst.dep.Fallback != nil) {
			// Every transmission partner is mid-load (or down): degrade to
			// the single-GPU variant instead of convoying behind its copies.
			if inst.dep.Fallback == nil {
				panic(fmt.Sprintf("serving: PT plan on GPU %d with no usable partner and no fallback", inst.gpu))
			}
			secondary = nil
			coldPlan = inst.dep.Fallback
			srv.ptFallbacks++
			if srv.rec != nil {
				srv.rec.InstantArgs(inst.gpu, trace.TIDLifecycle, "serving",
					"pt-fallback "+inst.dep.Model.Name, srv.sim.Now(),
					map[string]any{"instance": inst.ID})
			}
		} else {
			secondaries = []int{secondary.id}
			secondary.secondaryColds++
		}
	}
	if srv.rec != nil {
		srv.rec.InstantArgs(inst.gpu, trace.TIDLifecycle, "serving",
			"cold start "+inst.dep.Model.Name, srv.sim.Now(),
			map[string]any{"instance": inst.ID, "partitions": coldPlan.NumParts})
	}
	spec := engine.Spec{
		Model:        inst.dep.Model,
		Plan:         coldPlan,
		Batch:        srv.cfg.Batch,
		Primary:      inst.gpu,
		Secondaries:  secondaries,
		ComputeScale: srv.llmScale(inst.dep.Model, []pending{p}),
		OnDone: func(res *engine.Result) {
			inst.loading = false
			inst.inflight--
			srv.busyDown(gs)
			gs.activeColds--
			if secondary != nil {
				secondary.secondaryColds--
			}
			if res.Aborted {
				// A GPU failure cut the load short. If the instance still
				// holds residency (the failed device was the secondary), the
				// partially loaded weights are useless — evict so the retry
				// performs a full cold start on a surviving GPU.
				if inst.state == Warm {
					srv.evict(inst)
				}
				// Warm arrivals that coalesced into the backlog while the
				// load was in flight must be re-dispatched exactly like the
				// warm abort path below, or they are stranded forever.
				victims := append([]pending{p}, inst.backlog...)
				inst.backlog = nil
				for _, v := range victims {
					srv.retryOrShed(inst, v)
				}
				srv.drainWaitlist()
				return
			}
			if srv.cfg.LLM.Enabled {
				srv.llmPrefillDone(inst, []pending{p}, res, true)
				srv.drainWaitlist()
				return
			}
			srv.record(p.req, res, true)
			// With dynamic batching, warm arrivals during the load coalesced
			// into the backlog; launch them now or they are stranded (the
			// warm completion path does this via releaseBacklog too).
			srv.releaseBacklog(inst)
			srv.drainWaitlist()
		},
	}
	if err := srv.eng.Start(spec); err != nil {
		panic("serving: cold start rejected: " + err.Error())
	}
}

// startWarm queues a warm inference on the instance's GPU. If the instance
// is still loading, the run naturally queues behind the cold-start on the
// execution stream. With dynamic batching enabled, requests arriving while
// the instance is busy coalesce into its backlog instead.
func (srv *Server) startWarm(inst *Instance, p pending) {
	if srv.effMaxBatch() > 1 && inst.inflight > 0 {
		inst.backlog = append(inst.backlog, p)
		return
	}
	srv.startWarmBatch(inst, []pending{p})
}

// effMaxBatch is the dynamic-batch ceiling. Static LLM batching coalesces
// arrivals up to the token budget even when MaxBatch is off — run-to-
// completion batches are the whole point of that baseline — while continuous
// batching never coalesces prefills (sequences join the running decode batch
// at iteration boundaries instead). Outside LLM mode this is Config.MaxBatch
// unchanged.
func (srv *Server) effMaxBatch() int {
	if srv.cfg.LLM.Enabled {
		if srv.cfg.LLM.Batching == LLMBatchStatic {
			if srv.cfg.MaxBatch > srv.cfg.LLM.TokenBudget {
				return srv.cfg.MaxBatch
			}
			return srv.cfg.LLM.TokenBudget
		}
		return 1
	}
	return srv.cfg.MaxBatch
}

// startWarmBatch issues one (possibly batched) warm inference.
func (srv *Server) startWarmBatch(inst *Instance, reqs []pending) {
	gs := srv.gpus[inst.gpu]
	srv.busyUp(gs)
	inst.inflight++
	if len(reqs) > 1 {
		srv.batchedRuns++
		srv.batchedRequests += len(reqs)
		if srv.rec != nil {
			srv.rec.InstantArgs(inst.gpu, trace.TIDLifecycle, "serving",
				"batch "+inst.dep.Model.Name, srv.sim.Now(),
				map[string]any{"requests": len(reqs)})
		}
	}
	spec := engine.Spec{
		Model:        inst.dep.Model,
		Plan:         inst.dep.Plan,
		Batch:        srv.cfg.Batch * len(reqs),
		Primary:      inst.gpu,
		Warm:         true,
		ComputeScale: srv.llmScale(inst.dep.Model, reqs),
		OnDone: func(res *engine.Result) {
			inst.inflight--
			srv.busyDown(gs)
			if res.Aborted {
				// The GPU failed under this batch. Re-dispatch the batch and
				// anything coalesced behind it; the instance itself has
				// already been evicted by the failure handler.
				victims := append(reqs, inst.backlog...)
				inst.backlog = nil
				for _, v := range victims {
					srv.retryOrShed(inst, v)
				}
				srv.drainWaitlist()
				return
			}
			if srv.cfg.LLM.Enabled {
				srv.llmPrefillDone(inst, reqs, res, false)
				srv.drainWaitlist()
				return
			}
			for _, r := range reqs {
				srv.record(r.req, res, false)
			}
			srv.releaseBacklog(inst)
			srv.drainWaitlist()
		},
	}
	if err := srv.eng.Start(spec); err != nil {
		panic("serving: warm start rejected: " + err.Error())
	}
}

// releaseBacklog launches the next dynamic batch, if any requests coalesced
// while the instance was busy.
func (srv *Server) releaseBacklog(inst *Instance) {
	if len(inst.backlog) == 0 || inst.state != Warm {
		return
	}
	n := len(inst.backlog)
	if max := srv.effMaxBatch(); n > max {
		n = max
	}
	batch := inst.backlog[:n:n]
	inst.backlog = inst.backlog[n:]
	srv.startWarmBatch(inst, batch)
}

// pickSecondary chooses the least-busy parallel-transmission partner,
// skipping failed GPUs. It returns nil when every partner is down.
func (srv *Server) pickSecondary(primary int) *gpuState {
	partners := srv.cfg.Topo.ParallelPartners(primary)
	if len(partners) == 0 {
		panic(fmt.Sprintf("serving: PT plan on GPU %d without partners", primary))
	}
	var best *gpuState
	for _, id := range partners {
		g := srv.gpus[id]
		if g.down {
			continue
		}
		if best == nil || g.activeColds+g.secondaryColds < best.activeColds+best.secondaryColds {
			best = g
		}
	}
	return best
}

func (srv *Server) record(req workload.Request, res *engine.Result, cold bool) {
	lat := res.Finish.Sub(req.At)
	srv.digest.Add(lat)
	if cold {
		srv.coldDigest.Add(lat)
	} else {
		srv.warmDigest.Add(lat)
	}
	srv.series.Record(req.At, lat, cold)
	srv.completed++
	if srv.inj != nil && srv.inj.Active() > 0 {
		srv.degraded++
	}
	if srv.ins != nil {
		class := 1 // warm
		if cold {
			class = 0
		}
		m := srv.instances[req.Instance].dep.mon
		m.requests[class].Inc()
		if lat > srv.cfg.SLO {
			m.violations[class].Inc()
		}
		m.latency[class].Observe(lat.Seconds())
	}
	if srv.rec != nil {
		// One async row per request: an outer span covering the whole
		// lifetime with the latency breakdown attached to its begin event
		// (so summarizers never need to pair begins with ends), and a
		// nested "queue" span up to first execution. Async events tolerate
		// the overlap that concurrent requests on one GPU always produce.
		srv.traceSeq++
		id := srv.traceSeq
		class := "warm"
		if cold {
			class = "cold"
		}
		queue := res.ExecBegin.Sub(req.At)
		exec := res.Finish.Sub(res.ExecBegin) - res.TotalStall
		srv.rec.AsyncBegin(res.Primary, "request", res.Model, id, req.At, map[string]any{
			"class":    class,
			"instance": req.Instance,
			"queue_us": float64(queue) / 1e3,
			"load_us":  float64(res.TotalStall) / 1e3,
			"exec_us":  float64(exec) / 1e3,
			"total_us": float64(lat) / 1e3,
		})
		if queue > 0 {
			srv.rec.AsyncBegin(res.Primary, "request", "queue", id, req.At, nil)
			srv.rec.AsyncEnd(res.Primary, "request", "queue", id, res.ExecBegin)
		}
		srv.rec.AsyncEnd(res.Primary, "request", res.Model, id, res.Finish)
	}
}

// drainWaitlist retries parked requests after a completion freed capacity.
func (srv *Server) drainWaitlist() {
	if len(srv.waitlist) == 0 {
		return
	}
	parked := srv.waitlist
	srv.waitlist = nil
	if srv.rec != nil {
		srv.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "serving",
			"drain waitlist", srv.sim.Now(),
			map[string]any{"pending": len(parked)})
	}
	for _, w := range parked {
		if w.inst.state == Warm {
			srv.startWarm(w.inst, w.p)
			continue
		}
		if w.inst.fetching {
			w.inst.fetchWait = append(w.inst.fetchWait, w.p)
			continue
		}
		// Re-enter the cold path (not bare placement): the instance may have
		// lost host residency while parked and must re-fetch before loading.
		srv.startColdPath(w.inst, w.p, false)
	}
}

// CheckInvariants validates the server's internal consistency; tests call
// it after runs. It verifies residency/allocator agreement, quiesced
// counters, and host-memory accounting.
func (srv *Server) CheckInvariants() error {
	var pinned int64
	for _, inst := range srv.instances {
		e, resident := srv.host.Peek(inst.pinName)
		if resident {
			pinned += inst.dep.Model.TotalParamBytes()
		}
		switch inst.state {
		case Warm:
			if inst.block == nil {
				return fmt.Errorf("serving: warm instance %d without a block", inst.ID)
			}
			if srv.cfg.LLM.PrefillDecode && inst.pdBlock == nil {
				return fmt.Errorf("serving: warm instance %d has no decode replica", inst.ID)
			}
			if !srv.gpus[inst.gpu].residents[inst] {
				return fmt.Errorf("serving: warm instance %d not in GPU %d residents", inst.ID, inst.gpu)
			}
			if inst.block.Size() != inst.dep.gpuBytes {
				return fmt.Errorf("serving: instance %d block %d != footprint %d",
					inst.ID, inst.block.Size(), inst.dep.gpuBytes)
			}
			if !resident {
				return fmt.Errorf("serving: warm instance %d has no host-resident weights", inst.ID)
			}
			if !e.Locked() {
				return fmt.Errorf("serving: warm instance %d host entry is evictable", inst.ID)
			}
		case Cold, Swapped:
			if inst.block != nil {
				return fmt.Errorf("serving: %v instance %d holds a block", inst.state, inst.ID)
			}
			if inst.pdBlock != nil {
				return fmt.Errorf("serving: %v instance %d holds a decode replica", inst.state, inst.ID)
			}
			if inst.loading {
				return fmt.Errorf("serving: %v instance %d marked loading", inst.state, inst.ID)
			}
			if inst.fetching && !resident {
				return fmt.Errorf("serving: instance %d fetching without a host entry", inst.ID)
			}
			if resident && e.Locked() && !inst.fetching {
				return fmt.Errorf("serving: %v idle instance %d holds a host lock", inst.state, inst.ID)
			}
		case Sleeping:
			// Sleeping means exactly: no device residency, host copy intact
			// and evictable. A sleeping copy pushed out of host memory must
			// have been demoted to Swapped.
			if inst.block != nil || inst.pdBlock != nil {
				return fmt.Errorf("serving: sleeping instance %d holds GPU memory", inst.ID)
			}
			if inst.loading || inst.fetching {
				return fmt.Errorf("serving: sleeping instance %d has an actuation in flight", inst.ID)
			}
			if !resident {
				return fmt.Errorf("serving: sleeping instance %d lost its host copy without demotion", inst.ID)
			}
			if e.Locked() {
				return fmt.Errorf("serving: sleeping instance %d holds a host lock", inst.ID)
			}
		}
	}
	if pinned != srv.host.Pinned() {
		return fmt.Errorf("serving: host store pinned %d != resident instance total %d",
			srv.host.Pinned(), pinned)
	}
	if err := srv.host.CheckInvariants(); err != nil {
		return err
	}
	// Decode replicas live on a GPU whose residents map does not track them;
	// sum them per device so the allocator check still balances.
	pdUsed := make([]int64, len(srv.gpus))
	for _, inst := range srv.instances {
		if inst.pdBlock != nil {
			pdUsed[inst.pdGPU] += inst.pdBlock.Size()
		}
	}
	for _, gs := range srv.gpus {
		var used int64
		// deterministic: order-independent sum and membership checks.
		for inst := range gs.residents {
			if inst.gpu != gs.id || inst.state != Warm {
				return fmt.Errorf("serving: residents map of GPU %d holds stray instance %d", gs.id, inst.ID)
			}
			used += inst.dep.gpuBytes
		}
		used += pdUsed[gs.id] + gs.kv.ReservedBytes()
		if used != gs.mem.Used() {
			return fmt.Errorf("serving: GPU %d allocator used %d != resident+decode+KV sum %d",
				gs.id, gs.mem.Used(), used)
		}
		if err := gs.mem.CheckInvariants(); err != nil {
			return err
		}
	}
	if srv.sim.Pending() == 0 {
		// Quiesced: no in-flight work may remain.
		for _, gs := range srv.gpus {
			if gs.queued != 0 || gs.activeColds != 0 || gs.secondaryColds != 0 {
				return fmt.Errorf("serving: GPU %d counters not quiesced (%d/%d/%d)",
					gs.id, gs.queued, gs.activeColds, gs.secondaryColds)
			}
		}
		for _, inst := range srv.instances {
			if inst.inflight != 0 || inst.loading {
				return fmt.Errorf("serving: instance %d not quiesced", inst.ID)
			}
			if len(inst.backlog) != 0 {
				return fmt.Errorf("serving: instance %d left %d requests in its batch backlog",
					inst.ID, len(inst.backlog))
			}
			if inst.fetching || len(inst.fetchWait) != 0 {
				return fmt.Errorf("serving: instance %d left a fetch in flight (%d coalesced)",
					inst.ID, len(inst.fetchWait))
			}
			if llm := inst.llm; llm != nil {
				if llm.running || len(llm.active)+len(llm.joinq)+len(llm.kvwait)+len(llm.transfers) != 0 {
					return fmt.Errorf("serving: instance %d left decode state (%d active, %d joining, %d kv-waiting, %d in transfer, running=%v)",
						inst.ID, len(llm.active), len(llm.joinq), len(llm.kvwait), len(llm.transfers), llm.running)
				}
			}
		}
		for _, gs := range srv.gpus {
			if gs.kv.Sequences() != 0 || gs.kv.ReservedBytes() != 0 {
				return fmt.Errorf("serving: GPU %d holds %d KV reservations (%d bytes) at quiescence",
					gs.id, gs.kv.Sequences(), gs.kv.ReservedBytes())
			}
		}
		if len(srv.waitlist) != 0 {
			return fmt.Errorf("serving: %d requests stuck on the waitlist", len(srv.waitlist))
		}
	}
	return nil
}

// Report summarizes a serving run (the quantities in Figures 13–15).
type Report struct {
	Policy        Policy
	Requests      int
	P50, P99, Max sim.Duration
	Mean          sim.Duration
	// ColdP50/ColdP99 are percentiles over requests served by a cold-start
	// run (zero when no request went cold); WarmP99 covers the rest. The
	// split is what cluster routing policies trade off: spreading load
	// shortens queues but forfeits residency, so the cold tail is where a
	// router earns or loses its keep.
	ColdP50, ColdP99 sim.Duration
	WarmP99          sim.Duration
	Goodput          float64 // fraction of requests within the SLO
	ColdStarts       int
	ColdStartRate    float64
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
	// HostHits / HostMisses count pinned-cache lookups on the cold path: a
	// miss means the request paid a fetch-to-pin before its cold-start plan
	// could begin. HostEvictions counts entries the cache policy pushed out
	// of host memory under capacity pressure. Misses and evictions are zero
	// under the legacy pinned host policy (every lookup hits).
	HostHits      int
	HostMisses    int
	HostEvictions int
	// HostPinned is the bytes pinned in host memory at the end of the run,
	// against Config.HostMemory.
	HostPinned int64
	// Shed counts requests dropped entirely: rejected by the SLO admission
	// controller, or lost after their single post-failure retry also died.
	Shed int
	// Retried counts requests re-dispatched to a surviving GPU after a fault
	// aborted their run.
	Retried int
	// Degraded counts requests that completed while at least one injected
	// fault was active — the population whose latency the faults perturbed.
	Degraded int
	// GPUFailures counts GPU-failure fault windows that opened during the run.
	GPUFailures  int
	WarmCapacity int
	// Autoregressive-mode metrics, zero unless Config.LLM was enabled. In
	// LLM mode the cold/warm digests (and per-window goodput) measure
	// time-to-first-token, while the overall P50/P99/Mean/Max measure full
	// end-to-end generation latency.
	TTFTP50, TTFTP99 sim.Duration
	TokensGenerated  int
	TokenRate        float64 // generated tokens per simulated second
	DecodeIters      int
	MeanDecodeBatch  float64 // average sequences advanced per iteration
	KVDeferred       int     // KV admission deferral events
	KVTransfers      int     // prefill→decode KV handoffs
	PerWindow        []metrics.WindowStat
	// Telemetry is the windowed resource snapshot; nil unless
	// Config.Telemetry was set.
	Telemetry []metrics.TelemetryStat
}

func (srv *Server) report(n int) *Report {
	r := &Report{
		Policy:          srv.cfg.Policy,
		Requests:        n,
		P50:             srv.digest.P50(),
		P99:             srv.digest.P99(),
		Max:             srv.digest.Max(),
		Mean:            srv.digest.Mean(),
		ColdP50:         srv.coldDigest.P50(),
		ColdP99:         srv.coldDigest.P99(),
		WarmP99:         srv.warmDigest.P99(),
		Goodput:         srv.digest.GoodputRate(srv.cfg.SLO),
		ColdStarts:      srv.coldStarts,
		ColdStartRate:   float64(srv.coldStarts) / float64(n),
		PTFallbacks:     srv.ptFallbacks,
		Relocations:     srv.relocations,
		BatchedRuns:     srv.batchedRuns,
		BatchedRequests: srv.batchedRequests,
		Evictions:       srv.evictions,
		Deferred:        srv.deferred,
		Sleeps:          srv.sleeps,
		Wakes:           srv.wakes,
		Prewarms:        srv.prewarms,
		SwapIns:         srv.swapIns,
		SwapOuts:        srv.swapOuts,
		HostHits:        srv.host.Hits(),
		HostMisses:      srv.host.Misses(),
		HostEvictions:   srv.host.Evictions(),
		HostPinned:      srv.host.Pinned(),
		Shed:            srv.shed,
		Retried:         srv.retried,
		Degraded:        srv.degraded,
		GPUFailures:     srv.gpuFailures,
		WarmCapacity:    srv.WarmCapacity(),
		PerWindow:       srv.series.Stats(srv.sim.Now()),
	}
	if srv.cfg.LLM.Enabled {
		r.TTFTP50 = srv.ttftDigest.P50()
		r.TTFTP99 = srv.ttftDigest.P99()
		r.TokensGenerated = srv.tokensGenerated
		if secs := srv.sim.Now().Seconds(); secs > 0 {
			r.TokenRate = float64(srv.tokensGenerated) / secs
		}
		r.DecodeIters = srv.decodeIters
		if srv.decodeIters > 0 {
			r.MeanDecodeBatch = float64(srv.decodeSeqSum) / float64(srv.decodeIters)
		}
		r.KVDeferred = srv.kvDeferred
		r.KVTransfers = srv.kvTransfers
	}
	if srv.tel != nil {
		r.Telemetry = srv.tel.Stats(srv.sim.Now())
	}
	srv.finalizeMonitor()
	return r
}
