package serving

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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

// Policy selects how instances are planned and cold-started: the plan
// mode every deployment is planned in.
type Policy = plan.Mode

// Available serving policies (the paper's evaluation legends). Plain PT is
// a planning mode, not a serving policy.
const (
	PolicyBaseline   = plan.ModeBaseline
	PolicyPipeSwitch = plan.ModePipeSwitch
	PolicyDHA        = plan.ModeDHA
	PolicyPTDHA      = plan.ModePTDHA
)

// Fixed serving parameters.
const (
	// servingBatch is the engine batch of one request: the paper's serving
	// experiments do not batch (§5.2); warm requests coalesce via MaxBatch.
	servingBatch = 1
	// reservePerGPU is GPU memory withheld from instance packing (runtime,
	// CUDA context, parallel-transmission staging).
	reservePerGPU int64 = 1 << 30
	// hostFetchOverhead is the fixed setup cost of a fetch-to-pin
	// (allocation, page-locking, registration).
	hostFetchOverhead = 2 * sim.Millisecond
)

// WindowWidth buckets the per-window series, latency and telemetry
// columns alike: one minute, the paper's Figure 15 granularity.
const WindowWidth = 60 * sim.Second

// Config configures a Server. A zero numeric field takes its default; New
// rejects a negative one and any combination of modes that does not compose.
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
	// HostMemory is pinned-memory capacity. Default 244 GB (p3.8xlarge).
	HostMemory int64
	// MaxBatch enables dynamic batching: requests arriving for an
	// instance that is already executing coalesce, and when the running
	// inference retires they are served together in one batched run of up
	// to MaxBatch items. 0 or 1 disables coalescing (the paper's setting —
	// batching delays latency-critical cold-starts, §5.2). Applies to warm
	// inferences only.
	MaxBatch int
	// Trace, when non-nil, records the full request lifecycle (arrive →
	// queue → cold-load/warm-hit → batch → execute → complete), instant
	// events for evictions/relocations/waitlist drains, per-GPU memory
	// occupancy counters, and — via the engine and network — per-layer
	// stream spans and per-link PCIe/NVLink bandwidth counters. Tracing is
	// observation-only: a traced run is byte-identical to an untraced one.
	Trace *trace.Recorder
	// Telemetry fills the resource columns of the per-window series
	// (arrivals, queue depth, GPU busy time, cold-start launch, eviction,
	// relocation, deferral, shed and retry counts), read with Windows after
	// the run. Off, they stay zero.
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
	// pinName names the instance's weights in the host cache; host is
	// their entry there, nil while they are not host-resident.
	pinName string
	host    *hostmem.Entry
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
	// partners are the GPU's parallel-transmission partners
	// (topology.ParallelPartners), fixed by the topology.
	partners []*gpuState
	// down marks the GPU failed by fault injection: placement, relocation,
	// and secondary selection all skip it until recovery.
	down bool
	// busySince is the instant queued last went 0→1; meaningful only while
	// queued > 0.
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

	// The instrumentation spine (instruments.go): per-kind event counts and
	// the sinks emit feeds.
	n   [numKinds]int
	rec *trace.Recorder  // nil when tracing is off
	ins *instruments     // nil when monitoring is off
	inj *faults.Injector // nil when no fault schedule is armed

	// series is the server's per-window store: every first-response latency
	// sample (the whole answer in single-shot mode, the first token in LLM
	// mode) and, with Config.Telemetry, the resource telemetry; generated
	// holds LLM mode's end-to-end generation latencies.
	series    *metrics.Series
	generated metrics.Digest
	waitlist  []waiting
	// freeRuns recycles run records (see run).
	freeRuns []*run
}

// New builds a Server. The topology must not be shared with another
// simulation.
func New(cfg Config) (*Server, error) {
	if cfg.Topo == nil || cfg.Cost == nil {
		return nil, fmt.Errorf("serving: config needs Topo and Cost")
	}
	switch cfg.Policy {
	case PolicyBaseline, PolicyPipeSwitch, PolicyDHA, PolicyPTDHA:
	case plan.ModePT:
		return nil, fmt.Errorf("serving: policy %q: plain PT is a planning mode, not a serving policy", cfg.Policy)
	default:
		return nil, fmt.Errorf("serving: unknown policy %q", cfg.Policy)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SLO", float64(cfg.SLO)},
		{"HostMemory", float64(cfg.HostMemory)},
		{"HostFetchBandwidth", cfg.HostFetchBandwidth},
		{"AdmitFactor", cfg.AdmitFactor},
		{"MaxBatch", float64(cfg.MaxBatch)},
		{"LLM.TokenBudget", float64(cfg.LLM.TokenBudget)},
		{"LLM.MaxOutput", float64(cfg.LLM.MaxOutput)},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return nil, fmt.Errorf("serving: %s must be finite and not negative (zero selects the default)", f.name)
		}
	}
	if cfg.SLO == 0 {
		cfg.SLO = 100 * sim.Millisecond
	}
	if cfg.HostMemory == 0 {
		cfg.HostMemory = 244e9
	}
	hostPolicy, err := hostmem.ParsePolicy(string(cfg.HostPolicy))
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	cfg.HostPolicy = hostPolicy
	if cfg.HostFetchBandwidth == 0 {
		cfg.HostFetchBandwidth = 10e9
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
		if cfg.LLM.TokenBudget == 0 {
			cfg.LLM.TokenBudget = 8
		}
		if cfg.LLM.MaxOutput == 0 {
			cfg.LLM.MaxOutput = 64
		}
		if cfg.LLM.PrefillDecode && cfg.Topo.NumGPUs() < 2 {
			return nil, fmt.Errorf("serving: prefill/decode disaggregation needs at least 2 GPUs, topology has %d",
				cfg.Topo.NumGPUs())
		}
	} else if cfg.LLM.PrefillDecode {
		return nil, fmt.Errorf("serving: PrefillDecode requires LLM mode")
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
		deployments: map[string]*Deployment{},
		series:      metrics.NewSeries(WindowWidth, cfg.SLO, cfg.Topo.NumGPUs()),
		rec:         cfg.Trace,
	}
	if srv.host, err = hostmem.NewCache(cfg.HostMemory, hostPolicy, srv.hostLocked); err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	srv.rec.AttachNetwork(net) // no-op when tracing is off
	for _, g := range cfg.Topo.GPUs {
		usable := g.MemoryBytes - reservePerGPU
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
	for _, gs := range srv.gpus {
		for _, id := range cfg.Topo.ParallelPartners(gs.id) {
			gs.partners = append(gs.partners, srv.gpus[id])
		}
	}
	srv.attachSinks()
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
	srv.emit(kGPUFailure, id, nil, nil)
	srv.gpuTransition(id, false)
	// IDs are slice indices, so this evicts the GPU's residents in ID order.
	// Nested calls cannot make an instance warm here: placement skips down
	// GPUs.
	for _, inst := range srv.instances {
		if inst.state == Warm && inst.gpu == id {
			srv.evict(inst)
		}
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
	srv.gpuTransition(id, true)
	srv.drainWaitlist()
}

// Deploy profiles and plans a model under the server's policy (a one-time
// pre-run, §4.3.1), pins its weights, and registers count instances.
// It may be called multiple times with different models.
func (srv *Server) Deploy(model *dnn.Model, count int) error {
	if count <= 0 {
		return fmt.Errorf("serving: instance count must be positive")
	}
	for i := 0; i < count; i++ {
		if _, err := srv.DeployVariant(model, 0); err != nil {
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
	prof, err := profiler.Run(model, srv.cfg.Cost, srv.cfg.Topo, profiler.Options{Batch: servingBatch})
	if err != nil {
		return nil, err
	}
	p, err := srv.pl.Plan(prof, srv.cfg.Policy)
	if err != nil {
		return nil, err
	}
	var fb *plan.Plan
	if p.NumParts > 1 {
		fb = p.SingleGPU()
	}
	dep := &Deployment{
		Model:     model,
		Profile:   prof,
		Plan:      p,
		Fallback:  fb,
		Footprint: p.ResidentBytes(model) + srv.cfg.Cost.Workspace(model, servingBatch),
		LoadEst:   prof.TotalLoad(),
		ExecEst:   prof.TotalExecInMem(),
	}
	dep.FetchEst = hostFetchOverhead +
		sim.Duration(float64(model.TotalParamBytes())/srv.cfg.HostFetchBandwidth*1e9)
	dep.gpuBytes = dep.Footprint
	if srv.cfg.Pack == PackDense {
		dep.gpuBytes = gpumem.AlignUp(dep.Footprint, gpumem.PageBytes)
	}
	var usable int64
	for _, gs := range srv.gpus {
		usable = max(usable, gs.mem.Capacity())
	}
	if dep.gpuBytes > usable {
		// No placement could ever succeed, so its requests would wait forever.
		return nil, fmt.Errorf("serving: model %s needs %d bytes (%.1f GB) per instance, more than the %d bytes (%.1f GB) usable on the largest GPU",
			model.Name, dep.gpuBytes, float64(dep.gpuBytes)/1e9, usable, float64(usable)/1e9)
	}
	dep.mon = srv.deployInstruments(model.Name)
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
	inst := &Instance{
		ID: id, dep: dep, state: Cold, popularity: popularity,
		pinName: fmt.Sprintf("%s/instance-%d", dep.Model.Name, id),
	}
	if srv.cfg.HostPolicy == hostmem.PolicyPinned ||
		srv.host.Pinned()+dep.Model.TotalParamBytes() <= srv.cfg.HostMemory {
		if _, err := srv.pinHost(inst); err != nil {
			return 0, fmt.Errorf("serving: %w", err)
		}
	}
	srv.instances = append(srv.instances, inst)
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
		if inst.host == nil {
			continue // zoo tail: not host-resident, warming it would skip the fetch path
		}
		placed := false
		for try := 0; try < len(srv.gpus); try++ {
			if srv.claim(inst, srv.gpus[(g+try)%len(srv.gpus)], false) {
				srv.setState(inst, Warm, "warmup")
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
// and Finish instead. Run is the reference driver: one-node clusters and
// the benchmark's external-clock node are checked against its report.
func (srv *Server) Run(requests []workload.Request) (*Report, error) {
	for i, r := range requests {
		if r.Instance < 0 || r.Instance >= len(srv.instances) {
			return nil, fmt.Errorf("serving: request for unknown instance %d", r.Instance)
		}
		if r.At < 0 {
			return nil, fmt.Errorf("serving: request %d arrives at negative time %v", i, r.At)
		}
		req := r
		srv.sim.At(req.At, func() { srv.dispatch(pending{req: req}) })
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
	srv.dispatch(pending{req: req})
	return nil
}

// Finish validates that every submitted request was accounted for (served
// or shed) and returns the report. It is called after the driving clock —
// private (Run) or shared (cluster) — has run to quiescence.
func (srv *Server) Finish() (*Report, error) {
	if srv.n[kCompletion]+srv.n[kShed] != srv.n[kArrival] {
		return nil, fmt.Errorf("serving: %d of %d requests completed (%d shed)",
			srv.n[kCompletion], srv.n[kArrival], srv.n[kShed])
	}
	srv.finishSinks()
	return &Report{Policy: srv.cfg.Policy, Summary: Summarize(srv)}, nil
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

// ColdStartCount returns the cumulative cold-start count so far; the
// cluster autoscaler differences it per window for its cold-ratio signal.
func (srv *Server) ColdStartCount() int { return srv.n[kColdStart] }

// dispatch routes one request attempt: fresh arrivals and post-failure
// retries take the same path, so a retried request re-enters placement,
// relocation, and batching exactly like a new one.
func (srv *Server) dispatch(p pending) {
	inst := srv.instances[p.req.Instance]
	inst.lastUsed = srv.sim.Now()
	if p.attempt == 0 {
		srv.arrive()
	}
	if inst.state == Warm && srv.shouldRelocate(inst) {
		// The instance's GPU is congested while another is nearly idle:
		// relocating via a cold start on the cool GPU costs tens of
		// milliseconds once but sheds seconds of queueing. This mirrors
		// how serving controllers (e.g. Clockwork's) shift models between
		// GPUs under skewed load.
		srv.emit(kRelocation, inst.gpu, inst, nil)
		srv.evict(inst)
	}
	if inst.state != Warm && !srv.admit(inst, p) {
		return // shed by the SLO admission controller
	}
	srv.resume(inst, p, true)
}

// resume is the one step by which a request (re-)enters service: a warm
// instance serves it, an instance with a fetch-to-pin in flight queues it
// behind the fetch rather than starting another, and anything else takes
// the cold path, which re-fetches weights that lost host residency. fresh
// marks a first deferral, as in startColdPath.
func (srv *Server) resume(inst *Instance, p pending, fresh bool) {
	switch {
	case inst.state == Warm:
		srv.startWarm(inst, p)
	case inst.fetching:
		inst.fetchWait = append(inst.fetchWait, p)
	default:
		srv.startColdPath(inst, p, fresh)
	}
}

// startColdPath serves an admitted cold request: host-resident weights go
// straight to placement, unpinned weights first pay the fetch-to-pin cost.
// fresh marks a first deferral (drainWaitlist retries re-park silently).
func (srv *Server) startColdPath(inst *Instance, p pending, fresh bool) {
	if e := inst.host; e != nil {
		srv.count(kHostHit, 1)
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
	srv.count(kHostMiss, 1)
	srv.startFetch(inst, p, fresh)
}

// park puts a request on the waitlist; count marks a first-time deferral.
func (srv *Server) park(inst *Instance, p pending, count bool) {
	if count {
		srv.emit(kDeferred, trace.ServerPID, inst, func() map[string]any {
			return map[string]any{"instance": inst.ID, "waitlist": len(srv.waitlist) + 1}
		})
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
	if inst.host == nil {
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
	srv.emit(kShed, trace.ServerPID, inst, func() map[string]any {
		return map[string]any{"instance": inst.ID, "attempt": p.attempt, "why": why}
	})
}

// retryOrShed handles a request whose run was aborted by a GPU failure:
// first failure re-dispatches it (once) through the normal path, which now
// avoids the failed GPU; a second failure sheds it.
func (srv *Server) retryOrShed(inst *Instance, p pending) {
	if p.attempt >= 1 {
		srv.shedRequest(inst, p, "retry-failed")
		return
	}
	srv.emit(kRetried, trace.ServerPID, inst, nil)
	srv.dispatch(pending{req: p.req, attempt: p.attempt + 1})
}

// busyUp marks one more outstanding run on gs, starting the busy clock on
// the 0→1 transition.
func (srv *Server) busyUp(gs *gpuState) {
	gs.queued++
	if gs.queued == 1 {
		gs.busySince = srv.sim.Now()
	}
}

// busyDown retires one outstanding run on gs, crediting busy time on the
// 1→0 transition.
func (srv *Server) busyDown(gs *gpuState) {
	gs.queued--
	if gs.queued == 0 {
		srv.creditBusy(gs)
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
// needed, and makes it Warm. Reports success; every caller then starts its
// cold load at once (startCold).
func (srv *Server) place(inst *Instance) bool {
	need := inst.dep.gpuBytes
	// Each call sorts its own copy: makeRoom's evictions can re-dispatch
	// into a nested place. The array holds the largest preset, 8 GPUs,
	// without a heap allocation.
	var buf [8]*gpuState
	order := append(buf[:0], srv.gpus...)
	if srv.cfg.Pack == PackDense && srv.fractional(need) {
		// Fractional packing: a small instance goes to the fullest live GPU
		// that still fits it without eviction (best-fit decreasing density),
		// keeping whole GPUs free for large instances and leaving the other
		// GPUs' warm sets undisturbed. Ties break toward the shorter queue,
		// then the lower GPU id (stable sort).
		slices.SortStableFunc(order, func(a, b *gpuState) int {
			fa := !a.down && a.mem.Fits(need)
			fb := !b.down && b.mem.Fits(need)
			if fa != fb {
				if fa {
					return -1
				}
				return 1
			}
			if fa {
				if c := cmp.Compare(a.mem.Available(), b.mem.Available()); c != 0 {
					return c
				}
			}
			return cmp.Compare(a.queued, b.queued)
		})
	} else {
		// Prefer the GPU with the shortest queue, then the most free memory.
		slices.SortStableFunc(order, func(a, b *gpuState) int {
			if c := cmp.Compare(a.queued, b.queued); c != 0 {
				return c
			}
			return cmp.Compare(b.mem.Available(), a.mem.Available())
		})
	}
	for _, gs := range order {
		if gs.down || !srv.claim(inst, gs, true) {
			continue
		}
		if inst.pdBlock != nil {
			srv.memCounter(srv.gpus[inst.pdGPU])
		}
		prev := inst.state
		srv.setState(inst, Warm, "place")
		srv.notePromotion(inst, prev)
		srv.memCounter(gs)
		return true
	}
	return false
}

// claim makes inst resident on gs: its weights block there and, under
// prefill/decode, its decode replica on a second GPU. With evict it first
// evicts LRU idle residents to make room (placement); Warmup claims without
// evicting. It reports success and holds nothing on failure. release gives
// back what claim takes.
func (srv *Server) claim(inst *Instance, gs *gpuState, evict bool) bool {
	if evict && !srv.makeRoom(gs, inst.dep.gpuBytes) {
		return false
	}
	blk, err := gs.mem.Alloc(inst.dep.gpuBytes, inst.dep.Model.Name)
	if err != nil {
		return false // fragmentation raced us; try next GPU
	}
	if srv.cfg.LLM.PrefillDecode {
		pdGS, pdBlk := srv.allocDecode(inst, gs, evict)
		if pdBlk == nil {
			// No second GPU can host the decode replica right now.
			if err := gs.mem.Free(blk); err != nil {
				panic("serving: placement accounting bug: " + err.Error())
			}
			return false
		}
		inst.pdGPU, inst.pdBlock = pdGS.id, pdBlk
	}
	inst.gpu, inst.block = gs.id, blk
	gs.residents[inst] = true
	return true
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
		if victim == nil || lessRecent(inst, victim) {
			victim = inst
		}
	}
	return victim
}

// lessRecent orders instances least recently used first, ties broken by
// ID: the one LRU order of GPU and host-pressure eviction.
func lessRecent(a, b *Instance) bool {
	return a.lastUsed < b.lastUsed || (a.lastUsed == b.lastUsed && a.ID < b.ID)
}

// evict drops an instance's GPU residency: sequences mid-decode die with
// their KV cache (none outside the autoregressive mode, where eviction
// candidates are always idle), and the instance goes Cold. The sequences
// are re-dispatched only after the release, so a retry cannot find the
// instance still warm on a GPU that is going away.
func (srv *Server) evict(inst *Instance) {
	seqs := srv.drainLLM(inst)
	srv.release(inst, Cold, kEviction)
	for _, s := range seqs {
		srv.retryOrShed(inst, s.p)
	}
}

// release frees inst's GPU memory — its weights block and any decode
// replica — moves it to state to and records k (an eviction or a sleep).
// Host weights stay pinned: the entry merely unlocks, making it an eviction
// candidate for the host cache tier, so releasing is free (metadata only).
func (srv *Server) release(inst *Instance, to InstanceState, k kind) {
	gs := srv.gpus[inst.gpu]
	if err := gs.mem.Free(inst.block); err != nil {
		panic("serving: " + kinds[k].verb + " accounting bug: " + err.Error())
	}
	delete(gs.residents, inst)
	srv.setState(inst, to, kinds[k].verb)
	inst.block = nil
	if inst.pdBlock != nil {
		pgs := srv.gpus[inst.pdGPU]
		if err := pgs.mem.Free(inst.pdBlock); err != nil {
			panic("serving: decode-replica " + kinds[k].verb + " accounting bug: " + err.Error())
		}
		inst.pdBlock = nil
		srv.memCounter(pgs)
	}
	srv.emit(k, gs.id, inst, nil)
	srv.memCounter(gs)
}

// startCold launches the run that loads a just-placed instance and serves
// req, its one request. Called with none it is a prewarm load, which counts
// no cold start and uses the single-GPU fallback plan when one exists: a
// parallel-transmission load ties up a second GPU's copy engine, and a
// speculative warm-up must never convoy demand cold starts behind its
// forwarding copies.
func (srv *Server) startCold(inst *Instance, req ...pending) {
	r := srv.newRun(inst, true)
	r.reqs = append(r.one[:0], req...)
	coldPlan := inst.dep.Plan
	if len(req) == 0 {
		if inst.dep.Fallback != nil {
			coldPlan = inst.dep.Fallback
		}
	} else if coldPlan.NumParts > 1 {
		secondary := srv.pickSecondary(r.gs)
		busy := secondary != nil && secondary.activeColds+secondary.secondaryColds > 0
		if secondary == nil || (busy && inst.dep.Fallback != nil) {
			// Every transmission partner is mid-load (or down): degrade to
			// the single-GPU variant instead of convoying behind its copies.
			if inst.dep.Fallback == nil {
				panic(fmt.Sprintf("serving: PT plan on GPU %d with no usable partner and no fallback", inst.gpu))
			}
			coldPlan = inst.dep.Fallback
			srv.emit(kPTFallback, inst.gpu, inst, nil)
		} else {
			r.secondary, r.secs[0] = secondary, secondary.id
		}
	}
	if len(req) > 0 {
		srv.emit(kColdStart, inst.gpu, inst, func() map[string]any {
			return map[string]any{"instance": inst.ID, "partitions": coldPlan.NumParts}
		})
	}
	srv.launch(r, engine.Spec{Plan: coldPlan, Batch: servingBatch})
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
	r := srv.newRun(inst, false)
	r.reqs = append(r.one[:0], p)
	srv.startWarmBatch(r)
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

// startWarmBatch issues one (possibly batched) warm inference: r's
// requests on r's instance.
func (srv *Server) startWarmBatch(r *run) {
	inst, n := r.inst, len(r.reqs)
	if n > 1 {
		srv.count(kBatchedRequest, n)
		srv.emit(kBatchedRun, inst.gpu, inst, func() map[string]any {
			return map[string]any{"requests": n}
		})
	}
	srv.launch(r, engine.Spec{Plan: inst.dep.Plan, Batch: servingBatch * n, Warm: true})
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
	r := srv.newRun(inst, false)
	r.reqs = inst.backlog[:n:n]
	inst.backlog = inst.backlog[n:]
	srv.startWarmBatch(r)
}

// runDone finishes an engine run on inst after its record has settled the
// run's own GPU counters (run.done). reqs are the requests the run serves
// (none for a prewarm load); load marks a run that loaded the instance's
// weights, whose requests count as cold-served. reqs belongs to the run
// record, which is recycled once runDone returns, so neither runDone nor
// anything it calls may keep the slice: llmPrefillDone copies each request
// into its sequence. It is the one completion path of every run:
//
//   - Aborted by a GPU failure: reqs and everything coalesced in the
//     backlog are retried once or shed. A load evicts the instance if it
//     is still warm (the failed device was its secondary), so the retry
//     performs a full cold start; a warm run's instance was already
//     evicted by onGPUDown, and a sibling retry may have re-placed it.
//   - Finished: reqs are answered (or, in LLM mode, handed to decode), and
//     the backlog that coalesced meanwhile is released as the next batch.
//
// Either way, the waitlist drains into whatever capacity the run freed.
func (srv *Server) runDone(inst *Instance, reqs []pending, res *engine.Result, load bool) {
	switch {
	case res.Aborted:
		if load && inst.state == Warm {
			srv.evict(inst)
		}
		backlog := inst.backlog
		inst.backlog = nil
		for _, v := range reqs {
			srv.retryOrShed(inst, v)
		}
		for _, v := range backlog {
			srv.retryOrShed(inst, v)
		}
	case srv.cfg.LLM.Enabled && len(reqs) > 0:
		srv.llmPrefillDone(inst, reqs, res, load)
	default:
		for _, r := range reqs {
			srv.respond(r.req, res, load)
		}
		srv.releaseBacklog(inst)
	}
	srv.drainWaitlist()
}

// run is one engine run's record: what launch takes when the run starts
// and its OnDone gives back before handing the run to runDone. Every run
// the server starts (warm, batched, cold and prewarm load) has one. Records are
// recycled through Server.freeRuns, and each binds onDone to its done
// method once, when it is first built, so starting a run allocates neither
// a closure nor a request slice.
type run struct {
	srv  *Server
	inst *Instance
	// gs is the GPU the run started on. done must not re-read inst.gpu: an
	// aborted run's instance can be re-placed elsewhere before its OnDone
	// fires.
	gs *gpuState
	// secondary is a PT cold start's partner GPU, whose id secs holds for
	// Spec.Secondaries; nil otherwise.
	secondary *gpuState
	secs      [1]int
	// reqs are the requests the run serves: one[:] for a single request,
	// a slice of the instance's backlog for a batch, empty for a prewarm load.
	reqs []pending
	one  [1]pending
	// load marks a run that loads the instance's weights.
	load   bool
	onDone func(*engine.Result)
}

// newRun takes a record off the free list for a run on inst's current GPU.
func (srv *Server) newRun(inst *Instance, load bool) *run {
	var r *run
	if k := len(srv.freeRuns) - 1; k >= 0 {
		r = srv.freeRuns[k]
		srv.freeRuns = srv.freeRuns[:k]
	} else {
		r = &run{srv: srv}
		r.onDone = r.done
	}
	r.inst, r.gs, r.load = inst, srv.gpus[inst.gpu], load
	return r
}

// launch starts r's engine run from spec, which carries the plan, batch and
// warmth, and takes the GPU and instance counts that done gives back: the
// GPU's outstanding run, a load's activeColds and loading flag, a request
// run's inflight, and a PT partner's secondaryColds. It fills in the rest
// of spec from r. Every engine run the server starts, except the decode
// iterations (llm.go), starts here.
func (srv *Server) launch(r *run, spec engine.Spec) {
	inst := r.inst
	srv.busyUp(r.gs)
	if r.load {
		inst.loading = true
		r.gs.activeColds++
	}
	if len(r.reqs) > 0 {
		inst.inflight++
	}
	if r.secondary != nil {
		r.secondary.secondaryColds++
		spec.Secondaries = r.secs[:]
	}
	spec.Model = inst.dep.Model
	spec.Primary = r.gs.id
	spec.ComputeScale = srv.llmScale(inst.dep.Model, r.reqs)
	spec.OnDone = r.onDone
	if err := srv.eng.Start(spec); err != nil {
		panic("serving: engine run rejected: " + err.Error())
	}
}

// done is the run's OnDone: it settles the instance's and GPUs' counters,
// hands the run to runDone, and only then recycles the record, since
// runDone reads its requests (and Result.Secondaries aliases secs until
// OnDone returns).
func (r *run) done(res *engine.Result) {
	srv, inst := r.srv, r.inst
	if r.load {
		inst.loading = false
		r.gs.activeColds--
	}
	if len(r.reqs) > 0 {
		inst.inflight--
	}
	srv.busyDown(r.gs)
	if r.secondary != nil {
		r.secondary.secondaryColds--
	}
	srv.runDone(inst, r.reqs, res, r.load)
	*r = run{srv: srv, onDone: r.onDone}
	srv.freeRuns = append(srv.freeRuns, r)
}

// pickSecondary chooses primary's least-busy parallel-transmission
// partner, skipping failed GPUs. It returns nil when every partner is down.
func (srv *Server) pickSecondary(primary *gpuState) *gpuState {
	if len(primary.partners) == 0 {
		panic(fmt.Sprintf("serving: PT plan on GPU %d without partners", primary.id))
	}
	var best *gpuState
	for _, g := range primary.partners {
		if g.down {
			continue
		}
		if best == nil || g.activeColds+g.secondaryColds < best.activeColds+best.secondaryColds {
			best = g
		}
	}
	return best
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
		srv.resume(w.inst, w.p, false)
	}
}

// CheckInvariants validates the server's internal consistency; tests call
// it after runs. It verifies residency/allocator agreement, quiesced
// counters, and host-memory accounting: every held host entry is resident
// and owned by its holder, and the held bytes are all the cache has pinned.
func (srv *Server) CheckInvariants() error {
	var pinned int64
	for _, inst := range srv.instances {
		resident := inst.host != nil
		if resident {
			if !inst.host.Resident() || inst.host.Owner() != inst.ID {
				return fmt.Errorf("serving: instance %d holds host entry of %d (resident %v)",
					inst.ID, inst.host.Owner(), inst.host.Resident())
			}
			pinned += inst.host.Bytes()
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
		}
	}
	if pinned != srv.host.Pinned() {
		return fmt.Errorf("serving: host cache pinned %d != held entry total %d",
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
	Policy Policy
	Summary
}

// Summary is what a node's report and a fleet's share: latency percentiles
// and goodput over pooled samples, event counts, host and packing totals,
// LLM rates and the windowed telemetry. Summarize fills it.
type Summary struct {
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
	Counters
	// HostPinned is the bytes pinned in host memory at the end of the run,
	// against Config.HostMemory; WarmCapacity is the packing limit (see
	// Server.WarmCapacity). Both sum over the summarized servers.
	HostPinned   int64
	WarmCapacity int
	// Autoregressive-mode metrics, zero unless Config.LLM was enabled. In
	// LLM mode the cold/warm digests (and per-window goodput) measure
	// time-to-first-token, while the overall P50/P99/Mean/Max measure full
	// end-to-end generation latency.
	TTFTP50, TTFTP99 sim.Duration
	TokenRate        float64 // generated tokens per simulated second
	MeanDecodeBatch  float64 // average sequences advanced per iteration
}

// Summarize summarizes one or more servers' runs through the current clock:
// percentiles and goodput over their pooled latency samples, and summed
// counts and totals; Windows is the per-window view. The servers share one clock and configuration — a cluster's nodes, or one
// server alone. In LLM mode each request's first response is its first
// token, so the TTFT digest takes the first responses and the overall one
// the full generation latencies.
func Summarize(servers ...*Server) Summary {
	var s Summary
	var all, cold, warm, ttft metrics.Digest
	for _, srv := range servers {
		first := &all
		if srv.cfg.LLM.Enabled {
			all.Merge(&srv.generated)
			first = &ttft
		}
		srv.series.MergeClass(&cold, true)
		srv.series.MergeClass(&warm, false)
		srv.series.MergeClass(first, true)
		srv.series.MergeClass(first, false)
		s.Requests += srv.n[kArrival]
		s.Counters.Add(srv.counters())
		s.HostPinned += srv.host.Pinned()
		s.WarmCapacity += srv.WarmCapacity()
	}
	s.P50, s.P99, s.Max = all.P50(), all.P99(), all.Max()
	s.Mean = all.Mean() // after P50 sorted: the sum runs in sorted order, whatever the server order
	s.ColdP50, s.ColdP99 = cold.P50(), cold.P99()
	s.WarmP99 = warm.P99()
	s.Goodput = all.GoodputRate(servers[0].cfg.SLO)
	s.TTFTP50, s.TTFTP99 = ttft.P50(), ttft.P99()
	if secs := servers[0].sim.Now().Seconds(); secs > 0 {
		s.TokenRate = float64(s.TokensGenerated) / secs
	}
	if s.DecodeIters > 0 {
		s.MeanDecodeBatch = float64(s.DecodeSeqSum) / float64(s.DecodeIters)
	}
	return s
}

// Windows returns the per-window stats of one or more servers' runs through
// the current clock, their series pooled window by window (see
// metrics.Series.Stats): the latency columns always, the telemetry columns
// with Config.Telemetry. Call it once the run has quiesced, so every reader
// sees the same horizon.
func Windows(servers ...*Server) []metrics.WindowStat {
	more := make([]*metrics.Series, 0, len(servers)-1)
	for _, srv := range servers[1:] {
		more = append(more, srv.series)
	}
	return servers[0].series.Stats(servers[0].sim.Now(), more...)
}
