// Package deepplan is a Go reproduction of "Fast and Efficient Model
// Serving Using Multi-GPUs with Direct-Host-Access" (EuroSys 2023).
//
// DeepPlan minimizes DL inference latency when a model must be provisioned
// from host to GPU memory (the cold-start problem) with two techniques:
//
//   - Direct-host-access (DHA): layers whose access pattern makes PCIe reads
//     cheap — embeddings above all — are executed straight out of pinned host
//     memory and never loaded.
//   - Parallel transmission (PT): the model is partitioned across GPUs on
//     distinct PCIe switches, transmitted in parallel over their independent
//     PCIe lanes, and merged onto the primary GPU over NVLink.
//
// The planner (Algorithm 1 of the paper) combines both automatically from a
// one-time per-layer profile.
//
// Because this reproduction runs without GPUs, the hardware is a calibrated
// discrete-event simulation (see DESIGN.md): virtual PCIe/NVLink links with
// max–min fair bandwidth sharing, CUDA-like streams and events, and an
// analytic kernel cost model anchored to the paper's measurements. All
// simulated latencies are in virtual time; experiments over hours of trace
// complete in seconds of wall clock.
//
// # Quick start
//
//	platform := deepplan.NewP38xlarge()
//	model, _ := deepplan.LoadModel("bert-base")
//	prof, _ := platform.Profile(model, deepplan.ProfileOptions{})
//	plan, _ := platform.Plan(prof, deepplan.ModePTDHA)
//	res, _ := platform.Execute(model, plan, deepplan.ExecuteOptions{})
//	fmt.Println("cold-start latency:", res.Latency())
package deepplan

import (
	"fmt"
	"io"

	"deepplan/internal/cluster"
	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/engine"
	"deepplan/internal/faults"
	"deepplan/internal/hostmem"
	"deepplan/internal/metrics"
	"deepplan/internal/monitor"
	"deepplan/internal/plan"
	"deepplan/internal/planner"
	"deepplan/internal/profiler"
	"deepplan/internal/registry"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/trace"
	"deepplan/internal/workload"
)

// Re-exported core types. The internal packages remain the implementation;
// these aliases are the stable public surface.
type (
	// Model is a layer-level DNN description.
	Model = dnn.Model
	// Layer is one schedulable unit of a model.
	Layer = dnn.Layer
	// Profile is the per-layer performance table from the profiling pre-run.
	Profile = profiler.Profile
	// Plan is an inference execution plan (per-layer method + partitions).
	Plan = plan.Plan
	// RunResult is the outcome of one simulated inference.
	RunResult = engine.Result
	// LayerTiming is a per-layer execution record within a RunResult.
	LayerTiming = engine.LayerTiming
	// Topology describes a server's GPUs and interconnects.
	Topology = topology.Topology
	// Request is one workload arrival.
	Request = workload.Request
	// Report summarizes a serving run.
	Report = serving.Report
	// Time is a virtual-time instant (nanoseconds).
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// ProfileOptions configures Profile.
	ProfileOptions = profiler.Options
	// CostParams is the calibrated platform cost model.
	CostParams = costmodel.Params
	// TraceRecorder collects timeline events (request lifecycle, per-layer
	// streams, bandwidth and memory counters) against the virtual clock.
	TraceRecorder = trace.Recorder
	// TelemetryStat is one window of the resource telemetry snapshot.
	TelemetryStat = metrics.TelemetryStat
	// FaultSchedule is a deterministic fault-injection schedule for
	// ServerOptions.Faults. Build one with ParseFaults.
	FaultSchedule = faults.Schedule
	// MetricsRegistry is the dimensional metrics registry for
	// ServerOptions.Monitor / ClusterOptions.Monitor: counters, gauges, and
	// log-bucketed histograms keyed by labels, exportable as OpenMetrics
	// text via its WriteOpenMetrics method. Build one with
	// NewMetricsRegistry; nil disables monitoring at zero cost.
	MetricsRegistry = monitor.Registry
	// SLOConfig parameterizes the cluster's SLO burn-rate monitor
	// (ClusterOptions.Alerts): error budgets per SLI and the multi-window
	// page/ticket burn thresholds. The zero value takes defaults scaled to
	// the run horizon.
	SLOConfig = monitor.SLOConfig
	// Alert is one burn-rate alert from a monitored cluster run
	// (ClusterReport.Alerts).
	Alert = monitor.Alert
	// ModelZoo is a derived population of model variants (tenants) with
	// Zipf popularity, for multi-tenant serving. Build with NewModelZoo.
	ModelZoo = registry.Zoo
	// ZooSpec parameterizes NewModelZoo (variant count, skew, bases,
	// scales).
	ZooSpec = registry.Spec
	// ZooVariant is one tenant of a ModelZoo.
	ZooVariant = registry.Variant
	// HostPolicy selects the pinned host-memory tier's admission/eviction
	// policy (ServerOptions.HostPolicy / ClusterOptions.HostPolicy).
	HostPolicy = hostmem.Policy
	// PackMode selects GPU placement packing (ServerOptions.Pack /
	// ClusterOptions.Pack).
	PackMode = serving.PackMode
	// LLMOptions configures the autoregressive serving mode
	// (ServerOptions.LLM / ClusterOptions.LLM): iteration-level batching
	// discipline, per-iteration token budget, output cap, and optional
	// prefill/decode disaggregation. The zero value disables the mode.
	LLMOptions = serving.LLMConfig
)

// Batching disciplines for LLMOptions.Batching.
const (
	// LLMBatchContinuous admits and retires sequences at iteration
	// boundaries of the running decode batch (Orca-style; the default).
	LLMBatchContinuous = serving.LLMBatchContinuous
	// LLMBatchStatic runs each admitted batch to completion before
	// admitting the next — the baseline continuous batching beats.
	LLMBatchStatic = serving.LLMBatchStatic
)

// AssignTokens annotates an arrival sequence with prompt and output token
// lengths drawn from geometric-like distributions around the given means
// (deterministic in seed; arrival times are untouched). Use it to turn any
// workload generator's output into an LLM workload.
func AssignTokens(reqs []Request, seed int64, promptMean, outputMean int) []Request {
	return workload.WithTokens(reqs, seed, promptMean, outputMean)
}

// Host-memory tier policies for ServerOptions.HostPolicy.
const (
	// HostPolicyPinned pins every deployed model's weights up front and
	// never evicts — the paper's setting; deploys beyond host memory fail.
	HostPolicyPinned = hostmem.PolicyPinned
	// HostPolicyLRU evicts the least-recently-used unlocked entry under
	// capacity pressure.
	HostPolicyLRU = hostmem.PolicyLRU
	// HostPolicyCostAware evicts the unlocked entry with the lowest
	// load_time × popularity score.
	HostPolicyCostAware = hostmem.PolicyCostAware
)

// GPU packing modes for ServerOptions.Pack.
const (
	// PackSpread load-balances cold placements (the paper's placement).
	PackSpread = serving.PackSpread
	// PackDense bin-packs small (fractional) instances onto shared GPUs.
	PackDense = serving.PackDense
)

// NewModelZoo derives a multi-tenant variant population: spec.N variants
// over the profiled base architectures at several parameter scales, with
// Zipf(spec.Skew) popularity. Variants sharing a shape share one profile
// and plan, so a 100k-variant zoo costs no more planning than its shape
// grid. Deploy with Server.DeployZoo or Cluster.DeployZoo, and generate
// traffic with the zoo's Requests method.
func NewModelZoo(spec ZooSpec) (*ModelZoo, error) { return registry.New(spec) }

// ZooClusterRequests maps a zoo arrival sequence (from ModelZoo.Requests)
// onto cluster arrivals addressed by shape name and within-shape ordinal.
func ZooClusterRequests(z *ModelZoo, reqs []Request) []ClusterRequest {
	return cluster.ZooRequests(z, reqs)
}

// NewMetricsRegistry returns an enabled metrics registry. A nil
// *MetricsRegistry disables monitoring at zero cost (every handle becomes
// a no-op), mirroring the TraceRecorder contract.
func NewMetricsRegistry() *MetricsRegistry { return monitor.New() }

// ParseFaults parses a fault-injection spec like
// "gpu=1@2s+5s; link=gpu0-lane*0.3@1s+10s; straggler=copy/4@0s+20s;
// mem=0.5@5s+5s; rand=7/3@60s" into a schedule for ServerOptions.Faults.
// See the faults package documentation for the full grammar.
func ParseFaults(spec string) (*FaultSchedule, error) { return faults.Parse(spec) }

// NewTraceRecorder returns an enabled trace recorder for ServerOptions.Trace.
// A nil *TraceRecorder disables tracing at zero cost.
func NewTraceRecorder() *TraceRecorder { return trace.New() }

// WriteTrace exports a recorder's events as Chrome trace-event JSON,
// loadable in chrome://tracing and https://ui.perfetto.dev. meta, if
// non-nil, is attached to the file as otherData.
func WriteTrace(w io.Writer, r *TraceRecorder, meta map[string]string) error {
	return trace.WriteChrome(w, r, meta)
}

// Mode selects an execution strategy, matching the paper's five legends.
type Mode string

// Execution modes.
const (
	// ModeBaseline loads the whole model, then executes (no pipelining).
	ModeBaseline Mode = "baseline"
	// ModePipeSwitch pipelines per-layer loading with execution
	// (Bai et al., OSDI 2020) — the paper's state-of-the-art comparison.
	ModePipeSwitch Mode = "pipeswitch"
	// ModeDHA is DeepPlan with direct-host-access only (single GPU).
	ModeDHA Mode = "dha"
	// ModePT is DeepPlan with parallel transmission only (multi GPU).
	ModePT Mode = "pt"
	// ModePTDHA combines parallel transmission and direct-host-access.
	ModePTDHA Mode = "pt+dha"
)

// Modes lists all execution modes in the paper's presentation order.
func Modes() []Mode {
	return []Mode{ModeBaseline, ModePipeSwitch, ModeDHA, ModePT, ModePTDHA}
}

// Models returns the canonical model-zoo names.
func Models() []string { return dnn.ModelNames() }

// LoadModel builds a zoo model by canonical name (e.g. "bert-base",
// "resnet50", "gpt2-medium").
func LoadModel(name string) (*Model, error) { return dnn.ByName(name) }

// EvaluationModels returns the zoo in the paper's figure order.
func EvaluationModels() []*Model { return dnn.EvaluationOrder() }

// Platform binds a server topology to a calibrated cost model. Topologies
// carry per-simulation state, so the platform holds a factory and
// constructs a fresh one per simulation.
type Platform struct {
	name  string
	build func() *topology.Topology
	cost  *costmodel.Params
}

// NewP38xlarge returns the paper's primary platform: AWS p3.8xlarge,
// 4x V100 16 GB, two GPUs per PCIe switch, NVLink mesh, PCIe 3.0.
func NewP38xlarge() *Platform {
	return &Platform{name: "p3.8xlarge", build: topology.P38xlarge, cost: costmodel.Default()}
}

// NewDualA5000 returns the paper's §5.4 platform: 2x RTX A5000 on PCIe 4.0
// with an NVLink bridge.
func NewDualA5000() *Platform {
	return &Platform{name: "dual-a5000-pcie4", build: topology.DualA5000PCIe4, cost: costmodel.Default()}
}

// NewPlatform builds a custom platform from a topology factory and cost
// parameters (nil cost uses the V100-calibrated defaults).
func NewPlatform(name string, build func() *Topology, cost *CostParams) (*Platform, error) {
	if build == nil {
		return nil, fmt.Errorf("deepplan: nil topology factory")
	}
	if cost == nil {
		cost = costmodel.Default()
	}
	return &Platform{name: name, build: build, cost: cost}, nil
}

// Name returns the platform's name.
func (p *Platform) Name() string { return p.name }

// Topology constructs a fresh topology instance.
func (p *Platform) Topology() *Topology { return p.build() }

// Cost returns the platform's cost model.
func (p *Platform) Cost() *CostParams { return p.cost }

// Profile runs the one-time profiling pre-run for a model (paper §4.3.1).
func (p *Platform) Profile(m *Model, opts ProfileOptions) (*Profile, error) {
	return profiler.Run(m, p.cost, p.build(), opts)
}

// Plan generates an execution plan for the given mode. Multi-GPU modes use
// as many partitions as the topology's PCIe-switch layout allows.
func (p *Platform) Plan(prof *Profile, mode Mode) (*Plan, error) {
	pl := planner.New(p.build())
	switch mode {
	case ModeBaseline:
		return pl.PlanBaseline(prof), nil
	case ModePipeSwitch:
		return pl.PlanPipeSwitch(prof), nil
	case ModeDHA:
		return pl.PlanDHA(prof), nil
	case ModePT:
		return pl.PlanPT(prof, pl.MaxPartitions()), nil
	case ModePTDHA:
		return pl.PlanPTDHA(prof, pl.MaxPartitions()), nil
	default:
		return nil, fmt.Errorf("deepplan: unknown mode %q", mode)
	}
}

// PlanLargeModel plans a model whose parameters exceed paramBudget bytes of
// GPU memory by keeping overflow layers host-resident via direct-host-access
// (the paper's §7 suggestion). See also PlanStreaming, which usually wins
// for FC-heavy overflow.
func (p *Platform) PlanLargeModel(prof *Profile, paramBudget int64) (*Plan, error) {
	return planner.New(p.build()).PlanLargeModel(prof, paramBudget)
}

// PlanStreaming plans an over-sized model for streaming execution: a
// resident suffix up to residentBudget bytes plus Algorithm 1's DHA picks;
// the remaining layers are re-transmitted (pipelined) every inference. The
// returned mask pairs with ExecuteOptions.ResidentMask.
func (p *Platform) PlanStreaming(prof *Profile, residentBudget int64) (*Plan, []bool, error) {
	return planner.New(p.build()).PlanStreaming(prof, residentBudget)
}

// PredictLatency evaluates a plan's cold-start latency with the planner's
// analytic timeline (fast, idealized; Execute gives the simulated truth).
func (p *Platform) PredictLatency(prof *Profile, pln *Plan) Duration {
	return planner.New(p.build()).Predict(prof, pln).Total
}

// ExecuteOptions configures a single simulated inference.
type ExecuteOptions struct {
	// Batch size; 0 means the plan's batch (or 1).
	Batch int
	// Warm skips loading (weights resident; DHA layers still read host).
	Warm bool
	// Primary selects the executing GPU (default 0).
	Primary int
	// ResidentMask marks layers already resident (streaming execution of
	// over-sized models); see Platform.PlanStreaming.
	ResidentMask []bool
}

// Execute runs one inference on a fresh simulated server and returns its
// result. Secondary GPUs for multi-partition plans are selected
// automatically (one per remote PCIe switch).
func (p *Platform) Execute(m *Model, pln *Plan, opts ExecuteOptions) (*RunResult, error) {
	topo := p.build()
	var secondaries []int
	if !opts.Warm && pln.NumParts > 1 {
		var err error
		secondaries, err = planner.New(topo).SelectGPUs(pln, opts.Primary)
		if err != nil {
			return nil, err
		}
	}
	return engine.RunOnce(topo, p.cost, engine.Spec{
		Model:        m,
		Plan:         pln,
		Batch:        opts.Batch,
		Primary:      opts.Primary,
		Secondaries:  secondaries,
		Warm:         opts.Warm,
		ResidentMask: opts.ResidentMask,
	})
}

// ServerOptions configures NewServer.
type ServerOptions struct {
	// Policy is the serving-time execution mode (PipeSwitch, DHA, PT+DHA,
	// or Baseline; plain PT is not a serving policy in the paper).
	Policy Mode
	// SLO is the target latency (default 100 ms, as in the paper).
	SLO Duration
	// Batch is the serving batch size (default 1).
	Batch int
	// MaxBatch enables dynamic batching of warm requests that arrive while
	// an instance is busy (0/1 disables, the paper's setting).
	MaxBatch int
	// Trace, when non-nil, records the serving timeline (observation-only;
	// results are identical with tracing on or off). Export with WriteTrace.
	Trace *TraceRecorder
	// Telemetry enables the windowed resource snapshot in Report.Telemetry.
	Telemetry bool
	// Faults, when non-nil, arms a deterministic fault-injection schedule:
	// GPU failures abort in-flight runs (affected requests are retried once
	// on a surviving GPU), placements avoid down GPUs, and link, straggler,
	// and memory-pressure events degrade the simulated fabric. Build with
	// ParseFaults. Nil runs exactly as before faults existed.
	Faults *FaultSchedule
	// AdmitFactor, when positive, sheds cold-start requests whose projected
	// latency exceeds AdmitFactor×SLO (SLO-aware admission control). Zero
	// disables admission control, the paper's setting.
	AdmitFactor float64
	// Monitor, when non-nil, streams serving metrics (request latency
	// histograms by class, queue depth, GPU busy time, cold starts, sheds,
	// fault state) into the registry. Observation-only, like Trace.
	Monitor *MetricsRegistry
	// HostPolicy selects the pinned host-memory tier's policy (default
	// HostPolicyPinned, the paper's setting — every model pinned up front,
	// no evictions). The cache policies admit on demand with a fetch-to-pin
	// and evict under capacity pressure; model zoos need one.
	HostPolicy HostPolicy
	// HostMemory overrides pinned host-memory capacity in bytes (default
	// 244 GB, p3.8xlarge).
	HostMemory int64
	// Pack selects GPU placement packing (default PackSpread; PackDense
	// bin-packs fractional zoo instances).
	Pack PackMode
	// LLM enables the autoregressive serving mode: per-token decode with
	// iteration-level continuous batching, KV-cache admission against GPU
	// memory, and optional prefill/decode disaggregation. The zero value
	// keeps the paper's single-shot regime byte-identical.
	LLM LLMOptions
}

// Server is a simulated multi-GPU inference server.
type Server = serving.Server

// NewServer builds a serving system on this platform.
func (p *Platform) NewServer(opts ServerOptions) (*Server, error) {
	policy := serving.Policy(opts.Policy)
	if opts.Policy == "" {
		policy = serving.PolicyPTDHA
	}
	return serving.New(serving.Config{
		Topo:        p.build(),
		Cost:        p.cost,
		Policy:      policy,
		SLO:         opts.SLO,
		Batch:       opts.Batch,
		MaxBatch:    opts.MaxBatch,
		Trace:       opts.Trace,
		Telemetry:   opts.Telemetry,
		Faults:      opts.Faults,
		AdmitFactor: opts.AdmitFactor,
		Monitor:     opts.Monitor,
		HostPolicy:  opts.HostPolicy,
		HostMemory:  opts.HostMemory,
		Pack:        opts.Pack,
		LLM:         opts.LLM,
	})
}

// Cluster-layer re-exports: the multi-node serving system (router +
// autoscaler over N independent servers on one shared virtual clock).
type (
	// Cluster is a simulated multi-node serving system.
	Cluster = cluster.Cluster
	// ClusterRequest is one cluster-level arrival (model + routing key).
	ClusterRequest = cluster.Request
	// ClusterReport summarizes a cluster run.
	ClusterReport = cluster.Report
	// RoutePolicy selects the front-end routing policy.
	RoutePolicy = cluster.RoutePolicy
	// AutoscaleConfig tunes the per-model replica controller.
	AutoscaleConfig = cluster.AutoscaleConfig
	// AutoscalePolicy selects the autoscaler's control algorithm.
	AutoscalePolicy = cluster.AutoscalePolicy
)

// Autoscaler control algorithms for AutoscaleConfig.Policy.
const (
	// AutoscaleReactive widens a model after observed queueing and narrows
	// it after observed idleness (the default).
	AutoscaleReactive = cluster.AutoscaleReactive
	// AutoscalePredictive sizes each model from an arrival forecast,
	// prewarming replicas before predicted spikes and sleeping idle ones.
	AutoscalePredictive = cluster.AutoscalePredictive
)

// ParseAutoscalePolicy maps a CLI spelling ("reactive", "predictive"; ""
// means reactive) to an AutoscalePolicy.
func ParseAutoscalePolicy(s string) (AutoscalePolicy, error) {
	return cluster.ParseAutoscalePolicy(s)
}

// Routing policies for ClusterOptions.Route.
const (
	// RouteRoundRobin rotates nodes per request.
	RouteRoundRobin = cluster.RouteRoundRobin
	// RouteLeastOutstanding picks the node with the fewest queued runs.
	RouteLeastOutstanding = cluster.RouteLeastOutstanding
	// RouteAffinity uses rendezvous hashing with a least-loaded tie-break.
	RouteAffinity = cluster.RouteAffinity
)

// ClusterOptions configures NewCluster.
type ClusterOptions struct {
	// Nodes is the node count (each an independent simulated server).
	Nodes int
	// Policy is each node's cold-start policy (default PT+DHA).
	Policy Mode
	// Route is the front-end routing policy (default least-outstanding).
	Route RoutePolicy
	// SLO is the target latency (default 100 ms).
	SLO Duration
	// MaxBatch enables per-node dynamic batching of warm requests.
	MaxBatch int
	// Autoscale configures the per-model replica controller; its Policy
	// field picks the reactive or predictive control algorithm.
	Autoscale AutoscaleConfig
	// Trace, when non-nil, records all nodes onto one timeline with
	// per-node Perfetto track groups. Export with WriteTrace.
	Trace *TraceRecorder
	// Telemetry enables the cluster-aggregated windowed resource snapshot.
	Telemetry bool
	// Faults arms a deterministic fault-injection schedule against node 0
	// (failures strike one machine; the router works around it). Build with
	// ParseFaults.
	Faults *FaultSchedule
	// AdmitFactor enables per-node SLO-aware admission control (see
	// ServerOptions.AdmitFactor).
	AdmitFactor float64
	// Monitor, when non-nil, collects the whole cluster — every node plus
	// the router and autoscaler — into one metrics registry with node
	// labels. Export with WriteOpenMetrics.
	Monitor *MetricsRegistry
	// Alerts, with Monitor set, runs the SLO burn-rate monitor during the
	// run; alerts land in ClusterReport.Alerts, the registry, and the
	// trace. Use &SLOConfig{} for horizon-scaled defaults.
	Alerts *SLOConfig
	// MetricsWriter, with MetricsInterval > 0 and Monitor set, appends an
	// OpenMetrics exposition block of the registry every interval of sim
	// time during the run.
	MetricsWriter   io.Writer
	MetricsInterval Duration
	// HostPolicy selects each node's pinned host-memory tier policy (see
	// ServerOptions.HostPolicy).
	HostPolicy HostPolicy
	// HostMemory overrides each node's pinned host-memory capacity.
	HostMemory int64
	// Pack selects each node's GPU placement packing (see
	// ServerOptions.Pack).
	Pack PackMode
	// LLM enables autoregressive serving on every node (see
	// ServerOptions.LLM).
	LLM LLMOptions
}

// NewCluster builds a multi-node serving system on this platform: every
// node gets a fresh topology from the platform's factory, and all nodes
// share one virtual clock.
func (p *Platform) NewCluster(opts ClusterOptions) (*Cluster, error) {
	policy := serving.Policy(opts.Policy)
	if opts.Policy == "" {
		policy = serving.PolicyPTDHA
	}
	return cluster.New(cluster.Config{
		Nodes:           opts.Nodes,
		NewTopology:     p.build,
		Cost:            p.cost,
		Policy:          policy,
		Route:           opts.Route,
		SLO:             opts.SLO,
		MaxBatch:        opts.MaxBatch,
		Autoscale:       opts.Autoscale,
		Trace:           opts.Trace,
		Telemetry:       opts.Telemetry,
		Faults:          opts.Faults,
		AdmitFactor:     opts.AdmitFactor,
		Monitor:         opts.Monitor,
		Alerts:          opts.Alerts,
		MetricsWriter:   opts.MetricsWriter,
		MetricsInterval: opts.MetricsInterval,
		HostPolicy:      opts.HostPolicy,
		HostMemory:      opts.HostMemory,
		Pack:            opts.Pack,
		LLM:             opts.LLM,
	})
}

// ClusterRequests maps a single-server workload onto cluster arrivals for
// the named model: each request's instance index becomes its routing key.
func ClusterRequests(model string, reqs []Request) []ClusterRequest {
	out := make([]ClusterRequest, len(reqs))
	for i, r := range reqs {
		out[i] = ClusterRequest{At: r.At, Model: model, Key: r.Instance,
			PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens}
	}
	return out
}

// PoissonWorkload generates an open-loop Poisson arrival sequence
// (ratePerSec requests/second, n requests, numInstances targets).
func PoissonWorkload(seed int64, ratePerSec float64, n, numInstances int) []Request {
	return workload.Poisson(seed, ratePerSec, n, numInstances)
}

// MAFWorkload synthesizes a Microsoft-Azure-Functions-like trace (heavy
// sustained, fluctuating, and spiky arrival classes) of the given duration
// and average rate across numFunctions instances.
func MAFWorkload(seed int64, duration Duration, ratePerSec float64, numFunctions int) ([]Request, error) {
	tr, err := workload.MAFLike(workload.TraceSpec{
		Seed: seed, Duration: duration, TotalRate: ratePerSec, NumFunctions: numFunctions,
	})
	if err != nil {
		return nil, err
	}
	return tr.Requests, nil
}
