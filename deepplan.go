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
	// Time is a virtual-time instant (nanoseconds).
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// ProfileOptions configures Profile: the batch size to profile at.
	// Each layer is measured once, since the cost model is noise-free;
	// Profile.Cost still charges the paper's ten iterations (Table 5).
	ProfileOptions = profiler.Options
	// CostParams is the calibrated platform cost model.
	CostParams = costmodel.Params
	// TraceRecorder collects timeline events (request lifecycle, per-layer
	// streams, bandwidth and memory counters) against the virtual clock.
	TraceRecorder = trace.Recorder
	// WindowStat is one window of a run's series: its latency columns and,
	// with ClusterOptions.Telemetry, its resource telemetry columns (see
	// Cluster.Windows).
	WindowStat = metrics.WindowStat
	// FaultSchedule is a deterministic fault-injection schedule for
	// ClusterOptions.Faults. Build one with ParseFaults.
	FaultSchedule = faults.Schedule
	// MetricsRegistry is the dimensional metrics registry for
	// ClusterOptions.Monitor: counters, gauges, and log-bucketed histograms
	// keyed by labels, exportable as OpenMetrics text via its
	// WriteOpenMetrics method. Build one with NewMetricsRegistry; nil
	// disables monitoring at zero cost.
	MetricsRegistry = monitor.Registry
	// SLOConfig parameterizes the cluster's SLO burn-rate monitor
	// (ClusterOptions.Alerts): the GPU-availability budget, the internal
	// latency objective and the long window. The request budgets, the
	// other windows and the page/ticket burn thresholds are fixed. The
	// zero value takes defaults scaled to the run horizon.
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
	// policy (ClusterOptions.HostPolicy).
	HostPolicy = hostmem.Policy
	// PackMode selects GPU placement packing (ClusterOptions.Pack).
	PackMode = serving.PackMode
	// LLMOptions configures the autoregressive serving mode
	// (ClusterOptions.LLM): iteration-level batching discipline,
	// per-iteration token budget, output cap, and optional prefill/decode
	// disaggregation. The zero value disables the mode.
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

// Host-memory tier policies for ClusterOptions.HostPolicy.
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

// GPU packing modes for ClusterOptions.Pack.
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
// grid. Deploy with Cluster.DeployZoo, and generate traffic with the
// zoo's Requests method (addressed with ZooClusterRequests).
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
// mem=0.5@5s+5s; rand=7/3@60s" into a schedule for ClusterOptions.Faults.
// See the faults package documentation for the full grammar.
func ParseFaults(spec string) (*FaultSchedule, error) { return faults.Parse(spec) }

// NewTraceRecorder returns an enabled trace recorder for ClusterOptions.Trace.
// A nil *TraceRecorder disables tracing at zero cost.
func NewTraceRecorder() *TraceRecorder { return trace.New() }

// WriteTrace exports a recorder's events as Chrome trace-event JSON,
// loadable in chrome://tracing and https://ui.perfetto.dev. meta, if
// non-nil, is attached to the file as otherData.
func WriteTrace(w io.Writer, r *TraceRecorder, meta map[string]string) error {
	return trace.WriteChrome(w, r, meta)
}

// WriteTelemetry prints the telemetry columns of a run's windows
// (Cluster.Windows) as a table, one row per window that saw an arrival or
// an eviction.
func WriteTelemetry(w io.Writer, stats []WindowStat) { metrics.WriteTelemetry(w, stats) }

// Mode selects an execution strategy, matching the paper's five legends.
// It is also the serving policy (ClusterOptions.Policy), where plain PT is
// not allowed.
type Mode = plan.Mode

// Execution modes.
const (
	// ModeBaseline loads the whole model, then executes (no pipelining).
	ModeBaseline = plan.ModeBaseline
	// ModePipeSwitch pipelines per-layer loading with execution
	// (Bai et al., OSDI 2020) — the paper's state-of-the-art comparison.
	ModePipeSwitch = plan.ModePipeSwitch
	// ModeDHA is DeepPlan with direct-host-access only (single GPU).
	ModeDHA = plan.ModeDHA
	// ModePT is DeepPlan with parallel transmission only (multi GPU).
	ModePT = plan.ModePT
	// ModePTDHA combines parallel transmission and direct-host-access.
	ModePTDHA = plan.ModePTDHA
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
	return planner.New(p.build()).Plan(prof, mode)
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
// result. A cold run of a multi-partition plan transmits through the
// topology's default partners: one GPU on each other PCIe switch, the
// lowest-ID NVLink peer of the primary there (engine.RunOnce).
func (p *Platform) Execute(m *Model, pln *Plan, opts ExecuteOptions) (*RunResult, error) {
	return engine.RunOnce(p.build(), p.cost, engine.Spec{
		Model:        m,
		Plan:         pln,
		Batch:        opts.Batch,
		Primary:      opts.Primary,
		Warm:         opts.Warm,
		ResidentMask: opts.ResidentMask,
	})
}

// Cluster-layer re-exports: the multi-node serving system (router +
// autoscaler over N independent servers on one shared virtual clock).
type (
	// Cluster is a simulated serving system of one or more nodes.
	Cluster = cluster.Cluster
	// ClusterRequest is one cluster-level arrival (model + routing key).
	// Cluster.Requests and ZooClusterRequests build them from a workload.
	ClusterRequest = cluster.Request
	// ClusterReport summarizes a cluster run.
	ClusterReport = cluster.Report
	// ClusterOptions configures Platform.NewCluster: the node count, the
	// serving policy (default PT+DHA) and every node's serving options.
	// NewTopology and Cost come from the platform and must be left unset.
	ClusterOptions = cluster.Config
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

// Routing policies for ClusterOptions.Route.
const (
	// RouteRoundRobin rotates nodes per request.
	RouteRoundRobin = cluster.RouteRoundRobin
	// RouteLeastOutstanding picks the node with the fewest queued runs.
	RouteLeastOutstanding = cluster.RouteLeastOutstanding
	// RouteAffinity uses rendezvous hashing with a least-loaded tie-break.
	RouteAffinity = cluster.RouteAffinity
)

// NewCluster builds a serving system of opts.Nodes nodes on this platform
// (one node is the paper's single server): every node gets a fresh
// topology from the platform's factory and the platform's cost model, and
// all nodes share one virtual clock. The platform owns NewTopology and
// Cost, so setting either in opts is an error.
func (p *Platform) NewCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.NewTopology != nil {
		return nil, fmt.Errorf("deepplan: ClusterOptions.NewTopology is set by the platform")
	}
	if opts.Cost != nil {
		return nil, fmt.Errorf("deepplan: ClusterOptions.Cost is set by the platform")
	}
	opts.NewTopology, opts.Cost = p.build, p.cost
	return cluster.New(opts)
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
