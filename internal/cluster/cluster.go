// Package cluster is the multi-node serving layer: N independent
// serving.Server nodes — each with its own topology, network, and engine —
// driven by one shared virtual clock, behind a front-end router and a
// replica autoscaler.
//
// The single-node serving system reproduces the paper's evaluation on one
// p3.8xlarge. This package models the decisions above the node — *which
// node* eats a cold start, and *how many* replicas of a model should
// receive traffic — on exactly the same deterministic substrate, so
// routing policies and scaling rules are byte-reproducible and testable
// the way the paper's figures are (LLMServingSim and Revati make the same
// argument for simulator-based cluster serving research). A one-node
// cluster is a bare server: its report's serving.Summary is the server's.
//
// Routing. Three pluggable policies:
//
//   - round-robin: rotate nodes per request; the classic load-oblivious
//     baseline.
//   - least-outstanding: pick the node with the fewest queued/executing
//     runs (ties to the lowest node id). Load-aware, locality-oblivious.
//   - affinity: rendezvous (highest-random-weight) hashing of
//     (model, replica) over the node set, with a least-loaded tie-break
//     between the top two ranked nodes. Keeps a replica's requests on its
//     home node — warm hits — while still spilling when the home node is
//     measurably busier.
//
// Autoscaling. A controller ticks on the shared clock and adjusts each
// model's *active* replica count; all replicas are deployed up front (host
// weights pinned, plans built — the paper's one-time pre-run), and scaling
// changes how many replicas the router spreads requests across, which is
// what a serverless platform's instance count controls. Two policies:
//
//   - reactive: windowed cluster telemetry (mean queue depth at arrival,
//     cold-start ratio) drives it. Queue pressure scales up, cold-heavy
//     quiet windows scale down (consolidating traffic onto fewer replicas
//     restores residency), idle windows drain toward the floor.
//   - predictive: a per-model arrival forecast sizes each model ahead of
//     demand. New replicas are prewarmed before a predicted spike, and
//     replicas leaving the active set are put to sleep (GPU memory freed,
//     host copy kept) so waking them is one direct-host-access load.
package cluster

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/forecast"
	"deepplan/internal/hostmem"
	"deepplan/internal/metrics"
	"deepplan/internal/monitor"
	"deepplan/internal/registry"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/trace"
	"deepplan/internal/workload"
)

// RoutePolicy selects how the front-end spreads requests across nodes.
type RoutePolicy string

// Available routing policies.
const (
	RouteRoundRobin       RoutePolicy = "round-robin"
	RouteLeastOutstanding RoutePolicy = "least-outstanding"
	RouteAffinity         RoutePolicy = "affinity"
)

// AutoscalePolicy selects the autoscaler's control algorithm.
type AutoscalePolicy string

// Available autoscaling policies.
const (
	// AutoscaleReactive is the original controller: it reacts to the last
	// window's queue depth and cold-start ratio, so every spike eats a
	// burst of cold starts before replicas catch up.
	AutoscaleReactive AutoscalePolicy = "reactive"
	// AutoscalePredictive sizes each model from a per-model arrival
	// forecast (internal/forecast): replicas are prewarmed *before* the
	// predicted spike and idle replicas are demoted to sleep — GPU memory
	// released, host-pinned copy kept — instead of being left to eviction.
	AutoscalePredictive AutoscalePolicy = "predictive"
)

// ParseAutoscalePolicy maps a CLI spelling ("reactive", "predictive"; ""
// means reactive) to an AutoscalePolicy.
func ParseAutoscalePolicy(s string) (AutoscalePolicy, error) {
	switch AutoscalePolicy(s) {
	case "", AutoscaleReactive:
		return AutoscaleReactive, nil
	case AutoscalePredictive:
		return AutoscalePredictive, nil
	}
	return "", fmt.Errorf("cluster: unknown autoscale policy %q (want reactive or predictive)", s)
}

// Fixed thresholds of the replica controller.
const (
	// queueHigh scales a model up when the window's mean queue depth per
	// node (sampled at each arrival) exceeds it. The predictive policy
	// keeps it as a reactive safety valve for mispredicted load.
	queueHigh = 2
	// queueLow and coldHigh scale a model down (reactive policy only): mean
	// per-node queue depth under queueLow with a cold-start ratio over
	// coldHigh means traffic is spread thinner than residency can follow, so
	// consolidating replicas converts cold starts into warm hits.
	queueLow = 0.5
	coldHigh = 0.3
	// minReplicas is the per-model active-replica floor: the controllers
	// never drain a model below it.
	minReplicas = 1
)

// AutoscaleConfig tunes the per-model replica controller. The zero value
// disables autoscaling (every deployed replica stays active); a Policy
// without Enabled is an error.
type AutoscaleConfig struct {
	// Enabled turns the controller on. Models start at one active replica
	// and scale toward their deployed maximum under load.
	Enabled bool
	// Policy selects the control algorithm; default AutoscaleReactive.
	Policy AutoscalePolicy
	// Interval is the controller's decision period on the virtual clock.
	// Default serving.WindowWidth (one minute); under 1 ms is an error.
	Interval sim.Duration
	// Horizon is how far ahead the predictive policy forecasts each tick;
	// replicas are prewarmed for the peak rate predicted inside it.
	// Default 2x Interval, so a prewarm started at one tick is warm before
	// the spike the *next* tick would otherwise react to.
	Horizon sim.Duration
	// TargetUtil is the per-replica utilization the predictive policy
	// sizes for: it targets ceil(peak rate / (TargetUtil / ExecEst))
	// active replicas. Default 0.6.
	TargetUtil float64
}

// Config configures a Cluster. As in serving.Config, a zero numeric field
// takes its documented default and New rejects a negative one.
type Config struct {
	// Nodes is the node count; each node is an independent serving.Server
	// with its own freshly built topology. Must be >= 1.
	Nodes int
	// NewTopology builds one node's topology; it is called once per node
	// (topologies carry simulation state and cannot be shared). Default
	// topology.P38xlarge.
	NewTopology func() *topology.Topology
	// Cost is the platform cost model. Default costmodel.Default().
	Cost *costmodel.Params
	// Policy is the per-node cold-start policy (the paper's legends).
	// Default PT+DHA.
	Policy serving.Policy
	// Route is the front-end routing policy. Default least-outstanding.
	Route RoutePolicy
	// SLO is the latency target. Default 100 ms.
	SLO sim.Duration
	// MaxBatch enables per-node dynamic batching of warm requests.
	MaxBatch int
	// Autoscale configures the reactive replica controller.
	Autoscale AutoscaleConfig
	// Trace, when non-nil, records the whole cluster onto one timeline:
	// each node's GPUs/fabric/server appear as "node<i> ..." Perfetto
	// processes (trace.Recorder node views), and router/autoscaler events
	// land on the cluster router track. Observation-only, as everywhere.
	Trace *trace.Recorder
	// Telemetry fills the resource columns of every node's per-window
	// series (serving.Config.Telemetry); Windows pools them with the
	// latency columns across nodes.
	Telemetry bool
	// Faults arms a fault-injection schedule against node 0 (the blast
	// radius of real incidents is a machine, not a fleet): that node's GPUs
	// fail and recover, its links degrade, and the router — which only sees
	// load and liveness — routes around it. Nil runs byte-identical to a
	// cluster built before faults existed.
	Faults *faults.Schedule
	// AdmitFactor enables per-node SLO-aware admission control (see
	// serving.Config.AdmitFactor). Zero disables it.
	AdmitFactor float64
	// Monitor, when non-nil, streams the whole cluster into one dimensional
	// metrics registry: each node records through a Registry.Node view
	// carrying a node label, and the router adds routing, autoscaling, and
	// sim-clock series at the cluster level. Observation-only.
	Monitor *monitor.Registry
	// Alerts, when non-nil (and Monitor is set), runs the SLO burn-rate
	// monitor on the router clock: cluster-wide error-budget ratios are
	// sampled at fixed sim-time ticks and multi-window rules raise
	// page/ticket alerts into Report.Alerts, the registry, and the trace's
	// router track. Tick instants are pre-scheduled simulation events, so
	// alerts are deterministic.
	Alerts *monitor.SLOConfig
	// MetricsWriter, with MetricsInterval > 0 and Monitor set, appends one
	// OpenMetrics exposition block of the registry every interval of sim
	// time during the run (each block ends `# EOF`; the file is a
	// concatenation of expositions, newest last). Callers typically append
	// a final snapshot after Run returns. Write errors surface from Run. A
	// positive MetricsInterval without Monitor and MetricsWriter, or one
	// under 1 ms, is an error.
	MetricsWriter   io.Writer
	MetricsInterval sim.Duration
	// HostPolicy selects each node's pinned host-memory tier policy (see
	// serving.Config.HostPolicy). Default pinned; model-zoo clusters use a
	// cache policy (lru or cost).
	HostPolicy hostmem.Policy
	// HostMemory is each node's pinned-memory capacity in bytes; zero keeps
	// the serving default (244 GB).
	HostMemory int64
	// HostFetchBandwidth is every node's fetch-to-pin bandwidth (see
	// serving.Config); zero keeps the default.
	HostFetchBandwidth float64
	// Pack selects each node's GPU placement packing (see
	// serving.Config.Pack). Default spread; zoos use dense.
	Pack serving.PackMode
	// LLM configures autoregressive serving on every node (see
	// serving.Config.LLM). The zero value keeps single-shot serving
	// byte-identical.
	LLM serving.LLMConfig
}

// Request is one cluster-level arrival: a model invocation identified by a
// stable Key (user, session, or serverless function id). The router maps
// Key onto one of the model's active replicas, so a Key's requests reuse
// residency as far as the routing policy allows.
type Request struct {
	At    sim.Time
	Model string
	Key   int
	// PromptTokens/OutputTokens parameterize autoregressive requests
	// (Config.LLM); zero for single-shot invocations.
	PromptTokens int
	OutputTokens int
}

type modelState struct {
	name   string
	active int // replicas currently receiving traffic
	// zoo marks a shape deployed via DeployZoo: each replica is a distinct
	// tenant's variant (a tenant's request can never be served by another
	// tenant's weights), so Requests refuses to address it by instance.
	zoo bool
	// insts maps replica -> node-local instance index, the same table on
	// every node; its length is the model's scale ceiling. A zoo shape's
	// instances interleave with other shapes' in deploy order.
	insts []int
	// winArrivals counts this window's arrivals for the autoscaler.
	winArrivals int
	// activeNS integrates active replicas over virtual time (replica ·
	// nanoseconds) — the quantity a serverless platform bills. lastChange
	// is the instant the integral was last brought current.
	activeNS   int64
	lastChange sim.Time
	// activeG mirrors active into the monitor registry; nil when
	// monitoring is off.
	activeG *monitor.Gauge
	// fc is the model's arrival forecaster; non-nil only under the
	// predictive autoscaling policy. Fed one observation per arrival on
	// the router, read at controller ticks.
	fc *forecast.Forecaster
	// execEst is the model's uncontended warm execution estimate (from the
	// deployment cost model), the per-replica service time the predictive
	// policy sizes with.
	execEst sim.Duration
	// rateG publishes the forecast rate (deepplan_forecast_rate); nil
	// unless monitoring and the predictive policy are both on.
	rateG *monitor.Gauge
}

// accrue brings the replica-second integral current at virtual time now.
func (m *modelState) accrue(now sim.Time) {
	if now > m.lastChange {
		m.activeNS += int64(m.active) * int64(now-m.lastChange)
		m.lastChange = now
	}
}

type node struct {
	id  int
	srv *serving.Server
}

// down reports whether the node has no serving capacity at all.
func (n *node) down() bool { return n.srv.DownGPUs() == n.srv.NumGPUs() }

// Cluster is the simulated multi-node serving system.
type Cluster struct {
	cfg   Config
	sim   *sim.Simulator
	nodes []*node
	rec   *trace.Recorder

	models map[string]*modelState
	order  []string // deployment order, for deterministic iteration

	rr     int   // round-robin cursor
	routed []int // per-node routed request counts

	// Windowed autoscaler signals, reset each tick.
	winArrivals int
	winQueueSum int64
	winColdBase int

	scales [2]int // replica-count changes: [0] up, [1] down, like scalesC

	// Monitoring state; all nil/zero when Config.Monitor is nil.
	mon       *monitor.Registry
	slo       *monitor.SLOMonitor
	routedC   []*monitor.Counter // router decisions by destination node
	scalesC   [2]*monitor.Counter
	simTimeG  *monitor.Gauge
	exportErr error // first interval-export write failure
}

// New builds a Cluster of cfg.Nodes independent serving nodes on one
// shared virtual clock.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.NewTopology == nil {
		cfg.NewTopology = topology.P38xlarge
	}
	if cfg.Cost == nil {
		cfg.Cost = costmodel.Default()
	}
	if cfg.Policy == "" {
		cfg.Policy = serving.PolicyPTDHA
	}
	switch cfg.Route {
	case "":
		cfg.Route = RouteLeastOutstanding
	case RouteRoundRobin, RouteLeastOutstanding, RouteAffinity:
	default:
		return nil, fmt.Errorf("cluster: unknown routing policy %q", cfg.Route)
	}
	as := &cfg.Autoscale
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SLO", float64(cfg.SLO)},
		{"MetricsInterval", float64(cfg.MetricsInterval)},
		{"Autoscale.Interval", float64(as.Interval)},
		{"Autoscale.Horizon", float64(as.Horizon)},
		{"Autoscale.TargetUtil", as.TargetUtil},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return nil, fmt.Errorf("cluster: %s must be finite and not negative (zero selects the default)", f.name)
		}
	}
	// Every tick is a router event, so a sub-millisecond interval would bury
	// a short run under ticks (monitor.NewSLO floors its own tick at 1 ms).
	for _, f := range []struct {
		name string
		v    sim.Duration
	}{
		{"MetricsInterval", cfg.MetricsInterval},
		{"Autoscale.Interval", as.Interval},
	} {
		if f.v > 0 && f.v < sim.Millisecond {
			return nil, fmt.Errorf("cluster: %s must be zero or at least 1ms, got %v", f.name, f.v)
		}
	}
	if cfg.MetricsInterval > 0 && (cfg.Monitor == nil || cfg.MetricsWriter == nil) {
		return nil, fmt.Errorf("cluster: MetricsInterval exports the Monitor registry to MetricsWriter; it needs both")
	}
	if cfg.SLO == 0 {
		cfg.SLO = 100 * sim.Millisecond
	}
	policy, err := ParseAutoscalePolicy(string(as.Policy))
	if err != nil {
		return nil, err
	}
	if as.Policy != "" && !as.Enabled {
		return nil, fmt.Errorf("cluster: autoscale policy %q steers the replica controller; it needs Autoscale.Enabled", as.Policy)
	}
	if as.Enabled {
		as.Policy = policy
		if as.Interval == 0 {
			as.Interval = serving.WindowWidth
		}
		if as.Horizon == 0 {
			as.Horizon = 2 * as.Interval
		}
		if as.TargetUtil == 0 {
			as.TargetUtil = 0.6
		}
	}
	c := &Cluster{
		cfg:     cfg,
		sim:     sim.New(),
		rec:     cfg.Trace,
		mon:     cfg.Monitor,
		models:  map[string]*modelState{},
		routed:  make([]int, cfg.Nodes),
		routedC: make([]*monitor.Counter, cfg.Nodes),
	}
	c.rec.NamePID(trace.ServerPID, "cluster router") // no-op when tracing is off
	for i := 0; i < cfg.Nodes; i++ {
		topo := cfg.NewTopology()
		var sched *faults.Schedule
		if i == 0 {
			sched = cfg.Faults // faults strike node 0; the router works around it
		}
		srv, err := serving.New(serving.Config{
			Topo:               topo,
			Cost:               cfg.Cost,
			Policy:             cfg.Policy,
			Sim:                c.sim,
			SLO:                cfg.SLO,
			MaxBatch:           cfg.MaxBatch,
			Faults:             sched,
			AdmitFactor:        cfg.AdmitFactor,
			Trace:              c.rec.Node(i, topo.NumGPUs()),
			Telemetry:          cfg.Telemetry,
			Monitor:            c.mon.Node(i),
			HostPolicy:         cfg.HostPolicy,
			HostMemory:         cfg.HostMemory,
			HostFetchBandwidth: cfg.HostFetchBandwidth,
			Pack:               cfg.Pack,
			LLM:                cfg.LLM,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, &node{id: i, srv: srv})
		c.routedC[i] = c.mon.Counter("deepplan_routed",
			"Requests the router dispatched, by destination node.", "node", strconv.Itoa(i))
	}
	c.scalesC[0] = c.mon.Counter("deepplan_scale_events",
		"Autoscaler replica-count changes, by direction.", "direction", "up")
	c.scalesC[1] = c.mon.Counter("deepplan_scale_events",
		"Autoscaler replica-count changes, by direction.", "direction", "down")
	c.simTimeG = c.mon.Gauge("deepplan_sim_time_seconds",
		"Virtual time of the most recent registry snapshot.")
	return c, nil
}

// Deploy registers replicas instances of a model on every node (weights
// pinned in each node's host memory, profiled and planned once per node —
// the paper's one-time pre-run, fleet-wide). replicas is the model's scale
// ceiling; with autoscaling enabled the router starts at the floor of one
// replica and the controller moves the active count inside [1, replicas].
func (c *Cluster) Deploy(model *dnn.Model, replicas int) error {
	if replicas <= 0 {
		return fmt.Errorf("cluster: replica count must be positive")
	}
	if _, ok := c.models[model.Name]; ok {
		return fmt.Errorf("cluster: model %q already deployed", model.Name)
	}
	m := c.addModel(model.Name, false)
	for r := 0; r < replicas; r++ {
		if err := c.addReplica(m, model, 0); err != nil {
			return err
		}
	}
	m.active = replicas
	if c.cfg.Autoscale.Enabled {
		m.active = min(minReplicas, replicas)
	}
	if c.cfg.Autoscale.Enabled && c.cfg.Autoscale.Policy == AutoscalePredictive {
		// One bucket per controller interval: the forecaster's resolution
		// matches the cadence at which its predictions can be acted on.
		m.fc = forecast.New(c.cfg.Autoscale.Interval)
		est, ok := c.nodes[0].srv.ExecEstimate(model.Name)
		if !ok {
			return fmt.Errorf("cluster: no execution estimate for %q", model.Name)
		}
		m.execEst = est
		m.rateG = c.mon.Gauge("deepplan_forecast_rate",
			"Forecast arrival rate (requests/second), set at each predictive autoscaler tick.",
			"model", model.Name)
	}
	m.activeG.Set(float64(m.active))
	return nil
}

// addModel registers an empty model: its state, its active-replica gauge
// and its place in the deployment order.
func (c *Cluster) addModel(name string, zoo bool) *modelState {
	m := &modelState{
		name: name, zoo: zoo, lastChange: c.sim.Now(),
		activeG: c.mon.Gauge("deepplan_active_replicas",
			"Replicas receiving traffic (autoscaler output).", "model", name),
	}
	c.models[name] = m
	c.order = append(c.order, name)
	return m
}

// addReplica deploys one more instance of model on every node, in node
// order, and appends its id — which every node must agree on — to m's
// instance table.
func (c *Cluster) addReplica(m *modelState, model *dnn.Model, popularity float64) error {
	id := -1
	for _, n := range c.nodes {
		got, err := n.srv.DeployVariant(model, popularity)
		if err != nil {
			return fmt.Errorf("cluster: node %d: deploying %s replica %d: %w", n.id, m.name, len(m.insts), err)
		}
		if id >= 0 && got != id {
			return fmt.Errorf("cluster: instance ids diverged across nodes at %s replica %d", m.name, len(m.insts))
		}
		id = got
	}
	m.insts = append(m.insts, id)
	return nil
}

// DeployZoo registers every variant of a model zoo on every node, in
// popularity order. Variants sharing an architectural shape become
// replicas of one cluster model (the shape), so affinity routing shards a
// shape's tenants across the nodes' host caches; each replica is a
// distinct tenant addressed by its within-shape ordinal, never remapped
// to another tenant's weights. Requests for a zoo are built with
// ZooRequests. Use a cache HostPolicy: under the legacy pinned policy a
// zoo larger than host memory fails at deploy time. Autoscaling and LLM
// mode are refused before any variant deploys.
func (c *Cluster) DeployZoo(z *registry.Zoo) error {
	if c.cfg.Autoscale.Enabled {
		// Zoo replicas are distinct tenants: consolidating or prewarming
		// them by ordinal would route one tenant's traffic at another
		// tenant's weights. The host cache is a zoo's elastic resource, not
		// the active-replica count, so the combination is refused outright
		// rather than silently ignored.
		return fmt.Errorf("cluster: autoscaling cannot manage a model zoo (replicas are distinct tenants); disable Autoscale to deploy a zoo")
	}
	if c.cfg.LLM.Enabled {
		return fmt.Errorf("cluster: %w", serving.ErrZooLLM)
	}
	for i := range z.Variants {
		v := &z.Variants[i]
		shape := v.Model.Name
		m := c.models[shape]
		if m == nil {
			m = c.addModel(shape, true)
		} else if !m.zoo {
			return fmt.Errorf("cluster: model %q already deployed", shape)
		}
		if v.Ordinal != len(m.insts) {
			return fmt.Errorf("cluster: zoo variant %s out of ordinal order", v.Name)
		}
		if err := c.addReplica(m, v.Model, v.Popularity); err != nil {
			return err
		}
		m.active++
		m.activeG.Set(float64(m.active))
	}
	return nil
}

// ZooRequests maps a zoo arrival sequence (workload Instance = global
// variant index, as produced by Zoo.Requests) onto cluster requests
// addressed by shape name and within-shape replica ordinal.
func ZooRequests(z *registry.Zoo, reqs []workload.Request) []Request {
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		v := &z.Variants[r.Instance]
		out[i] = Request{At: r.At, Model: v.Model.Name, Key: v.Ordinal}
	}
	return out
}

// Requests maps a workload addressed by node-local instance index onto
// cluster arrivals. Every node numbers its instances the same way, in
// deploy order. An arrival goes to the model that owns its instance, keyed
// by the instance's replica index, with its token counts copied. An
// instance no model owns, or one that belongs to a zoo shape (zoo traffic
// is addressed by variant through ZooRequests), is an error naming the
// arrival.
func (c *Cluster) Requests(reqs []workload.Request) ([]Request, error) {
	type owner struct {
		m       *modelState
		replica int
	}
	owners := make([]owner, c.nodes[0].srv.NumInstances())
	for _, name := range c.order {
		m := c.models[name]
		for r, id := range m.insts {
			owners[id] = owner{m, r}
		}
	}
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		if r.Instance < 0 || r.Instance >= len(owners) {
			return nil, fmt.Errorf("cluster: arrival %d (instance %d at %v): out of range: %d instances deployed per node",
				i, r.Instance, r.At, len(owners))
		}
		o := owners[r.Instance]
		if o.m.zoo {
			return nil, fmt.Errorf("cluster: arrival %d (instance %d at %v): zoo shape %s replica %d is addressed by variant (ZooRequests)",
				i, r.Instance, r.At, o.m.name, o.replica)
		}
		out[i] = Request{At: r.At, Model: o.m.name, Key: o.replica,
			PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens}
	}
	return out, nil
}

// Warmup pre-places instances on every node, mirroring the single-node
// warm-up phase. It returns the total number of instances made warm.
func (c *Cluster) Warmup() int {
	warm := 0
	for _, n := range c.nodes {
		warm += n.srv.Warmup()
	}
	return warm
}

// rendezvous is a 64-bit FNV-1a highest-random-weight score for placing
// (model, replica) on node. Pure arithmetic: deterministic everywhere.
func rendezvous(model string, replica, node int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(model); i++ {
		h ^= uint64(model[i])
		h *= prime
	}
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(uint64(replica))
	mix(uint64(node))
	return h
}

// homes ranks the live nodes by rendezvous score for (m, replica) and
// returns the top two; either is nil when fewer nodes are up.
func (c *Cluster) homes(m *modelState, replica int) (best, second *node) {
	var bestScore, secondScore uint64
	for _, n := range c.nodes {
		if n.down() {
			continue
		}
		s := rendezvous(m.name, replica, n.id)
		switch {
		case best == nil || s > bestScore:
			second, secondScore = best, bestScore
			best, bestScore = n, s
		case second == nil || s > secondScore:
			second, secondScore = n, s
		}
	}
	return best, second
}

// route picks the serving node for one request under the configured policy.
// It returns nil only when every node is fully down.
func (c *Cluster) route(m *modelState, replica int) *node {
	switch c.cfg.Route {
	case RouteRoundRobin:
		for try := 0; try < len(c.nodes); try++ {
			n := c.nodes[c.rr]
			c.rr = (c.rr + 1) % len(c.nodes)
			if !n.down() {
				return n
			}
		}
		return nil
	case RouteLeastOutstanding:
		var best *node
		bestOut := 0
		for _, n := range c.nodes {
			if n.down() {
				continue
			}
			out := n.srv.Outstanding()
			if best == nil || out < bestOut {
				best, bestOut = n, out
			}
		}
		return best
	case RouteAffinity:
		// Rank live nodes by rendezvous score; between the top two, the
		// less-loaded one wins (ties stay with the rendezvous winner, so a
		// balanced cluster keeps perfect affinity). Residency trumps load:
		// a spill that lands on a cold copy trades a queue slot for a full
		// load, so the spill only happens when it does not give up a warm
		// (or already-loading) copy of this replica — and conversely, when
		// only the spill target is warm, it wins outright.
		best, second := c.homes(m, replica)
		if second != nil {
			id := m.insts[replica]
			bestWarm := best.srv.Instances()[id].State() == serving.Warm
			secondWarm := second.srv.Instances()[id].State() == serving.Warm
			switch {
			case secondWarm && !bestWarm:
				return second
			case bestWarm && !secondWarm:
				return best
			case second.srv.Outstanding() < best.srv.Outstanding():
				return second
			}
		}
		return best
	}
	panic("cluster: unreachable routing policy " + string(c.cfg.Route))
}

// handle routes one arrival at the current virtual time.
func (c *Cluster) handle(req Request) error {
	m := c.models[req.Model]
	if m == nil {
		return fmt.Errorf("cluster: request for unknown model %q", req.Model)
	}
	// Fold the key's magnitude unsigned: -math.MinInt overflows int.
	key := uint(req.Key)
	if req.Key < 0 {
		key = -key
	}
	replica := int(key % uint(m.active))

	// Sample cluster-wide queue depth at arrival for the autoscaler.
	depth := 0
	for _, n := range c.nodes {
		depth += n.srv.Outstanding()
	}
	c.winArrivals++
	c.winQueueSum += int64(depth)
	m.winArrivals++
	if m.fc != nil {
		m.fc.Observe(req.At) // zero-alloc; the predictive tick reads it
	}

	n := c.route(m, replica)
	if n == nil {
		return fmt.Errorf("cluster: every node is down at %v", c.sim.Now())
	}
	c.routed[n.id]++
	c.routedC[n.id].Inc()
	return n.srv.Submit(workload.Request{At: req.At, Instance: m.insts[replica],
		PromptTokens: req.PromptTokens, OutputTokens: req.OutputTokens})
}

// scaleTick runs one autoscaler decision: it computes the window's
// cluster signals, then steps every model toward the configured policy's
// target, accounts the change and resets the model's window.
func (c *Cluster) scaleTick() {
	coldNow := 0
	for _, n := range c.nodes {
		coldNow += n.srv.ColdStartCount()
	}
	coldDelta := coldNow - c.winColdBase
	c.winColdBase = coldNow

	var perNodeDepth, coldRatio float64
	if c.winArrivals > 0 {
		perNodeDepth = float64(c.winQueueSum) / float64(c.winArrivals) / float64(len(c.nodes))
		coldRatio = float64(coldDelta) / float64(c.winArrivals)
	}
	predictive := c.cfg.Autoscale.Policy == AutoscalePredictive
	now := c.sim.Now()
	for _, name := range c.order {
		m := c.models[name]
		m.accrue(now)
		before := m.active
		var peak float64
		if predictive {
			peak = c.predictiveStep(m, perNodeDepth)
		} else {
			reactiveStep(m, perNodeDepth, coldRatio)
		}
		c.noteScale(m, before, func() map[string]any {
			args := map[string]any{"model": m.name, "active": m.active,
				"queue_per_node": perNodeDepth, "cold_ratio": coldRatio}
			if predictive {
				args["forecast_peak"] = peak
			}
			return args
		})
		m.winArrivals = 0
	}
	c.winArrivals = 0
	c.winQueueSum = 0
}

// reactiveStep moves m's active replicas one step on the last window's
// telemetry.
func reactiveStep(m *modelState, perNodeDepth, coldRatio float64) {
	switch {
	case m.winArrivals == 0:
		// Idle window: drain toward the floor.
		if m.active > minReplicas {
			m.active--
		}
	case perNodeDepth > queueHigh && m.active < len(m.insts):
		// Queue pressure: spread the model wider.
		m.active++
	case perNodeDepth < queueLow && coldRatio > coldHigh && m.active > minReplicas:
		// Quiet but cold-heavy: consolidate to restore residency.
		m.active--
	}
}

// predictiveStep sizes m from its forecaster, which projects the peak
// arrival rate over the configured horizon: the target replica count keeps
// each replica at TargetUtil utilization. The delta is actuated through the
// lifecycle — new replicas are *prewarmed* (DHA load starts now, before the
// spike) and demoted replicas are put to *sleep* on every node (GPU memory
// released, host copy kept) instead of being left to LRU eviction.
// perNodeDepth keeps the reactive queue signal as a safety valve against
// misprediction. It returns the forecast peak for the scale instant.
func (c *Cluster) predictiveStep(m *modelState, perNodeDepth float64) float64 {
	as := c.cfg.Autoscale
	now := c.sim.Now()
	pred := m.fc.Forecast(now, as.Horizon)
	m.rateG.Set(pred.Rate)
	if c.rec != nil {
		c.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "cluster",
			"forecast "+m.name, now, map[string]any{
				"model": m.name, "rate": pred.Rate, "peak": pred.Peak,
				"period_s": pred.Period.Seconds(), "score": pred.Score,
			})
	}
	// Replicas needed so the predicted peak keeps each at TargetUtil.
	perReplica := as.TargetUtil / m.execEst.Seconds()
	target := int(math.Ceil(pred.Peak / perReplica))
	if perNodeDepth > queueHigh && target <= m.active && m.active < len(m.insts) {
		target = m.active + 1 // reactive safety valve: the forecast missed live queue pressure
	}
	if target < minReplicas {
		target = minReplicas
	}
	if target > len(m.insts) {
		target = len(m.insts)
	}
	if target < m.active && perNodeDepth >= queueLow {
		// The arrival forecast says "quiet", but a backlog from the
		// last burst is still draining; shedding capacity now would
		// concentrate the queue on the survivors. Hold width until the
		// queue signal is actually quiet.
		target = m.active
	} else if target < m.active && pred.Period == 0 {
		// No detected periodicity means the forecast cannot promise the
		// lull will last; demote one replica per tick (reactive-style)
		// instead of sleeping the whole surplus on a low-confidence
		// prediction.
		target = m.active - 1
	}
	for r := m.active; r < target; r++ {
		if n := c.prewarmNode(m, r); n != nil {
			n.srv.PrewarmInstance(m.insts[r])
		}
	}
	// Demote the replicas leaving the active set wherever they are
	// resident; SleepInstance is a no-op on nodes where the replica is not
	// idle-warm.
	for r := target; r < m.active; r++ {
		for _, n := range c.nodes {
			n.srv.SleepInstance(m.insts[r])
		}
	}
	m.active = target
	return pred.Peak
}

// noteScale accounts a tick's change of m's active replicas from before:
// the scale counters, the active-replica gauge and a "scale-up" or
// "scale-down" instant on the router track. args builds the instant's
// arguments (the tick's signals) and runs only while tracing.
func (c *Cluster) noteScale(m *modelState, before int, args func() map[string]any) {
	if m.active == before {
		return
	}
	dir, verb := 0, "scale-up "
	if m.active < before {
		dir, verb = 1, "scale-down "
	}
	c.scales[dir]++
	c.scalesC[dir].Inc()
	m.activeG.Set(float64(m.active))
	if c.rec != nil {
		c.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "cluster", verb+m.name, c.sim.Now(), args())
	}
}

// prewarmNode picks the node to prewarm a replica on: the replica's
// rendezvous home under affinity routing (so the prewarmed residency is
// where its traffic will land), a replica-indexed spread otherwise. The
// router's round-robin cursor is deliberately not consulted — prewarm
// placement must not perturb request routing. Returns nil when every node
// is down.
func (c *Cluster) prewarmNode(m *modelState, replica int) *node {
	if c.cfg.Route == RouteAffinity {
		best, _ := c.homes(m, replica)
		return best
	}
	for try := 0; try < len(c.nodes); try++ {
		n := c.nodes[(replica+try)%len(c.nodes)]
		if !n.down() {
			return n
		}
	}
	return nil
}

// Run replays the request sequence through the router to completion and
// returns the cluster report. Requests must be sorted by arrival time
// (workload generators produce sorted sequences).
func (c *Cluster) Run(requests []Request) (*Report, error) {
	for i, r := range requests {
		if _, ok := c.models[r.Model]; !ok {
			return nil, fmt.Errorf("cluster: request for unknown model %q", r.Model)
		}
		if r.At < 0 {
			return nil, fmt.Errorf("cluster: request %d arrives at negative time %v", i, r.At)
		}
		if i > 0 && r.At < requests[i-1].At {
			return nil, fmt.Errorf("cluster: request %d arrives at %v, before request %d at %v (arrivals must be sorted)",
				i, r.At, i-1, requests[i-1].At)
		}
	}
	var firstErr error
	c.sim.Arrivals(len(requests), func(i int) sim.Time { return requests[i].At }, func(i int) {
		if err := c.handle(requests[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	var horizon sim.Time
	if len(requests) > 0 {
		horizon = requests[len(requests)-1].At
	}
	// every schedules fn at each multiple of interval through the horizon,
	// skew after the nominal instant, as one arrival stream: the ticks fire
	// in the order one At per tick would give them, and hold one pending
	// event between them.
	every := func(interval, skew sim.Duration, fn func()) {
		c.sim.Arrivals(int(horizon.Sub(0)/interval),
			func(i int) sim.Time { return sim.Time(0).Add(sim.Duration(i+1)*interval + skew) },
			func(int) { fn() })
	}
	if c.cfg.Autoscale.Enabled {
		every(c.cfg.Autoscale.Interval, 0, c.scaleTick)
	}
	// Monitoring ticks are ordinary router events scheduled up front at
	// fixed instants, which is what makes alerts and interval exports
	// deterministic.
	//
	// Each tick fires one nanosecond after its nominal instant. Among
	// events at the same instant the clock fires in scheduling order: fault
	// events (scheduled at construction) precede a tick at t, while
	// completions that nodes schedule during the run follow it. Nudging the
	// tick past t gives it one clean boundary — every node event through t
	// is visible, none after. Alert logs and metrics exports print these
	// instants, so the experiment goldens pin them.
	const tickSkew = sim.Duration(1)
	if c.mon != nil && c.cfg.Alerts != nil && horizon > 0 {
		acfg := *c.cfg.Alerts
		if acfg.AlertLatency == 0 {
			// Internal latency objective: page when cold/warm latency mass
			// crosses 80% of the contractual SLO, before goodput burns.
			acfg.AlertLatency = c.cfg.SLO * 4 / 5
		}
		c.slo = monitor.NewSLO(c.mon, c.rec, acfg, horizon.Sub(0))
		every(c.slo.Interval(), tickSkew, func() { c.slo.Tick(c.sim.Now()) })
	}
	if c.cfg.MetricsInterval > 0 {
		every(c.cfg.MetricsInterval, tickSkew, c.exportTick)
	}
	c.sim.Run()
	c.rec.MergeViews() // order the nodes' events into one deterministic timeline
	if firstErr != nil {
		return nil, firstErr
	}
	return c.report()
}

// Windows returns the fleet's per-window stats through the end of the last
// run, every node's series pooled window by window (see serving.Windows):
// latency columns, and telemetry columns with Config.Telemetry. It is
// computed on demand rather than in Run's report, which keeps its cost off
// runs that do not print windows; call it after Run returns.
func (c *Cluster) Windows() []metrics.WindowStat { return serving.Windows(c.servers()...) }

// servers returns the nodes' servers in node order.
func (c *Cluster) servers() []*serving.Server {
	out := make([]*serving.Server, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.srv
	}
	return out
}

// exportTick appends one OpenMetrics exposition block to the configured
// writer at the current virtual instant. The first write failure is
// remembered and surfaced from Run; later ticks become no-ops.
func (c *Cluster) exportTick() {
	if c.exportErr != nil {
		return
	}
	c.simTimeG.Set(c.sim.Now().Sub(0).Seconds())
	if err := c.mon.WriteOpenMetrics(c.cfg.MetricsWriter); err != nil {
		c.exportErr = fmt.Errorf("cluster: metrics export at %v: %w", c.sim.Now(), err)
	}
}

// CheckInvariants validates every node's internal consistency (test use).
func (c *Cluster) CheckInvariants() error {
	for _, n := range c.nodes {
		if err := n.srv.CheckInvariants(); err != nil {
			return fmt.Errorf("cluster: node %d: %w", n.id, err)
		}
	}
	return nil
}

// NodeStat is one node's share of a cluster run.
type NodeStat struct {
	Node       int
	Routed     int // requests the router sent here
	ColdStarts int
	Evictions  int
	Shed       int
	P99        sim.Duration
}

// ReplicaStat reports a model's replica state after a run.
type ReplicaStat struct {
	Model  string
	Active int // replicas receiving traffic when the run ended
	Max    int // deployed ceiling
	// ActiveSeconds integrates the active replica count over the run: the
	// replica-seconds a serverless platform would bill for this model.
	// Without autoscaling it equals Max x the run horizon.
	ActiveSeconds float64
}

// Report summarizes a cluster run: the fleet's Summary, per-node shares,
// and the autoscaler's trajectory.
type Report struct {
	Nodes  int
	Route  RoutePolicy
	Policy serving.Policy

	// Summary pools every node (serving.Summarize): percentiles over all
	// nodes' samples, and summed counts and totals. In LLM mode the cold/warm percentiles measure time-to-
	// first-token per class while P50/P99/Mean/Max cover full generation.
	serving.Summary

	ScaleUps, ScaleDowns int
	Replicas             []ReplicaStat
	// Horizon is the virtual time at which the run quiesced — the billing
	// window for the replica-second integrals in Replicas.
	Horizon sim.Duration

	PerNode []NodeStat
	// Alerts is the SLO burn-rate monitor's alert log in firing order; nil
	// unless Config.Monitor and Config.Alerts were both set.
	Alerts []monitor.Alert
}

func (c *Cluster) report() (*Report, error) {
	if c.exportErr != nil {
		return nil, c.exportErr
	}
	r := &Report{
		Nodes:  len(c.nodes),
		Route:  c.cfg.Route,
		Policy: c.cfg.Policy,
	}
	end := c.sim.Now()
	for _, n := range c.nodes {
		rep, err := n.srv.Finish()
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", n.id, err)
		}
		r.PerNode = append(r.PerNode, NodeStat{
			Node:       n.id,
			Routed:     c.routed[n.id],
			ColdStarts: rep.ColdStarts,
			Evictions:  rep.Evictions,
			Shed:       rep.Shed,
			P99:        rep.P99,
		})
	}
	r.Summary = serving.Summarize(c.servers()...)
	r.ScaleUps, r.ScaleDowns = c.scales[0], c.scales[1]
	r.Horizon = end.Sub(0)
	c.simTimeG.Set(r.Horizon.Seconds())
	if c.slo != nil {
		r.Alerts = c.slo.Finalize(end)
	}
	names := append([]string(nil), c.order...)
	sort.Strings(names)
	for _, name := range names {
		m := c.models[name]
		m.accrue(end)
		r.Replicas = append(r.Replicas, ReplicaStat{
			Model: m.name, Active: m.active, Max: len(m.insts),
			ActiveSeconds: float64(m.activeNS) / 1e9,
		})
	}
	return r, nil
}
