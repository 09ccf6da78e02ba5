// Package cluster is the multi-node serving layer: N independent
// serving.Server nodes — each with its own topology, network, and engine —
// driven by one shared virtual clock, behind a front-end router and a
// reactive autoscaler.
//
// The single-node serving system reproduces the paper's evaluation on one
// p3.8xlarge; the ROADMAP's north star ("heavy traffic from millions of
// users") is a fleet. This package models the cluster-level decisions that
// dominate such fleets — *which node* eats a cold start, and *how many*
// replicas of a model should receive traffic — on exactly the same
// deterministic substrate, so routing policies and scaling rules are
// byte-reproducible and testable the way the paper's figures are
// (LLMServingSim and Revati make the same argument for simulator-based
// cluster serving research).
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
// Autoscaling. A reactive controller samples windowed cluster telemetry
// (mean queue depth at arrival, cold-start ratio) on the shared clock and
// adjusts each model's *active* replica count: queue pressure scales up,
// cold-heavy quiet windows scale down (consolidating traffic onto fewer
// replicas restores residency), idle windows drain toward the floor. All
// replicas are deployed up front (host weights pinned, plans built — the
// paper's one-time pre-run); scaling changes only how many replicas the
// router spreads requests across, which is what a serverless platform's
// instance count controls.
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

// AutoscaleConfig tunes the per-model replica controller. The zero value
// disables autoscaling (every deployed replica stays active).
type AutoscaleConfig struct {
	// Enabled turns the controller on. Models start at Min active replicas
	// and scale toward their deployed maximum under load.
	Enabled bool
	// Policy selects the control algorithm; default AutoscaleReactive.
	Policy AutoscalePolicy
	// Min is the per-model active-replica floor. Default 1.
	Min int
	// Interval is the controller's decision period on the virtual clock.
	// Default: the cluster's WindowWidth.
	Interval sim.Duration
	// QueueHigh scales a model up when the window's mean queue depth per
	// node (sampled at each arrival) exceeds it. Default 2. The predictive
	// policy keeps it as a reactive safety valve for mispredicted load.
	QueueHigh float64
	// QueueLow and ColdHigh together scale a model down: a window with mean
	// per-node queue depth under QueueLow and a cold-start ratio over
	// ColdHigh means traffic is spread thinner than residency can follow,
	// so consolidating replicas converts cold starts into warm hits.
	// Defaults 0.5 and 0.3. Reactive policy only.
	QueueLow float64
	ColdHigh float64
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

// Config configures a Cluster.
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
	// WindowWidth buckets per-window series and telemetry. Default 1 minute.
	WindowWidth sim.Duration
	// Batch is the per-inference engine batch size on every node. Default 1
	// (the paper's serving setting).
	Batch int
	// MaxBatch enables per-node dynamic batching of warm requests.
	MaxBatch int
	// Autoscale configures the reactive replica controller.
	Autoscale AutoscaleConfig
	// Trace, when non-nil, records the whole cluster onto one timeline:
	// each node's GPUs/fabric/server appear as "node<i> ..." Perfetto
	// processes (trace.Recorder node views), and router/autoscaler events
	// land on the cluster router track. Observation-only, as everywhere.
	Trace *trace.Recorder
	// Telemetry enables per-node windowed telemetry and its cluster-level
	// aggregation in Report.Telemetry.
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
	// a final snapshot after Run returns. Write errors surface from Run.
	MetricsWriter   io.Writer
	MetricsInterval sim.Duration
	// HostPolicy selects each node's pinned host-memory tier policy (see
	// serving.Config.HostPolicy). Default pinned; model-zoo clusters use a
	// cache policy (lru or cost).
	HostPolicy hostmem.Policy
	// HostMemory is each node's pinned-memory capacity in bytes; zero keeps
	// the serving default (244 GB).
	HostMemory int64
	// HostFetchBandwidth / HostFetchOverhead parameterize the fetch-to-pin
	// cost on every node (see serving.Config); zero keeps the defaults.
	HostFetchBandwidth float64
	HostFetchOverhead  sim.Duration
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
	name     string
	replicas int // deployed per node (the scale ceiling)
	active   int // replicas currently receiving traffic
	base     int // node-local instance index of replica 0 (same on every node)
	// zoo marks a shape deployed via DeployZoo: each replica is a distinct
	// tenant's variant, so the autoscaler must not consolidate them (a
	// tenant's request can never be served by another tenant's weights —
	// the host cache, not the active-replica count, is the elastic
	// resource) and routing addresses replicas through insts.
	zoo bool
	// insts maps replica -> node-local instance index for zoo shapes,
	// whose instances are interleaved with other shapes' in deploy order
	// (same table on every node). Nil for Deploy'd models (contiguous from
	// base).
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

	rr        int // round-robin cursor
	submitted int
	routed    []int // per-node routed request counts

	// Windowed autoscaler signals, reset each tick.
	winArrivals int
	winQueueSum int64
	winColdBase int

	scaleUps, scaleDowns int

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
	if cfg.SLO <= 0 {
		cfg.SLO = 100 * sim.Millisecond
	}
	if cfg.WindowWidth <= 0 {
		cfg.WindowWidth = 60 * sim.Second
	}
	if cfg.Autoscale.Enabled {
		policy, err := ParseAutoscalePolicy(string(cfg.Autoscale.Policy))
		if err != nil {
			return nil, err
		}
		cfg.Autoscale.Policy = policy
		if cfg.Autoscale.Min <= 0 {
			cfg.Autoscale.Min = 1
		}
		if cfg.Autoscale.Interval <= 0 {
			cfg.Autoscale.Interval = cfg.WindowWidth
		}
		if cfg.Autoscale.QueueHigh <= 0 {
			cfg.Autoscale.QueueHigh = 2
		}
		if cfg.Autoscale.QueueLow <= 0 {
			cfg.Autoscale.QueueLow = 0.5
		}
		if cfg.Autoscale.ColdHigh <= 0 {
			cfg.Autoscale.ColdHigh = 0.3
		}
		if cfg.Autoscale.Horizon <= 0 {
			cfg.Autoscale.Horizon = 2 * cfg.Autoscale.Interval
		}
		if cfg.Autoscale.TargetUtil <= 0 {
			cfg.Autoscale.TargetUtil = 0.6
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
			WindowWidth:        cfg.WindowWidth,
			Batch:              cfg.Batch,
			MaxBatch:           cfg.MaxBatch,
			Faults:             sched,
			AdmitFactor:        cfg.AdmitFactor,
			Trace:              c.rec.Node(i, topo.NumGPUs()),
			Telemetry:          cfg.Telemetry,
			Monitor:            c.mon.Node(i),
			HostPolicy:         cfg.HostPolicy,
			HostMemory:         cfg.HostMemory,
			HostFetchBandwidth: cfg.HostFetchBandwidth,
			HostFetchOverhead:  cfg.HostFetchOverhead,
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

// NumNodes returns the cluster's node count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Deploy registers replicas instances of a model on every node (weights
// pinned in each node's host memory, profiled and planned once per node —
// the paper's one-time pre-run, fleet-wide). replicas is the model's scale
// ceiling; with autoscaling enabled the router starts at the configured
// floor and the controller moves the active count inside [Min, replicas].
func (c *Cluster) Deploy(model *dnn.Model, replicas int) error {
	if replicas <= 0 {
		return fmt.Errorf("cluster: replica count must be positive")
	}
	if _, ok := c.models[model.Name]; ok {
		return fmt.Errorf("cluster: model %q already deployed", model.Name)
	}
	base := c.nodes[0].srv.NumInstances()
	for _, n := range c.nodes {
		if err := n.srv.Deploy(model, replicas); err != nil {
			return fmt.Errorf("cluster: node %d: %w", n.id, err)
		}
	}
	active := replicas
	if c.cfg.Autoscale.Enabled {
		active = c.cfg.Autoscale.Min
		if active > replicas {
			active = replicas
		}
	}
	m := &modelState{
		name: model.Name, replicas: replicas, active: active, base: base,
		lastChange: c.sim.Now(),
		activeG: c.mon.Gauge("deepplan_active_replicas",
			"Replicas receiving traffic (autoscaler output).", "model", model.Name),
	}
	if c.cfg.Autoscale.Enabled && c.cfg.Autoscale.Policy == AutoscalePredictive {
		// One bucket per controller interval: the forecaster's resolution
		// matches the cadence at which its predictions can be acted on.
		m.fc = forecast.New(forecast.Config{Window: c.cfg.Autoscale.Interval})
		est, ok := c.nodes[0].srv.ExecEstimate(model.Name)
		if !ok {
			return fmt.Errorf("cluster: no execution estimate for %q", model.Name)
		}
		m.execEst = est
		m.rateG = c.mon.Gauge("deepplan_forecast_rate",
			"Forecast arrival rate (requests/second), set at each predictive autoscaler tick.",
			"model", model.Name)
	}
	m.activeG.Set(float64(active))
	c.models[model.Name] = m
	c.order = append(c.order, model.Name)
	return nil
}

// DeployZoo registers every variant of a model zoo on every node, in
// popularity order. Variants sharing an architectural shape become
// replicas of one cluster model (the shape), so affinity routing shards a
// shape's tenants across the nodes' host caches; each replica is a
// distinct tenant addressed by its within-shape ordinal, never remapped
// to another tenant's weights. Requests for a zoo are built with
// ZooRequests. Use a cache HostPolicy: under the legacy pinned policy a
// zoo larger than host memory fails at deploy time.
func (c *Cluster) DeployZoo(z *registry.Zoo) error {
	if c.cfg.Autoscale.Enabled {
		// Zoo replicas are distinct tenants: consolidating or prewarming
		// them by ordinal would route one tenant's traffic at another
		// tenant's weights. The host cache is a zoo's elastic resource, not
		// the active-replica count, so the combination is refused outright
		// rather than silently ignored.
		return fmt.Errorf("cluster: autoscaling cannot manage a model zoo (replicas are distinct tenants); disable Autoscale to deploy a zoo")
	}
	for i := range z.Variants {
		v := &z.Variants[i]
		shape := v.Model.Name
		m := c.models[shape]
		if m == nil {
			m = &modelState{
				name: shape, zoo: true, lastChange: c.sim.Now(),
				activeG: c.mon.Gauge("deepplan_active_replicas",
					"Replicas receiving traffic (autoscaler output).", "model", shape),
			}
			c.models[shape] = m
			c.order = append(c.order, shape)
		} else if !m.zoo {
			return fmt.Errorf("cluster: model %q already deployed", shape)
		}
		if v.Ordinal != len(m.insts) {
			return fmt.Errorf("cluster: zoo variant %s out of ordinal order", v.Name)
		}
		id := -1
		for _, n := range c.nodes {
			got, err := n.srv.DeployVariant(v.Model, v.Popularity)
			if err != nil {
				return fmt.Errorf("cluster: node %d: deploying %s: %w", n.id, v.Name, err)
			}
			if id >= 0 && got != id {
				return fmt.Errorf("cluster: zoo instance ids diverged across nodes at %s", v.Name)
			}
			id = got
		}
		m.insts = append(m.insts, id)
		m.replicas++
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
		var best, second *node
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
		if best == nil {
			return nil
		}
		if second != nil {
			id := m.base + replica
			if m.zoo {
				id = m.insts[replica]
			}
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
	key := req.Key
	if key < 0 {
		key = -key
	}
	replica := key % m.active

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
	c.submitted++
	instance := m.base + replica
	if m.zoo {
		instance = m.insts[replica] // tenant identity: never remap across variants
	}
	return n.srv.Submit(workload.Request{At: req.At, Instance: instance,
		PromptTokens: req.PromptTokens, OutputTokens: req.OutputTokens})
}

// scaleTick runs one autoscaler decision from the window's telemetry.
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
	if c.cfg.Autoscale.Policy == AutoscalePredictive {
		c.predictiveTick(perNodeDepth, coldRatio)
		return
	}
	as := c.cfg.Autoscale
	for _, name := range c.order {
		m := c.models[name]
		m.accrue(c.sim.Now())
		if m.zoo {
			// Zoo replicas are distinct tenants: consolidating them would
			// route one tenant's traffic to another's weights. The pinned
			// host cache is the zoo's elastic resource, not replica count.
			m.winArrivals = 0
			continue
		}
		before := m.active
		switch {
		case m.winArrivals == 0:
			// Idle window: drain toward the floor.
			if m.active > as.Min {
				m.active--
			}
		case perNodeDepth > as.QueueHigh && m.active < m.replicas:
			// Queue pressure: spread the model wider.
			m.active++
		case perNodeDepth < as.QueueLow && coldRatio > as.ColdHigh && m.active > as.Min:
			// Quiet but cold-heavy: consolidate to restore residency.
			m.active--
		}
		if m.active != before {
			if m.active > before {
				c.scaleUps++
				c.scalesC[0].Inc()
			} else {
				c.scaleDowns++
				c.scalesC[1].Inc()
			}
			m.activeG.Set(float64(m.active))
			if c.rec != nil {
				kind := "scale-up "
				if m.active < before {
					kind = "scale-down "
				}
				c.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "cluster",
					kind+m.name, c.sim.Now(), map[string]any{
						"model": m.name, "active": m.active,
						"queue_per_node": perNodeDepth, "cold_ratio": coldRatio,
					})
			}
		}
		m.winArrivals = 0
	}
	c.winArrivals = 0
	c.winQueueSum = 0
}

// predictiveTick runs one predictive autoscaler decision: each model's
// forecaster projects the peak arrival rate over the configured horizon,
// the target replica count is sized from the per-replica service rate at
// TargetUtil utilization, and the delta is actuated through the lifecycle
// — new replicas are *prewarmed* (DHA load starts now, before the spike)
// and demoted replicas are put to *sleep* on every node (GPU memory
// released, host copy kept) instead of being left to LRU eviction.
// perNodeDepth keeps the reactive queue signal as a safety valve against
// misprediction; coldRatio rides along for the trace.
func (c *Cluster) predictiveTick(perNodeDepth, coldRatio float64) {
	as := c.cfg.Autoscale
	now := c.sim.Now()
	for _, name := range c.order {
		m := c.models[name]
		m.accrue(now)
		if m.fc == nil {
			m.winArrivals = 0
			continue
		}
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
		if perNodeDepth > as.QueueHigh && target <= m.active && m.active < m.replicas {
			target = m.active + 1 // reactive safety valve: the forecast missed live queue pressure
		}
		if target < as.Min {
			target = as.Min
		}
		if target > m.replicas {
			target = m.replicas
		}
		if target < m.active && perNodeDepth >= as.QueueLow {
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
		before := m.active
		if target > m.active {
			for r := m.active; r < target; r++ {
				if n := c.prewarmNode(m, r); n != nil {
					n.srv.PrewarmInstance(m.base + r)
				}
			}
		} else if target < m.active {
			// Demote the replicas leaving the active set wherever they are
			// resident; SleepInstance is a no-op on nodes where the replica
			// is not idle-warm.
			for r := target; r < m.active; r++ {
				for _, n := range c.nodes {
					n.srv.SleepInstance(m.base + r)
				}
			}
		}
		m.active = target
		if m.active != before {
			if m.active > before {
				c.scaleUps++
				c.scalesC[0].Inc()
			} else {
				c.scaleDowns++
				c.scalesC[1].Inc()
			}
			m.activeG.Set(float64(m.active))
			if c.rec != nil {
				kind := "scale-up "
				if m.active < before {
					kind = "scale-down "
				}
				c.rec.InstantArgs(trace.ServerPID, trace.TIDLifecycle, "cluster",
					kind+m.name, now, map[string]any{
						"model": m.name, "active": m.active,
						"queue_per_node": perNodeDepth, "cold_ratio": coldRatio,
						"forecast_peak": pred.Peak,
					})
			}
		}
		m.winArrivals = 0
	}
	c.winArrivals = 0
	c.winQueueSum = 0
}

// prewarmNode picks the node to prewarm a replica on: the replica's
// rendezvous home under affinity routing (so the prewarmed residency is
// where its traffic will land), a replica-indexed spread otherwise. The
// router's round-robin cursor is deliberately not consulted — prewarm
// placement must not perturb request routing. Returns nil when every node
// is down.
func (c *Cluster) prewarmNode(m *modelState, replica int) *node {
	if c.cfg.Route == RouteAffinity {
		var best *node
		var bestScore uint64
		for _, n := range c.nodes {
			if n.down() {
				continue
			}
			if s := rendezvous(m.name, replica, n.id); best == nil || s > bestScore {
				best, bestScore = n, s
			}
		}
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
	for _, r := range requests {
		if _, ok := c.models[r.Model]; !ok {
			return nil, fmt.Errorf("cluster: request for unknown model %q", r.Model)
		}
	}
	var firstErr error
	for _, r := range requests {
		req := r
		c.sim.At(req.At, func() {
			if err := c.handle(req); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	var horizon sim.Time
	if len(requests) > 0 {
		horizon = requests[len(requests)-1].At
	}
	if c.cfg.Autoscale.Enabled && horizon > 0 {
		for t := sim.Time(0).Add(c.cfg.Autoscale.Interval); t <= horizon; t = t.Add(c.cfg.Autoscale.Interval) {
			c.sim.At(t, c.scaleTick)
		}
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
		for t := sim.Time(0).Add(c.slo.Interval()); t <= horizon; t = t.Add(c.slo.Interval()) {
			c.sim.At(t.Add(tickSkew), func() { c.slo.Tick(c.sim.Now()) })
		}
	}
	if c.mon != nil && c.cfg.MetricsWriter != nil && c.cfg.MetricsInterval > 0 && horizon > 0 {
		for t := sim.Time(0).Add(c.cfg.MetricsInterval); t <= horizon; t = t.Add(c.cfg.MetricsInterval) {
			c.sim.At(t.Add(tickSkew), c.exportTick)
		}
	}
	c.sim.Run()
	c.rec.MergeViews() // fold per-node trace buffers into one deterministic timeline
	if firstErr != nil {
		return nil, firstErr
	}
	return c.report(len(requests))
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

// Report summarizes a cluster run: merged percentile digests (overall and
// cold/warm split), aggregate serving counters, per-node shares, the
// autoscaler's trajectory, and the cluster-level telemetry aggregation.
type Report struct {
	Nodes    int
	Route    RoutePolicy
	Policy   serving.Policy
	Requests int
	Shed     int

	P50, P99, Max, Mean sim.Duration
	ColdP50, ColdP99    sim.Duration
	WarmP99             sim.Duration
	Goodput             float64

	ColdStarts  int
	Evictions   int
	Relocations int
	Deferred    int
	Retried     int
	GPUFailures int
	// HostHits / HostMisses / HostEvictions aggregate the nodes' pinned
	// host-cache tiers: misses are requests that paid a fetch-to-pin,
	// evictions are entries pushed out of host memory under capacity
	// pressure. Zero outside model-zoo (cache host policy) runs.
	HostHits      int
	HostMisses    int
	HostEvictions int
	// Lifecycle actuation totals across all nodes (predictive policy):
	// sleep demotions, direct-host-access wakes, prewarm actuations, and
	// swap-in round trips for sleeping copies that lost host residency.
	Sleeps   int
	Wakes    int
	Prewarms int
	SwapIns  int

	// Autoregressive-mode aggregates, zero unless Config.LLM was enabled.
	// In LLM mode the cold/warm percentiles above measure time-to-first-
	// token per class while P50/P99/Mean/Max cover full generation.
	TTFTP50, TTFTP99 sim.Duration
	TokensGenerated  int
	TokenRate        float64 // generated tokens per simulated second, fleet-wide
	DecodeIters      int
	MeanDecodeBatch  float64
	KVDeferred       int
	KVTransfers      int

	ScaleUps, ScaleDowns int
	Replicas             []ReplicaStat
	// Horizon is the virtual time at which the run quiesced — the billing
	// window for the replica-second integrals in Replicas.
	Horizon sim.Duration

	PerNode []NodeStat
	// Telemetry is the cluster-level aggregation of every node's windowed
	// telemetry; nil unless Config.Telemetry was set.
	Telemetry []metrics.TelemetryStat
	// Alerts is the SLO burn-rate monitor's alert log in firing order; nil
	// unless Config.Monitor and Config.Alerts were both set.
	Alerts []monitor.Alert
}

func (c *Cluster) report(requests int) (*Report, error) {
	if c.exportErr != nil {
		return nil, c.exportErr
	}
	r := &Report{
		Nodes:    len(c.nodes),
		Route:    c.cfg.Route,
		Policy:   c.cfg.Policy,
		Requests: requests,
	}
	end := c.sim.Now()
	var all, cold, warm, ttft metrics.Digest
	var decodeSeqSum int
	var perNode [][]metrics.TelemetryStat
	for _, n := range c.nodes {
		rep, err := n.srv.Finish()
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", n.id, err)
		}
		na, nc, nw := n.srv.Digests()
		all.Merge(na)
		cold.Merge(nc)
		warm.Merge(nw)
		r.Shed += rep.Shed
		r.ColdStarts += rep.ColdStarts
		r.Evictions += rep.Evictions
		r.Relocations += rep.Relocations
		r.Deferred += rep.Deferred
		r.Retried += rep.Retried
		r.GPUFailures += rep.GPUFailures
		r.HostHits += rep.HostHits
		r.HostMisses += rep.HostMisses
		r.HostEvictions += rep.HostEvictions
		r.Sleeps += rep.Sleeps
		r.Wakes += rep.Wakes
		r.Prewarms += rep.Prewarms
		r.SwapIns += rep.SwapIns
		if c.cfg.LLM.Enabled {
			ls := n.srv.LLMStats()
			ttft.Merge(ls.TTFT)
			r.TokensGenerated += ls.TokensGenerated
			r.DecodeIters += ls.DecodeIters
			decodeSeqSum += ls.DecodeSeqSum
			r.KVDeferred += ls.KVDeferred
			r.KVTransfers += ls.KVTransfers
		}
		r.PerNode = append(r.PerNode, NodeStat{
			Node:       n.id,
			Routed:     c.routed[n.id],
			ColdStarts: rep.ColdStarts,
			Evictions:  rep.Evictions,
			Shed:       rep.Shed,
			P99:        rep.P99,
		})
		if c.cfg.Telemetry {
			perNode = append(perNode, rep.Telemetry)
		}
	}
	if c.cfg.Telemetry {
		r.Telemetry = metrics.MergeTelemetry(perNode...)
	}
	r.P50, r.P99, r.Max, r.Mean = all.P50(), all.P99(), all.Max(), all.Mean()
	r.ColdP50, r.ColdP99 = cold.P50(), cold.P99()
	r.WarmP99 = warm.P99()
	r.Goodput = all.GoodputRate(c.cfg.SLO)
	if c.cfg.LLM.Enabled {
		r.TTFTP50, r.TTFTP99 = ttft.P50(), ttft.P99()
		if secs := end.Sub(0).Seconds(); secs > 0 {
			r.TokenRate = float64(r.TokensGenerated) / secs
		}
		if r.DecodeIters > 0 {
			r.MeanDecodeBatch = float64(decodeSeqSum) / float64(r.DecodeIters)
		}
	}
	r.ScaleUps, r.ScaleDowns = c.scaleUps, c.scaleDowns
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
			Model: m.name, Active: m.active, Max: m.replicas,
			ActiveSeconds: float64(m.activeNS) / 1e9,
		})
	}
	return r, nil
}
