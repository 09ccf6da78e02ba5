// Package capacity is the SLO-driven what-if planner over cluster
// configurations: it answers the operator question the paper's evaluation
// only gestures at — "what is the cheapest cluster that sustains R
// requests/second at SLO S?" — by treating the deterministic cluster
// simulator as a black-box oracle.
//
// Three pieces compose:
//
//   - a config space (Space): topology preset x nodes x cold-start policy x
//     autoscaling, enumerated as Points in a fixed grid order (every point
//     routes least-outstanding without batching);
//   - a dollar-cost model (Pricing): $/hr per topology preset per node,
//     prorated by the autoscaler's billed replica-seconds when a point runs
//     with autoscaling (serverless-style billing);
//   - a saturation search (Saturate): binary search over offered load for
//     the maximum rate at which the config still meets the SLO — goodput at
//     or above target, cold and warm p99 inside the SLO, nothing shed.
//
// Sweep fans the grid across the experiments worker pool (each point builds
// its own simulators, so points share nothing) and Analyze derives the
// cost-vs-capacity Pareto frontier, the cheapest configuration meeting a
// target rate, and the DeepPlan-vs-PipeSwitch capacity gap the paper's §5.3
// predicts. Everything is a pure function of (grid, spec, seed): the same
// inputs produce byte-identical plans serially, in parallel, and across
// reruns — the same guarantee every experiment in this repository makes,
// and the property LLMServingSim-class simulators sell for design-space
// exploration.
package capacity

import (
	"fmt"
	"math"

	"deepplan/internal/cluster"
	"deepplan/internal/dnn"
	"deepplan/internal/experiments/runner"
	"deepplan/internal/hostmem"
	"deepplan/internal/monitor"
	"deepplan/internal/registry"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/workload"
)

// Point is one cluster configuration in the search grid.
type Point struct {
	// Topology names a hardware preset: "p3.8xlarge", "dual-a5000-pcie4",
	// or "dgx-1v".
	Topology string `json:"topology"`
	// Nodes is the number of identical serving nodes behind the router.
	Nodes int `json:"nodes"`
	// Policy is the cold-start plan policy (the paper's legends).
	Policy serving.Policy `json:"policy"`
	// Route is the front-end routing policy.
	Route cluster.RoutePolicy `json:"route"`
	// MaxBatch is the per-node dynamic-batching limit (1 disables).
	MaxBatch int `json:"max_batch"`
	// Autoscale runs the replica controller from a 1-replica floor;
	// billing is then prorated by replica-seconds.
	Autoscale bool `json:"autoscale"`
	// AutoscalePolicy selects the controller algorithm for autoscaled
	// points (reactive or predictive); empty means reactive. Meaningless
	// — and normalized to empty — when Autoscale is false.
	AutoscalePolicy cluster.AutoscalePolicy `json:"autoscale_policy,omitempty"`
}

// String renders the point as a compact single-line label.
func (p Point) String() string {
	s := fmt.Sprintf("%s x%d %s %s mb%d", p.Topology, p.Nodes, p.Policy, p.Route, p.MaxBatch)
	if p.Autoscale {
		s += " auto"
		if p.AutoscalePolicy == cluster.AutoscalePredictive {
			s += "/pred"
		}
	}
	return s
}

// coords identifies everything about the point except the plan policy; the
// DeepPlan-vs-PipeSwitch gap is computed between points sharing coords.
func (p Point) coords() Point {
	p.Policy = ""
	return p
}

// Space is the cartesian config grid. Zero-length dimensions are invalid;
// use DefaultSpace for the standard grid. Route and max batch are not grid
// axes: every point routes least-outstanding with batching off.
type Space struct {
	Topologies []string         `json:"topologies"`
	Nodes      []int            `json:"nodes"`
	Policies   []serving.Policy `json:"policies"`
	Autoscale  []bool           `json:"autoscale"`
	// AutoscalePolicies expands each autoscaled grid entry into one point
	// per controller algorithm; empty means reactive only. Non-autoscaled
	// entries are never expanded (the policy is meaningless there).
	AutoscalePolicies []cluster.AutoscalePolicy `json:"autoscale_policies,omitempty"`
}

// DefaultSpace is the grid deepplan-capacity and fig-capacity search by
// default: both evaluation platforms, one and two nodes, the three
// competitive plan policies, no autoscaling.
func DefaultSpace() Space {
	return Space{
		Topologies: []string{"p3.8xlarge", "dual-a5000-pcie4"},
		Nodes:      []int{1, 2},
		Policies:   []serving.Policy{serving.PolicyPipeSwitch, serving.PolicyDHA, serving.PolicyPTDHA},
		Autoscale:  []bool{false},
	}
}

// Points enumerates the grid in a fixed nesting order (topology, nodes,
// policy, autoscale, autoscale-policy) — the order every sweep, table, and
// byte-identity guarantee is defined over. Autoscale policies only
// multiply autoscaled entries, so grids without predictive candidates
// enumerate exactly as before.
func (s Space) Points() []Point {
	asPolicies := s.AutoscalePolicies
	if len(asPolicies) == 0 {
		asPolicies = []cluster.AutoscalePolicy{cluster.AutoscaleReactive}
	}
	var out []Point
	for _, topo := range s.Topologies {
		for _, n := range s.Nodes {
			for _, pol := range s.Policies {
				for _, as := range s.Autoscale {
					pt := Point{Topology: topo, Nodes: n, Policy: pol,
						Route: cluster.RouteLeastOutstanding, MaxBatch: 1}
					if !as {
						out = append(out, pt)
						continue
					}
					pt.Autoscale = true
					for _, ap := range asPolicies {
						if ap == cluster.AutoscaleReactive {
							ap = "" // normalized: reactive is the zero policy
						}
						pt.AutoscalePolicy = ap
						out = append(out, pt)
					}
				}
			}
		}
	}
	return out
}

// Pricing maps a topology preset to its on-demand dollar cost per node-hour.
type Pricing map[string]float64

// DefaultPricing anchors the dollar model: the p3.8xlarge at AWS's
// on-demand rate, the dual-A5000 workstation at a typical GPU-cloud rate
// for two A5000s, and the DGX-1V at twice the p3.8xlarge (eight V100s vs
// four).
func DefaultPricing() Pricing {
	return Pricing{
		"p3.8xlarge":       12.24,
		"dual-a5000-pcie4": 2.20,
		"dgx-1v":           24.48,
	}
}

// topologyFactory resolves a preset name to its constructor.
func topologyFactory(name string) (func() *topology.Topology, error) {
	switch name {
	case "p3.8xlarge":
		return topology.P38xlarge, nil
	case "dual-a5000-pcie4":
		return topology.DualA5000PCIe4, nil
	case "dgx-1v":
		return topology.DGX1, nil
	default:
		return nil, fmt.Errorf("capacity: unknown topology preset %q", name)
	}
}

// Workload kinds for the saturation oracle.
const (
	// WorkloadPoisson offers open-loop Poisson arrivals (optionally
	// Zipf-skewed across replicas via SearchSpec.Skew).
	WorkloadPoisson = "poisson"
	// WorkloadMAF offers a synthetic Azure-Functions-like trace at the
	// candidate rate.
	WorkloadMAF = "maf"
)

// SearchSpec parameterizes the saturation search. A zero field selects its
// default (withDefaults); Validate rejects what no default repairs. Every
// field is part of the deterministic cache key of a plan.
type SearchSpec struct {
	// SLO is the latency target both percentile gates use. Default 300 ms.
	SLO sim.Duration `json:"slo_ns"`
	// GoodputTarget is the minimum fraction of requests inside the SLO for
	// a rate to count as sustained. Default 0.95.
	GoodputTarget float64 `json:"goodput_target"`
	// Workload is WorkloadPoisson (default) or WorkloadMAF.
	Workload string `json:"workload"`
	// Seed drives the arrival generator at every probed rate.
	Seed int64 `json:"seed"`
	// Skew, when positive, Zipf-skews instance popularity (Poisson only).
	Skew float64 `json:"skew"`
	// Duration is the offered-load window; each probe replays
	// rate x Duration requests. Default 8 s.
	Duration sim.Duration `json:"duration_ns"`
	// Model is deployed on every node. Default bert-base.
	Model string `json:"model"`
	// Replicas per node; the default 150 exceeds a p3.8xlarge's BERT-Base
	// warm capacity, so cold starts are structural and plan choice matters.
	Replicas int `json:"replicas"`
	// MinRate/MaxRate bound the binary search (requests/second); Step is
	// its resolution. Defaults 10 / 1200 / 10.
	MinRate int `json:"min_rate"`
	MaxRate int `json:"max_rate"`
	Step    int `json:"step"`
	// Zoo, when positive, replaces the Model/Replicas deployment with a
	// Zoo-variant model zoo (registry.New at the spec's Skew) deployed on
	// every node under the ZooPolicy host cache with dense packing —
	// capacity planning for massive multi-tenant serving. Poisson workload
	// only.
	Zoo int `json:"zoo,omitempty"`
	// ZooPolicy is the host pinned-cache eviction policy for zoo probes
	// ("lru" or "cost"). Default lru.
	ZooPolicy string `json:"zoo_policy,omitempty"`
}

// Validate rejects a spec the search cannot honour, naming the field: a
// negative or non-finite numeric field (zero selects the default), a
// GoodputTarget above 1, or a MaxRate not above MinRate. Sweep, Saturate
// and Confirm call it; commands call it to reject flags before any work.
func (s SearchSpec) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SLO", float64(s.SLO)},
		{"GoodputTarget", s.GoodputTarget},
		{"Skew", s.Skew},
		{"Duration", float64(s.Duration)},
		{"Replicas", float64(s.Replicas)},
		{"MinRate", float64(s.MinRate)},
		{"MaxRate", float64(s.MaxRate)},
		{"Step", float64(s.Step)},
		{"Zoo", float64(s.Zoo)},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("capacity: %s must be finite and not negative (zero selects the default)", f.name)
		}
	}
	if s.GoodputTarget > 1 {
		return fmt.Errorf("capacity: GoodputTarget %g is a fraction of requests; it must not exceed 1", s.GoodputTarget)
	}
	if d := s.withDefaults(); s.MaxRate > 0 && s.MaxRate <= d.MinRate {
		return fmt.Errorf("capacity: MaxRate %d must exceed MinRate %d", s.MaxRate, d.MinRate)
	}
	return nil
}

// WithWindow returns s with the search window deepplan-capacity and
// fig-capacity share: 6 s probes over 10-640 rps at a 20 rps step, or with
// quick a smoke pass of 2 s probes over 20-180 rps at a 40 rps step.
func (s SearchSpec) WithWindow(quick bool) SearchSpec {
	s.Duration, s.MinRate, s.MaxRate, s.Step = 6*sim.Second, 10, 640, 20
	if quick {
		s.Duration, s.MinRate, s.MaxRate, s.Step = 2*sim.Second, 20, 180, 40
	}
	return s
}

func (s SearchSpec) withDefaults() SearchSpec {
	if s.SLO <= 0 {
		s.SLO = 300 * sim.Millisecond
	}
	if s.GoodputTarget <= 0 {
		s.GoodputTarget = 0.95
	}
	if s.Workload == "" {
		s.Workload = WorkloadPoisson
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Duration <= 0 {
		s.Duration = 8 * sim.Second
	}
	if s.Model == "" {
		s.Model = "bert-base"
	}
	if s.Replicas <= 0 {
		s.Replicas = 150
	}
	if s.MinRate <= 0 {
		s.MinRate = 10
	}
	if s.MaxRate <= s.MinRate {
		s.MaxRate = s.MinRate + 1190
	}
	if s.Step <= 0 {
		s.Step = 10
	}
	if s.Zoo > 0 && s.ZooPolicy == "" {
		s.ZooPolicy = string(hostmem.PolicyLRU)
	}
	return s
}

// zoo derives the spec's model zoo (Zoo > 0 only). Derivation is a pure
// function of (Zoo, Skew), so probes and cached plans agree on it.
func (s SearchSpec) zoo() (*registry.Zoo, error) {
	return registry.New(registry.Spec{N: s.Zoo, Skew: s.Skew})
}

// requests generates the arrival sequence offered at the probed rate,
// addressed through c's deployment. The sequence is a pure function of
// (spec, rate): the oracle never shares state between probes.
func (s SearchSpec) requests(c *cluster.Cluster, rate int) ([]cluster.Request, error) {
	if s.Zoo > 0 {
		if s.Workload != WorkloadPoisson {
			return nil, fmt.Errorf("capacity: zoo mode supports the poisson workload only, got %q", s.Workload)
		}
		z, err := s.zoo()
		if err != nil {
			return nil, err
		}
		n := int(float64(rate)*s.Duration.Seconds() + 0.5)
		return cluster.ZooRequests(z, z.Requests(s.Seed, float64(rate), n)), nil
	}
	var raw []workload.Request
	switch s.Workload {
	case WorkloadPoisson:
		n := int(float64(rate)*s.Duration.Seconds() + 0.5)
		raw = workload.PoissonZipf(s.Seed, float64(rate), n, s.Replicas, s.Skew)
	case WorkloadMAF:
		tr, err := workload.MAFLike(workload.TraceSpec{
			Seed:         s.Seed,
			Duration:     s.Duration,
			TotalRate:    float64(rate),
			NumFunctions: s.Replicas,
		})
		if err != nil {
			return nil, err
		}
		raw = tr.Requests
	default:
		return nil, fmt.Errorf("capacity: unknown workload %q", s.Workload)
	}
	return c.Requests(raw)
}

// probe is one oracle evaluation: the cluster's behaviour at a single
// offered rate.
type probe struct {
	feasible      bool
	goodput       float64
	p99           sim.Duration
	coldP99       sim.Duration
	warmP99       sim.Duration
	coldStarts    int
	activeSeconds float64
	maxSeconds    float64
}

// evaluate runs one fresh cluster at the probed rate and gates it against
// the spec: sustained means goodput at target, cold and warm p99 inside
// the SLO, and nothing shed. reg and alerts wire a metrics registry and SLO
// alert config into the cluster; the search passes nil for both, which
// keeps probes monitoring-free and cheap.
func evaluate(pt Point, spec SearchSpec, rate int, reg *monitor.Registry, alerts *monitor.SLOConfig) (probe, *cluster.Report, error) {
	newTopo, err := topologyFactory(pt.Topology)
	if err != nil {
		return probe{}, nil, err
	}
	var as cluster.AutoscaleConfig
	if pt.Autoscale {
		as = cluster.AutoscaleConfig{
			Enabled: true, Interval: sim.Second, Policy: pt.AutoscalePolicy,
		}
	}
	ccfg := cluster.Config{
		Nodes:       pt.Nodes,
		NewTopology: newTopo,
		Policy:      pt.Policy,
		Route:       pt.Route,
		SLO:         spec.SLO,
		MaxBatch:    pt.MaxBatch,
		Autoscale:   as,
		Monitor:     reg,
		Alerts:      alerts,
	}
	if spec.Zoo > 0 {
		ccfg.HostPolicy = hostmem.Policy(spec.ZooPolicy)
		ccfg.Pack = serving.PackDense
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		return probe{}, nil, err
	}
	if spec.Zoo > 0 {
		z, err := spec.zoo()
		if err != nil {
			return probe{}, nil, err
		}
		if err := c.DeployZoo(z); err != nil {
			return probe{}, nil, err
		}
	} else {
		model, err := dnn.ByName(spec.Model)
		if err != nil {
			return probe{}, nil, err
		}
		if err := c.Deploy(model, spec.Replicas); err != nil {
			return probe{}, nil, err
		}
	}
	c.Warmup()
	reqs, err := spec.requests(c, rate)
	if err != nil {
		return probe{}, nil, err
	}
	rep, err := c.Run(reqs)
	if err != nil {
		return probe{}, nil, err
	}
	p := probe{
		goodput:    rep.Goodput,
		p99:        rep.P99,
		coldP99:    rep.ColdP99,
		warmP99:    rep.WarmP99,
		coldStarts: rep.ColdStarts,
	}
	for _, rs := range rep.Replicas {
		p.activeSeconds += rs.ActiveSeconds
		p.maxSeconds += float64(rs.Max) * rep.Horizon.Seconds()
	}
	p.feasible = rep.Goodput >= spec.GoodputTarget &&
		rep.ColdP99 <= spec.SLO &&
		rep.WarmP99 <= spec.SLO &&
		rep.Shed == 0
	return p, rep, nil
}

// Confirmation is the monitored re-run of a plan's recommended (or any
// chosen) configuration: the full registry of the run at the sustained
// rate, plus any SLO burn-rate alerts it raised. A capacity answer that
// pages its own SLO monitor during confirmation is not an answer.
type Confirmation struct {
	// Rate is the offered load of the confirmation run: the result's
	// sustained rate, or the search floor when it sustained nothing.
	Rate int
	// Registry holds every metric of the confirmation run; export it with
	// WriteOpenMetrics.
	Registry *monitor.Registry
	// Alerts is the burn-rate monitor's alert log (empty when the
	// configuration honestly sustains the rate).
	Alerts []monitor.Alert
}

// Confirm re-runs one saturation result's configuration at its sustained
// rate with full monitoring attached. The search itself stays
// monitoring-free; this is the one extra oracle call that turns a plan
// into an auditable artifact — dashboards from Registry, a clean (or not)
// alert log from the burn-rate monitor.
func Confirm(r Result, spec SearchSpec) (*Confirmation, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	rate := r.SustainedRPS
	if rate <= 0 {
		rate = spec.MinRate
	}
	reg := monitor.New()
	_, rep, err := evaluate(r.Point, spec, rate, reg, &monitor.SLOConfig{})
	if err != nil {
		return nil, err
	}
	return &Confirmation{Rate: rate, Registry: reg, Alerts: rep.Alerts}, nil
}

// Result is one grid point's saturation outcome with its dollar economics.
// Latency fields describe the run at the sustained rate (or at MinRate when
// the point cannot sustain even that).
type Result struct {
	Point Point `json:"point"`
	// SustainedRPS is the highest probed rate meeting every gate; 0 when
	// the point fails at MinRate.
	SustainedRPS int `json:"sustained_rps"`
	// CostPerHour is nodes x preset $/hr, prorated by Utilization for
	// autoscaled points.
	CostPerHour float64 `json:"cost_per_hour"`
	// RPSPerDollar is the headline value metric: sustained rps per $/hr.
	RPSPerDollar float64 `json:"rps_per_dollar"`
	// Utilization is billed replica-seconds over deployed replica-seconds
	// at the sustained rate (1 with autoscaling off).
	Utilization float64 `json:"utilization"`
	Goodput     float64 `json:"goodput"`
	P99Ms       float64 `json:"p99_ms"`
	ColdP99Ms   float64 `json:"cold_p99_ms"`
	WarmP99Ms   float64 `json:"warm_p99_ms"`
	ColdStarts  int     `json:"cold_starts"`
	// Evals counts oracle runs the binary search spent on this point.
	Evals int `json:"evals"`
	// OnFrontier marks cost-vs-capacity Pareto-optimal points (set by
	// Analyze).
	OnFrontier bool `json:"on_frontier"`
}

// Saturate binary-searches offered load for the point's maximum sustainable
// rate under the spec and prices the result. The search maintains a
// known-good low and known-bad high rate; each probe builds a fresh
// cluster, so the sequence of probes — and therefore the result — is a
// pure function of (point, spec).
func Saturate(pt Point, spec SearchSpec, pricing Pricing) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	spec = spec.withDefaults()
	price, ok := pricing[pt.Topology]
	if !ok {
		return Result{}, fmt.Errorf("capacity: no price for topology %q", pt.Topology)
	}
	// Every probed rate is distinct: MinRate, MaxRate and midpoints strictly
	// between the bracket. best is the probe at the sustained rate (MinRate's
	// probe, which proved infeasibility, when nothing is sustained).
	evals := 0
	eval := func(rate int) (probe, error) {
		evals++
		p, _, err := evaluate(pt, spec, rate, nil, nil)
		return p, err
	}

	sustained := 0
	best, err := eval(spec.MinRate)
	if err != nil {
		return Result{}, err
	}
	if best.feasible {
		sustained = spec.MinRate
		p, err := eval(spec.MaxRate)
		if err != nil {
			return Result{}, err
		}
		if p.feasible {
			sustained, best = spec.MaxRate, p
		} else {
			lo, hi := spec.MinRate, spec.MaxRate
			for hi-lo > spec.Step {
				mid := lo + (hi-lo)/2
				p, err := eval(mid)
				if err != nil {
					return Result{}, err
				}
				if p.feasible {
					lo, best = mid, p
				} else {
					hi = mid
				}
			}
			sustained = lo
		}
	}

	r := Result{
		Point:        pt,
		SustainedRPS: sustained,
		Utilization:  1,
		Goodput:      best.goodput,
		P99Ms:        best.p99.Seconds() * 1e3,
		ColdP99Ms:    best.coldP99.Seconds() * 1e3,
		WarmP99Ms:    best.warmP99.Seconds() * 1e3,
		ColdStarts:   best.coldStarts,
		Evals:        evals,
	}
	r.CostPerHour = price * float64(pt.Nodes)
	if pt.Autoscale && best.maxSeconds > 0 {
		r.Utilization = best.activeSeconds / best.maxSeconds
		r.CostPerHour *= r.Utilization
	}
	if r.CostPerHour > 0 {
		r.RPSPerDollar = float64(sustained) / r.CostPerHour
	}
	return r, nil
}

// Sweep saturates every grid point across a bounded worker pool (0 or 1
// workers computes serially). Points share nothing — each probe builds its
// own simulator, topologies, and workload — so the result slice is
// byte-identical for every worker count, the same guarantee the experiment
// harness makes. Before the first probe it rejects an invalid spec
// (Validate), autoscaled points in a zoo plan, unknown autoscale policies,
// and policies with no such point.
func Sweep(space Space, spec SearchSpec, pricing Pricing, workers int) ([]Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	points := space.Points()
	if len(points) == 0 {
		return nil, fmt.Errorf("capacity: empty config space")
	}
	autoscaled := false
	for _, pt := range points {
		if !pt.Autoscale {
			continue
		}
		autoscaled = true
		if spec.Zoo > 0 {
			return nil, fmt.Errorf("capacity: zoo tenants are fixed identities; the autoscaler does not apply (%s)", pt)
		}
		if _, err := cluster.ParseAutoscalePolicy(string(pt.AutoscalePolicy)); err != nil {
			return nil, fmt.Errorf("capacity: %w", err)
		}
	}
	if len(space.AutoscalePolicies) > 0 && !autoscaled {
		return nil, fmt.Errorf("capacity: autoscale policies %v pin the autoscaled grid entries, but no point autoscales", space.AutoscalePolicies)
	}
	results := make([]Result, len(points))
	err := runner.ForEach(workers, len(points), func(i int) error {
		r, err := Saturate(points[i], spec, pricing)
		if err != nil {
			return fmt.Errorf("%s: %w", points[i], err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
