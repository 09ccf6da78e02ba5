package cluster

import (
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/hostmem"
	"deepplan/internal/monitor"
	"deepplan/internal/registry"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/trace"
	"deepplan/internal/workload"
)

// toCluster maps a single-server workload onto cluster arrivals: the
// instance index becomes the routing key, so key k's requests target
// replica k of the model cluster-wide.
func toCluster(model string, reqs []workload.Request) []Request {
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		out[i] = Request{At: r.At, Model: model, Key: r.Instance}
	}
	return out
}

func newBERTCluster(t *testing.T, cfg Config, replicas int) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := dnn.ByName("bert-base")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if replicas <= 0 {
		// Default: enough replicas that residency cannot cover them all,
		// so every policy sees cold starts (per-node warm capacity for
		// BERT-Base on a p3.8xlarge is well under 180).
		replicas = 180
	}
	if err := c.Deploy(m, replicas); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if cap := c.nodes[0].srv.WarmCapacity(); replicas == 180 && cap >= replicas {
		t.Fatalf("test premise broken: warm capacity %d >= %d replicas", cap, replicas)
	}
	c.Warmup()
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("want error for zero nodes")
	}
	if _, err := New(Config{Nodes: 1, Route: "random"}); err == nil {
		t.Fatal("want error for unknown route policy")
	}
}

func TestDeployValidation(t *testing.T) {
	c, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-base")
	if err := c.Deploy(m, 0); err == nil {
		t.Fatal("want error for zero replicas")
	}
	if err := c.Deploy(m, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(m, 4); err == nil {
		t.Fatal("want error for duplicate deploy")
	}
	if _, err := c.Run([]Request{{Model: "nope"}}); err == nil {
		t.Fatal("want error for unknown model")
	}
}

func TestClusterRunCompletes(t *testing.T) {
	c := newBERTCluster(t, Config{Nodes: 2, Telemetry: true}, 0)
	reqs := toCluster("BERT-Base", workload.Poisson(7, 100, 800, c.models["BERT-Base"].active))
	rep, err := c.Run(reqs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 800 {
		t.Fatalf("Requests = %d, want 800", rep.Requests)
	}
	routed := 0
	for _, ns := range rep.PerNode {
		routed += ns.Routed
	}
	if routed != 800 {
		t.Fatalf("routed %d of 800 requests", routed)
	}
	if rep.P99 <= 0 || rep.Mean <= 0 {
		t.Fatalf("degenerate latency stats: %+v", rep)
	}
	if rep.ColdStarts == 0 {
		t.Fatal("expected cold starts with replicas above warm capacity")
	}
	if rep.ColdP99 <= rep.WarmP99 {
		t.Fatalf("cold p99 %v should exceed warm p99 %v", rep.ColdP99, rep.WarmP99)
	}
	if w := c.Windows(); len(w) == 0 || w[0].Arrivals == 0 {
		t.Fatal("telemetry requested but empty")
	}
	if len(rep.Replicas) != 1 || rep.Replicas[0].Active != rep.Replicas[0].Max {
		t.Fatalf("without autoscaling all replicas stay active: %+v", rep.Replicas)
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	c := newBERTCluster(t, Config{Nodes: 4, Route: RouteRoundRobin}, 40)
	reqs := toCluster("BERT-Base", workload.Poisson(3, 80, 400, 40))
	rep, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range rep.PerNode {
		if ns.Routed != 100 {
			t.Fatalf("round-robin should route exactly 100 to each node: %+v", rep.PerNode)
		}
	}
}

func TestAffinityIsStableAndSticky(t *testing.T) {
	c := newBERTCluster(t, Config{Nodes: 3, Route: RouteAffinity}, 30)
	m := c.models["BERT-Base"]
	// With an idle cluster the tie-break never fires, so routing is the pure
	// rendezvous placement: repeated calls for one replica pin one node, and
	// the replicas spread across nodes rather than piling on one.
	byNode := map[int]int{}
	for r := 0; r < m.active; r++ {
		first := c.route(m, r)
		for i := 0; i < 3; i++ {
			if n := c.route(m, r); n != first {
				t.Fatalf("replica %d moved from node %d to node %d while idle", r, first.id, n.id)
			}
		}
		byNode[first.id]++
	}
	if len(byNode) != 3 {
		t.Fatalf("rendezvous placement used %d of 3 nodes: %v", len(byNode), byNode)
	}
}

func TestAffinityTieBreakSpills(t *testing.T) {
	c := newBERTCluster(t, Config{Nodes: 2, Route: RouteAffinity}, 8)
	m := c.models["BERT-Base"]
	home := c.route(m, 0)
	// Pile outstanding work onto the home node without advancing the clock:
	// submitted runs stay queued until the simulator runs.
	for i := 0; i < 5; i++ {
		if err := home.srv.Submit(workload.Request{At: 0, Instance: m.insts[0]}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.route(m, 0); got == home {
		t.Fatal("affinity should spill to the less-loaded second-choice node")
	}
	c.sim.Run()
	for _, n := range c.nodes {
		if _, err := n.srv.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeastOutstandingBeatsRoundRobinColdP99 is the cluster-level payoff:
// with replicas above warm capacity, cold starts are inevitable, and a
// load-aware router keeps them off congested nodes. Round-robin convoys
// cold loads behind busy queues; least-outstanding steers them to the
// shortest queue, cutting the cold-start tail.
func TestLeastOutstandingBeatsRoundRobinColdP99(t *testing.T) {
	run := func(route RoutePolicy) *Report {
		c := newBERTCluster(t, Config{Nodes: 2, Route: route}, 0)
		reqs := toCluster("BERT-Base", workload.Poisson(42, 160, 1200, c.models["BERT-Base"].active))
		rep, err := c.Run(reqs)
		if err != nil {
			t.Fatalf("Run(%s): %v", route, err)
		}
		return rep
	}
	rr := run(RouteRoundRobin)
	lo := run(RouteLeastOutstanding)
	if lo.ColdP99 >= rr.ColdP99 {
		t.Fatalf("least-outstanding cold p99 %v should beat round-robin %v",
			lo.ColdP99, rr.ColdP99)
	}
}

func TestAutoscalerScalesUpUnderLoad(t *testing.T) {
	c, err := New(Config{
		Nodes: 2,
		Autoscale: AutoscaleConfig{
			Enabled:  true,
			Interval: sim.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-base")
	if err := c.Deploy(m, 16); err != nil {
		t.Fatal(err)
	}
	c.Warmup()
	if got := c.models["BERT-Base"].active; got != 1 {
		t.Fatalf("autoscaled model should start at the floor, got %d active", got)
	}
	// Hammer one active replica: queue depth blows past QueueHigh and the
	// controller must widen the model.
	reqs := toCluster("BERT-Base", workload.Poisson(5, 300, 3000, 1))
	rep, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScaleUps == 0 {
		t.Fatal("sustained queue pressure should trigger scale-ups")
	}
	if rep.Replicas[0].Active <= 1 {
		t.Fatalf("active replicas should grow under load: %+v", rep.Replicas)
	}
	if rep.Replicas[0].Active > rep.Replicas[0].Max {
		t.Fatalf("active replicas exceeded deployed ceiling: %+v", rep.Replicas)
	}
}

func TestAutoscalerDrainsWhenIdle(t *testing.T) {
	c, err := New(Config{
		Nodes: 2,
		Autoscale: AutoscaleConfig{
			Enabled:  true,
			Interval: sim.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-base")
	if err := c.Deploy(m, 8); err != nil {
		t.Fatal(err)
	}
	c.models["BERT-Base"].active = 4 // as if a burst had widened it
	// A brief burst at t=0 followed by a long idle tail: the idle windows
	// must drain active replicas back toward the floor.
	reqs := toCluster("BERT-Base", workload.Poisson(9, 200, 50, 4))
	reqs = append(reqs, Request{At: 20 * sim.Time(sim.Second), Model: "BERT-Base", Key: 0})
	rep, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScaleDowns == 0 {
		t.Fatal("idle windows should trigger scale-downs")
	}
	if rep.Replicas[0].Active >= 4 {
		t.Fatalf("active replicas should shrink when idle: %+v", rep.Replicas)
	}
}

func TestReplicaSecondsWithoutAutoscale(t *testing.T) {
	// With autoscaling off every deployed replica is active for the whole
	// run, so the billed integral is exactly Max x Horizon.
	c := newBERTCluster(t, Config{Nodes: 1}, 8)
	rep, err := c.Run(toCluster("BERT-Base", workload.Poisson(3, 100, 200, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Horizon <= 0 {
		t.Fatalf("horizon = %v", rep.Horizon)
	}
	want := 8 * rep.Horizon.Seconds()
	got := rep.Replicas[0].ActiveSeconds
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("ActiveSeconds = %v, want %v (8 replicas x %v)", got, want, rep.Horizon)
	}
}

func TestReplicaSecondsProratedUnderAutoscale(t *testing.T) {
	c, err := New(Config{
		Nodes:     2,
		Autoscale: AutoscaleConfig{Enabled: true, Interval: sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-base")
	if err := c.Deploy(m, 16); err != nil {
		t.Fatal(err)
	}
	c.Warmup()
	// Load for a few seconds, then a long idle tail: the integral must sit
	// strictly between the floor (1 x horizon) and the ceiling (16 x
	// horizon), i.e. actually track the autoscaler's trajectory.
	reqs := toCluster("BERT-Base", workload.Poisson(5, 300, 1500, 1))
	reqs = append(reqs, Request{At: 30 * sim.Time(sim.Second), Model: "BERT-Base", Key: 0})
	rep, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScaleUps == 0 || rep.ScaleDowns == 0 {
		t.Fatalf("want both scale directions exercised: %d up, %d down", rep.ScaleUps, rep.ScaleDowns)
	}
	horizon := rep.Horizon.Seconds()
	got := rep.Replicas[0].ActiveSeconds
	if got <= 1*horizon || got >= 16*horizon {
		t.Fatalf("ActiveSeconds = %v not strictly inside (%v, %v)", got, horizon, 16*horizon)
	}
}

func TestClusterTraceHasPerNodeTracks(t *testing.T) {
	rec := trace.New()
	c, err := New(Config{Nodes: 2, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-base")
	if err := c.Deploy(m, 8); err != nil {
		t.Fatal(err)
	}
	c.Warmup()
	if _, err := c.Run(toCluster("BERT-Base", workload.Poisson(2, 50, 100, 8))); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("traced cluster run recorded no events")
	}
	// Both nodes' PID ranges must appear: node 1's GPUs start at stride
	// numGPUs+2 = 6 on a 4-GPU topology.
	seen := map[int]bool{}
	for _, e := range rec.Events() {
		seen[e.PID] = true
	}
	node1 := false
	for pid := range seen { // deterministic: only existence is checked
		if pid >= 6 && pid < 12 {
			node1 = true
		}
	}
	if !node1 {
		t.Fatalf("no events recorded in node 1's PID range; PIDs seen: %v", seen)
	}
	// Viewers pair async begin/end events by (cat, id) alone, so an async
	// id shared by two processes would nest one node's request under
	// another's.
	type key struct {
		cat string
		id  int64
	}
	owner := map[key]int{}
	for _, e := range rec.Events() {
		if e.Phase != trace.PhaseAsyncBegin && e.Phase != trace.PhaseAsyncEnd {
			continue
		}
		k := key{e.Cat, e.ID}
		if pid, ok := owner[k]; ok && pid != e.PID {
			t.Fatalf("async (%s, %d) appears on pids %d and %d", k.cat, k.id, pid, e.PID)
		}
		owner[k] = e.PID
	}
}

func TestRendezvousIsPureAndSpreads(t *testing.T) {
	if rendezvous("m", 1, 2) != rendezvous("m", 1, 2) {
		t.Fatal("rendezvous must be deterministic")
	}
	if rendezvous("m", 1, 2) == rendezvous("m", 1, 3) {
		t.Fatal("distinct nodes should score differently")
	}
	if rendezvous("m", 1, 2) == rendezvous("n", 1, 2) {
		t.Fatal("distinct models should score differently")
	}
}

// burstTrain builds a deterministic periodic-burst arrival sequence: every
// `every`, `n` requests land spread evenly over `width`, keyed round-robin
// across `keys` replicas. The regularity is what the predictive
// controller's forecaster must latch onto.
func burstTrain(model string, bursts, n int, every, width sim.Duration, keys int) []Request {
	var out []Request
	k := 0
	for b := 0; b < bursts; b++ {
		base := sim.Time(b) * sim.Time(every)
		for i := 0; i < n; i++ {
			at := base + sim.Time(i)*sim.Time(width)/sim.Time(n)
			out = append(out, Request{At: at, Model: model, Key: k})
			k = (k + 1) % keys
		}
	}
	return out
}

// TestPredictivePrewarmsBeforeBursts drives a strictly periodic burst
// train through the predictive controller: after a few periods the
// forecaster has the cadence, so the cluster must prewarm replicas ahead
// of bursts and put them to sleep in the idle gaps between bursts —
// exercising every lifecycle actuation from the controller side.
func TestPredictivePrewarmsBeforeBursts(t *testing.T) {
	c, err := New(Config{
		Nodes: 2,
		Autoscale: AutoscaleConfig{
			Enabled:  true,
			Interval: sim.Second,
			Policy:   AutoscalePredictive,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-base")
	if err := c.Deploy(m, 16); err != nil {
		t.Fatal(err)
	}
	c.Warmup()
	if got := c.models["BERT-Base"].active; got != 1 {
		t.Fatalf("predictive model should start at the floor, got %d active", got)
	}
	reqs := burstTrain("BERT-Base", 8, 300, 5*sim.Second, 500*sim.Millisecond, 16)
	rep, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rep.ScaleUps == 0 {
		t.Fatal("periodic bursts should trigger predictive scale-ups")
	}
	if rep.Prewarms == 0 {
		t.Fatal("predictive scale-ups should actuate through prewarms")
	}
	if rep.Sleeps == 0 {
		t.Fatal("idle gaps between bursts should demote replicas to sleep")
	}
	if rep.Wakes == 0 {
		t.Fatal("prewarming slept replicas before the next burst should count wakes")
	}
	if rep.Replicas[0].Active > rep.Replicas[0].Max {
		t.Fatalf("active replicas exceeded deployed ceiling: %+v", rep.Replicas)
	}
}

func TestParseAutoscalePolicy(t *testing.T) {
	for in, want := range map[string]AutoscalePolicy{
		"":           AutoscaleReactive,
		"reactive":   AutoscaleReactive,
		"predictive": AutoscalePredictive,
	} {
		got, err := ParseAutoscalePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseAutoscalePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseAutoscalePolicy("oracle"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestDeployZooRefusesAutoscale pins the refusal at the cluster API:
// autoscaling consolidates replicas of one model by ordinal, which for a
// zoo would conflate distinct tenants — the combination must fail loudly
// at Deploy time under both controller policies, not be silently ignored.
func TestDeployZooRefusesAutoscale(t *testing.T) {
	for _, pol := range []AutoscalePolicy{AutoscaleReactive, AutoscalePredictive} {
		c, err := New(Config{
			Nodes:      1,
			HostPolicy: hostmem.PolicyCostAware,
			Autoscale:  AutoscaleConfig{Enabled: true, Interval: sim.Second, Policy: pol},
		})
		if err != nil {
			t.Fatal(err)
		}
		z, err := registry.New(registry.Spec{N: 8})
		if err != nil {
			t.Fatal(err)
		}
		err = c.DeployZoo(z)
		if err == nil {
			t.Fatalf("policy %q: zoo deployed under autoscaling; want refusal", pol)
		}
		if !strings.Contains(err.Error(), "zoo") {
			t.Fatalf("policy %q: refusal does not explain itself: %v", pol, err)
		}
		// The refusal must leave the cluster clean: no half-deployed tenants.
		if len(c.models) != 0 || len(c.order) != 0 {
			t.Fatalf("policy %q: refused zoo left %d models behind", pol, len(c.models))
		}
	}
}

// The zoo refusal covers LLM mode too, before any variant deploys.
func TestDeployZooRefusesLLM(t *testing.T) {
	c, err := New(Config{Nodes: 2, HostPolicy: hostmem.PolicyLRU,
		LLM: serving.LLMConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	z, err := registry.New(registry.Spec{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeployZoo(z); !errors.Is(err, serving.ErrZooLLM) {
		t.Fatalf("zoo deployed in LLM mode: %v", err)
	}
	if len(c.models) != 0 || c.nodes[0].srv.NumInstances() != 0 {
		t.Fatalf("refused zoo left %d models behind", len(c.models))
	}
}

// New parses the autoscale policy whether or not the controller is on: an
// unknown policy is an error, and so is a policy with no controller to
// steer.
func TestAutoscalePolicyValidation(t *testing.T) {
	for _, pol := range []AutoscalePolicy{"", AutoscaleReactive, AutoscalePredictive} {
		c, err := New(Config{Nodes: 1, Autoscale: AutoscaleConfig{Enabled: true, Policy: pol}})
		if err != nil {
			t.Fatalf("autoscale policy %q rejected: %v", pol, err)
		}
		if pol == "" && c.cfg.Autoscale.Policy != AutoscaleReactive {
			t.Fatalf("empty policy normalized to %q, want reactive", c.cfg.Autoscale.Policy)
		}
	}
	_, err := New(Config{Nodes: 1, Autoscale: AutoscaleConfig{Policy: AutoscalePredictive}})
	if err == nil || !strings.Contains(err.Error(), "Autoscale.Enabled") {
		t.Fatalf("policy without the controller: got %v, want an error naming Autoscale.Enabled", err)
	}
	for _, enabled := range []bool{false, true} {
		_, err := New(Config{Nodes: 1, Autoscale: AutoscaleConfig{Enabled: enabled, Policy: "oracle"}})
		if err == nil || !strings.Contains(err.Error(), "oracle") {
			t.Fatalf("unknown policy (enabled=%v): got %v", enabled, err)
		}
	}
}

// Zero selects a field's default; a negative or non-finite value, or a
// tick interval under a millisecond, is an error that names the field,
// including the fields New hands down to every node.
func TestNegativeConfigRejected(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"SLO", func(c *Config) { c.SLO = -sim.Millisecond }},
		{"MetricsInterval", func(c *Config) { c.MetricsInterval = -sim.Second }},
		{"MetricsInterval", func(c *Config) {
			c.MetricsInterval, c.Monitor, c.MetricsWriter = sim.Microsecond, monitor.New(), io.Discard
		}},
		{"Autoscale.Interval", func(c *Config) { c.Autoscale = AutoscaleConfig{Enabled: true, Interval: -sim.Second} }},
		{"Autoscale.Interval", func(c *Config) { c.Autoscale = AutoscaleConfig{Enabled: true, Interval: sim.Microsecond} }},
		{"Autoscale.Horizon", func(c *Config) { c.Autoscale = AutoscaleConfig{Enabled: true, Horizon: -sim.Second} }},
		{"Autoscale.TargetUtil", func(c *Config) { c.Autoscale = AutoscaleConfig{Enabled: true, TargetUtil: -0.5} }},
		{"Autoscale.TargetUtil", func(c *Config) { c.Autoscale = AutoscaleConfig{Enabled: true, TargetUtil: math.NaN()} }},
		{"Autoscale.TargetUtil", func(c *Config) { c.Autoscale = AutoscaleConfig{Enabled: true, TargetUtil: math.Inf(1)} }},
		{"HostMemory", func(c *Config) { c.HostMemory = -1 }},
		{"HostFetchBandwidth", func(c *Config) { c.HostFetchBandwidth = -1 }},
		{"HostFetchBandwidth", func(c *Config) { c.HostFetchBandwidth = math.NaN() }},
		{"AdmitFactor", func(c *Config) { c.AdmitFactor = math.Inf(1) }},
		{"MaxBatch", func(c *Config) { c.MaxBatch = -1 }},
		{"LLM.TokenBudget", func(c *Config) { c.LLM = serving.LLMConfig{Enabled: true, TokenBudget: -1} }},
		{"LLM.MaxOutput", func(c *Config) { c.LLM = serving.LLMConfig{Enabled: true, MaxOutput: -1} }},
	} {
		cfg := Config{Nodes: 1}
		tc.set(&cfg)
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field+" ") {
			t.Errorf("bad %s: got %v, want an error naming the field", tc.field, err)
		}
	}
}

// Run refuses an arrival it cannot replay faithfully, naming it: an
// unknown model, a negative instant, or an instant earlier than the one
// before it. The tick horizon is the last arrival, so an unsorted slice
// would silently end the autoscaler, SLO and export ticks early.
func TestRunRejectsBadArrivals(t *testing.T) {
	for _, tc := range []struct {
		name string
		reqs []Request
		want string
	}{
		{"unknown model", []Request{{Model: "BERT-Base"}, {At: sim.Time(sim.Second), Model: "GPT-9"}}, `"GPT-9"`},
		{"negative time", []Request{{Model: "BERT-Base"}, {At: math.MinInt64, Model: "BERT-Base"}}, "request 1 "},
		{"out of order", []Request{
			{At: sim.Time(2 * sim.Second), Model: "BERT-Base"},
			{At: sim.Time(sim.Second), Model: "BERT-Base", Key: 1},
		}, "request 1 arrives at 1s, before request 0"},
	} {
		c := newBERTCluster(t, Config{Nodes: 1}, 2)
		if _, err := c.Run(tc.reqs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestMetricsIntervalNeedsExport checks that an interval export is refused
// unless it has both a registry to snapshot and a writer to append to.
func TestMetricsIntervalNeedsExport(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no monitor": {Nodes: 1, MetricsInterval: sim.Second, MetricsWriter: io.Discard},
		"no writer":  {Nodes: 1, MetricsInterval: sim.Second, Monitor: monitor.New()},
	} {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "MetricsInterval") {
			t.Errorf("%s: got %v, want an error naming MetricsInterval", name, err)
		}
	}
	if _, err := New(Config{Nodes: 1, MetricsInterval: sim.Second, Monitor: monitor.New(), MetricsWriter: io.Discard}); err != nil {
		t.Errorf("monitor and writer set: %v", err)
	}
}

// TestReactiveDrainRespectsFloor is the idle-drain edge: consolidation
// must stop exactly at the floor of one replica even across a long idle
// tail, never draining the model to zero.
func TestReactiveDrainRespectsFloor(t *testing.T) {
	c, err := New(Config{
		Nodes:     2,
		Autoscale: AutoscaleConfig{Enabled: true, Interval: sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := dnn.ByName("bert-base")
	if err := c.Deploy(m, 8); err != nil {
		t.Fatal(err)
	}
	c.models["BERT-Base"].active = 6 // as if a burst had widened it
	reqs := toCluster("BERT-Base", workload.Poisson(9, 200, 50, 6))
	reqs = append(reqs, Request{At: 30 * sim.Time(sim.Second), Model: "BERT-Base", Key: 0})
	rep, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScaleDowns == 0 {
		t.Fatal("idle tail should consolidate replicas")
	}
	if got := rep.Replicas[0].Active; got != 1 {
		t.Fatalf("drained to %d active replicas, want exactly the floor of 1", got)
	}
}

// TestOversizedZooModelsShed serves a zoo whose largest variants exceed a
// node's host memory. Requests for those variants can never be fetched to
// pin, so they must be shed as "host-capacity" rather than parked forever
// behind evictions that cannot make room; every other request completes.
func TestOversizedZooModelsShed(t *testing.T) {
	z, err := registry.New(registry.Spec{N: 1000})
	if err != nil {
		t.Fatal(err)
	}
	reqs := z.Requests(42, 200, 2000)
	for _, tc := range []struct {
		hostMem  int64
		wantShed int
	}{{1e9, 103}, {2e9, 44}} {
		c, err := New(Config{
			Nodes: 1, Policy: serving.PolicyDHA, Pack: serving.PackDense,
			HostPolicy: hostmem.PolicyCostAware, HostMemory: tc.hostMem,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DeployZoo(z); err != nil {
			t.Fatal(err)
		}
		c.Warmup()
		oversized := 0
		for _, r := range reqs {
			if z.Variants[r.Instance].Model.TotalParamBytes() > tc.hostMem {
				oversized++
			}
		}
		if oversized != tc.wantShed {
			t.Fatalf("host memory %.0e: %d requests target oversized variants, want %d (fixture drifted)",
				float64(tc.hostMem), oversized, tc.wantShed)
		}
		rep, err := c.Run(ZooRequests(z, reqs))
		if err != nil {
			t.Fatalf("host memory %.0e: %v", float64(tc.hostMem), err)
		}
		if rep.Shed != oversized {
			t.Errorf("host memory %.0e: shed %d, want the %d oversized requests", float64(tc.hostMem), rep.Shed, oversized)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// TestMinIntKeyRoutesInsideItsModel sends one request keyed math.MinInt,
// whose negation overflows int, to a Deploy'd model placed after another
// model and to a zoo shape. It must cold-start exactly the replica the key's
// magnitude selects, 2^63 mod active, of its own model.
func TestMinIntKeyRoutesInsideItsModel(t *testing.T) {
	gpt2, _ := dnn.ByName("gpt2")
	bert, _ := dnn.ByName("bert-base")
	z, err := registry.New(registry.Spec{N: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		deploy func(c *Cluster) error
		model  string
	}{
		{"deployed", Config{Nodes: 1}, func(c *Cluster) error {
			if err := c.Deploy(gpt2, 7); err != nil {
				return err
			}
			return c.Deploy(bert, 3)
		}, bert.Name},
		{"zoo", Config{Nodes: 1, HostPolicy: hostmem.PolicyLRU, Pack: serving.PackDense},
			func(c *Cluster) error { return c.DeployZoo(z) }, z.Variants[0].Model.Name},
	} {
		c, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.deploy(c); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run([]Request{{Model: tc.model, Key: math.MinInt}}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m := c.models[tc.model]
		replica := int((uint(math.MaxInt) + 1) % uint(m.active))
		want := m.insts[replica]
		for _, inst := range c.nodes[0].srv.Instances() {
			if warm := inst.State() == serving.Warm; warm != (inst.ID == want) {
				t.Errorf("%s: instance %d (%s) warm=%v; want only instance %d of %s warm",
					tc.name, inst.ID, inst.Model(), warm, want, tc.model)
			}
		}
	}
}
