package capacity

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"deepplan/internal/cluster"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
)

// testSpec is a scaled-down search spec so the oracle stays cheap in tests:
// short window, coarse step, bounded rate range.
func testSpec() SearchSpec {
	return SearchSpec{
		SLO:      300 * sim.Millisecond,
		Duration: 2 * sim.Second,
		Replicas: 150,
		MinRate:  20,
		MaxRate:  180,
		Step:     40,
	}
}

func TestPointsOrderAndCount(t *testing.T) {
	s := DefaultSpace()
	pts := s.Points()
	want := len(s.Topologies) * len(s.Nodes) * len(s.Policies) * len(s.Routes) * len(s.MaxBatches) * len(s.Autoscale)
	if len(pts) != want {
		t.Fatalf("Points() = %d points, want %d", len(pts), want)
	}
	// Fixed nesting order: topology varies slowest, policy inside nodes.
	if pts[0].Topology != s.Topologies[0] || pts[len(pts)-1].Topology != s.Topologies[len(s.Topologies)-1] {
		t.Fatalf("topology not the slowest-varying dimension: first %v last %v", pts[0], pts[len(pts)-1])
	}
	if pts[0].Policy != s.Policies[0] || pts[1].Policy != s.Policies[1] {
		t.Fatalf("policy order not preserved: %v, %v", pts[0].Policy, pts[1].Policy)
	}
}

func TestSaturateUnknownTopology(t *testing.T) {
	pt := Point{Topology: "nope", Nodes: 1, Policy: serving.PolicyDHA, Route: cluster.RouteLeastOutstanding, MaxBatch: 1}
	if _, err := Saturate(pt, testSpec(), DefaultPricing()); err == nil {
		t.Fatal("Saturate with unknown topology: want error, got nil")
	}
	if _, err := Saturate(Point{Topology: "p3.8xlarge", Nodes: 1, Policy: serving.PolicyDHA,
		Route: cluster.RouteLeastOutstanding, MaxBatch: 1}, testSpec(), Pricing{}); err == nil {
		t.Fatal("Saturate with missing price: want error, got nil")
	}
}

// TestSaturationMonotoneInSLO is the property test from the issue: loosening
// the SLO can only grow the feasible set, so the sustained rate must never
// decrease. With admission control off the cluster's behaviour at a given
// rate is independent of the SLO — the SLO only gates feasibility — so this
// holds exactly, not just statistically.
func TestSaturationMonotoneInSLO(t *testing.T) {
	pt := Point{Topology: "p3.8xlarge", Nodes: 1, Policy: serving.PolicyPipeSwitch,
		Route: cluster.RouteLeastOutstanding, MaxBatch: 1}
	slos := []sim.Duration{60 * sim.Millisecond, 100 * sim.Millisecond, 150 * sim.Millisecond,
		300 * sim.Millisecond, 600 * sim.Millisecond, sim.Second}
	prev := -1
	var got []int
	for _, slo := range slos {
		spec := testSpec()
		spec.SLO = slo
		r, err := Saturate(pt, spec, DefaultPricing())
		if err != nil {
			t.Fatal(err)
		}
		if r.SustainedRPS < prev {
			t.Fatalf("sustained rps decreased when SLO loosened to %v: %d -> %d (all: %v)",
				slo, prev, r.SustainedRPS, got)
		}
		prev = r.SustainedRPS
		got = append(got, r.SustainedRPS)
	}
	// The property is vacuous if every SLO saturates identically; the chosen
	// SLO ladder must actually move the answer.
	if got[0] == got[len(got)-1] {
		t.Fatalf("SLO ladder did not change the sustained rate (%v); test has no signal", got)
	}
}

// renderSweep sweeps the default grid on a pool of workers and returns the
// rendered plan as JSON and as a table.
func renderSweep(t *testing.T, spec SearchSpec, workers int) (string, string) {
	t.Helper()
	res, err := Sweep(DefaultSpace(), spec, DefaultPricing(), workers)
	if err != nil {
		t.Fatal(err)
	}
	plan := Analyze(spec, res, 60, 0)
	var j, tbl bytes.Buffer
	if err := plan.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	plan.WriteTable(&tbl)
	return j.String(), tbl.String()
}

// TestSweepByteIdenticalSerialParallel runs the full default grid serially,
// in parallel, and again serially, and requires the rendered plans — JSON and
// table — to match byte for byte.
func TestSweepByteIdenticalSerialParallel(t *testing.T) {
	spec := testSpec()
	j1, t1 := renderSweep(t, spec, 1)
	j8, t8 := renderSweep(t, spec, 8)
	j1b, t1b := renderSweep(t, spec, 1)
	if j1 != j8 {
		t.Fatalf("JSON plan differs serial vs parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", j1, j8)
	}
	if t1 != t8 {
		t.Fatalf("table differs serial vs parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", t1, t8)
	}
	if j1 != j1b || t1 != t1b {
		t.Fatal("plan differs across reruns with identical inputs")
	}
}

// TestSweepByteIdenticalOnFourWorkers: the saturation oracle must not
// notice how its probes are scheduled; a sweep whose probes fan across a
// four-worker pool renders the byte-identical plan.
func TestSweepByteIdenticalOnFourWorkers(t *testing.T) {
	spec := testSpec()
	j1, t1 := renderSweep(t, spec, 1)
	j4, t4 := renderSweep(t, spec, 4)
	if j1 != j4 {
		t.Fatalf("JSON plan differs serial vs 4 workers:\n--- serial ---\n%s\n--- 4 workers ---\n%s", j1, j4)
	}
	if t1 != t4 {
		t.Fatalf("table differs serial vs 4 workers:\n--- serial ---\n%s\n--- 4 workers ---\n%s", t1, t4)
	}
}

// TestDeepPlanBeatsPipeSwitch asserts the paper's headline shape at the
// capacity level: on identical hardware under the same SLO, pt+dha sustains
// strictly more load — and therefore strictly more load per dollar — than
// the PipeSwitch baseline, and the gap is reported in both outputs.
func TestDeepPlanBeatsPipeSwitch(t *testing.T) {
	space := Space{
		Topologies: []string{"p3.8xlarge"},
		Nodes:      []int{1},
		Policies:   []serving.Policy{serving.PolicyPipeSwitch, serving.PolicyPTDHA},
		Routes:     []cluster.RoutePolicy{cluster.RouteLeastOutstanding},
		MaxBatches: []int{1},
		Autoscale:  []bool{false},
	}
	spec := SearchSpec{
		SLO:      300 * sim.Millisecond,
		Duration: 4 * sim.Second,
		Replicas: 150,
		MinRate:  20,
		MaxRate:  320,
		Step:     20,
	}
	res, err := Sweep(space, spec, DefaultPricing(), 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := Analyze(spec, res, 0, 0)
	if len(plan.Gaps) != 1 {
		t.Fatalf("want exactly one policy gap, got %d", len(plan.Gaps))
	}
	g := plan.Gaps[0]
	if g.BaselineRPS <= 0 {
		t.Fatalf("pipeswitch baseline sustained nothing (%+v); spec too harsh for a meaningful gap", g)
	}
	if g.DeepPlanRPS <= g.BaselineRPS {
		t.Fatalf("pt+dha does not sustain more than pipeswitch: %d vs %d rps", g.DeepPlanRPS, g.BaselineRPS)
	}
	if g.DeepPlanValue <= g.BaselineValue {
		t.Fatalf("pt+dha rps/$ not above pipeswitch: %.2f vs %.2f", g.DeepPlanValue, g.BaselineValue)
	}
	if g.CapacityRatio <= 1 || g.ValueRatio <= 1 {
		t.Fatalf("gap ratios not above 1: %+v", g)
	}
	var tbl bytes.Buffer
	plan.WriteTable(&tbl)
	if !strings.Contains(tbl.String(), "capacity gap") {
		t.Fatalf("table does not report the capacity gap:\n%s", tbl.String())
	}
	var j bytes.Buffer
	if err := plan.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j.String(), `"capacity_ratio"`) {
		t.Fatal("JSON plan does not carry the capacity gap")
	}
}

// TestAutoscaleProratesCost exercises the serverless billing path: an
// autoscaled point bills by replica-seconds, so its cost per hour lands
// strictly below the always-on price of the same hardware.
func TestAutoscaleProratesCost(t *testing.T) {
	pt := Point{Topology: "dual-a5000-pcie4", Nodes: 1, Policy: serving.PolicyDHA,
		Route: cluster.RouteLeastOutstanding, MaxBatch: 1, Autoscale: true}
	spec := SearchSpec{
		SLO:      sim.Second,
		Duration: 4 * sim.Second,
		Replicas: 16,
		MinRate:  5,
		MaxRate:  10,
		Step:     5,
	}
	r, err := Saturate(pt, spec, DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	full := DefaultPricing()["dual-a5000-pcie4"]
	if r.Utilization <= 0 || r.Utilization >= 1 {
		t.Fatalf("autoscaled utilization = %v, want in (0, 1)", r.Utilization)
	}
	if r.CostPerHour >= full {
		t.Fatalf("autoscaled cost %.2f not prorated below full price %.2f", r.CostPerHour, full)
	}
}

func TestAnalyzeFrontierAndRecommendation(t *testing.T) {
	mk := func(topo string, nodes, rps int, cost float64) Result {
		r := Result{Point: Point{Topology: topo, Nodes: nodes, Policy: serving.PolicyDHA,
			Route: cluster.RouteLeastOutstanding, MaxBatch: 1}, SustainedRPS: rps, CostPerHour: cost}
		if cost > 0 {
			r.RPSPerDollar = float64(rps) / cost
		}
		return r
	}
	results := []Result{
		mk("dual-a5000-pcie4", 1, 40, 2.20), // frontier: cheapest nonzero
		mk("dual-a5000-pcie4", 2, 70, 4.40), // frontier
		mk("p3.8xlarge", 1, 70, 12.24),      // dominated by the 4.40 point
		mk("p3.8xlarge", 2, 150, 24.48),     // frontier: highest capacity
		mk("dual-a5000-pcie4", 4, 0, 8.80),  // zero capacity: never on frontier
	}
	plan := Analyze(SearchSpec{}, results, 60, 15)
	wantFrontier := []bool{true, true, false, true, false}
	for i, w := range wantFrontier {
		if plan.Results[i].OnFrontier != w {
			t.Fatalf("result %d OnFrontier = %v, want %v", i, plan.Results[i].OnFrontier, w)
		}
	}
	rec := plan.Recommendation
	if rec == nil {
		t.Fatal("no recommendation; want the $4.40 two-node A5000 config")
	}
	if rec.CostPerHour != 4.40 || rec.SustainedRPS != 70 {
		t.Fatalf("recommendation = %d rps at $%.2f, want 70 rps at $4.40", rec.SustainedRPS, rec.CostPerHour)
	}
	// The $12.24 point also meets 60 rps but is pricier; the $24.48 point
	// busts the $15 budget ceiling.
	if p := Analyze(SearchSpec{}, results, 100, 15); p.Recommendation != nil {
		t.Fatalf("100 rps inside $15/hr is unmeetable, got recommendation %+v", p.Recommendation)
	}
	if p := Analyze(SearchSpec{}, results, 100, 0); p.Recommendation == nil ||
		p.Recommendation.SustainedRPS != 150 {
		t.Fatal("without a budget the 150 rps config should be recommended for 100 rps")
	}
}

func TestAnalyzeGapBaselineUnsustainable(t *testing.T) {
	pt := func(pol serving.Policy) Point {
		return Point{Topology: "p3.8xlarge", Nodes: 1, Policy: pol,
			Route: cluster.RouteLeastOutstanding, MaxBatch: 1}
	}
	results := []Result{
		{Point: pt(serving.PolicyPipeSwitch), SustainedRPS: 0, CostPerHour: 12.24},
		{Point: pt(serving.PolicyPTDHA), SustainedRPS: 120, CostPerHour: 12.24, RPSPerDollar: 9.8},
	}
	plan := Analyze(SearchSpec{}, results, 0, 0)
	if len(plan.Gaps) != 1 {
		t.Fatalf("want 1 gap, got %d", len(plan.Gaps))
	}
	if plan.Gaps[0].CapacityRatio != 0 || plan.Gaps[0].ValueRatio != 0 {
		t.Fatalf("unsustainable baseline must yield zero ratios, got %+v", plan.Gaps[0])
	}
	var tbl bytes.Buffer
	plan.WriteTable(&tbl)
	if !strings.Contains(tbl.String(), "baseline unsustainable") {
		t.Fatalf("table must flag the unsustainable baseline:\n%s", tbl.String())
	}
}

func TestPointsAutoscalePolicyAxis(t *testing.T) {
	s := Space{
		Topologies:        []string{"p3.8xlarge"},
		Nodes:             []int{1},
		Policies:          []serving.Policy{serving.PolicyDHA},
		Routes:            []cluster.RoutePolicy{cluster.RouteLeastOutstanding},
		MaxBatches:        []int{1},
		Autoscale:         []bool{false, true},
		AutoscalePolicies: []cluster.AutoscalePolicy{cluster.AutoscaleReactive, cluster.AutoscalePredictive},
	}
	pts := s.Points()
	// Policies multiply only the autoscaled entry: 1 fixed + 2 autoscaled.
	if len(pts) != 3 {
		t.Fatalf("Points() = %d points, want 3 (fixed + reactive + predictive)", len(pts))
	}
	if pts[0].Autoscale || pts[0].AutoscalePolicy != "" {
		t.Fatalf("non-autoscaled point carries a policy: %+v", pts[0])
	}
	if !pts[1].Autoscale || pts[1].AutoscalePolicy != "" {
		t.Fatalf("reactive point not normalized to the empty policy: %+v", pts[1])
	}
	if !pts[2].Autoscale || pts[2].AutoscalePolicy != cluster.AutoscalePredictive {
		t.Fatalf("predictive point missing: %+v", pts[2])
	}
	if got := pts[2].String(); !strings.Contains(got, "auto/pred") {
		t.Fatalf("predictive point label %q does not mark the policy", got)
	}
	// An empty policy list keeps legacy grids identical: one point per
	// autoscale flag, no policy set.
	s.AutoscalePolicies = nil
	if pts = s.Points(); len(pts) != 2 || pts[1].AutoscalePolicy != "" {
		t.Fatalf("legacy grid changed shape: %d points, %+v", len(pts), pts[len(pts)-1])
	}
}

// TestSaturatePredictivePoint is the planner half of the acceptance
// criterion: a predictive autoscale point must be evaluable end to end, so
// a grid containing it can surface a predictive recommendation.
// sweepErr runs Sweep with no prices, so any probe fails at once on the
// missing price: an error about anything else was raised before the first
// probe.
func sweepErr(space Space, spec SearchSpec) error {
	_, err := Sweep(space, spec, Pricing{}, 1)
	return err
}

// A zoo's tenants are fixed identities, so autoscaled points cannot be
// searched in a zoo plan; Sweep refuses the grid up front.
func TestSweepRejectsZooAutoscale(t *testing.T) {
	zoo := testSpec()
	zoo.Zoo = 50
	if err := sweepErr(DefaultSpace(), zoo); err == nil || !strings.Contains(err.Error(), "price") {
		t.Fatalf("plain zoo grid: got %v, want only the missing-price probe error", err)
	}
	auto := DefaultSpace()
	auto.Autoscale = []bool{false, true}
	if err := sweepErr(auto, testSpec()); err == nil || !strings.Contains(err.Error(), "price") {
		t.Fatalf("plain autoscaled grid: got %v, want only the missing-price probe error", err)
	}
	err := sweepErr(auto, zoo)
	if err == nil || !strings.Contains(err.Error(), "autoscale") || strings.Contains(err.Error(), "price") {
		t.Fatalf("zoo with autoscaled points: got %v, want a refusal before any probe", err)
	}
}

// Autoscale policies pin an axis that exists only when the grid has
// autoscaled points, and only known controllers are searchable.
func TestSweepValidatesAutoscalePolicies(t *testing.T) {
	auto := DefaultSpace()
	auto.Autoscale = []bool{false, true}
	for _, pol := range []cluster.AutoscalePolicy{cluster.AutoscaleReactive, cluster.AutoscalePredictive} {
		auto.AutoscalePolicies = []cluster.AutoscalePolicy{pol}
		if err := sweepErr(auto, testSpec()); err == nil || !strings.Contains(err.Error(), "price") {
			t.Fatalf("autoscaled grid pinned to %s: got %v, want only the missing-price probe error", pol, err)
		}
	}
	auto.AutoscalePolicies = []cluster.AutoscalePolicy{"oracle"}
	if err := sweepErr(auto, testSpec()); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("unknown autoscale policy: got %v", err)
	}
	plain := DefaultSpace()
	plain.AutoscalePolicies = []cluster.AutoscalePolicy{cluster.AutoscalePredictive}
	err := sweepErr(plain, testSpec())
	if err == nil || !strings.Contains(err.Error(), "no point autoscales") {
		t.Fatalf("policy without autoscaled points: got %v", err)
	}
}

// A zero field selects its default, but a value no default repairs is
// refused by Sweep, Saturate and Confirm before any probe, naming the field.
func TestRejectsBadSpec(t *testing.T) {
	cases := []struct {
		field string
		edit  func(*SearchSpec)
	}{
		{"SLO", func(s *SearchSpec) { s.SLO = -sim.Millisecond }},
		{"GoodputTarget", func(s *SearchSpec) { s.GoodputTarget = -0.5 }},
		{"GoodputTarget", func(s *SearchSpec) { s.GoodputTarget = 2 }},
		{"GoodputTarget", func(s *SearchSpec) { s.GoodputTarget = math.NaN() }},
		{"Skew", func(s *SearchSpec) { s.Skew = math.Inf(1) }},
		{"Duration", func(s *SearchSpec) { s.Duration = -sim.Second }},
		{"Replicas", func(s *SearchSpec) { s.Replicas = -1 }},
		{"MinRate", func(s *SearchSpec) { s.MinRate = -10 }},
		{"MaxRate", func(s *SearchSpec) { s.MaxRate = -1 }},
		{"MaxRate", func(s *SearchSpec) { s.MaxRate = s.MinRate }},
		{"Step", func(s *SearchSpec) { s.Step = -5 }},
		{"Zoo", func(s *SearchSpec) { s.Zoo = -3 }},
	}
	pt := Point{Topology: "p3.8xlarge", Nodes: 1, Policy: serving.PolicyDHA,
		Route: cluster.RouteLeastOutstanding, MaxBatch: 1}
	for _, c := range cases {
		spec := testSpec()
		c.edit(&spec)
		_, serr := Saturate(pt, spec, Pricing{})
		_, cerr := Confirm(Result{Point: pt}, spec)
		for _, err := range []error{sweepErr(DefaultSpace(), spec), serr, cerr} {
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s: got %v, want an error naming %s", c.field, err, c.field)
			}
		}
	}
	// The zero spec selects every default and reaches the pricing check.
	if err := sweepErr(DefaultSpace(), SearchSpec{}); err == nil || !strings.Contains(err.Error(), "price") {
		t.Fatalf("zero spec: got %v, want only the missing-price probe error", err)
	}
}

func TestSaturatePredictivePoint(t *testing.T) {
	pt := Point{Topology: "dual-a5000-pcie4", Nodes: 1, Policy: serving.PolicyDHA,
		Route: cluster.RouteLeastOutstanding, MaxBatch: 1, Autoscale: true,
		AutoscalePolicy: cluster.AutoscalePredictive}
	spec := SearchSpec{
		SLO:      sim.Second,
		Duration: 4 * sim.Second,
		Replicas: 16,
		MinRate:  5,
		MaxRate:  10,
		Step:     5,
	}
	r, err := Saturate(pt, spec, DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	if r.SustainedRPS <= 0 {
		t.Fatalf("predictive point sustained %d rps, want > 0", r.SustainedRPS)
	}
	full := DefaultPricing()["dual-a5000-pcie4"]
	if r.Utilization <= 0 || r.CostPerHour >= full {
		t.Fatalf("predictive autoscaled cost not prorated: util %v cost %.2f (full %.2f)",
			r.Utilization, r.CostPerHour, full)
	}
}
