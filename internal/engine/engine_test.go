package engine

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/plan"
	"deepplan/internal/planner"
	"deepplan/internal/profiler"
	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
)

type fixture struct {
	model *dnn.Model
	prof  *profiler.Profile
	pl    *planner.Planner
	cost  *costmodel.Params
}

func fix(t *testing.T, name string) *fixture {
	t.Helper()
	m, err := dnn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cost := costmodel.Default()
	prof, err := profiler.Run(m, cost, topology.P38xlarge(), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{model: m, prof: prof, pl: planner.New(topology.P38xlarge()), cost: cost}
}

func (f *fixture) run(t *testing.T, p *plan.Plan, secondaries []int) *Result {
	t.Helper()
	res, err := RunOnce(topology.P38xlarge(), f.cost, Spec{
		Model: f.model, Plan: p, Primary: 0, Secondaries: secondaries,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func msClose(a sim.Duration, b sim.Duration, relTol float64) bool {
	fa, fb := a.Seconds(), b.Seconds()
	return math.Abs(fa-fb) <= relTol*math.Max(fa, fb)
}

// The engine (event simulation with real flows) and the planner (analytic
// recurrence) must agree closely for uncontended single runs.
func TestEngineMatchesPlannerPrediction(t *testing.T) {
	for _, name := range []string{"bert-base", "resnet50", "gpt2", "roberta-large"} {
		f := fix(t, name)
		cases := []struct {
			p    *plan.Plan
			secs []int
		}{
			{f.pl.PlanBaseline(f.prof), nil},
			{f.pl.PlanPipeSwitch(f.prof), nil},
			{f.pl.PlanDHA(f.prof), nil},
			{f.pl.PlanPT(f.prof, 2), []int{2}},
			{f.pl.PlanPTDHA(f.prof, 2), []int{2}},
		}
		for _, c := range cases {
			want := f.pl.Predict(f.prof, c.p).Total
			got := f.run(t, c.p, c.secs).Latency()
			// DHA plans run slightly slower in the engine than predicted:
			// DHA reads and load copies share the PCIe lane (real
			// contention the analytic recurrence idealizes away).
			tol := 0.06
			if c.p.CountDHA() > 0 {
				tol = 0.16
			}
			if !msClose(got, want, tol) {
				t.Errorf("%s/%s: engine %.3f ms vs planner %.3f ms",
					name, c.p.Mode, got.Seconds()*1e3, want.Seconds()*1e3)
			}
			if c.p.CountDHA() > 0 && got < want-sim.Duration(want/50) {
				t.Errorf("%s/%s: engine faster than idealized planner", name, c.p.Mode)
			}
		}
	}
}

// Table 4 column PT+DHA(1): absolute cold-start latencies.
var table4Anchors = []struct {
	model      string
	pipeswitch float64 // ms
	ptdha      float64 // ms
}{
	{"resnet50", 12.03, 8.93},
	{"resnet101", 19.85, 17.71},
	{"bert-base", 40.51, 20.88},
	{"bert-large", 122.37, 70.56},
	{"roberta-base", 45.86, 20.83},
	{"roberta-large", 129.58, 70.26},
	{"gpt2", 48.41, 33.38},
	{"gpt2-medium", 134.10, 101.83},
}

func TestTable4AbsoluteLatencies(t *testing.T) {
	const tol = 0.18 // simulator-vs-testbed slack
	for _, a := range table4Anchors {
		f := fix(t, a.model)
		ps := f.run(t, f.pl.PlanPipeSwitch(f.prof), nil).Latency().Seconds() * 1e3
		ptdha := f.run(t, f.pl.PlanPTDHA(f.prof, 2), []int{2}).Latency().Seconds() * 1e3
		if math.Abs(ps-a.pipeswitch) > tol*a.pipeswitch {
			t.Errorf("%s PipeSwitch = %.2f ms, paper %.2f ms", a.model, ps, a.pipeswitch)
		}
		if math.Abs(ptdha-a.ptdha) > tol*a.ptdha {
			t.Errorf("%s PT+DHA = %.2f ms, paper %.2f ms", a.model, ptdha, a.ptdha)
		}
	}
}

func TestWarmRunSkipsLoading(t *testing.T) {
	f := fix(t, "bert-base")
	p := f.pl.PlanPipeSwitch(f.prof)
	res, err := RunOnce(topology.P38xlarge(), f.cost, Spec{
		Model: f.model, Plan: p, Primary: 0, Warm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesLoaded != 0 {
		t.Fatalf("warm run loaded %g bytes", res.BytesLoaded)
	}
	// Warm latency == in-memory execution (9.35 ms anchor).
	if ms := res.Latency().Seconds() * 1e3; ms < 8.4 || ms > 10.3 {
		t.Errorf("warm latency = %.2f ms, want ~9.35", ms)
	}
	if res.TotalStall != 0 {
		t.Errorf("warm run stalled %v", res.TotalStall)
	}
}

func TestWarmDHARunStillReadsHost(t *testing.T) {
	f := fix(t, "bert-base")
	p := f.pl.PlanDHA(f.prof)
	res, err := RunOnce(topology.P38xlarge(), f.cost, Spec{
		Model: f.model, Plan: p, Primary: 0, Warm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesLoaded != 0 {
		t.Fatal("warm DHA run loaded bytes")
	}
	if res.BytesDHA == 0 {
		t.Fatal("warm DHA run generated no host reads")
	}
	// Slightly slower than the fully-resident warm run.
	warmAll, _ := RunOnce(topology.P38xlarge(), f.cost, Spec{
		Model: f.model, Plan: f.pl.PlanPipeSwitch(f.prof), Primary: 0, Warm: true,
	})
	if res.Latency() <= warmAll.Latency() {
		t.Error("DHA-resident warm run should be slightly slower than fully resident")
	}
	if res.Latency() > warmAll.Latency()*2 {
		t.Error("DHA-resident warm run implausibly slow")
	}
}

func TestColdStartDecomposition(t *testing.T) {
	f := fix(t, "bert-base")
	res := f.run(t, f.pl.PlanPipeSwitch(f.prof), nil)
	// Figure 2: stall share 73-75% for BERT.
	share := res.TotalStall.Seconds() / res.Latency().Seconds()
	if share < 0.65 || share > 0.85 {
		t.Errorf("stall share = %.0f%%, want ~73-77%%", share*100)
	}
	// Bandwidth accounting (Table 2): ~10.9 GB/s for BERT-Base serial.
	start, end := loadWindow(res)
	if bw := res.BytesLoaded / end.Sub(start).Seconds() / 1e9; bw < 10.2 || bw > 11.7 {
		t.Errorf("avg PCIe bandwidth = %.2f GB/s, want ~10.9", bw)
	}
}

// loadWindow bounds a run's host→GPU copy activity: the earliest LoadStart
// and the latest LoadDone over the layers it loaded.
func loadWindow(r *Result) (start, end sim.Time) {
	start = sim.MaxTime
	for _, lt := range r.Timings {
		if lt.LoadDone > 0 {
			start = min(start, lt.LoadStart)
			end = max(end, lt.LoadDone)
		}
	}
	return start, end
}

func TestTimingInvariants(t *testing.T) {
	f := fix(t, "roberta-base")
	for _, c := range []struct {
		p    *plan.Plan
		secs []int
	}{
		{f.pl.PlanPipeSwitch(f.prof), nil},
		{f.pl.PlanDHA(f.prof), nil},
		{f.pl.PlanPTDHA(f.prof, 2), []int{2}},
	} {
		res := f.run(t, c.p, c.secs)
		var prevDone sim.Time
		for i := range res.Timings {
			lt := &res.Timings[i]
			if lt.ExecDone < lt.ExecStart {
				t.Fatalf("%s: layer %d done < start", c.p.Mode, i)
			}
			if lt.ExecStart < prevDone {
				t.Fatalf("%s: layer %d overlaps predecessor", c.p.Mode, i)
			}
			prevDone = lt.ExecDone
			if lt.Method == plan.Load && lt.LoadDone > 0 {
				if lt.AvailAt < lt.LoadDone {
					t.Fatalf("%s: layer %d available before copy finished", c.p.Mode, i)
				}
				if lt.ExecStart < lt.AvailAt {
					t.Fatalf("%s: layer %d executed before weights arrived", c.p.Mode, i)
				}
			}
			if lt.Stall < 0 {
				t.Fatalf("%s: negative stall at layer %d", c.p.Mode, i)
			}
		}
		if res.Finish != res.Timings[len(res.Timings)-1].ExecDone {
			t.Fatalf("%s: finish != last layer done", c.p.Mode)
		}
	}
}

// Table 4's experiment: two GPUs each running PT+DHA cold-starts
// simultaneously interfere (shared switch uplinks for the cross traffic),
// but remain faster than PipeSwitch.
func TestParallelTransmissionInterference(t *testing.T) {
	f := fix(t, "bert-base")
	p := f.pl.PlanPTDHA(f.prof, 2)

	solo := f.run(t, p, []int{2}).Latency()

	s := sim.New()
	topo := topology.P38xlarge()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topo, Cost: f.cost})
	var lat0, lat1 sim.Duration // zero until each run reports
	if err := e.Start(Spec{Model: f.model, Plan: p, Primary: 0, Secondaries: []int{2},
		OnDone: func(r *Result) { lat0 = r.Latency() }}); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(Spec{Model: f.model, Plan: p, Primary: 2, Secondaries: []int{0},
		OnDone: func(r *Result) { lat1 = r.Latency() }}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if lat0 == 0 || lat1 == 0 {
		t.Fatal("runs did not complete")
	}
	avg := (lat0 + lat1) / 2
	if avg <= solo {
		t.Errorf("concurrent PT+DHA (%v) not slower than solo (%v): no interference modelled", avg, solo)
	}
	ps := f.run(t, f.pl.PlanPipeSwitch(f.prof), nil).Latency()
	if avg >= ps {
		t.Errorf("interfered PT+DHA (%v) slower than PipeSwitch (%v); paper says it stays faster", avg, ps)
	}
	// Paper: BERT-Base 20.88 -> 30.45 ms under interference (×1.46).
	ratio := float64(avg) / float64(solo)
	if ratio < 1.1 || ratio > 1.9 {
		t.Errorf("interference ratio = %.2f, want ~1.46", ratio)
	}
}

// TestPCMCounting checks, for every zoo model in every mode, that a plan
// decides which bytes move and where: a cold run copies exactly the plan's
// resident bytes, forwards exactly the secondary partitions' bytes over
// NVLink, and reads host memory directly exactly when the plan leaves bytes
// there; a warm run copies and forwards nothing.
func TestPCMCounting(t *testing.T) {
	for _, name := range dnn.ModelNames() {
		f := fix(t, name)
		for _, mode := range allModes {
			p, err := f.pl.Plan(f.prof, mode)
			if err != nil {
				t.Fatal(err)
			}
			secs, err := topology.P38xlarge().Secondaries(0, p.NumParts-1)
			if err != nil {
				t.Fatal(err)
			}
			resident, host := p.ResidentBytes(f.model), p.HostResidentBytes(f.model)
			if resident+host != f.model.TotalParamBytes() {
				t.Errorf("%s/%s: resident %d + host %d != total %d",
					name, mode, resident, host, f.model.TotalParamBytes())
			}
			var nvlink int64
			for i, lp := range p.Layers {
				if lp.Method == plan.Load && lp.Partition > 0 {
					nvlink += f.model.Layers[i].ParamBytes
				}
			}
			for _, warm := range []bool{false, true} {
				spec := Spec{Model: f.model, Plan: p, Primary: 0, Secondaries: secs}
				wantLoaded, wantNVLink := float64(resident), float64(nvlink)
				if warm {
					// A warm run transmits nothing, so it takes no secondaries.
					spec.Secondaries, spec.Warm = nil, true
					wantLoaded, wantNVLink = 0, 0
				}
				res, err := RunOnce(topology.P38xlarge(), f.cost, spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.BytesLoaded != wantLoaded {
					t.Errorf("%s/%s warm=%v: loaded %g bytes, want %g", name, mode, warm, res.BytesLoaded, wantLoaded)
				}
				if res.BytesNVLink != wantNVLink {
					t.Errorf("%s/%s warm=%v: forwarded %g bytes over NVLink, want %g", name, mode, warm, res.BytesNVLink, wantNVLink)
				}
				if (res.BytesDHA > 0) != (host > 0) {
					t.Errorf("%s/%s warm=%v: DHA bytes %g with %d host-resident bytes", name, mode, warm, res.BytesDHA, host)
				}
			}
		}
	}
}

// TestRunOnceDefaultsSecondaries checks RunOnce's partner rule: a cold
// multi-partition run with nil Secondaries equals one given the topology's
// Secondaries explicitly, a warm run takes none, and a plan needing more
// partners than the topology has fails naming the topology.
func TestRunOnceDefaultsSecondaries(t *testing.T) {
	f := fix(t, "bert-base")
	p := f.pl.PlanPTDHA(f.prof, 2)
	secs, err := topology.P38xlarge().Secondaries(0, p.NumParts-1)
	if err != nil {
		t.Fatal(err)
	}
	explicit := f.run(t, p, secs)
	implicit := f.run(t, p, nil)
	if !reflect.DeepEqual(implicit, explicit) {
		t.Fatalf("defaulted run differs: secondaries %v vs %v, latency %v vs %v",
			implicit.Secondaries, explicit.Secondaries, implicit.Latency(), explicit.Latency())
	}
	warm, err := RunOnce(topology.P38xlarge(), f.cost, Spec{Model: f.model, Plan: p, Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Secondaries) != 0 {
		t.Fatalf("warm run took secondaries %v", warm.Secondaries)
	}
	three := planner.New(topology.DGX1()).PlanPTDHA(f.prof, 3)
	if three.NumParts != 3 {
		t.Fatalf("DGX-1 plan has %d partitions, want 3", three.NumParts)
	}
	_, err = RunOnce(topology.P38xlarge(), f.cost, Spec{Model: f.model, Plan: three})
	if err == nil || !strings.Contains(err.Error(), "p3.8xlarge") {
		t.Fatalf("3-partition run on p3.8xlarge: err = %v, want one naming the topology", err)
	}
}

// allModes lists every single-request plan mode the planner produces.
var allModes = []plan.Mode{plan.ModeBaseline, plan.ModePipeSwitch, plan.ModeDHA, plan.ModePT, plan.ModePTDHA}

// checkPlacement checks, for every zoo model that vision selects (vision
// models have no token sequence) in every mode, that the plan alone decides
// where each layer's weights come from while the computation stays the same:
// every layer executes once, in model order, on the primary GPU; a cold run
// copies exactly the loaded layers that have weights, each in its planned
// partition, and never a DHA or parameterless layer; a warm run copies
// nothing.
func checkPlacement(t *testing.T, vision bool) {
	t.Helper()
	checked := 0
	for _, name := range dnn.ModelNames() {
		f := fix(t, name)
		if (f.model.SeqLen == 0) != vision {
			continue
		}
		checked++
		for _, mode := range allModes {
			p, err := f.pl.Plan(f.prof, mode)
			if err != nil {
				t.Fatal(err)
			}
			secs, err := topology.P38xlarge().Secondaries(0, p.NumParts-1)
			if err != nil {
				t.Fatal(err)
			}
			for _, warm := range []bool{false, true} {
				spec := Spec{Model: f.model, Plan: p, Primary: 0, Secondaries: secs}
				if warm {
					// A warm run transmits nothing, so it takes no secondaries.
					spec.Secondaries, spec.Warm = nil, true
				}
				res, err := RunOnce(topology.P38xlarge(), f.cost, spec)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Timings) != f.model.NumLayers() {
					t.Fatalf("%s/%s warm=%v: %d layer timings for %d layers",
						name, mode, warm, len(res.Timings), f.model.NumLayers())
				}
				var prevDone sim.Time
				for i, lt := range res.Timings {
					l, lp := &f.model.Layers[i], p.Layers[i]
					if lt.Index != i || lt.Method != lp.Method || lt.Partition != lp.Partition {
						t.Errorf("%s/%s warm=%v: timing %d is layer %d by %v in partition %d, plan says %v in %d",
							name, mode, warm, i, lt.Index, lt.Method, lt.Partition, lp.Method, lp.Partition)
					}
					if lt.ExecStart < prevDone || lt.ExecDone < lt.ExecStart {
						t.Errorf("%s/%s warm=%v: layer %s runs out of order", name, mode, warm, l.Name)
					}
					prevDone = lt.ExecDone
					wantCopy := !warm && lp.Method == plan.Load && l.HasParams()
					if copied := lt.LoadDone > lt.LoadStart; copied != wantCopy {
						t.Errorf("%s/%s warm=%v: layer %s (%v) copied=%v, want %v",
							name, mode, warm, l.Name, lp.Method, copied, wantCopy)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no zoo model with vision=%v", vision)
	}
}

// TestPlacementInvariance checks placement for the transformer zoo models.
func TestPlacementInvariance(t *testing.T) { checkPlacement(t, false) }

// TestCNNPlacementInvariance checks placement for the vision zoo models.
func TestCNNPlacementInvariance(t *testing.T) { checkPlacement(t, true) }

// TestDHAPlanKeepsEmbeddingsInHost checks, for every zoo model, that a DHA
// plan leaves every sparse embedding table in host memory and the engine
// never copies it (§3.1: a gather touching fewer bytes than the table moves
// less by DHA than a load would; a tiny table such as BERT's two-row
// token-type one may be loaded).
func TestDHAPlanKeepsEmbeddingsInHost(t *testing.T) {
	withEmb := 0
	for _, name := range dnn.ModelNames() {
		f := fix(t, name)
		p := f.pl.PlanDHA(f.prof)
		res := f.run(t, p, nil)
		var embBytes int64
		for i := range f.model.Layers {
			l, lt := &f.model.Layers[i], res.Timings[i]
			if l.Kind != dnn.Embedding || int64(l.EmbRows)*l.EmbRowBytes >= l.ParamBytes {
				continue
			}
			embBytes += l.ParamBytes
			if p.Layers[i].Method != plan.DHA {
				t.Errorf("%s: embedding %s planned %v, want DHA", name, l.Name, p.Layers[i].Method)
			}
			if lt.LoadDone > lt.LoadStart {
				t.Errorf("%s: embedding %s was copied to the GPU", name, l.Name)
			}
		}
		if embBytes > 0 {
			withEmb++
		}
		if host := p.HostResidentBytes(f.model); host < embBytes {
			t.Errorf("%s: %d host-resident bytes < %d embedding bytes", name, host, embBytes)
		}
	}
	if withEmb == 0 {
		t.Fatal("no zoo model has a sparse embedding table")
	}
}

func TestPTUsesNVLink(t *testing.T) {
	f := fix(t, "bert-large")
	res := f.run(t, f.pl.PlanPT(f.prof, 2), []int{2})
	if res.BytesNVLink == 0 {
		t.Fatal("PT run forwarded nothing over NVLink")
	}
	// Roughly half the model crosses NVLink.
	frac := res.BytesNVLink / float64(f.model.TotalParamBytes())
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("NVLink fraction = %.2f, want ~0.5", frac)
	}
}

func TestSpecValidation(t *testing.T) {
	f := fix(t, "bert-base")
	ps := f.pl.PlanPipeSwitch(f.prof)
	pt := f.pl.PlanPTDHA(f.prof, 2)
	topo := topology.P38xlarge()
	s := sim.New()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topo, Cost: f.cost})

	if err := e.Start(Spec{Plan: ps}); err == nil {
		t.Error("nil model accepted")
	}
	if err := e.Start(Spec{Model: f.model}); err == nil {
		t.Error("nil plan accepted")
	}
	if err := e.Start(Spec{Model: f.model, Plan: ps, Primary: 9}); err == nil {
		t.Error("bad primary accepted")
	}
	if err := e.Start(Spec{Model: f.model, Plan: pt, Primary: 0}); err == nil {
		t.Error("missing secondaries accepted")
	}
	if err := e.Start(Spec{Model: f.model, Plan: pt, Primary: 0, Secondaries: []int{0}}); err == nil {
		t.Error("secondary == primary accepted")
	}
	other, _ := dnn.ByName("gpt2")
	if err := e.Start(Spec{Model: other, Plan: ps, Primary: 0}); err == nil {
		t.Error("plan/model mismatch accepted")
	}
	// A compute scale outside [0,1] would schedule layer timers in the
	// simulator's past (negative) or stretch the run (above one).
	for _, scale := range []float64{-0.5, math.NaN(), math.Inf(1), math.Inf(-1), 2} {
		if err := e.Start(Spec{Model: f.model, Plan: ps, Primary: 0, Warm: true, ComputeScale: scale}); err == nil {
			t.Errorf("compute scale %v accepted", scale)
		}
	}
	for _, scale := range []float64{0, 0.37, 1} {
		if err := e.Start(Spec{Model: f.model, Plan: ps, Primary: 0, Warm: true, ComputeScale: scale}); err != nil {
			t.Errorf("compute scale %v rejected: %v", scale, err)
		}
	}
	if s.Run(); len(e.active) != 0 {
		t.Fatal("accepted runs did not complete")
	}
}

func TestIncompleteConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete config did not panic")
		}
	}()
	New(Config{})
}

func TestExecIdle(t *testing.T) {
	f := fix(t, "resnet50")
	s := sim.New()
	topo := topology.P38xlarge()
	e := New(Config{Sim: s, Net: simnet.New(s), Topo: topo, Cost: f.cost})
	if !e.ExecIdle(0) {
		t.Fatal("fresh engine not idle")
	}
	done := false
	if err := e.Start(Spec{Model: f.model, Plan: f.pl.PlanPipeSwitch(f.prof), Primary: 0,
		OnDone: func(*Result) { done = true }}); err != nil {
		t.Fatal(err)
	}
	if e.ExecIdle(0) {
		t.Fatal("engine idle right after Start")
	}
	s.Run()
	if !done || !e.ExecIdle(0) {
		t.Fatal("engine not idle after completion")
	}
}
