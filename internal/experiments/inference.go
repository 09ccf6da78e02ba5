package experiments

import (
	"fmt"
	"io"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/engine"
	"deepplan/internal/experiments/runner"
	"deepplan/internal/plan"
	"deepplan/internal/planner"
	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/topology"
)

// Figure11 reproduces the headline single-inference comparison: relative
// speedup of PipeSwitch, DeepPlan (DHA), DeepPlan (PT), and DeepPlan
// (PT+DHA) over the non-pipelined Baseline, batch size 1, cold start.
func Figure11(w io.Writer, _ Options) error {
	return speedupFigure(w, topology.P38xlarge,
		"Figure 11: single-inference speedup over Baseline (p3.8xlarge, batch 1)")
}

// Figure16 repeats Figure 11 on the PCIe 4.0 dual-A5000 platform (§5.4).
func Figure16(w io.Writer, _ Options) error {
	return speedupFigure(w, topology.DualA5000PCIe4,
		"Figure 16: single-inference speedup over Baseline (2x RTX A5000, PCIe 4.0)")
}

func speedupFigure(w io.Writer, build func() *topology.Topology, title string) error {
	header(w, title)
	fmt.Fprintf(w, "%-14s %12s %12s %9s %9s %9s %9s\n",
		"model", "baseline", "pipeswitch", "PS x", "DHA x", "PT x", "PT+DHA x")
	modes := []plan.Mode{plan.ModeBaseline, plan.ModePipeSwitch, plan.ModeDHA, plan.ModePT, plan.ModePTDHA}
	for _, name := range dnn.EvaluationNames() {
		lat := make([]sim.Duration, len(modes))
		for i, mode := range modes {
			res, err := coldRun(build, name, mode, 1)
			if err != nil {
				return err
			}
			lat[i] = res.Latency()
		}
		x := func(d sim.Duration) float64 { return lat[0].Seconds() / d.Seconds() }
		fmt.Fprintf(w, "%-14s %10.2fms %10.2fms %8.2fx %8.2fx %8.2fx %8.2fx\n",
			name, ms(lat[0]), ms(lat[1]), x(lat[1]), x(lat[2]), x(lat[3]), x(lat[4]))
	}
	fmt.Fprintln(w, "\npaper (fig 11): PT+DHA reaches 1.94x over PipeSwitch for BERT-Base and 2.21x for")
	fmt.Fprintln(w, "RoBERTa-Base; GPT-2 gains come from DHA, not PT; ResNet gains are modest")
	return nil
}

// Table3 prints execution-plan excerpts comparing the naive per-layer
// choice ("initial approach") with Algorithm 1's pipeline-aware plan:
// layers 63-69 of ResNet-101 and the first five layers of GPT-2, as in the
// paper (O = load, X = direct-host-access).
func Table3(w io.Writer, _ Options) error {
	header(w, "Table 3: plan excerpts, initial approach vs DeepPlan (O=load, X=direct-host-access)")
	pl := planner.New(topology.P38xlarge())

	excerpt := func(name string, lo, hi int) error {
		m, prof, err := profile(name)
		if err != nil {
			return err
		}
		naive := pl.PlanInitialDHA(prof)
		smart := pl.PlanDHA(prof)
		// Prefer a window of the same width containing a disagreement, so
		// the table shows where pipeline-awareness changes the decision.
		width := hi - lo
		for i := range m.Layers {
			if naive.Layers[i].Method != smart.Layers[i].Method {
				lo = i - width/2
				if lo < 0 {
					lo = 0
				}
				hi = lo + width
				if hi >= m.NumLayers() {
					hi = m.NumLayers() - 1
					lo = hi - width
				}
				break
			}
		}
		fmt.Fprintf(w, "\n%s, layers %d-%d:\n", m.Name, lo, hi)
		fmt.Fprintf(w, "%-22s", "layer")
		for i := lo; i <= hi; i++ {
			fmt.Fprintf(w, " %6d:%-5s", i, m.Layers[i].Kind)
		}
		fmt.Fprintln(w)
		mark := func(p *plan.Plan, i int) string {
			if !m.Layers[i].HasParams() {
				return "-" // nothing to load either way
			}
			if p.Layers[i].Method == plan.DHA {
				return "X"
			}
			return "O"
		}
		for _, row := range []struct {
			label string
			p     *plan.Plan
		}{{"initial approach", naive}, {"DeepPlan (DHA)", smart}} {
			fmt.Fprintf(w, "%-22s", row.label)
			for i := lo; i <= hi; i++ {
				fmt.Fprintf(w, " %12s", mark(row.p, i))
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	if err := excerpt("resnet101", 63, 69); err != nil {
		return err
	}
	if err := excerpt("gpt2", 0, 4); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper: the two rows disagree on some layers — Algorithm 1 keeps loading layers")
	fmt.Fprintln(w, "whose copy time hides under upstream computation, and vice versa ('-' = no params)")
	return nil
}

// Table4 measures parallel-transmission interference: PT+DHA running alone
// versus two GPUs cold-starting with PT+DHA simultaneously.
func Table4(w io.Writer, _ Options) error {
	header(w, "Table 4: inference latency (ms) under parallel-transmission interference")
	paper := map[string][3]float64{
		"resnet50":      {12.03, 8.93, 11.97},
		"resnet101":     {19.85, 17.71, 21.19},
		"bert-base":     {40.51, 20.88, 30.45},
		"bert-large":    {122.37, 70.56, 108.16},
		"roberta-base":  {45.86, 20.83, 34.48},
		"roberta-large": {129.58, 70.26, 107.87},
		"gpt2":          {48.41, 33.38, 35.98},
		"gpt2-medium":   {134.10, 101.83, 112.71},
	}
	fmt.Fprintf(w, "%-14s %14s %11s %11s   %s\n",
		"model", "PipeSwitch(1)", "PT+DHA(1)", "PT+DHA(2)", "paper PS/1/2")
	for _, name := range dnn.EvaluationNames() {
		psRes, err := coldRun(topology.P38xlarge, name, plan.ModePipeSwitch, 1)
		if err != nil {
			return err
		}
		solo, err := coldRun(topology.P38xlarge, name, plan.ModePTDHA, 1)
		if err != nil {
			return err
		}
		both, err := concurrentPTDHA(name)
		if err != nil {
			return err
		}
		p := paper[name]
		fmt.Fprintf(w, "%-14s %14.2f %11.2f %11.2f   %.2f / %.2f / %.2f\n",
			name, ms(psRes.Latency()), ms(solo.Latency()), ms(both), p[0], p[1], p[2])
	}
	fmt.Fprintln(w, "\npaper: interference slows PT+DHA but it stays faster than PipeSwitch")
	return nil
}

// concurrentPTDHA runs two simultaneous PT+DHA cold-starts on GPUs 0 and 2
// (each with its default partner, the other) and returns the mean latency.
func concurrentPTDHA(name string) (sim.Duration, error) {
	m, prof, err := profile(name)
	if err != nil {
		return 0, err
	}
	p, err := planner.New(topology.P38xlarge()).Plan(prof, plan.ModePTDHA)
	if err != nil {
		return 0, err
	}
	s := sim.New()
	topo := topology.P38xlarge()
	e := engine.New(engine.Config{Sim: s, Net: simnet.New(s), Topo: topo, Cost: costmodel.Default()})
	// A Result is valid only inside OnDone, so each callback keeps its
	// latency; zero means the run never reported.
	var lat [2]sim.Duration
	for i, primary := range []int{0, 2} {
		secs, err := topo.Secondaries(primary, p.NumParts-1)
		if err != nil {
			return 0, err
		}
		if err := e.Start(engine.Spec{Model: m, Plan: p, Primary: primary, Secondaries: secs,
			OnDone: func(r *engine.Result) { lat[i] = r.Latency() }}); err != nil {
			return 0, err
		}
	}
	s.Run()
	if lat[0] == 0 || lat[1] == 0 {
		return 0, fmt.Errorf("experiments: concurrent runs incomplete")
	}
	return (lat[0] + lat[1]) / 2, nil
}

// Figure12 studies throughput while batching 1-8: batch/latency for the
// cold-start, normalized to Baseline at batch 1.
func Figure12(w io.Writer, opts Options) error {
	header(w, "Figure 12: cold-start throughput vs batch size, normalized to Baseline@1")
	modes := []plan.Mode{plan.ModeBaseline, plan.ModePipeSwitch, plan.ModePTDHA}
	batches := []int{1, 2, 4, 8}
	// Every (model, mode, batch) point is an independent cold-start
	// simulation; fan out across opts.Workers, then print in sweep order.
	// Each point loads its own model instance so points share no state.
	type point struct {
		model string
		mode  plan.Mode
		batch int
		tput  float64
	}
	points := make([]point, 0, len(microModels)*len(modes)*len(batches))
	for _, name := range microModels {
		for _, mode := range modes {
			for _, bs := range batches {
				points = append(points, point{model: name, mode: mode, batch: bs})
			}
		}
	}
	err := runner.ForEach(opts.Workers, len(points), func(i int) error {
		p := &points[i]
		res, err := coldRun(topology.P38xlarge, p.model, p.mode, p.batch)
		if err != nil {
			return err
		}
		p.tput = float64(p.batch) / res.Latency().Seconds()
		return nil
	})
	if err != nil {
		return err
	}
	next := 0
	for _, name := range microModels {
		m, err := dnn.ByName(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s:\n%-12s", m.Name, "batch")
		for _, bs := range batches {
			fmt.Fprintf(w, " %8d", bs)
		}
		fmt.Fprintln(w)
		var baseT1 float64
		for _, mode := range modes {
			fmt.Fprintf(w, "%-12s", mode)
			for _, bs := range batches {
				p := points[next]
				next++
				if mode == plan.ModeBaseline && bs == 1 {
					baseT1 = p.tput
				}
				fmt.Fprintf(w, " %8.2f", p.tput/baseT1)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\npaper: PT+DHA keeps the best throughput at every batch size; the gap to")
	fmt.Fprintln(w, "PipeSwitch narrows with batch because longer compute hides more loading")
	return nil
}

// Table5 reports the simulated profiling cost with 10 iterations.
func Table5(w io.Writer, _ Options) error {
	header(w, "Table 5: profiling cost (seconds, 10 iterations)")
	paper := map[string][4]float64{
		"resnet50":      {2.28, 0.44, 1.20, 3.92},
		"bert-base":     {7.99, 0.41, 4.00, 12.40},
		"roberta-large": {63.61, 0.95, 11.31, 75.87},
		"gpt2-medium":   {28.1, 1.69, 11.02, 40.81},
	}
	fmt.Fprintf(w, "%-14s %8s %10s %10s %8s   %s\n",
		"model", "DHA", "in-memory", "layer-load", "total", "paper DHA/mem/load/total")
	for _, name := range microModels {
		_, prof, err := profile(name)
		if err != nil {
			return err
		}
		c := prof.Cost
		p := paper[name]
		fmt.Fprintf(w, "%-14s %8.2f %10.2f %10.2f %8.2f   %.2f / %.2f / %.2f / %.2f\n",
			name, c.DHA.Seconds(), c.InMem.Seconds(), c.Load.Seconds(), c.Total().Seconds(),
			p[0], p[1], p[2], p[3])
	}
	fmt.Fprintln(w, "\npaper: profiling is a one-time cost of seconds to ~a minute, dominated by DHA runs")
	return nil
}
