package experiments

import (
	"fmt"
	"io"

	"deepplan/internal/cluster"
	"deepplan/internal/experiments/runner"
	"deepplan/internal/faults"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/workload"
)

// FigFaults subjects each serving policy to an identical deterministic fault
// schedule — one GPU failure, a degraded PCIe lane, and straggling weight
// copies — while SLO-aware admission control sheds cold-starts projected past
// 1.5×SLO. The paper's evaluation (§5.3) measures clean hardware only; this
// extension asks how each policy degrades when the hardware misbehaves.
// DeepPlan's shorter cold-starts (DHA skips the embedding copy; PT splits the
// rest across lanes) mean a failure's evictions refill faster and fewer
// requests blow the admission budget, so it should sustain a lower p99 and
// shed less than PipeSwitch under the same faults.
func FigFaults(w io.Writer, opts Options) error {
	header(w, "Fault injection: graceful degradation under GPU/link faults (SLO 100 ms)")
	concurrency := 140
	requests := 1200
	spec := "gpu=1@2s+3s; link=gpu0-lane*0.4@1s+6s; straggler=copy/3@6s+3s"
	if opts.Quick {
		requests = 400
		spec = "gpu=1@1s+1500ms; link=gpu0-lane*0.4@500ms+2s; straggler=copy/3@2s+1s"
	}
	sched, err := faults.Parse(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "schedule: %s; admission factor 1.5\n\n", sched)

	type point struct {
		pol serving.Policy
		rep *cluster.Report
	}
	points := make([]point, len(servingPolicies))
	for i, pol := range servingPolicies {
		points[i] = point{pol: pol}
	}
	err = runner.ForEach(opts.Workers, len(points), func(i int) (err error) {
		p := &points[i]
		_, p.rep, err = serve(cluster.Config{
			Nodes:       1,
			Policy:      p.pol,
			SLO:         100 * sim.Millisecond,
			Faults:      sched,
			AdmitFactor: 1.5,
		}, []deployment{{"bert-base", concurrency}}, workload.Poisson(42, 100, requests, concurrency), true)
		return err
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-12s %9s %9s %6s %8s %9s %7s %9s\n",
		"policy", "p99(ms)", "goodput", "shed", "retried", "degraded", "colds", "gpu-fails")
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %9.1f %8.1f%% %6d %8d %9d %7d %9d\n",
			p.pol, ms(p.rep.P99), p.rep.Goodput*100, p.rep.Shed, p.rep.Retried,
			p.rep.Degraded, p.rep.ColdStarts, p.rep.GPUFailures)
	}
	fmt.Fprintln(w, "\nevery policy sees the same failure schedule; DeepPlan's faster cold path")
	fmt.Fprintln(w, "refills the failed GPU's evictions sooner, so it sheds fewer requests and")
	fmt.Fprintln(w, "holds a lower p99 than PipeSwitch while degraded")
	return nil
}
