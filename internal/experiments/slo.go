package experiments

import (
	"fmt"
	"io"

	"deepplan/internal/cluster"
	"deepplan/internal/experiments/runner"
	"deepplan/internal/faults"
	"deepplan/internal/monitor"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/workload"
)

// FigSLO runs the burn-rate monitor against the fault-injection schedule of
// fig-faults on a small cluster and asks which cold-start policies page the
// on-call. The same arrival sequence and the same hardware misbehavior hit
// PipeSwitch and DeepPlan (PT+DHA); the only difference is how long the
// fault-driven cold starts take. PipeSwitch's ~200 ms cold path blows
// through the latency objective the moment the failed GPU's evictions start
// refilling, so its cold-p99 budget fast-burns and pages; DeepPlan's
// direct-host-access colds stay under the objective and every latency
// budget holds. The GPU-availability budget is disabled
// here: the hardware outage pages identically under every policy, and this
// experiment isolates the policy-dependent signal.
func FigSLO(w io.Writer, opts Options) error {
	header(w, "SLO monitor: burn-rate alerts under the fig-faults schedule (4 nodes, SLO 100 ms)")
	nodes := 4
	replicas := 120
	requests := 1000
	rate := 100.0
	spec := "gpu=1@2s+3s; link=gpu0-lane*0.4@1s+6s; straggler=copy/3@6s+3s"
	if opts.Quick {
		requests = 400
		spec = "gpu=1@1s+1500ms; link=gpu0-lane*0.4@500ms+2s; straggler=copy/3@2s+1s"
	}
	sched, err := faults.Parse(spec)
	if err != nil {
		return err
	}
	reqs := workload.Poisson(42, rate, requests, replicas)
	fmt.Fprintf(w, "schedule: %s (node 0)\n", sched)
	fmt.Fprintf(w, "%d nodes, %d replicas, %d requests at %.0f rps, least-outstanding routing\n\n",
		nodes, replicas, requests, rate)

	policies := []serving.Policy{serving.PolicyPipeSwitch, serving.PolicyPTDHA}
	type point struct {
		pol     serving.Policy
		faulted bool
		rep     *cluster.Report
		reg     *monitor.Registry
	}
	var points []point
	for _, pol := range policies {
		for _, f := range []bool{false, true} {
			points = append(points, point{pol: pol, faulted: f})
		}
	}
	err = runner.ForEach(opts.Workers, len(points), func(i int) (err error) {
		p := &points[i]
		var fs *faults.Schedule
		if p.faulted {
			fs = sched
		}
		p.reg = monitor.New()
		_, p.rep, err = serve(cluster.Config{
			Nodes:   nodes,
			Policy:  p.pol,
			SLO:     100 * sim.Millisecond,
			Faults:  fs,
			Monitor: p.reg,
			// Latency SLIs at the contractual SLO itself (not the tighter
			// 80% default): the question here is which policy breaks the
			// contract, not which one approaches it. The long window is
			// pinned to one second — the scale of the injected incidents —
			// rather than the horizon-derived default, so both the quick and
			// full variants judge the same burn dynamics.
			Alerts: &monitor.SLOConfig{
				AvailBudget:  -1,
				AlertLatency: 100 * sim.Millisecond,
				LongWindow:   sim.Second,
			},
		}, []deployment{{"bert-base", replicas}}, reqs, true)
		return err
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-12s %-10s %7s %12s %9s %6s %8s\n",
		"policy", "faults", "colds", "cold-p99(ms)", "goodput", "pages", "tickets")
	for _, p := range points {
		var pages, tickets int
		for _, a := range p.rep.Alerts {
			if a.Severity == "page" {
				pages++
			} else {
				tickets++
			}
		}
		faulted := "none"
		if p.faulted {
			faulted = "fig-faults"
		}
		fmt.Fprintf(w, "%-12s %-10s %7d %12.1f %8.1f%% %6d %8d\n",
			p.pol, faulted, p.rep.ColdStarts, ms(p.rep.ColdP99),
			p.rep.Goodput*100, pages, tickets)
	}

	fmt.Fprintln(w, "\nalert log (faulted runs):")
	for _, p := range points {
		if !p.faulted {
			continue
		}
		fmt.Fprintf(w, "  %s:\n", p.pol)
		if len(p.rep.Alerts) == 0 {
			fmt.Fprintf(w, "    none — every error budget held\n")
		}
		for _, a := range p.rep.Alerts {
			fmt.Fprintf(w, "    %s\n", a)
		}
	}

	if opts.Metrics != nil {
		// Representative exposition: the faulted PipeSwitch run (the one
		// that pages).
		for _, p := range points {
			if p.pol != serving.PolicyPipeSwitch || !p.faulted {
				continue
			}
			if err := p.reg.WriteOpenMetrics(opts.Metrics); err != nil {
				return err
			}
		}
	}

	fmt.Fprintln(w, "\nthe same faults hit both policies, but only PipeSwitch's slow cold path")
	fmt.Fprintln(w, "turns the failed GPU's eviction refills into SLO burn: its cold-p99 budget")
	fmt.Fprintln(w, "fast-burns and pages while DeepPlan-dha's budgets all hold")
	return nil
}
