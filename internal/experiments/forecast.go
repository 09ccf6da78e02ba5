package experiments

import (
	"fmt"
	"io"

	"deepplan/internal/cluster"
	"deepplan/internal/experiments/runner"
	"deepplan/internal/sim"
	"deepplan/internal/workload"
)

// autoscalePolicies is fig-forecast's controller axis: both policies, or
// the one AutoscalePolicy pins.
func (o Options) autoscalePolicies() ([]cluster.AutoscalePolicy, error) {
	if o.AutoscalePolicy == "" {
		return []cluster.AutoscalePolicy{cluster.AutoscaleReactive, cluster.AutoscalePredictive}, nil
	}
	pol, err := cluster.ParseAutoscalePolicy(o.AutoscalePolicy)
	if err != nil {
		return nil, err
	}
	return []cluster.AutoscalePolicy{pol}, nil
}

// perReplicaDollarsPerHour prices one always-on BERT-Base replica: the
// p3.8xlarge's on-demand rate spread over its ~100-instance warm capacity.
// Only the ratio between the two policies matters for the experiment; the
// absolute number just makes the column legible.
const perReplicaDollarsPerHour = 12.24 / 100

// forecastParams is one fig-forecast scenario: a spiky MAF-like trace with
// a shared burst schedule, served by a small affinity-routed cluster whose
// replica controller starts from a one-replica floor.
type forecastParams struct {
	nodes      int
	model      string
	replicas   int
	totalRate  float64
	duration   sim.Duration
	burstEvery sim.Duration
	burstLen   sim.Duration
	interval   sim.Duration
}

func defaultForecastParams(quick bool) forecastParams {
	p := forecastParams{
		nodes:      2,
		model:      "gpt2",
		replicas:   32,
		totalRate:  110,
		duration:   150 * sim.Second,
		burstEvery: 15 * sim.Second,
		burstLen:   3 * sim.Second,
		interval:   500 * sim.Millisecond,
	}
	if quick {
		p.totalRate = 70
		p.duration = 75 * sim.Second
	}
	return p
}

// workload generates the controlled spiky trace: every function is Spiky
// and every burst is phase-aligned, so "when is the next spike" has one
// true answer the forecaster can be graded against.
func (p forecastParams) workload() ([]workload.Request, error) {
	tr, err := workload.MAFLike(workload.TraceSpec{
		Seed:         77,
		Duration:     p.duration,
		TotalRate:    p.totalRate,
		NumFunctions: p.replicas,
		Mix:          map[workload.FunctionClass]float64{workload.Spiky: 1},
		BurstEvery:   p.burstEvery,
		BurstLen:     p.burstLen,
	})
	if err != nil {
		return nil, err
	}
	return tr.Requests, nil
}

// runForecastPolicy replays the trace under one controller policy. No
// warm-up: every replica starts cold, as in a serverless fleet. The
// reactive controller therefore activates *cold* replicas mid-burst, while
// the predictive one prewarms them before arrivals land.
func runForecastPolicy(p forecastParams, policy cluster.AutoscalePolicy,
	reqs []workload.Request) (*cluster.Report, error) {
	_, rep, err := serve(cluster.Config{
		Nodes: p.nodes,
		Route: cluster.RouteAffinity,
		SLO:   100 * sim.Millisecond,
		Autoscale: cluster.AutoscaleConfig{
			Enabled:  true,
			Interval: p.interval,
			Policy:   policy,
			// Four buckets of lead time so prewarm loads finish before the
			// burst's arrivals, and a little utilization headroom so the
			// forecasted peak maps to one spare replica rather than none.
			Horizon:    2 * sim.Second,
			TargetUtil: 0.5,
		},
	}, []deployment{{p.model, p.replicas}}, reqs, false)
	return rep, err
}

// replicaSeconds sums the billed active-replica integral across models.
func replicaSeconds(rep *cluster.Report) float64 {
	s := 0.0
	for _, rs := range rep.Replicas {
		s += rs.ActiveSeconds
	}
	return s
}

// FigForecast compares the reactive replica controller against the
// forecast-driven predictive one on a workload built to reward foresight:
// every function is Spiky with one shared, strictly periodic burst
// schedule. The reactive controller only widens the model after a burst
// has already queued requests behind cold replicas; the predictive one
// detects the cadence from arrival history, prewarms replicas just before
// each burst (waking slept instances with a single direct-host-access
// load), and puts them back to sleep in the idle gaps — so it should cut
// the cold-start tail without buying more replica-seconds.
func FigForecast(w io.Writer, opts Options) error {
	header(w, "Predictive actuation: reactive vs forecast-driven autoscaling")
	p := defaultForecastParams(opts.Quick)
	reqs, err := p.workload()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "spiky MAF-like trace: %d functions, %.0f rps average, bursts every %.0fs lasting %.0fs\n",
		p.replicas, p.totalRate, p.burstEvery.Seconds(), p.burstLen.Seconds())
	fmt.Fprintf(w, "%d nodes, affinity routing, %d replicas, autoscale tick %.1fs, floor 1\n\n",
		p.nodes, p.replicas, p.interval.Seconds())

	policies, err := opts.autoscalePolicies()
	if err != nil {
		return err
	}
	reports := make([]*cluster.Report, len(policies))
	err = runner.ForEach(opts.Workers, len(policies), func(i int) (err error) {
		reports[i], err = runForecastPolicy(p, policies[i], reqs)
		return err
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-11s %12s %6s %5s %8s %10s %7s\n",
		"policy", "cold-p99(ms)", "colds", "shed", "p99(ms)", "replica-s", "$")
	for i, rep := range reports {
		fmt.Fprintf(w, "%-11s %12.1f %6d %5d %8.1f %10.0f %7.4f\n",
			policies[i], ms(rep.ColdP99), rep.ColdStarts, rep.Shed, ms(rep.P99),
			replicaSeconds(rep), replicaSeconds(rep)/3600*perReplicaDollarsPerHour)
	}
	for i, rep := range reports {
		if policies[i] != cluster.AutoscalePredictive {
			continue
		}
		fmt.Fprintf(w, "\npredictive actuations: %d prewarms, %d wakes, %d sleeps, %d swap-ins\n",
			rep.Prewarms, rep.Wakes, rep.Sleeps, rep.SwapIns)
	}
	return nil
}
