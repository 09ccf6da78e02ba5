package experiments

import (
	"fmt"
	"io"

	"deepplan/internal/cluster"
	"deepplan/internal/experiments/runner"
	"deepplan/internal/sim"
	"deepplan/internal/workload"
)

// FigCluster extends the paper's single-server evaluation (§5.3, one
// p3.8xlarge) to a small fleet: the same BERT-Base deployment, replicated
// on every node, under the three routing policies. Replicas exceed each
// node's warm capacity, so cold starts are structural and the question is
// where they land — round-robin feeds them into whatever queue is next,
// least-outstanding steers them to the shortest queue, and affinity trades
// some balance for residency. A final row runs the reactive autoscaler
// from a one-replica floor to show the controller widening the model under
// queue pressure.
func FigCluster(w io.Writer, opts Options) error {
	header(w, "Cluster serving: routing policy x node count (BERT-Base, SLO 100 ms)")
	replicas := 180
	requests := 1600
	rate := 160.0
	nodeCounts := []int{1, 2, 4}
	if opts.Quick {
		replicas = 160
		requests = 500
		rate = 140
		nodeCounts = []int{1, 2}
	}
	routes := []cluster.RoutePolicy{
		cluster.RouteRoundRobin, cluster.RouteLeastOutstanding, cluster.RouteAffinity,
	}
	reqs := workload.Poisson(42, rate, requests, replicas)
	fmt.Fprintf(w, "%d replicas per node (above warm capacity), %d requests at %.0f rps\n\n",
		replicas, requests, rate)

	type point struct {
		nodes int
		route cluster.RoutePolicy
		rep   *cluster.Report
	}
	var points []point
	for _, n := range nodeCounts {
		for _, r := range routes {
			points = append(points, point{nodes: n, route: r})
		}
	}
	run := func(nodes int, route cluster.RoutePolicy, reqs []workload.Request, as cluster.AutoscaleConfig) (*cluster.Report, error) {
		_, rep, err := serve(cluster.Config{
			Nodes:     nodes,
			Route:     route,
			SLO:       100 * sim.Millisecond,
			Autoscale: as,
		}, []deployment{{"bert-base", replicas}}, reqs, true)
		return rep, err
	}
	err := runner.ForEach(opts.Workers, len(points), func(i int) (err error) {
		p := &points[i]
		p.rep, err = run(p.nodes, p.route, reqs, cluster.AutoscaleConfig{})
		return err
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-6s %-18s %9s %12s %7s %9s %6s\n",
		"nodes", "route", "p99(ms)", "cold-p99(ms)", "colds", "goodput", "shed")
	for _, p := range points {
		fmt.Fprintf(w, "%-6d %-18s %9.1f %12.1f %7d %8.1f%% %6d\n",
			p.nodes, p.route, ms(p.rep.P99), ms(p.rep.ColdP99),
			p.rep.ColdStarts, p.rep.Goodput*100, p.rep.Shed)
	}

	// Reactive autoscaling: a hotter arrival stream (well above one warm
	// replica's service rate) against a two-node cluster whose router starts
	// at a one-replica floor; the controller must widen the model as the
	// windowed queue depth crosses the threshold.
	asRep, err := run(2, cluster.RouteLeastOutstanding, workload.Poisson(43, 400, requests, replicas), cluster.AutoscaleConfig{
		Enabled:  true,
		Interval: sim.Second,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nautoscale (2 nodes, least-outstanding, floor 1, tick 1s, 400 rps):\n")
	for _, rs := range asRep.Replicas {
		fmt.Fprintf(w, "  %s: %d scale-ups, %d scale-downs; %d of %d replicas active at end\n",
			rs.Model, asRep.ScaleUps, asRep.ScaleDowns, rs.Active, rs.Max)
	}
	fmt.Fprintf(w, "  p99 %.1f ms, goodput %.1f%%, %d cold starts\n",
		ms(asRep.P99), asRep.Goodput*100, asRep.ColdStarts)

	fmt.Fprintln(w, "\nround-robin convoys cold loads behind whatever queue comes up next;")
	fmt.Fprintln(w, "least-outstanding steers them to the shortest queue, cutting the cold tail;")
	fmt.Fprintln(w, "affinity keeps keys on their rendezvous home node, trading balance for residency")
	return nil
}
