package experiments

import (
	"fmt"
	"io"

	"deepplan/internal/cluster"
	"deepplan/internal/experiments/runner"
	"deepplan/internal/hostmem"
	modelzoo "deepplan/internal/registry"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
)

// FigZoo stresses the multi-tenant regime the paper's §5.3 serving
// experiments point toward but never reach: thousands of model variants
// behind one host-memory tier, under Zipf-skewed traffic. Host memory is
// held fixed while the zoo grows, so the pinned-cache hit rate falls and an
// increasing share of requests pays a fetch-to-pin before its cold start
// can even begin. The question the table answers is how the two cold-start
// designs degrade: PipeSwitch serializes the full weight transfer into the
// cold path, so every extra cold start stretches the tail, while DeepPlan's
// direct-host-access begins execution as soon as the weights are pinned —
// the cold-p99 gap between them widens as the zoo grows. Both host-cache
// eviction policies run so LRU's recency blindness under skew is visible
// next to the cost-aware load_time x popularity score.
func FigZoo(w io.Writer, opts Options) error {
	header(w, "Model zoo: cold-start tail vs zoo size (2 nodes, affinity, dense packing)")
	sizes := []int{1000, 10000, 100000}
	requests := 1600
	rate := 45.0
	skew := 0.9
	if opts.Quick {
		sizes = []int{200, 1000}
		requests = 400
		rate = 35
	}
	zooPolicies := []hostmem.Policy{hostmem.PolicyLRU, hostmem.PolicyCostAware}
	policies := []serving.Policy{serving.PolicyPipeSwitch, serving.PolicyDHA}
	fmt.Fprintf(w, "%d requests at %.0f rps, Zipf skew %.1f, 244 GB host memory per node\n\n",
		requests, rate, skew)

	type point struct {
		n      int
		policy serving.Policy
		zp     hostmem.Policy
		rep    *cluster.Report
	}
	var points []point
	for _, n := range sizes {
		for _, zp := range zooPolicies {
			for _, p := range policies {
				points = append(points, point{n: n, policy: p, zp: zp})
			}
		}
	}
	err := runner.ForEach(opts.Workers, len(points), func(i int) error {
		pt := &points[i]
		z, err := modelzoo.New(modelzoo.Spec{N: pt.n, Skew: skew})
		if err != nil {
			return err
		}
		c, err := cluster.New(cluster.Config{
			Nodes:      2,
			Route:      cluster.RouteAffinity,
			Policy:     pt.policy,
			SLO:        100 * sim.Millisecond,
			HostPolicy: pt.zp,
			// Fetch-to-pin is a pageable-to-pinned memcpy, not a disk read:
			// sustained DRAM copy bandwidth, so the cold path itself stays
			// the dominant cost and the policies separate.
			HostFetchBandwidth: 25e9,
			Pack:               serving.PackDense,
		})
		if err != nil {
			return err
		}
		if err := c.DeployZoo(z); err != nil {
			return err
		}
		c.Warmup()
		rep, err := c.Run(cluster.ZooRequests(z, z.Requests(42, rate, requests)))
		if err != nil {
			return err
		}
		pt.rep = rep
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-8s %-12s %-6s %12s %9s %9s %8s %8s %6s\n",
		"models", "policy", "cache", "cold-p99(ms)", "p99(ms)", "goodput", "hit-rate", "evicts", "shed")
	for _, pt := range points {
		r := pt.rep
		hitRate := 0.0
		if lookups := r.HostHits + r.HostMisses; lookups > 0 {
			hitRate = float64(r.HostHits) / float64(lookups)
		}
		fmt.Fprintf(w, "%-8d %-12s %-6s %12.1f %9.1f %8.1f%% %7.1f%% %8d %6d\n",
			pt.n, pt.policy, pt.zp, ms(r.ColdP99), ms(r.P99),
			r.Goodput*100, hitRate*100, r.HostEvictions, r.Shed)
	}

	// The headline: DeepPlan's cold-tail advantage as the zoo scales. Taken
	// per zoo-policy so the cache dimension does not confound the cold-path
	// one.
	fmt.Fprintf(w, "\ncold-p99 advantage (pipeswitch / dha):\n")
	for _, zp := range zooPolicies {
		fmt.Fprintf(w, "  %s cache:", zp)
		for _, n := range sizes {
			var ps, dha *cluster.Report
			for i := range points {
				if points[i].n != n || points[i].zp != zp {
					continue
				}
				if points[i].policy == serving.PolicyPipeSwitch {
					ps = points[i].rep
				} else {
					dha = points[i].rep
				}
			}
			adv := 0.0
			if dha.ColdP99 > 0 {
				adv = float64(ps.ColdP99) / float64(dha.ColdP99)
			}
			fmt.Fprintf(w, "  %d: %.2fx", n, adv)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "\nheld-fixed host memory turns zoo growth into cache pressure: the hit rate")
	fmt.Fprintln(w, "falls, fetch-to-pin precedes more cold starts, and pipeswitch pays the full")
	fmt.Fprintln(w, "weight transfer on top of each one while direct-host-access overlaps it")
	return nil
}
