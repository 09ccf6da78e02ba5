// Serving example: the paper's Figure 13 scenario in miniature. A four-GPU
// server — a one-node cluster — packs more BERT-Base instances than fit in
// GPU memory and serves an open-loop Poisson workload; compare how each
// cold-start policy holds up as the instance count crosses the memory
// limit.
package main

import (
	"fmt"
	"log"

	"deepplan"
)

func main() {
	const (
		rate     = 100.0 // requests per second, as in the paper
		requests = 800
		sloMs    = 100
	)
	platform := deepplan.NewP38xlarge()
	model, err := deepplan.LoadModel("bert-base")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("serving %s at %.0f rps, SLO %d ms\n\n", model.Name, rate, sloMs)
	fmt.Printf("%-12s %6s %9s %9s %7s %9s\n",
		"policy", "#inst", "p99(ms)", "goodput", "colds", "capacity")
	for _, policy := range []deepplan.Mode{
		deepplan.ModePipeSwitch, deepplan.ModeDHA, deepplan.ModePTDHA,
	} {
		for _, instances := range []int{100, 140, 180} {
			c, err := platform.NewCluster(deepplan.ClusterOptions{
				Policy: policy,
				SLO:    deepplan.Duration(sloMs) * 1e6,
				Nodes:  1,
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := c.Deploy(model, instances); err != nil {
				log.Fatal(err)
			}
			c.Warmup()
			reqs, err := c.Requests(deepplan.PoissonWorkload(42, rate, requests, instances))
			if err != nil {
				log.Fatal(err)
			}
			rep, err := c.Run(reqs)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12s %6d %9.1f %8.1f%% %7d %9d\n",
				policy, instances, rep.P99.Seconds()*1e3, rep.Goodput*100,
				rep.ColdStarts, rep.WarmCapacity)
		}
		fmt.Println()
	}
	fmt.Println("PipeSwitch fits ~96 instances warm and misses the SLO beyond ~120;")
	fmt.Println("DeepPlan fits ~116 (embeddings live in host memory) and PT+DHA holds")
	fmt.Println("the 100 ms SLO through 180 instances — the paper's Figure 13 story.")
}
