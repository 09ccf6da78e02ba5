// Trace example: a scaled-down version of the paper's Figure 15 — replay a
// Microsoft-Azure-Functions-like trace (sustained + fluctuating + spiky
// arrival classes) against a mixed deployment of BERT-Base, RoBERTa-Base,
// and GPT-2 at the paper's 4:4:1 ratio on one server (a one-node cluster),
// and watch the per-minute tail.
package main

import (
	"fmt"
	"log"

	"deepplan"
)

func main() {
	const (
		minutes = 20
		rate    = 120.0
	)
	platform := deepplan.NewP38xlarge()
	mix := []struct {
		name  string
		count int
	}{
		{"bert-base", 40}, {"roberta-base", 40}, {"gpt2", 10},
	}

	for _, policy := range []deepplan.Mode{deepplan.ModePipeSwitch, deepplan.ModePTDHA} {
		c, err := platform.NewCluster(deepplan.ClusterOptions{Policy: policy, Nodes: 1})
		if err != nil {
			log.Fatal(err)
		}
		total := 0
		for _, d := range mix {
			m, err := deepplan.LoadModel(d.name)
			if err != nil {
				log.Fatal(err)
			}
			if err := c.Deploy(m, d.count); err != nil {
				log.Fatal(err)
			}
			total += d.count
		}
		arrivals, err := deepplan.MAFWorkload(7, minutes*60*1e9, rate, total)
		if err != nil {
			log.Fatal(err)
		}
		// The trace numbers instances in deploy order; the cluster maps
		// each arrival to its model and a key within that model.
		reqs, err := c.Requests(arrivals)
		if err != nil {
			log.Fatal(err)
		}
		c.Warmup()
		rep, err := c.Run(reqs)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("policy %s: %d requests, p99 %.1f ms, goodput %.1f%%, %d cold-starts\n",
			policy, rep.Requests, rep.P99.Seconds()*1e3, rep.Goodput*100, rep.ColdStarts)
		windows := c.Windows()
		fmt.Printf("  minute:")
		for i := range windows {
			if i%4 != 0 {
				continue
			}
			fmt.Printf(" %3d", i)
		}
		fmt.Printf("\n  p99 ms:")
		for i, ws := range windows {
			if i%4 != 0 {
				continue
			}
			fmt.Printf(" %3.0f", ws.P99.Seconds()*1e3)
		}
		fmt.Println()
		fmt.Println()
	}
}
