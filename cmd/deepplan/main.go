// deepplan is the paper's planning tool: given a model and a server
// platform, it profiles the model per layer, runs Algorithm 1 plus the
// transmission planner, and emits the inference execution plan.
//
// Usage:
//
//	deepplan -model bert-base -mode pt+dha            # plan summary
//	deepplan -model bert-base -mode dha -json plan.json
//	deepplan -model gpt2 -mode dha -show-layers 0:10  # per-layer view
//	deepplan -models                                  # list the zoo
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"deepplan"
	"deepplan/internal/gantt"
	"deepplan/internal/plan"
	"deepplan/internal/trace"
)

func main() {
	modelName := flag.String("model", "", "model to plan (see -models)")
	mode := flag.String("mode", "pt+dha", "baseline | pipeswitch | dha | pt | pt+dha")
	platformName := flag.String("platform", "p3.8xlarge", "p3.8xlarge | dual-a5000")
	jsonOut := flag.String("json", "", "write the plan as JSON to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace of the simulated cold start to this file")
	showGantt := flag.Bool("gantt", false, "render the cold start as an ASCII Gantt chart")
	showLayers := flag.String("show-layers", "", "layer range to print, e.g. 0:10")
	listModels := flag.Bool("models", false, "list available models")
	flag.Parse()

	if *listModels {
		for _, n := range deepplan.Models() {
			m, _ := deepplan.LoadModel(n)
			fmt.Printf("%-14s %-14s %4d layers %8.1f MiB\n",
				n, m.Name, m.NumLayers(), float64(m.TotalParamBytes())/(1<<20))
		}
		return
	}
	if *modelName == "" {
		fail("missing -model (use -models to list)")
	}

	var platform *deepplan.Platform
	switch *platformName {
	case "p3.8xlarge":
		platform = deepplan.NewP38xlarge()
	case "dual-a5000":
		platform = deepplan.NewDualA5000()
	default:
		fail("unknown platform %q", *platformName)
	}

	m, err := deepplan.LoadModel(*modelName)
	if err != nil {
		fail("%v", err)
	}
	// Every flag is checked before anything is printed or written.
	var lo, hi int
	if *showLayers != "" {
		if lo, hi, err = parseRange(*showLayers, m.NumLayers()); err != nil {
			fail("-show-layers: %v", err)
		}
	}
	prof, err := platform.Profile(m, deepplan.ProfileOptions{})
	if err != nil {
		fail("%v", err)
	}
	pln, err := platform.Plan(prof, deepplan.Mode(*mode))
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("model:      %s (%d layers, %.1f MiB)\n",
		m.Name, m.NumLayers(), float64(m.TotalParamBytes())/(1<<20))
	fmt.Printf("platform:   %s\n", platform.Name())
	fmt.Printf("mode:       %s, %d partition(s)\n", pln.Mode, pln.NumParts)
	fmt.Printf("DHA layers: %d (keeps %.1f MiB in host memory)\n",
		pln.CountDHA(), float64(pln.HostResidentBytes(m))/(1<<20))
	fmt.Printf("predicted cold-start: %.2f ms (analytic)\n",
		platform.PredictLatency(prof, pln).Seconds()*1e3)
	res, err := platform.Execute(m, pln, deepplan.ExecuteOptions{})
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("simulated cold-start: %.2f ms (stall %.2f ms)\n",
		res.Latency().Seconds()*1e3, res.TotalStall.Seconds()*1e3)

	if *showGantt {
		fmt.Println()
		if err := gantt.Render(os.Stdout, res); err != nil {
			fail("%v", err)
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		rec := trace.New()
		res.EmitTrace(rec)
		if err := trace.WriteChrome(f, rec, map[string]string{"model": res.Model, "mode": res.Mode}); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("timeline written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}

	if *showLayers != "" {
		fmt.Printf("\n%-6s %-34s %-6s %10s %-8s %5s\n",
			"index", "layer", "kind", "bytes", "method", "part")
		for i := lo; i < hi; i++ {
			l := &m.Layers[i]
			lp := pln.Layers[i]
			method := lp.Method.String()
			if !l.HasParams() {
				method = "-"
			}
			fmt.Printf("%-6d %-34s %-6s %10d %-8s %5d\n",
				i, l.Name, l.Kind, l.ParamBytes, method, lp.Partition)
		}
	}

	if *jsonOut != "" {
		b, err := pln.Marshal()
		if err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("\nplan written to %s\n", *jsonOut)
		// Round-trip sanity check.
		if _, err := plan.Unmarshal(b); err != nil {
			fail("round trip failed: %v", err)
		}
	}
}

func parseRange(s string, n int) (int, int, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("range must be lo:hi, got %q", s)
	}
	lo, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	hi, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, err
	}
	if lo < 0 || hi > n || lo >= hi {
		return 0, 0, fmt.Errorf("range %d:%d out of bounds [0,%d)", lo, hi, n)
	}
	return lo, hi, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "deepplan: "+format+"\n", args...)
	os.Exit(1)
}
