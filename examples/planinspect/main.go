// Planinspect walks the model zoo and shows what DeepPlan's planner decides
// for each model: which layers execute via direct-host-access, how the model
// partitions for parallel transmission, and the predicted gain — a Table 3
// style view over the whole zoo, plus a JSON export of one plan.
package main

import (
	"fmt"
	"log"
	"os"

	"deepplan"
)

func main() {
	platform := deepplan.NewP38xlarge()

	fmt.Printf("%-14s %7s %9s %12s %12s %12s\n",
		"model", "layers", "DHA", "host-MiB", "pipeswitch", "pt+dha")
	for _, model := range deepplan.EvaluationModels() {
		prof, err := platform.Profile(model, deepplan.ProfileOptions{})
		if err != nil {
			log.Fatal(err)
		}
		ps, err := platform.Plan(prof, deepplan.ModePipeSwitch)
		if err != nil {
			log.Fatal(err)
		}
		ptdha, err := platform.Plan(prof, deepplan.ModePTDHA)
		if err != nil {
			log.Fatal(err)
		}
		psLat, err := platform.PredictLatency(prof, ps)
		if err != nil {
			log.Fatal(err)
		}
		ptdhaLat, err := platform.PredictLatency(prof, ptdha)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %7d %9d %12.1f %10.2fms %10.2fms\n",
			model.Name, model.NumLayers(), ptdha.CountDHA(),
			float64(ptdha.HostResidentBytes(model))/(1<<20),
			psLat.Seconds()*1e3, ptdhaLat.Seconds()*1e3)
	}

	// Detailed per-layer view of the decisions at the front of GPT-2, where
	// the paper's Table 3b looks: the huge tied word embedding goes DHA, the
	// fully-connected layers stay load-then-execute.
	model, _ := deepplan.LoadModel("gpt2")
	prof, err := platform.Profile(model, deepplan.ProfileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	pln, err := platform.Plan(prof, deepplan.ModeDHA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGPT-2 front layers under DeepPlan (DHA):\n")
	fmt.Printf("%-4s %-22s %10s %-8s\n", "idx", "layer", "MiB", "method")
	for i := 0; i < 8; i++ {
		l := &model.Layers[i]
		method := pln.Layers[i].Method.String()
		if !l.HasParams() {
			method = "(no params)"
		}
		fmt.Printf("%-4d %-22s %10.2f %-8s\n",
			i, l.Name, float64(l.ParamBytes)/(1<<20), method)
	}

	// Plans serialize for deployment, like the paper's generated artifacts.
	out, err := pln.Marshal()
	if err != nil {
		log.Fatal(err)
	}
	path := "gpt2-dha-plan.json"
	if err := os.WriteFile(path, out, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s (%d bytes)\n", path, len(out))
}
