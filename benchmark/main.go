// Command benchmark is the repository's performance benchmark: it replays
// fixed, seed-generated serving workloads on fresh simulated systems and
// prints, per workload, whether the simulator's answers were correct and
// the end-to-end metrics (-trace 0) or the per-layer metrics of a traced
// pass (-trace 1). See README.md for the metric definitions.
//
//	go run . -workload cold-start -seed 42 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func main() {
	os.Exit(mainCode(os.Args[1:], workloads(1), os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workloads []string
	seed      int64
	seconds   int
	trace     bool
	spans     string
}

// parseFlags parses and validates the command line against the workloads
// in specs.
func parseFlags(args []string, specs map[string]*spec, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := fs.Int64("seed", 42, "seed every input generator derives from")
	seconds := fs.Int("seconds", 10, "size of the run: each workload makes a fixed number of timed reps per 10 s, and at least 3")
	tr := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 prints the per-layer metrics of a traced pass")
	spans := fs.String("spans", "", "with -trace 1, write the benchmark's spans to this file as Chrome trace JSON")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	o := &options{seed: *seed, seconds: *seconds, trace: *tr == 1, spans: *spans}
	switch {
	case *name == "all":
		o.workloads = workloadOrder
	case specs[*name] != nil:
		o.workloads = []string{*name}
	default:
		return nil, fmt.Errorf("unknown -workload %q (want one of %s, or all)", *name, strings.Join(workloadOrder, ", "))
	}
	if *tr != 0 && *tr != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", *tr)
	}
	if *seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *spans != "" && !o.trace {
		return nil, errors.New("-spans needs -trace 1")
	}
	return o, nil
}

// mainCode runs the benchmark on the workloads in specs and returns the
// process exit code: 0 when every workload ran correctly, 1 when any did
// not, 2 for a bad command line.
func mainCode(args []string, specs map[string]*spec, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, specs, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "benchmark:", err)
		}
		return 2
	}
	code := 0
	for _, name := range o.workloads {
		res, tr := measure(specs[name], o)
		if tr != nil && o.spans != "" {
			if err := writeSpans(o.spans, tr); err != nil {
				res.problems = append(res.problems, err.Error())
				res.correct = false
			}
		}
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "benchmark: %s: %s\n", name, p)
		}
		fmt.Fprintf(stdout, "# workload=%s seed=%d trace=%d requests=%d reps=%d\n",
			name, o.seed, boolInt(o.trace), specs[name].requests, res.reps)
		if err := printResult(stdout, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !res.correct {
			code = 1
		}
	}
	return code
}

// measure runs one workload and returns its result, and the traced pass's
// spans under -trace 1. An error makes the result incorrect.
func measure(w *spec, o *options) (*result, *tracer) {
	res := &result{}
	r, err := newRun(w, o.seed)
	if err != nil {
		res.problems = append(res.problems, err.Error())
		return res, nil
	}
	var tr *tracer
	if o.trace {
		var t *traced
		t, res.reps, err = r.layers(o.seconds)
		if err == nil {
			res.metrics, tr = r.perLayer(t), t.tr
		}
	} else {
		res.metrics, res.reps, err = r.endToEnd(o.seconds)
	}
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
	res.attempted, res.failed, res.problems = r.attempted, r.failed, r.problems
	res.correct = len(res.problems) == 0 && res.attempted > 0
	return res, tr
}

// printResult writes the result as the one-line JSON object the benchmark
// ends with.
func printResult(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1 // nothing ran; correct is already false
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeSpans writes the traced pass's spans as Chrome trace JSON.
func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.writeChrome(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
