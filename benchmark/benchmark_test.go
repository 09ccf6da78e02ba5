package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/modelled_seed42.json")

// testScale shrinks every workload's request count so the suite runs in
// seconds; the workloads are otherwise the benchmark's own.
const testScale = 0.02

// tracedTestScale is the larger scale of the traced-pass test: its profiled
// reps need a few hundred CPU samples at profileHz for the cpu_us column to
// be checked against the process's CPU clock.
const tracedTestScale = 0.125

const goldenPath = "testdata/modelled_seed42.json"

// benchmarkConfig is the part of BENCHMARK.json the tests check against.
type benchmarkConfig struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readConfig(t *testing.T) benchmarkConfig {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkConfig
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// singleNode lists the workloads the benchmark drives on its own clock.
func singleNode(specs map[string]*spec) []string {
	var names []string
	for _, name := range workloadOrder {
		if specs[name].server != nil {
			names = append(names, name)
		}
	}
	return names
}

// TestExternalClockMatchesRun checks the benchmark's serve loop — arrivals
// scheduled on a benchmark-owned clock, Submit, Finish — reports exactly
// what Server.Run reports on a private clock for the same inputs.
func TestExternalClockMatchesRun(t *testing.T) {
	specs := workloads(testScale)
	for _, name := range singleNode(specs) {
		w := specs[name]
		t.Run(name, func(t *testing.T) {
			in, err := w.inputs(42, w.requests)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := w.setup(nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sys.serve(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := w.server(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := srv.Run(in.reqs)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.report, want) {
				t.Fatalf("external-clock report differs from Server.Run:\n got %+v\nwant %+v", got.report, want)
			}
		})
	}
}

// TestRefJobIsSelfContained checks the reference job imports nothing from
// the simulator and still does the same work.
func TestRefJobIsSelfContained(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "ref.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path == "deepplan" || strings.HasPrefix(path, "deepplan/") {
			t.Errorf("ref.go imports %s", path)
		}
	}
	if got := refRun(); got != refChecksum {
		t.Errorf("refRun() = %d, want %d", got, refChecksum)
	}
}

// TestGolden freezes every modelled metric and report counter of every
// workload at the test scale and seed 42, and the capacity planner's answer
// behind capacity.slo_rps, so a change to simulated behaviour fails here
// even when it stays inside the end-to-end bounds. Run with -update to
// accept a deliberate change.
func TestGolden(t *testing.T) {
	specs := workloads(testScale)
	got := map[string]map[string]float64{}
	for _, name := range workloadOrder {
		w := specs[name]
		in, err := w.inputs(42, w.requests)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := w.setup(nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sys.serve(in, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = out.modelled
	}
	slo, err := sloRPS(42)
	if err != nil {
		t.Fatal(err)
	}
	got["capacity"] = map[string]float64{"slo_rps": float64(slo.SustainedRPS), "probes": float64(slo.Evals),
		"p99_ms": slo.P99Ms, "goodput": slo.Goodput}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGolden -update)", err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range append(workloadOrder, "capacity") {
		for k, v := range want[name] {
			if g, ok := got[name][k]; !ok || g != v {
				t.Errorf("%s %s = %v, golden %v", name, k, g, v)
			}
		}
		for k := range got[name] {
			if _, ok := want[name][k]; !ok {
				t.Errorf("%s %s is not in the golden file", name, k)
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// runMain runs the command at the test scale and decodes its result lines.
func runMain(t *testing.T, specs map[string]*spec, args ...string) (code int, results []benchResult, stdout string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = mainCode(args, specs, &out, &errOut)
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if strings.HasPrefix(line, "{") {
			var r benchResult
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		}
	}
	if code == 0 && errOut.Len() > 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	return code, results, out.String()
}

// benchResult is the JSON object the command prints last.
type benchResult struct {
	Correct   *bool                    `json:"correct"`
	Attempted *int                     `json:"attempted"`
	Failed    *int                     `json:"failed"`
	Metrics   map[string]printedMetric `json:"metrics"`
}

// printedMetric is one entry of a result's metrics.
type printedMetric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// checkNames checks one result prints exactly the metrics listed, each
// with a valid name and the listed unit.
func checkNames(t *testing.T, r benchResult, listed []struct{ Name, Unit string }) {
	t.Helper()
	if r.Correct == nil || r.Attempted == nil || r.Failed == nil {
		t.Fatalf("result lacks correct, attempted or failed: %+v", r)
	}
	want := map[string]string{}
	for _, m := range listed {
		if _, dup := want[m.Name]; dup {
			t.Errorf("BENCHMARK.json lists %s twice", m.Name)
		}
		want[m.Name] = m.Unit
	}
	for name, m := range r.Metrics {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not a valid name", name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s has invalid unit %q", name, m.Unit)
		}
		if m.Value == nil {
			t.Errorf("metric %s has no value", name)
		}
		if u, ok := want[name]; !ok {
			t.Errorf("metric %s is printed but not listed in BENCHMARK.json", name)
		} else if u != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, u)
		}
	}
	for name := range want {
		if _, ok := r.Metrics[name]; !ok {
			t.Errorf("metric %s is listed in BENCHMARK.json but not printed", name)
		}
	}
}

// TestEndToEndOutput runs every workload untraced and checks the output
// contract: names and units as listed, every value positive, the seed
// echoed, attempted = requests x reps, and no request failed.
func TestEndToEndOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	c := readConfig(t)
	specs := workloads(testScale)
	if len(c.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloadOrder))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("BENCHMARK.json workload %d is %s, want %s", i, w.Name, workloadOrder[i])
		}
	}
	code, results, stdout := runMain(t, specs, "-workload", "all", "-seed", "7", "-seconds", "1")
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, stdout)
	}
	if len(results) != len(workloadOrder) {
		t.Fatalf("%d results, want %d", len(results), len(workloadOrder))
	}
	headers := regexp.MustCompile(`# workload=(\S+) seed=7 trace=0 requests=(\d+) reps=(\d+)`).FindAllStringSubmatch(stdout, -1)
	if len(headers) != len(workloadOrder) {
		t.Fatalf("want a header echoing seed 7 per workload:\n%s", stdout)
	}
	for i, r := range results {
		checkNames(t, r, c.EndToEnd)
		if !*r.Correct {
			t.Errorf("%s: correct is false", headers[i][1])
		}
		reqs, _ := strconv.Atoi(headers[i][2])
		reps, _ := strconv.Atoi(headers[i][3])
		if *r.Attempted != reqs*reps {
			t.Errorf("%s: attempted %d, want %d requests x %d reps", headers[i][1], *r.Attempted, reqs, reps)
		}
		if *r.Failed != 0 {
			t.Errorf("%s: %d requests failed", headers[i][1], *r.Failed)
		}
		for name, m := range r.Metrics {
			if !(*m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", headers[i][1], name, *m.Value)
			}
		}
	}
}

// TestTracedPass runs every workload's traced pass and checks the
// per-layer output contract, that tracing left every modelled result
// unchanged, and that the per-package splits add up.
func TestTracedPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced pass")
	}
	c := readConfig(t)
	specs := workloads(tracedTestScale)
	for _, name := range workloadOrder {
		w := specs[name]
		t.Run(name, func(t *testing.T) {
			r, err := newRun(w, 42)
			if err != nil {
				t.Fatal(err)
			}
			tp, _, err := r.layers(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.problems) > 0 {
				t.Fatalf("traced reps differ from untraced ones: %v", r.problems)
			}
			res := benchResult{Correct: new(bool), Attempted: &r.attempted, Failed: &r.failed,
				Metrics: map[string]printedMetric{}}
			var allocs, cpu float64
			for _, m := range r.perLayer(tp) {
				v := m.value
				res.Metrics[m.name] = printedMetric{&v, m.unit}
				switch {
				case strings.HasPrefix(m.name, "allocs."):
					allocs += m.value
				case strings.HasPrefix(m.name, "cpu_us."):
					cpu += m.value
				}
			}
			checkNames(t, res, c.PerLayer)
			if math.Abs(allocs-tp.untracedAllocs) > 0.02*tp.untracedAllocs {
				t.Errorf("allocs.* sum %.2f, allocs_per_req %.2f: more than 2%% apart", allocs, tp.untracedAllocs)
			}
			// The column counts profiler samples; the process's own CPU
			// clock measures the same reps independently.
			t.Logf("cpu_us.* sum %.2f, process CPU time %.2f, wall time %.2f us/req", cpu, tp.tracedCPUUS, tp.tracedUS)
			if math.Abs(cpu-tp.tracedCPUUS) > 0.15*tp.tracedCPUUS {
				t.Errorf("cpu_us.* sum %.2f, process CPU time %.2f us/req: more than 15%% apart", cpu, tp.tracedCPUUS)
			}
		})
	}
}

// TestFlags checks bad command lines fail cleanly with a usable message.
func TestFlags(t *testing.T) {
	specs := workloads(testScale)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "nope"}, "cold-start, llm-decode, zoo-churn, fleet"},
		{[]string{}, "unknown -workload"},
		{[]string{"-workload", "fleet", "-trace", "2"}, "-trace must be 0 or 1"},
		{[]string{"-workload", "fleet", "-seconds", "0"}, "-seconds must be at least 1"},
		{[]string{"-workload", "fleet", "-spans", "x.json"}, "-spans needs -trace 1"},
		{[]string{"-workload", "fleet", "extra"}, "unexpected arguments"},
	} {
		var out, errOut bytes.Buffer
		if code := mainCode(tc.args, specs, &out, &errOut); code != 2 {
			t.Errorf("%v: exit code %d, want 2", tc.args, code)
		}
		if !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, errOut.String(), tc.want)
		}
		if out.Len() > 0 {
			t.Errorf("%v: printed a result: %q", tc.args, out.String())
		}
	}
}

// TestSeedReachesInputs checks every workload's inputs, token lengths
// included, change with the seed and repeat for the same seed.
func TestSeedReachesInputs(t *testing.T) {
	specs := workloads(testScale)
	for _, name := range workloadOrder {
		w := specs[name]
		a, err := w.inputs(1, w.requests)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.inputs(2, w.requests)
		a2, _ := w.inputs(1, w.requests)
		if !reflect.DeepEqual(a, a2) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
		if name == "llm-decode" {
			sameTokens := true
			for i := range a.reqs {
				if a.reqs[i].OutputTokens != b.reqs[i].OutputTokens {
					sameTokens = false
				}
			}
			if sameTokens {
				t.Errorf("%s: token lengths do not depend on the seed", name)
			}
		}
	}
	if testing.Short() {
		return
	}
	x, err := sloRPS(1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := sloRPS(2)
	if err != nil {
		t.Fatal(err)
	}
	if x == y {
		t.Errorf("slo_rps search gave identical results for seeds 1 and 2: %+v", x)
	}
}

// TestIncorrectRunsFail checks a rep that differs from the first, a lost
// request, or a failing set-up make the result incorrect and the exit
// status non-zero, with the result still printed.
func TestIncorrectRunsFail(t *testing.T) {
	r := &run{}
	base := &outcome{report: 1, attempted: 10, completed: 9, shed: 1, modelled: map[string]float64{"p99_ms": 5}}
	r.record(base)
	r.record(&outcome{report: 1, attempted: 10, completed: 9, shed: 1, modelled: map[string]float64{"p99_ms": 6}})
	r.record(&outcome{report: 2, attempted: 10, completed: 9, shed: 1, modelled: map[string]float64{"p99_ms": 5}})
	r.record(&outcome{report: 1, attempted: 10, completed: 8, shed: 1, modelled: map[string]float64{"p99_ms": 5}})
	if len(r.problems) != 3 {
		t.Errorf("problems = %q, want a modelled difference, a report difference and a lost request", r.problems)
	}
	if r.attempted != 40 || r.failed != 5 {
		t.Errorf("attempted %d failed %d, want 40 and 5 (4 shed + 1 lost)", r.attempted, r.failed)
	}

	broken := &spec{
		name:     "broken",
		requests: 1,
		setups:   1,
		inputs:   workloads(testScale)["cold-start"].inputs,
		setup:    func(*tracer) (system, error) { return nil, errors.New("set-up failed") },
	}
	code, results, _ := runMain(t, map[string]*spec{"broken": broken}, "-workload", "broken", "-seconds", "1")
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if len(results) != 1 || *results[0].Correct {
		t.Errorf("want one result with correct: false, got %+v", results)
	}
}
