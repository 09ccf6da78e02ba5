package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// update rewrites the CLI goldens from the current build:
//
//	go test ./cmd/deepplan-server -run 'TestServerGoldens|TestTelemetryGoldens' -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the current deepplan-server output")

// binary is the deepplan-server build every golden run executes.
var binary string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "deepplan-server-golden")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binary = filepath.Join(dir, "deepplan-server")
	build := exec.Command("go", "build", "-o", binary, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building deepplan-server:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// ciFaults is the fault schedule CI's metrics-export smoke run arms.
const ciFaults = "gpu=1@2s+3s; link=gpu0-lane*0.4@1s+6s; straggler=copy/3@6s+3s"

// TestServerGoldens pins the stdout of representative deepplan-server runs,
// plus the files they write (an OpenMetrics export and a Chrome trace), so
// any change to modelled behaviour or to the report format shows up as a
// golden diff. Wall-clock lines go to stderr and are not compared.
func TestServerGoldens(t *testing.T) {
	runs := []struct {
		name string
		args []string
		// file, when set, is an output file the run writes: its flag value
		// is replaced by a temporary path and its bytes are compared with
		// testdata/golden/<name><file>.
		file string
	}{
		{name: "cluster-bert", args: []string{"-nodes", "16", "-instances", "64", "-rate", "200", "-requests", "600"}},
		{name: "cluster-llm-pd", args: []string{"-nodes", "16", "-model", "gpt2", "-instances", "24", "-rate", "200",
			"-requests", "600", "-llm", "continuous", "-prefill-decode"}},
		{name: "zoo-faults-metrics", args: []string{"-nodes", "2", "-zoo", "200", "-zoo-policy", "cost", "-telemetry",
			"-faults", ciFaults, "-metrics"}, file: ".prom"},
		{name: "autoscale-predictive", args: []string{"-nodes", "2", "-autoscale", "-autoscale-policy", "predictive"}},
		{name: "trace", args: []string{"-instances", "140", "-requests", "4", "-rate", "400", "-trace"}, file: ".json"},
		// Two nodes tie at t=0, and the SLO monitor's router alerts land
		// after the run's trace merge, at node 0's last instant.
		{name: "trace-nodes2-faults", args: []string{"-nodes", "2", "-instances", "140", "-requests", "4", "-rate", "400",
			"-faults", "gpu=1@2ms+3s", "-metrics", os.DevNull, "-trace"}, file: ".json"},
		{name: "poisson", args: nil},
		{name: "maf-mix-telemetry", args: []string{"-maf", "-duration", "20m", "-rate", "50",
			"-mix", "bert-base:48,roberta-base:48,gpt2:12", "-telemetry"}},
		{name: "maf-nodes2", args: []string{"-nodes", "2", "-maf", "-duration", "16m", "-rate", "20",
			"-mix", "bert-base:48,roberta-base:48,gpt2:12"}},
		{name: "llm-continuous", args: []string{"-llm", "continuous"}},
		{name: "zoo", args: []string{"-zoo", "200"}},
		{name: "faults-admit-metrics", args: []string{"-faults", ciFaults, "-admit", "2", "-metrics"}, file: ".prom"},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) { runGolden(t, r.name, r.args, r.file) })
	}
}

// TestTelemetryGoldens pins the per-window telemetry tables of fig13's
// densest PT+DHA point and of fig15's PT+DHA replay, both at -quick scale.
func TestTelemetryGoldens(t *testing.T) {
	runs := []struct {
		name string
		args []string
	}{
		{name: "fig13", args: []string{"-instances", "200", "-requests", "300", "-telemetry"}},
		{name: "fig15", args: []string{"-maf", "-duration", "3m", "-rate", "150", "-seed", "2023",
			"-mix", "bert-base:48,roberta-base:48,gpt2:12", "-telemetry"}},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) { runGolden(t, r.name+"-telemetry", r.args, "") })
	}
}

// runGolden runs deepplan-server with args and compares its stdout with
// testdata/golden/<name>.txt. A non-empty file is the suffix of an output
// file the run writes: a temporary path is appended as the last argument
// and the file's bytes are compared with testdata/golden/<name><file>.
func runGolden(t *testing.T, name string, args []string, file string) {
	t.Helper()
	var out string
	if file != "" {
		out = filepath.Join(t.TempDir(), "out"+file)
		args = append(append([]string{}, args...), out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(binary, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("deepplan-server %q: %v\n%s", args, err, stderr.String())
	}
	checkGolden(t, name+".txt", stdout.Bytes())
	if out != "" {
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name+file, got)
	}
}

// checkGolden compares got with testdata/golden/<name>, or rewrites the
// golden under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s (regenerate with -update only for a deliberate change)\n--- golden ---\n%s\n--- got ---\n%s",
			path, clip(want), clip(got))
	}
}

// clip bounds a golden dump in a failure message; the trace and metrics
// goldens run to hundreds of kilobytes.
func clip(b []byte) []byte {
	const max = 4096
	if len(b) > max {
		return append(b[:max:max], "\n..."...)
	}
	return b
}
