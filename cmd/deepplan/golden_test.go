package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// update rewrites the CLI goldens from the current build:
//
//	go test ./cmd/deepplan -run TestPlanToolGoldens -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the current deepplan output")

// TestPlanToolGoldens pins the stdout of representative deepplan runs: a
// plan summary with its per-layer view, a plan on the second platform, an
// ASCII Gantt chart and the model list. Any change to a planning decision,
// to the analytic prediction or to the simulated cold start shows up as a
// golden diff.
func TestPlanToolGoldens(t *testing.T) {
	for _, r := range []struct {
		name string
		args []string
	}{
		{name: "bert-base-ptdha-layers", args: []string{"-model", "bert-base", "-mode", "pt+dha", "-show-layers", "0:12"}},
		{name: "gpt2-dha-a5000", args: []string{"-model", "gpt2", "-mode", "dha", "-platform", "dual-a5000"}},
		{name: "resnet50-baseline-gantt", args: []string{"-model", "resnet50", "-mode", "baseline", "-gantt"}},
		{name: "models", args: []string{"-models"}},
	} {
		r := r
		t.Run(r.name, func(t *testing.T) { runGolden(t, r.name, r.args) })
	}
}

// runGolden runs deepplan with args and compares its stdout with
// testdata/golden/<name>.txt, or rewrites it under -update.
func runGolden(t *testing.T, name string, args []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(binary, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("deepplan %q: %v\n%s", args, err, stderr.String())
	}
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("output differs from %s (regenerate with -update only for a deliberate change)\n--- golden ---\n%s\n--- got ---\n%s",
			path, want, stdout.Bytes())
	}
}
