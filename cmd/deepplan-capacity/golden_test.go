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
//	go test ./cmd/deepplan-capacity -run TestCapacityGoldens -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the current deepplan-capacity output")

// binary is the deepplan-capacity build every golden run executes.
var binary string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "deepplan-capacity-golden")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binary = filepath.Join(dir, "deepplan-capacity")
	build := exec.Command("go", "build", "-o", binary, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building deepplan-capacity:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestCapacityGoldens pins the stdout of representative -quick sweeps (the
// table, the JSON plan, the autoscaled grid and a zoo plan), so any change
// to modelled behaviour or to the report format shows up as a golden diff.
func TestCapacityGoldens(t *testing.T) {
	runs := []struct {
		name string
		args []string
	}{
		{name: "quick", args: []string{"-quick"}},
		{name: "quick-json", args: []string{"-quick", "-json"}},
		{name: "quick-autoscale", args: []string{"-quick", "-autoscale"}},
		{name: "quick-zoo", args: []string{"-quick", "-zoo", "200"}},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(binary, r.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("deepplan-capacity %q: %v\n%s", r.args, err, stderr.String())
			}
			checkGolden(t, r.name+".txt", stdout.Bytes())
		})
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
			path, want, got)
	}
}
