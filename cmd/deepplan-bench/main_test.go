package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binary is the deepplan-bench build the tests execute.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "deepplan-bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binary = filepath.Join(dir, "deepplan-bench")
	build := exec.Command("go", "build", "-o", binary, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building deepplan-bench:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestRejectsBadFlags checks that every flag error surfaces before the
// first experiment runs: the command exits 2 with nothing on stdout and
// writes no output file, naming the bad flag or value on stderr.
func TestRejectsBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig11", "-trace", out}, "-trace"},
		{[]string{"-exp", "all", "-quick", "-trace", out}, "-trace"},
		{[]string{"-exp", "fig14", "-quick", "-telemetry"}, "-telemetry"},
		{[]string{"-exp", "fig13", "-quick", "-telemetry"}, "-telemetry"},
		{[]string{"-exp", "fig13", "-quick", "-metrics", out}, "-metrics"},
		{[]string{"-exp", "fig-slo", "-quick", "-metrics", filepath.Join(out, "x.prom")}, "-metrics"},
		{[]string{"-exp", "fig99"}, `"fig99"`},
		// No flag narrows one experiment: each runs its full comparison.
		{[]string{"-exp", "fig-zoo", "-quick", "-zoo", "5"}, "-zoo"},
		{[]string{"-exp", "fig-zoo", "-quick", "-zoo-policy", "lru"}, "-zoo-policy"},
		{[]string{"-exp", "fig-llm", "-quick", "-llm", "static"}, "-llm"},
		{[]string{"-exp", "fig-llm", "-quick", "-prefill-decode"}, "-prefill-decode"},
		{[]string{"-exp", "fig-forecast", "-quick", "-autoscale-policy", "predictive"}, "-autoscale-policy"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(binary, c.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%q: exit %v, want status 2", c.args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed on stdout:\n%s", c.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: stderr %q does not name %s", c.args, stderr.String(), c.want)
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("%q: wrote %s", c.args, out)
		}
	}
}
