package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadFlags runs the binary TestMain builds on flag values that
// cannot describe a run. Each must exit 1 before printing anything on
// stdout, with an error on stderr that names the flag, the library field it
// sets, or the output file it cannot create.
func TestRejectsBadFlags(t *testing.T) {
	unwritable := filepath.Join(t.TempDir(), "missing", "trace.json")
	metrics := filepath.Join(t.TempDir(), "m.prom")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-rate", "0"}, "-rate"},
		{[]string{"-rate", "-5"}, "-rate"},
		{[]string{"-rate", "NaN"}, "-rate"},
		{[]string{"-rate", "Inf"}, "-rate"},
		{[]string{"-requests", "200", "-rate", "1e-300"}, "negative time"},
		{[]string{"-requests", "200", "-admit", "NaN"}, "AdmitFactor"},
		{[]string{"-requests", "200", "-admit", "Inf", "-instances", "200"}, "AdmitFactor"},
		{[]string{"-requests", "200", "-faults", "gpu=1@9223372036s+1s"}, "overflows"},
		{[]string{"-faults", "link=gpu0-lane*NaN@1s+1s"}, "link fraction"},
		{[]string{"-faults", "straggler=copy/NaN@1s+1s"}, "straggler factor"},
		{[]string{"-faults", "mem=NaN@1s+1s"}, "mem fraction"},
		{[]string{"-requests", "0"}, "-requests"},
		{[]string{"-slo", "0"}, "-slo"},
		{[]string{"-slo", "-5"}, "-slo"},
		{[]string{"-nodes", "0"}, "node"},
		{[]string{"-nodes", "-3"}, "node"},
		{[]string{"-maxbatch", "-1"}, "MaxBatch"},
		{[]string{"-autoscale-policy", "predictive"}, "Autoscale.Enabled"},
		{[]string{"-autoscale", "-autoscale-policy", "oracle"}, "autoscale policy"},
		{[]string{"-zoo", "50", "-autoscale"}, "zoo"},
		{[]string{"-zoo", "50", "-llm", "continuous"}, "zoo"},
		{[]string{"-nodes", "2", "-zoo", "50", "-llm", "continuous"}, "zoo"},
		{[]string{"-maf", "-llm", "continuous"}, "-llm"},
		{[]string{"-maf", "-zoo", "50"}, "-zoo"},
		{[]string{"-zoo", "-5"}, "-zoo"},
		{[]string{"-zoo-policy", "bogus"}, "-zoo-policy"},
		{[]string{"-output-tokens", "-3"}, "-output-tokens"},
		{[]string{"-prompt-tokens", "-3"}, "-prompt-tokens"},
		{[]string{"-maf", "-duration", "0"}, "-duration"},
		{[]string{"-maf", "-mix", "bert-base:4,nosuch:4"}, "-mix"},
		{[]string{"-mix", "bert-base:4,bert-base:4"}, "-mix"},
		{[]string{"-mix", "bert-base"}, "-mix"},
		{[]string{"-metrics-interval", "-1s"}, "MetricsInterval"},
		{[]string{"-nodes", "2", "-metrics-interval", "-1s"}, "MetricsInterval"},
		{[]string{"-metrics-interval", "1s"}, "MetricsInterval"},
		{[]string{"-requests", "5", "-metrics", metrics, "-metrics-interval", "1us"}, "MetricsInterval"},
		{[]string{"-requests", "5", "-trace", unwritable}, unwritable},
		{[]string{"-zoo", "5", "-model", "gpt2"}, "-model"},
		{[]string{"-zoo", "5", "-instances", "8"}, "-instances"},
		{[]string{"-mix", "bert-base:2", "-model", "gpt2"}, "-model"},
		{[]string{"-mix", "bert-base:2", "-instances", "8"}, "-instances"},
		{[]string{"-zoo", "5", "-mix", "bert-base:2"}, "-mix"},
		{[]string{"-maf", "-requests", "50"}, "-requests"},
		{[]string{"-duration", "1m"}, "-duration"},
		{[]string{"-prompt-tokens", "64"}, "-prompt-tokens"},
		{[]string{"-output-tokens", "16"}, "-output-tokens"},
		{[]string{"-token-budget", "4"}, "-token-budget"},
		{[]string{"-model", "synthetic-13b", "-instances", "1", "-requests", "2"}, "Synthetic-13B"},
	}
	for _, c := range cases {
		expectRejected(t, c.args, c.want)
	}
}

// TestLLMOptionsValidation checks how the -llm flags reach serving.New: no
// -llm leaves LLM mode off, a known discipline with -prefill-decode and
// -token-budget is threaded through to the run, and an unknown discipline
// or a bare -prefill-decode is refused.
func TestLLMOptionsValidation(t *testing.T) {
	out, err := exec.Command(binary, "-requests", "20").Output()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "llm") {
		t.Fatalf("run without -llm reports LLM mode:\n%s", out)
	}
	out, err = exec.Command(binary, "-model", "gpt2", "-instances", "4", "-requests", "20",
		"-llm", "static", "-prefill-decode", "-token-budget", "16").Output()
	if err != nil {
		t.Fatal(err)
	}
	want := "llm mode:      static batching, token budget 16, prompts ~128 -> outputs ~32 tokens, prefill/decode disaggregated\n"
	if !strings.Contains(string(out), want) {
		t.Fatalf("flags not threaded through; want %q in:\n%s", want, out)
	}
	expectRejected(t, []string{"-prefill-decode"}, "PrefillDecode")
	expectRejected(t, []string{"-llm", "dynamic"}, "LLM batching")
}

// TestMetricsIntervalOnOneNode checks that -metrics-interval appends
// intermediate snapshots on a one-node run too: a 10-second run at 2-second
// intervals writes four interval blocks plus the final one.
func TestMetricsIntervalOnOneNode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.prom")
	if out, err := exec.Command(binary, "-metrics", path, "-metrics-interval", "2s").CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(got, []byte("# EOF\n")); n != 5 {
		t.Errorf("%d exposition blocks, want 5", n)
	}
}

// expectRejected runs the binary with args and requires exit status 1,
// nothing on stdout, and want on stderr.
func expectRejected(t *testing.T, args []string, want string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(binary, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("%q: exit %v, want status 1", args, err)
	}
	if stdout.Len() != 0 {
		t.Errorf("%q: printed on stdout:\n%s", args, stdout.String())
	}
	if !strings.Contains(stderr.String(), want) {
		t.Errorf("%q: stderr %q does not name %q", args, stderr.String(), want)
	}
}
