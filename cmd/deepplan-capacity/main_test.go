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

// TestRejectsBadFlags checks that every flag error surfaces before the
// first probe: the command exits 2 with nothing on stdout and writes no
// metrics file, naming the bad flag or spec field on stderr.
func TestRejectsBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.prom")
	unwritable := filepath.Join(t.TempDir(), "missing", "x.prom")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-quick", "-goodput", "2"}, "GoodputTarget"},
		{[]string{"-quick", "-goodput", "NaN"}, "GoodputTarget"},
		{[]string{"-quick", "-slo", "-1s"}, "SLO"},
		{[]string{"-quick", "-skew", "-1"}, "Skew"},
		{[]string{"-quick", "-replicas", "-4"}, "Replicas"},
		{[]string{"-quick", "-zoo", "-3"}, "Zoo"},
		{[]string{"-duration", "-2s"}, "Duration"},
		{[]string{"-max-rate", "-1"}, "MaxRate"},
		{[]string{"-max-rate", "5"}, "MaxRate"},
		{[]string{"-step", "-10"}, "Step"},
		{[]string{"-quick", "-budget", "-1"}, "-budget"},
		{[]string{"-quick", "-target-rps", "-5"}, "-target-rps"},
		{[]string{"-quick", "-duration", "1s", "-metrics", out}, "-duration"},
		{[]string{"-quick", "-max-rate", "640"}, "-max-rate"},
		{[]string{"-step", "20", "-quick"}, "-step"},
		{[]string{"-quick", "-metrics", unwritable}, unwritable},
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
