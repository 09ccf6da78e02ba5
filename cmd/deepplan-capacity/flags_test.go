package main

import (
	"bytes"
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestRejectsBadWorkers checks that a -workers the sweep would ignore or
// reinterpret is refused before any probe runs: the command exits 1 with
// nothing on stdout, naming -workers on stderr.
func TestRejectsBadWorkers(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-workers", "4"},
		{"-quick", "-workers", "0"},
		{"-quick", "-parallel", "-workers", "-3"},
	} {
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
		if !strings.Contains(stderr.String(), "-workers") {
			t.Errorf("%q: stderr %q does not name -workers", args, stderr.String())
		}
	}
}
