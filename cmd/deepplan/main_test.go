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

var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "deepplan-cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binary = filepath.Join(dir, "deepplan")
	build := exec.Command("go", "build", "-o", binary, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building deepplan:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestRejectsBadFlags checks that every flag is validated before any
// output: a bad value exits 1 with nothing on stdout, stderr naming the
// value, and no trace file written.
func TestRejectsBadFlags(t *testing.T) {
	unwritable := filepath.Join(t.TempDir(), "missing", "plan.json")
	for _, c := range []struct {
		args []string
		bad  string
	}{
		{[]string{"-model", "bert-base", "-show-layers", "5:2"}, "5:2"},
		{[]string{"-model", "bert-base", "-show-layers", "x"}, `"x"`},
		{[]string{"-model", "bert-base", "-mode", "warp-drive"}, "warp-drive"},
		{[]string{"-model", "bert-base", "-platform", "bogus"}, "bogus"},
		{[]string{"-model", "bogus"}, "bogus"},
		{[]string{"-model", "bert-base", "-json", unwritable}, unwritable},
	} {
		tracePath := filepath.Join(t.TempDir(), "trace.json")
		args := append(c.args, "-trace", tracePath)
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
		if !strings.Contains(stderr.String(), c.bad) {
			t.Errorf("%q: stderr %q does not name %s", args, stderr.String(), c.bad)
		}
		if _, err := os.Stat(tracePath); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%q: trace file written (stat: %v)", args, err)
		}
	}
}
