package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the goldens from the current build:
//
//	go test ./cmd/deepplan-trace -run TestTraceGoldens -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the current deepplan-trace output")

// bin holds the deepplan-trace and deepplan-server builds the tests run.
var bin struct{ trace, server string }

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "deepplan-trace-golden")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin.trace = filepath.Join(dir, "deepplan-trace")
	bin.server = filepath.Join(dir, "deepplan-server")
	for _, b := range []struct{ out, pkg string }{{bin.trace, "."}, {bin.server, "../deepplan-server"}} {
		build := exec.Command("go", "build", "-o", b.out, b.pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n", b.pkg, err)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestTraceGoldens pins deepplan-trace's summary, with and without
// -by-node, of a small single-node and a small two-node deepplan-server
// trace. The trace files are written into a temporary directory and read
// by relative path, because the summary prints the path it was given.
func TestTraceGoldens(t *testing.T) {
	dir := t.TempDir()
	for _, tr := range []struct {
		file string
		args []string
	}{
		{"single.json", []string{"-instances", "140", "-requests", "40", "-rate", "400"}},
		{"nodes2.json", []string{"-nodes", "2", "-instances", "140", "-requests", "40", "-rate", "400",
			"-faults", "gpu=1@20ms+50ms"}},
	} {
		cmd := exec.Command(bin.server, append(tr.args, "-trace", tr.file)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("deepplan-server %q: %v\n%s", tr.args, err, out)
		}
	}
	for _, r := range []struct {
		name string
		args []string
	}{
		{"single", []string{"single.json"}},
		{"single-by-node", []string{"-by-node", "single.json"}},
		{"nodes2", []string{"nodes2.json"}},
		{"nodes2-by-node", []string{"-by-node", "nodes2.json"}},
	} {
		t.Run(r.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin.trace, r.args...)
			cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("deepplan-trace %q: %v\n%s", r.args, err, stderr.String())
			}
			checkGolden(t, r.name+".txt", stdout.Bytes())
		})
	}
}

// TestByNodeNeedsNodeMetadata feeds -by-node a hand-written trace whose
// request events carry no node process names: it must exit 1 and say why
// before printing anything.
func TestByNodeNeedsNodeMetadata(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bare.json")
	const bare = `{"traceEvents":[
{"name":"BERT-Base","ph":"b","pid":1,"ts":0,"args":{"class":"warm","queue_us":0,"load_us":0,"exec_us":10300,"total_us":10300}},
{"name":"BERT-Base","ph":"e","pid":1,"ts":10300}]}`
	if err := os.WriteFile(path, []byte(bare), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin.trace, "-by-node", path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed on stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "-by-node") {
		t.Errorf("stderr %q does not name -by-node", stderr.String())
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
