package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"deepplan/internal/experiments/runner"
)

// quickRun is one experiment's -quick output, serial and on a two-worker
// pool.
type quickRun struct {
	serial, pooled       bytes.Buffer
	serialErr, pooledErr error
}

// quickRuns memoizes runQuick, so the registry runs once per test binary
// however many tests inspect it.
var quickRuns sync.Map // experiment ID → *quickRun

// runQuick runs e in -quick mode serially and on a two-worker pool, once.
// TestExperimentGoldens, TestParallelOutputMatchesSerial and
// TestAllExperimentsProduceOutput each check one property of these runs.
func runQuick(e Experiment) *quickRun {
	if r, ok := quickRuns.Load(e.ID); ok {
		return r.(*quickRun)
	}
	r := &quickRun{}
	r.serialErr = e.Run(&r.serial, Options{Quick: true})
	r.pooledErr = e.Run(&r.pooled, Options{Quick: true, Workers: 2})
	quickRuns.Store(e.ID, r)
	return r
}

// Every experiment must produce byte-identical output whether its sweep
// points are computed serially or on a worker pool: parallelism exists only
// between simulator instances, never inside one.
func TestParallelOutputMatchesSerial(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := runQuick(e)
			if r.serialErr != nil || r.pooledErr != nil {
				t.Fatalf("serial: %v; workers=2: %v", r.serialErr, r.pooledErr)
			}
			if !bytes.Equal(r.serial.Bytes(), r.pooled.Bytes()) {
				t.Fatalf("workers=2 output differs from serial\n--- serial ---\n%s\n--- workers=2 ---\n%s",
					r.serial.String(), r.pooled.String())
			}
		})
	}
}

// update rewrites the experiment goldens from the current serial output:
//
//	go test ./internal/experiments -run TestExperimentGoldens -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the serial -quick output")

// TestExperimentGoldens compares every experiment's serial -quick output
// byte for byte against the committed golden testdata/golden/<id>.txt, so
// any change to a simulated answer fails here. Regenerate with -update only
// for a deliberate change of modelled behaviour.
func TestExperimentGoldens(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := runQuick(e)
			if r.serialErr != nil {
				t.Fatalf("serial: %v", r.serialErr)
			}
			checkGolden(t, e.ID, r.serial.Bytes())
		})
	}
}

// checkGolden compares an experiment's serial -quick output with its
// committed golden, or rewrites the golden under -update.
func checkGolden(t *testing.T, id string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", id+".txt")
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
		t.Fatalf("serial output differs from %s\n--- golden ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// registryUnits wraps the full registry as runner units, the way
// cmd/deepplan-bench does for -exp all.
func registryUnits(opts Options) []runner.Unit {
	exps := All()
	units := make([]runner.Unit, len(exps))
	for i, e := range exps {
		e := e
		units[i] = runner.Unit{Label: e.ID, Run: func(w io.Writer) error {
			fmt.Fprintf(w, "=== %s ===\n", e.ID)
			if err := e.Run(w, opts); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintln(w)
			return nil
		}}
	}
	return units
}

// Stress the worker pool over the full registry with nested in-experiment
// pools — the `-exp all` configuration. Run under `go test -race`
// this is the data-race check on the whole harness. Byte-identity with a
// serial run is already proven per experiment by
// TestParallelOutputMatchesSerial and at the Execute level by the runner
// tests; here the ordering guarantee is asserted directly: every unit's ID
// marker must appear in the output in registry order.
func TestParallelRegistryRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry stress is not a -short test")
	}
	units := registryUnits(Options{Quick: true, Workers: 2})
	var out bytes.Buffer
	if err := runner.Execute(&out, 8, units); err != nil {
		t.Fatalf("parallel execute: %v", err)
	}
	text := out.String()
	pos := 0
	for _, e := range All() {
		marker := fmt.Sprintf("=== %s ===", e.ID)
		i := strings.Index(text[pos:], marker)
		if i < 0 {
			t.Fatalf("experiment %s missing or out of order in pooled output", e.ID)
		}
		pos += i + len(marker)
	}
}
