package gantt

import (
	"bytes"
	"strings"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/engine"
	"deepplan/internal/planner"
	"deepplan/internal/profiler"
	"deepplan/internal/topology"
)

func renderPTDHA(t *testing.T) string {
	t.Helper()
	m, err := dnn.ByName("bert-base")
	if err != nil {
		t.Fatal(err)
	}
	cost := costmodel.Default()
	prof, err := profiler.Run(m, cost, topology.P38xlarge(), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := planner.New(topology.P38xlarge())
	res, err := engine.RunOnce(topology.P38xlarge(), cost, engine.Spec{
		Model: m, Plan: pl.PlanPTDHA(prof, 2), Primary: 0, Secondaries: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Render(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRenderContainsAllTracks(t *testing.T) {
	out := renderPTDHA(t)
	for _, mark := range []string{"=", "~", "#"} {
		if !strings.Contains(out, mark) {
			t.Errorf("chart missing %q marks:\n%s", mark, out)
		}
	}
	if !strings.Contains(out, "BERT-Base / pt+dha") {
		t.Error("chart missing header")
	}
}

func TestRenderRespectsWidthAndRows(t *testing.T) {
	out := renderPTDHA(t)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	bars := 0
	for _, ln := range lines {
		if i := strings.IndexByte(ln, '|'); i >= 0 && strings.HasSuffix(ln, "|") {
			bars++
			if got := len(ln) - i - 2; got != width {
				t.Fatalf("bar width %d, want %d: %q", got, width, ln)
			}
		}
	}
	// BERT-Base's layers are bucketed into more than maxRows/2 and at most
	// maxRows layer rows, plus the axis rule.
	if rows := bars - 1; rows <= maxRows/2 || rows > maxRows {
		t.Fatalf("layer rows = %d, want (%d, %d]", rows, maxRows/2, maxRows)
	}
}

func TestRenderNilAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, nil); err == nil {
		t.Fatal("nil result accepted")
	}
	if err := Render(&buf, &engine.Result{}); err == nil {
		t.Fatal("empty run accepted")
	}
}

func TestTruncate(t *testing.T) {
	if truncate("short", 10) != "short" {
		t.Fatal("truncate mangled short string")
	}
	if got := truncate("averyverylongname", 8); len(got) > 10 {
		t.Fatalf("truncate(8) = %q", got)
	}
}
