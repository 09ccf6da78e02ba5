package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"deepplan"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must lead the
	// registry in presentation order; the §7 extensions and ablations
	// follow (their relative order depends on file init order).
	paper := []string{
		"fig2", "fig5", "table1", "fig6", "table2", "fig11", "table3",
		"table4", "fig12", "table5", "fig13", "fig14", "fig15", "fig16",
	}
	extra := []string{"fig-faults", "fig-cluster", "fig-capacity", "fig-slo", "fig-zoo", "fig-llm", "fig-forecast", "ext-large", "ext-moe", "ablate-prune", "ablate-parts", "ablate-pcie", "ablate-nvlink"}
	ids := IDs()
	if len(ids) != len(paper)+len(extra) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(paper)+len(extra))
	}
	for i, id := range paper {
		if ids[i] != id {
			t.Fatalf("registry[%d] = %q, want %q", i, ids[i], id)
		}
	}
	want := append(append([]string{}, paper...), extra...)
	for _, id := range want {
		e, ok := ByID(id)
		if !ok || e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %q incomplete", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("bogus experiment found")
	}
	if len(All()) != len(ids) {
		t.Fatal("All() length mismatch")
	}
}

// Every experiment's quick-mode output must be substantial and free of
// NaN/Inf.
func TestAllExperimentsProduceOutput(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := runQuick(e)
			if r.serialErr != nil {
				t.Fatal(r.serialErr)
			}
			out := r.serial.String()
			if len(out) < 100 {
				t.Fatalf("%s produced only %d bytes", e.ID, len(out))
			}
			if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
				t.Fatalf("%s output contains NaN/Inf:\n%s", e.ID, out)
			}
		})
	}
}

// The reproduced Figure 11 must preserve the paper's ordering:
// PT+DHA >= PT and PT+DHA >= DHA >= PipeSwitch >= 1 for every model.
func TestFigure11Ordering(t *testing.T) {
	b := newBench(deepplan.NewP38xlarge())
	for _, name := range evaluationNames {
		base := b.coldLatency(name, "baseline")
		ps := b.coldLatency(name, "pipeswitch")
		dha := b.coldLatency(name, "dha")
		ptdha := b.coldLatency(name, "pt+dha")
		if !(ptdha <= dha && dha <= ps && ps <= base) {
			t.Errorf("%s: ordering violated: pt+dha=%v dha=%v ps=%v base=%v",
				name, ptdha, dha, ps, base)
		}
	}
}

// Figure 6's transmission shapes: parallel beats serial, pipeline beats
// block-forwarding, and 4 GPUs beat 2 only mildly (uplink contention).
func TestTransmissionShapes(t *testing.T) {
	for _, name := range fig6Models {
		m := newBench(deepplan.NewP38xlarge()).model(name)
		serial := runTransmission(m, "serial", 1).completion
		p2 := runTransmission(m, "parallel", 2).completion
		pp2 := runTransmission(m, "parallel-pipeline", 2).completion
		pp4 := runTransmission(m, "parallel-pipeline", 4).completion
		if p2 >= serial {
			t.Errorf("%s: parallel(2) %v not faster than serial %v", name, p2, serial)
		}
		if pp2 > p2 {
			t.Errorf("%s: parallel-pipeline(2) %v slower than parallel(2) %v", name, pp2, p2)
		}
		if pp4 > pp2 {
			t.Errorf("%s: 4 GPUs slower than 2: %v vs %v", name, pp4, pp2)
		}
		// Paper: parallel(2) cuts 30-45% off serial for these models.
		cut := 1 - p2.Seconds()/serial.Seconds()
		if cut < 0.20 || cut > 0.50 {
			t.Errorf("%s: parallel(2) cut = %.0f%%, want 30-45%%", name, cut*100)
		}
	}
}

// Table 2 shape: serial per-lane bandwidth ~9-11.5 GB/s; the 4-GPU
// parallel-pipeline collapses to ~6 GB/s per lane.
func TestTable2BandwidthShape(t *testing.T) {
	b := newBench(deepplan.NewP38xlarge())
	m := b.model("bert-base")
	serial := runTransmission(m, "serial", 1).avgLaneBW / 1e9
	four := runTransmission(m, "parallel-pipeline", 4).avgLaneBW / 1e9
	if serial < 10 || serial > 12 {
		t.Errorf("serial lane bw = %.2f GB/s, want ~10.9", serial)
	}
	if four < 5 || four > 7.5 {
		t.Errorf("4-GPU lane bw = %.2f GB/s, want ~6", four)
	}
}

// fig-llm's headline must hold at equal offered load: continuous batching
// beats static on token goodput AND on the time-to-first-token tail, for
// both cold-start policies.
func TestFigLLMContinuousWins(t *testing.T) {
	var buf bytes.Buffer
	if err := FigLLM(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var checked int
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasSuffix(line, "lower ttft-p99") {
			continue
		}
		var policy string
		var tok, ttft float64
		if _, err := fmt.Sscanf(line, "%s %fx token goodput, %fx lower ttft-p99", &policy, &tok, &ttft); err != nil {
			t.Fatalf("unparseable headline %q: %v", line, err)
		}
		if tok <= 1 || ttft <= 1 {
			t.Errorf("%s: continuous does not beat static (%.2fx tokens, %.2fx ttft)\n%s",
				policy, tok, ttft, out)
		}
		checked++
	}
	if checked != 2 {
		t.Fatalf("found %d headline lines, want 2 (one per policy)\n%s", checked, out)
	}
	// Pinning one discipline and disaggregating prefill/decode still runs.
	buf.Reset()
	if err := FigLLM(&buf, Options{Quick: true, LLMBatching: "continuous", PrefillDecode: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disaggregated") {
		t.Fatal("prefill/decode run does not say so")
	}
	if err := FigLLM(io.Discard, Options{Quick: true, LLMBatching: "dynamic"}); err == nil {
		t.Fatal("unknown batching discipline accepted")
	}
}
