package metrics

import (
	"reflect"
	"testing"

	"deepplan/internal/sim"
)

func TestTelemetryWindows(t *testing.T) {
	tel := NewTelemetry(10*sim.Second, 4)
	tel.Arrival(1*sim.Time(sim.Second), 2)
	tel.Arrival(3*sim.Time(sim.Second), 4)
	tel.Count(3*sim.Time(sim.Second), TelColdStarts)
	tel.Count(3*sim.Time(sim.Second), TelEvictions)
	tel.Arrival(15*sim.Time(sim.Second), 0)
	tel.Count(15*sim.Time(sim.Second), TelRelocations)
	tel.Count(16*sim.Time(sim.Second), TelDeferred)
	tel.Busy(2*sim.Time(sim.Second), 7*sim.Time(sim.Second))

	stats := tel.Stats(20 * sim.Time(sim.Second))
	if len(stats) != 2 {
		t.Fatalf("windows = %d, want 2", len(stats))
	}
	w0, w1 := stats[0], stats[1]
	if w0.Requests != 2 || w0.ColdStarts != 1 || w0.Evictions != 1 {
		t.Fatalf("window 0 = %+v", w0)
	}
	if w0.ColdRatio != 0.5 {
		t.Fatalf("cold ratio = %v, want 0.5", w0.ColdRatio)
	}
	if w0.MeanQueueDepth != 3 {
		t.Fatalf("mean queue depth = %v, want 3", w0.MeanQueueDepth)
	}
	// 5 s busy on one of four GPUs over a 10 s window = 1/8.
	if w0.BusyFraction != 0.125 {
		t.Fatalf("busy fraction = %v, want 0.125", w0.BusyFraction)
	}
	if w1.Requests != 1 || w1.Relocations != 1 || w1.Deferred != 1 {
		t.Fatalf("window 1 = %+v", w1)
	}
	if w1.Start != sim.Time(10*sim.Second) {
		t.Fatalf("window 1 start = %v", w1.Start)
	}
}

// A busy interval spanning window boundaries must credit each window only
// with its own share.
func TestTelemetryBusySplitsAcrossWindows(t *testing.T) {
	tel := NewTelemetry(10*sim.Second, 1)
	tel.Busy(8*sim.Time(sim.Second), 23*sim.Time(sim.Second))
	stats := tel.Stats(30 * sim.Time(sim.Second))
	if len(stats) != 3 {
		t.Fatalf("windows = %d, want 3", len(stats))
	}
	want := []float64{0.2, 1.0, 0.3}
	for i, w := range stats {
		if w.BusyFraction != want[i] {
			t.Fatalf("window %d busy = %v, want %v", i, w.BusyFraction, want[i])
		}
	}
}

func TestTelemetryEmptyWindowRatios(t *testing.T) {
	tel := NewTelemetry(10*sim.Second, 2)
	tel.Count(5*sim.Time(sim.Second), TelEvictions) // window exists but has no requests
	w := tel.Stats(0)[0]
	if w.ColdRatio != 0 || w.MeanQueueDepth != 0 {
		t.Fatalf("empty-window ratios = %+v; want zeros", w)
	}
}

// Regression: the trailing *partial* window's busy time used to be divided
// by a full window's capacity, understating BusyFraction in the last bucket
// whenever the run's horizon is not a multiple of the window width.
func TestTelemetryPartialFinalWindowCapacity(t *testing.T) {
	tel := NewTelemetry(10*sim.Second, 2)
	// The run ends at 14 s: the second window covers only [10 s, 14 s).
	tel.Busy(10*sim.Time(sim.Second), 14*sim.Time(sim.Second))
	stats := tel.Stats(14 * sim.Time(sim.Second))
	if len(stats) != 2 {
		t.Fatalf("windows = %d, want 2", len(stats))
	}
	// One of two GPUs busy for the whole 4 s the window existed = 0.5,
	// not 4s/(2*10s) = 0.2.
	if got := stats[1].BusyFraction; got != 0.5 {
		t.Fatalf("partial-window busy fraction = %v, want 0.5", got)
	}
	// Full windows are unaffected by the clamp.
	tel2 := NewTelemetry(10*sim.Second, 2)
	tel2.Busy(0, 10*sim.Time(sim.Second))
	if got := tel2.Stats(20 * sim.Time(sim.Second))[0].BusyFraction; got != 0.5 {
		t.Fatalf("full-window busy fraction = %v, want 0.5", got)
	}
}

// Regression: telemetry windows after the last recorded event were omitted;
// a quiet tail must appear as explicit empty windows up to the horizon.
func TestTelemetryExtendsToHorizon(t *testing.T) {
	tel := NewTelemetry(10*sim.Second, 2)
	tel.Arrival(1*sim.Time(sim.Second), 0)
	stats := tel.Stats(35 * sim.Time(sim.Second))
	if len(stats) != 4 {
		t.Fatalf("windows = %d, want 4 (horizon 35 s)", len(stats))
	}
	for i := 1; i < 4; i++ {
		if stats[i].Requests != 0 || stats[i].BusyFraction != 0 {
			t.Fatalf("window %d not empty: %+v", i, stats[i])
		}
	}
	if stats[3].Start != sim.Time(30*sim.Second) {
		t.Fatalf("window 3 start = %v", stats[3].Start)
	}
}

// TestTelemetryStatsPoolsNodes pools two 2-GPU nodes' raw windows: counts
// and arrivals sum, queue depth averages over every arrival, and busy time
// divides by both nodes' GPU capacity — exactly the Stats of one 4-GPU node
// that saw every event.
func TestTelemetryStatsPoolsNodes(t *testing.T) {
	a := NewTelemetry(10*sim.Second, 2)
	b := NewTelemetry(10*sim.Second, 2)
	all := NewTelemetry(10*sim.Second, 4)
	for _, x := range []*Telemetry{a, all} {
		x.Arrival(1*sim.Time(sim.Second), 4)
		x.Count(1*sim.Time(sim.Second), TelColdStarts)
		x.Busy(0, 5*sim.Time(sim.Second))
	}
	for _, x := range []*Telemetry{b, all} {
		x.Arrival(2*sim.Time(sim.Second), 2)
		x.Arrival(12*sim.Time(sim.Second), 0)
		x.Count(12*sim.Time(sim.Second), TelEvictions)
	}
	horizon := 20 * sim.Time(sim.Second)
	pooled := a.Stats(horizon, b)
	if len(pooled) != 2 {
		t.Fatalf("pooled windows = %d, want 2", len(pooled))
	}
	w0 := pooled[0]
	if w0.Requests != 2 || w0.ColdStarts != 1 {
		t.Fatalf("pooled window 0 = %+v", w0)
	}
	if w0.ColdRatio != 0.5 {
		t.Fatalf("pooled cold ratio = %v, want 0.5", w0.ColdRatio)
	}
	// 5 s of one GPU over 4 GPUs x 10 s.
	if w0.BusyFraction != 0.125 {
		t.Fatalf("pooled busy fraction = %v, want 0.125", w0.BusyFraction)
	}
	if w0.MeanQueueDepth != 3 {
		t.Fatalf("pooled queue depth = %v, want 3", w0.MeanQueueDepth)
	}
	if pooled[1].Requests != 1 || pooled[1].Evictions != 1 {
		t.Fatalf("pooled window 1 = %+v", pooled[1])
	}
	if want := all.Stats(horizon); !reflect.DeepEqual(pooled, want) {
		t.Fatalf("pooled stats\n%+v\nwant one node's\n%+v", pooled, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pooling telemetry of different widths did not panic")
		}
	}()
	a.Stats(horizon, NewTelemetry(5*sim.Second, 2))
}

func TestTelemetryValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTelemetry(0, 1) },
		func() { NewTelemetry(sim.Second, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid telemetry config accepted")
				}
			}()
			fn()
		}()
	}
}
