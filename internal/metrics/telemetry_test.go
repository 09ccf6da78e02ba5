package metrics

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"deepplan/internal/sim"
)

// at is n seconds as an instant.
func at(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Second) }

func TestTelemetryWindows(t *testing.T) {
	s := NewSeries(10*sim.Second, 100*sim.Millisecond, 4)
	s.Arrival(at(1), 2)
	s.Arrival(at(3), 4)
	s.Count(at(3), TelColdLaunches)
	s.Count(at(3), TelEvictions)
	s.Arrival(at(15), 0)
	s.Count(at(15), TelRelocations)
	s.Count(at(16), TelDeferred)
	s.Busy(at(2), at(7))
	// One response, served warm: the latency columns count responses by
	// arrival window, independently of the telemetry columns.
	s.Record(at(1), 50*sim.Millisecond, false)

	stats := s.Stats(at(20))
	if len(stats) != 2 {
		t.Fatalf("windows = %d, want 2", len(stats))
	}
	w0, w1 := stats[0], stats[1]
	if w0.Arrivals != 2 || w0.ColdLaunches != 1 || w0.Evictions != 1 {
		t.Fatalf("window 0 = %+v", w0)
	}
	if w0.Requests != 1 || w0.ColdStarts != 0 {
		t.Fatalf("window 0 latency columns = %+v; want 1 warm response", w0)
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
	if w1.Arrivals != 1 || w1.Relocations != 1 || w1.Deferred != 1 || w1.Requests != 0 {
		t.Fatalf("window 1 = %+v", w1)
	}
	if w1.Start != at(10) {
		t.Fatalf("window 1 start = %v", w1.Start)
	}
}

// A busy interval spanning window boundaries must credit each window only
// with its own share.
func TestTelemetryBusySplitsAcrossWindows(t *testing.T) {
	s := NewSeries(10*sim.Second, sim.Second, 1)
	s.Busy(at(8), at(23))
	stats := s.Stats(at(30))
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
	s := NewSeries(10*sim.Second, sim.Second, 2)
	s.Count(at(5), TelEvictions) // window exists but has no arrivals
	w := s.Stats(0)[0]
	if w.ColdRatio != 0 || w.MeanQueueDepth != 0 {
		t.Fatalf("empty-window ratios = %+v; want zeros", w)
	}
}

// Regression: the trailing *partial* window's busy time used to be divided
// by a full window's capacity, understating BusyFraction in the last bucket
// whenever the run's horizon is not a multiple of the window width.
func TestTelemetryPartialFinalWindowCapacity(t *testing.T) {
	s := NewSeries(10*sim.Second, sim.Second, 2)
	// The run ends at 14 s: the second window covers only [10 s, 14 s).
	s.Busy(at(10), at(14))
	stats := s.Stats(at(14))
	if len(stats) != 2 {
		t.Fatalf("windows = %d, want 2", len(stats))
	}
	// One of two GPUs busy for the whole 4 s the window existed = 0.5,
	// not 4s/(2*10s) = 0.2.
	if got := stats[1].BusyFraction; got != 0.5 {
		t.Fatalf("partial-window busy fraction = %v, want 0.5", got)
	}
	// Full windows are unaffected by the clamp.
	s2 := NewSeries(10*sim.Second, sim.Second, 2)
	s2.Busy(0, at(10))
	if got := s2.Stats(at(20))[0].BusyFraction; got != 0.5 {
		t.Fatalf("full-window busy fraction = %v, want 0.5", got)
	}
}

// Regression: telemetry windows after the last recorded event were omitted;
// a quiet tail must appear as explicit empty windows up to the horizon.
func TestTelemetryExtendsToHorizon(t *testing.T) {
	s := NewSeries(10*sim.Second, sim.Second, 2)
	s.Arrival(at(1), 0)
	stats := s.Stats(at(35))
	if len(stats) != 4 {
		t.Fatalf("windows = %d, want 4 (horizon 35 s)", len(stats))
	}
	for i := 1; i < 4; i++ {
		if stats[i].Arrivals != 0 || stats[i].BusyFraction != 0 {
			t.Fatalf("window %d not empty: %+v", i, stats[i])
		}
	}
	if stats[3].Start != at(30) {
		t.Fatalf("window 3 start = %v", stats[3].Start)
	}
}

// TestTelemetryHorizonOnWindowBoundary: with the horizon exactly on a window
// boundary, busy time credited up to the horizon stays inside the last
// window and adds no row, and the telemetry table skips that busy-only
// window. Telemetry recorded at the horizon instant itself opens a window
// starting at the horizon, which holds no latency sample.
func TestTelemetryHorizonOnWindowBoundary(t *testing.T) {
	s := NewSeries(10*sim.Second, sim.Second, 1)
	s.Arrival(at(1), 0)
	s.Record(at(1), 50*sim.Millisecond, true)
	s.Busy(at(1), at(2))
	s.Busy(at(12), at(20)) // the last window holds only busy time
	horizon := at(20)
	stats := s.Stats(horizon)
	if len(stats) != 2 {
		t.Fatalf("windows = %d, want 2 (horizon on the 20 s boundary)", len(stats))
	}
	if w := stats[1]; w.Requests != 0 || w.Arrivals != 0 || w.BusyFraction != 0.8 {
		t.Fatalf("window 1 = %+v; want busy time only, busy 0.8", w)
	}
	var buf bytes.Buffer
	WriteTelemetry(&buf, stats)
	if rows := strings.Count(buf.String(), "\n") - 1; rows != 1 {
		t.Fatalf("telemetry table has %d rows, want 1:\n%s", rows, buf.String())
	}

	s.Count(horizon, TelShed)
	stats = s.Stats(horizon)
	if len(stats) != 3 {
		t.Fatalf("windows = %d, want 3 with a shed at the horizon", len(stats))
	}
	if w := stats[2]; w.Start != horizon || w.Requests != 0 || w.Shed != 1 {
		t.Fatalf("horizon window = %+v; want the shed and no latency sample", w)
	}
}

// TestTelemetryStatsPoolsNodes pools two 2-GPU nodes' raw windows: counts
// and arrivals sum, queue depth averages over every arrival, busy time
// divides by both nodes' GPU capacity, and latency samples merge — exactly
// the Stats of one 4-GPU node that saw every event.
func TestTelemetryStatsPoolsNodes(t *testing.T) {
	const width, slo = 10 * sim.Second, 100 * sim.Millisecond
	a := NewSeries(width, slo, 2)
	b := NewSeries(width, slo, 2)
	all := NewSeries(width, slo, 4)
	for _, x := range []*Series{a, all} {
		x.Arrival(at(1), 4)
		x.Count(at(1), TelColdLaunches)
		x.Busy(0, at(5))
		x.Record(at(1), 150*sim.Millisecond, true)
	}
	for _, x := range []*Series{b, all} {
		x.Arrival(at(2), 2)
		x.Arrival(at(12), 0)
		x.Count(at(12), TelEvictions)
		x.Record(at(2), 30*sim.Millisecond, false)
	}
	horizon := at(20)
	pooled := a.Stats(horizon, b)
	if len(pooled) != 2 {
		t.Fatalf("pooled windows = %d, want 2", len(pooled))
	}
	w0 := pooled[0]
	if w0.Arrivals != 2 || w0.ColdLaunches != 1 {
		t.Fatalf("pooled window 0 = %+v", w0)
	}
	if w0.Requests != 2 || w0.ColdStarts != 1 || w0.Goodput != 0.5 {
		t.Fatalf("pooled window 0 latency columns = %+v", w0)
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
	if pooled[1].Arrivals != 1 || pooled[1].Evictions != 1 {
		t.Fatalf("pooled window 1 = %+v", pooled[1])
	}
	if want := all.Stats(horizon); !reflect.DeepEqual(pooled, want) {
		t.Fatalf("pooled stats\n%+v\nwant one node's\n%+v", pooled, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pooling series of different widths did not panic")
		}
	}()
	a.Stats(horizon, NewSeries(width/2, slo, 2))
}

func TestTelemetryValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSeries(0, sim.Second, 1) },
		func() { NewSeries(sim.Second, sim.Second, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid series config accepted")
				}
			}()
			fn()
		}()
	}
}
