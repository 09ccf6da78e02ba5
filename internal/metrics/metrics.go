// Package metrics provides the latency/goodput accounting the paper's
// serving evaluation reports: percentile digests, SLO goodput, cold-start
// ratios, and per-window time series (Figure 13–15).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"

	"deepplan/internal/sim"
)

// Digest collects latency samples and answers percentile queries exactly
// (samples are retained; serving runs produce at most a few million).
type Digest struct {
	samples []float64 // seconds
	sorted  bool
}

// Add records one latency sample.
func (d *Digest) Add(v sim.Duration) {
	d.samples = append(d.samples, v.Seconds())
	d.sorted = false
}

// Count returns the number of samples.
func (d *Digest) Count() int { return len(d.samples) }

// Quantile returns the q-th quantile (0 <= q <= 1) using the
// nearest-rank method, or 0 with no samples.
func (d *Digest) Quantile(q float64) sim.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	if q <= 0 {
		return secs(d.samples[0])
	}
	if q >= 1 {
		return secs(d.samples[len(d.samples)-1])
	}
	// The epsilon guards the exact-boundary case: when q*n is an integer in
	// exact arithmetic (e.g. 0.28*25 = 7) the float product can land just
	// above it (7.000000000000001), and a bare Ceil would pick the next rank.
	rank := int(math.Ceil(q*float64(len(d.samples))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	return secs(d.samples[rank])
}

// P99 is Quantile(0.99), the paper's headline tail metric.
func (d *Digest) P99() sim.Duration { return d.Quantile(0.99) }

// P50 is the median.
func (d *Digest) P50() sim.Duration { return d.Quantile(0.50) }

// Mean returns the average latency.
func (d *Digest) Mean() sim.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d.samples {
		sum += v
	}
	return secs(sum / float64(len(d.samples)))
}

// Max returns the largest sample.
func (d *Digest) Max() sim.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	if d.sorted {
		return secs(d.samples[len(d.samples)-1])
	}
	max := d.samples[0]
	for _, v := range d.samples[1:] {
		if v > max {
			max = v
		}
	}
	return secs(max)
}

// GoodputRate returns the fraction of samples within the SLO. An empty
// digest reports 1.0: a window in which no request arrived missed nothing,
// and rendering it as 0% goodput would read as a total SLO violation in the
// per-window tables (render request-free windows as "-" where the request
// count is available).
func (d *Digest) GoodputRate(slo sim.Duration) float64 {
	if len(d.samples) == 0 {
		return 1
	}
	bound := slo.Seconds()
	n := 0
	for _, v := range d.samples {
		if v <= bound {
			n++
		}
	}
	return float64(n) / float64(len(d.samples))
}

// Merge folds another digest's samples into d (cluster-level aggregation:
// per-node digests merge into one cluster-wide percentile view).
func (d *Digest) Merge(o *Digest) {
	if o == nil || len(o.samples) == 0 {
		return
	}
	d.samples = append(d.samples, o.samples...)
	d.sorted = false
}

// secs converts float seconds back to a Duration, rounding to the nearest
// nanosecond (plain truncation loses 1 ns on values like 31578.999...).
func secs(s float64) sim.Duration { return sim.Duration(math.Round(s * 1e9)) }

// windowsCovering returns how many width-sized windows are needed to cover
// [0, horizon). A horizon of zero needs none.
func windowsCovering(horizon sim.Time, width sim.Duration) int {
	if horizon <= 0 {
		return 0
	}
	return int((horizon + sim.Time(width) - 1) / sim.Time(width))
}

// WindowStat is one time bucket of a Series.
type WindowStat struct {
	Start      sim.Time
	Requests   int
	ColdStarts int
	P99        sim.Duration
	Goodput    float64
}

// Series stores every latency sample once, keyed by (window, class): the
// paper uses per-minute buckets over the 3-hour trace in Figure 15, and the
// cold/warm split is what every serving figure reports. Whole-run digests
// are views merged from it (MergeClass).
type Series struct {
	window sim.Duration
	slo    sim.Duration
	cells  [][2]Digest // [window][0 = cold-served, 1 = warm-served]
}

// NewSeries returns a Series with the given bucket width and SLO.
func NewSeries(window, slo sim.Duration) *Series {
	if window <= 0 {
		panic(fmt.Sprintf("metrics: window must be positive, got %v", window))
	}
	return &Series{window: window, slo: slo}
}

// classOf maps a served-cold flag to its cell index.
func classOf(cold bool) int {
	if cold {
		return 0
	}
	return 1
}

// Record adds one request observation at the given arrival instant.
func (s *Series) Record(at sim.Time, latency sim.Duration, cold bool) {
	idx := int(at / sim.Time(s.window))
	for len(s.cells) <= idx {
		s.cells = append(s.cells, [2]Digest{})
	}
	s.cells[idx][classOf(cold)].Add(latency)
}

// MergeClass folds every window's cold-served (cold) or warm-served samples
// into d.
func (s *Series) MergeClass(d *Digest, cold bool) {
	c := classOf(cold)
	for i := range s.cells {
		d.Merge(&s.cells[i][c])
	}
}

// Stats returns the per-window summary, in time order, covering every
// window up to the horizon (the end of the traced run). Windows after the
// last recorded event are emitted explicitly as empty — without them a
// fig15-style per-minute table silently ends at the last arrival and a
// quiet tail is indistinguishable from a truncated trace. A horizon of
// zero (or one inside the recorded extent) reports the recorded windows
// only. Series in more (one per cluster node, say) must share s's window
// width; their samples pool with s's window by window.
func (s *Series) Stats(horizon sim.Time, more ...*Series) []WindowStat {
	all := append([]*Series{s}, more...)
	n := windowsCovering(horizon, s.window)
	for _, x := range all {
		if x.window != s.window {
			panic(fmt.Sprintf("metrics: merging series of widths %v and %v", s.window, x.window))
		}
		n = max(n, len(x.cells))
	}
	out := make([]WindowStat, n)
	for i := range out {
		var d Digest
		out[i].Start = sim.Time(i) * sim.Time(s.window)
		for _, x := range all {
			if i < len(x.cells) {
				d.Merge(&x.cells[i][0])
				d.Merge(&x.cells[i][1])
				out[i].ColdStarts += x.cells[i][0].Count()
			}
		}
		out[i].Requests = d.Count()
		out[i].P99 = d.P99()
		out[i].Goodput = d.GoodputRate(s.slo) // an empty window misses nothing
	}
	return out
}

// Telemetry buckets resource-level serving observations into fixed windows:
// cold-start ratio, queue depth at arrival, GPU busy time, and
// eviction/relocation/deferral counts. It complements Series (which tracks
// latency) with the per-resource signals a serving operator watches —
// Clockwork and Orca both debug tail latency from exactly this telemetry.
// All inputs are virtual-time instants, so collection is deterministic and
// observation-only.
type Telemetry struct {
	window  sim.Duration
	numGPUs int
	windows []telemetryWindow
}

// TelemetryKind indexes the event counts a telemetry window keeps. The zero
// value is no kind: events without a telemetry column carry it.
type TelemetryKind int

// The counted telemetry kinds, one per TelemetryStat count column.
const (
	TelColdStarts TelemetryKind = iota + 1
	TelEvictions
	TelRelocations
	TelDeferred
	TelShed
	TelRetried
	numTelemetryKinds
)

type telemetryWindow struct {
	requests int
	counts   [numTelemetryKinds]int
	queueSum int64
	busy     sim.Duration
}

// TelemetryStat is one window of the telemetry snapshot, with derived
// ratios computed.
type TelemetryStat struct {
	Start       sim.Time
	Requests    int
	ColdStarts  int
	Evictions   int
	Relocations int
	Deferred    int
	// Shed counts requests dropped by the SLO admission controller or after
	// a failed retry; Retried counts requests re-dispatched after a GPU
	// failure aborted their run. Both stay zero without fault injection.
	Shed    int
	Retried int
	// ColdRatio is ColdStarts/Requests (0 for an empty window).
	ColdRatio float64
	// MeanQueueDepth averages the total outstanding runs across all GPUs,
	// sampled at each request arrival.
	MeanQueueDepth float64
	// BusyFraction is summed GPU busy time over numGPUs*window capacity.
	BusyFraction float64
}

// WriteTelemetry prints a telemetry snapshot as a per-window table, one
// row per window that saw a request or an eviction, labelled by the
// window's start minute.
func WriteTelemetry(w io.Writer, stats []TelemetryStat) {
	fmt.Fprintf(w, "%-8s %9s %7s %7s %7s %7s %7s\n",
		"minute", "requests", "cold%", "queue", "busy%", "evict", "reloc")
	for _, s := range stats {
		if s.Requests == 0 && s.Evictions == 0 {
			continue
		}
		fmt.Fprintf(w, "%-8.0f %9d %6.1f%% %7.2f %6.1f%% %7d %7d\n",
			s.Start.Seconds()/60, s.Requests, s.ColdRatio*100,
			s.MeanQueueDepth, s.BusyFraction*100, s.Evictions, s.Relocations)
	}
}

// NewTelemetry returns a Telemetry with the given bucket width over a
// server with numGPUs devices.
func NewTelemetry(window sim.Duration, numGPUs int) *Telemetry {
	if window <= 0 {
		panic(fmt.Sprintf("metrics: telemetry window must be positive, got %v", window))
	}
	if numGPUs <= 0 {
		panic(fmt.Sprintf("metrics: telemetry needs at least one GPU, got %d", numGPUs))
	}
	return &Telemetry{window: window, numGPUs: numGPUs}
}

func (t *Telemetry) at(at sim.Time) *telemetryWindow {
	idx := int(at / sim.Time(t.window))
	for len(t.windows) <= idx {
		t.windows = append(t.windows, telemetryWindow{})
	}
	return &t.windows[idx]
}

// Arrival records one request arrival and the total queue depth
// (outstanding runs across all GPUs) observed at that instant.
func (t *Telemetry) Arrival(at sim.Time, queueDepth int) {
	w := t.at(at)
	w.requests++
	w.queueSum += int64(queueDepth)
}

// Count records one event of kind k (a cold-start launch, an eviction, a
// relocation, a waitlist deferral, a shed or a retry) at the given instant.
func (t *Telemetry) Count(at sim.Time, k TelemetryKind) { t.at(at).counts[k]++ }

// Busy credits one GPU with busy time over [from, to), split across the
// windows the interval overlaps.
func (t *Telemetry) Busy(from, to sim.Time) {
	for from < to {
		w := t.at(from)
		end := (from/sim.Time(t.window) + 1) * sim.Time(t.window)
		if end > to {
			end = to
		}
		w.busy += end.Sub(from)
		from = end
	}
}

// Stats returns the per-window telemetry snapshot, in time order, covering
// every window up to the horizon (the end of the traced run; zero reports
// the recorded windows only). The horizon serves two corrections: windows
// after the last recorded event appear explicitly as empty, and the trailing
// *partial* window's busy capacity is clamped to the fraction of the window
// the run actually covered — dividing its busy time by a full window's
// capacity understates BusyFraction in the last bucket whenever the horizon
// is not a multiple of the window. Telemetry in more (one per cluster node,
// say) must share t's window width; their raw windows pool with t's window
// by window — arrivals, queue depths, counts and busy time sum, and every
// GPU adds to the busy capacity — before any ratio is taken.
func (t *Telemetry) Stats(horizon sim.Time, more ...*Telemetry) []TelemetryStat {
	all := append([]*Telemetry{t}, more...)
	n := windowsCovering(horizon, t.window)
	gpus := 0
	for _, x := range all {
		if x.window != t.window {
			panic(fmt.Sprintf("metrics: pooling telemetry of widths %v and %v", t.window, x.window))
		}
		n = max(n, len(x.windows))
		gpus += x.numGPUs
	}
	out := make([]TelemetryStat, n)
	for i := range out {
		start := sim.Time(i) * sim.Time(t.window)
		end := start.Add(t.window)
		if horizon > start && horizon < end {
			end = horizon // final partial window: capacity ends at the horizon
		}
		var w telemetryWindow
		for _, x := range all {
			if i < len(x.windows) {
				xw := &x.windows[i]
				w.requests += xw.requests
				w.queueSum += xw.queueSum
				w.busy += xw.busy
				for k, c := range xw.counts {
					w.counts[k] += c
				}
			}
		}
		s := TelemetryStat{
			Start:        start,
			Requests:     w.requests,
			ColdStarts:   w.counts[TelColdStarts],
			Evictions:    w.counts[TelEvictions],
			Relocations:  w.counts[TelRelocations],
			Deferred:     w.counts[TelDeferred],
			Shed:         w.counts[TelShed],
			Retried:      w.counts[TelRetried],
			BusyFraction: w.busy.Seconds() / (float64(gpus) * end.Sub(start).Seconds()),
		}
		if w.requests > 0 {
			s.ColdRatio = float64(s.ColdStarts) / float64(w.requests)
			s.MeanQueueDepth = float64(w.queueSum) / float64(w.requests)
		}
		out[i] = s
	}
	return out
}
