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

// WindowStat is one time bucket of a Series. Its latency columns cover the
// requests that arrived in the window; its telemetry columns, zero unless
// the series' owner records telemetry, cover the resource events that fell
// in it.
type WindowStat struct {
	Start sim.Time
	// Requests counts the first responses to requests that arrived in the
	// window; ColdStarts counts those served cold.
	Requests   int
	ColdStarts int
	P99        sim.Duration
	Goodput    float64
	// The telemetry counts go by event time. Arrivals counts requests at
	// their first dispatch and ColdLaunches the cold-start runs launched.
	// Shed counts requests dropped by the SLO admission controller or after
	// a failed retry; Retried counts requests re-dispatched after a GPU
	// failure aborted their run. Both stay zero without fault injection.
	Arrivals     int
	ColdLaunches int
	Evictions    int
	Relocations  int
	Deferred     int
	Shed         int
	Retried      int
	// ColdRatio is ColdLaunches/Arrivals (0 for an empty window).
	ColdRatio float64
	// MeanQueueDepth averages the queue depth each arrival observed: the
	// outstanding runs across its own node's GPUs. A row pooled over a
	// cluster's nodes averages every node's arrivals, each at its own depth.
	MeanQueueDepth float64
	// BusyFraction is summed GPU busy time over the pooled GPUs' capacity
	// in the window.
	BusyFraction float64
}

// TelemetryKind indexes the event counts a window keeps. The zero value is
// no kind: events without a telemetry column carry it.
type TelemetryKind int

// The counted telemetry kinds, one per WindowStat count column.
const (
	TelColdLaunches TelemetryKind = iota + 1
	TelEvictions
	TelRelocations
	TelDeferred
	TelShed
	TelRetried
	numTelemetryKinds
)

// window is one bucket of a Series: the latency samples of the requests
// that arrived in it, by class, and the resource telemetry recorded in it.
type window struct {
	lat      [2]Digest // [0 = cold-served, 1 = warm-served]
	arrivals int
	counts   [numTelemetryKinds]int
	queueSum int64
	busy     sim.Duration
}

// Series is a server's one per-window store, in fixed windows of virtual
// time: the paper uses per-minute buckets over the 3-hour trace in Figure
// 15. Each window stores every latency sample once, keyed by cold/warm
// class — what every serving figure reports — and the resource telemetry
// a serving operator watches (Clockwork and Orca both debug tail latency
// from it): arrivals with the queue depth they saw, GPU busy time, and
// cold-start, eviction, relocation, deferral, shed and retry counts.
// Whole-run digests are views merged from it (MergeClass). All inputs are
// virtual-time instants, so collection is deterministic and
// observation-only.
type Series struct {
	width   sim.Duration
	slo     sim.Duration
	numGPUs int
	windows []window
}

// NewSeries returns a Series with the given bucket width and SLO over a
// server with numGPUs devices.
func NewSeries(width, slo sim.Duration, numGPUs int) *Series {
	if width <= 0 {
		panic(fmt.Sprintf("metrics: window must be positive, got %v", width))
	}
	if numGPUs <= 0 {
		panic(fmt.Sprintf("metrics: series needs at least one GPU, got %d", numGPUs))
	}
	return &Series{width: width, slo: slo, numGPUs: numGPUs}
}

// at returns the window holding instant t, growing the store to it.
func (s *Series) at(t sim.Time) *window {
	idx := int(t / sim.Time(s.width))
	for len(s.windows) <= idx {
		s.windows = append(s.windows, window{})
	}
	return &s.windows[idx]
}

// classOf maps a served-cold flag to its digest index.
func classOf(cold bool) int {
	if cold {
		return 0
	}
	return 1
}

// Record adds one request observation at the given arrival instant.
func (s *Series) Record(at sim.Time, latency sim.Duration, cold bool) {
	s.at(at).lat[classOf(cold)].Add(latency)
}

// Arrival records one request arrival and the total queue depth
// (outstanding runs across all GPUs) observed at that instant.
func (s *Series) Arrival(at sim.Time, queueDepth int) {
	w := s.at(at)
	w.arrivals++
	w.queueSum += int64(queueDepth)
}

// Count records one event of kind k (a cold-start launch, an eviction, a
// relocation, a waitlist deferral, a shed or a retry) at the given instant.
func (s *Series) Count(at sim.Time, k TelemetryKind) { s.at(at).counts[k]++ }

// Busy credits one GPU with busy time over [from, to), split across the
// windows the interval overlaps.
func (s *Series) Busy(from, to sim.Time) {
	for from < to {
		w := s.at(from)
		end := min((from/sim.Time(s.width)+1)*sim.Time(s.width), to)
		w.busy += end.Sub(from)
		from = end
	}
}

// MergeClass folds every window's cold-served (cold) or warm-served samples
// into d.
func (s *Series) MergeClass(d *Digest, cold bool) {
	c := classOf(cold)
	for i := range s.windows {
		d.Merge(&s.windows[i].lat[c])
	}
}

// Stats returns the per-window summary, in time order, covering every
// window up to the horizon (the end of the traced run) and every recorded
// window. Windows after the last recorded event are emitted explicitly as
// empty — without them a fig15-style per-minute table silently ends at the
// last arrival and a quiet tail is indistinguishable from a truncated
// trace. A horizon of zero (or one inside the recorded extent) reports the
// recorded windows only. The horizon also clamps the trailing *partial*
// window's busy capacity to the part of the window the run covered;
// dividing by a full window's capacity would understate BusyFraction there.
//
// Latency samples land strictly before the horizon, since each request
// finished by then, but telemetry recorded at the horizon instant itself
// lands in a window starting at the horizon when the horizon sits on a
// window boundary: such a row holds no latency samples.
//
// Series in more (one per cluster node, say) must share s's window width;
// their raw windows pool with s's window by window — latency samples merge,
// arrivals, queue depths, counts and busy time sum, and every GPU adds to
// the busy capacity — before any percentile or ratio is taken.
func (s *Series) Stats(horizon sim.Time, more ...*Series) []WindowStat {
	all := append([]*Series{s}, more...)
	n := windowsCovering(horizon, s.width)
	gpus := 0
	for _, x := range all {
		if x.width != s.width {
			panic(fmt.Sprintf("metrics: pooling series of widths %v and %v", s.width, x.width))
		}
		n = max(n, len(x.windows))
		gpus += x.numGPUs
	}
	out := make([]WindowStat, n)
	for i := range out {
		start := sim.Time(i) * sim.Time(s.width)
		end := start.Add(s.width)
		if horizon > start && horizon < end {
			end = horizon // final partial window: capacity ends at the horizon
		}
		var d Digest
		var w window
		st := &out[i]
		for _, x := range all {
			if i >= len(x.windows) {
				continue
			}
			xw := &x.windows[i]
			d.Merge(&xw.lat[0])
			d.Merge(&xw.lat[1])
			st.ColdStarts += xw.lat[0].Count()
			w.arrivals += xw.arrivals
			w.queueSum += xw.queueSum
			w.busy += xw.busy
			for k, c := range xw.counts {
				w.counts[k] += c
			}
		}
		st.Start = start
		st.Requests = d.Count()
		st.P99 = d.P99()
		st.Goodput = d.GoodputRate(s.slo) // an empty window misses nothing
		st.Arrivals = w.arrivals
		st.ColdLaunches = w.counts[TelColdLaunches]
		st.Evictions = w.counts[TelEvictions]
		st.Relocations = w.counts[TelRelocations]
		st.Deferred = w.counts[TelDeferred]
		st.Shed = w.counts[TelShed]
		st.Retried = w.counts[TelRetried]
		st.BusyFraction = w.busy.Seconds() / (float64(gpus) * end.Sub(start).Seconds())
		if w.arrivals > 0 {
			st.ColdRatio = float64(st.ColdLaunches) / float64(w.arrivals)
			st.MeanQueueDepth = float64(w.queueSum) / float64(w.arrivals)
		}
	}
	return out
}

// WriteTelemetry prints the telemetry columns of a run's windows as a
// per-window table, one row per window that saw an arrival or an eviction,
// labelled by the window's start minute.
func WriteTelemetry(w io.Writer, stats []WindowStat) {
	fmt.Fprintf(w, "%-8s %9s %7s %7s %7s %7s %7s\n",
		"minute", "requests", "cold%", "queue", "busy%", "evict", "reloc")
	for _, s := range stats {
		if s.Arrivals == 0 && s.Evictions == 0 {
			continue
		}
		fmt.Fprintf(w, "%-8.0f %9d %6.1f%% %7.2f %6.1f%% %7d %7d\n",
			s.Start.Seconds()/60, s.Arrivals, s.ColdRatio*100,
			s.MeanQueueDepth, s.BusyFraction*100, s.Evictions, s.Relocations)
	}
}
