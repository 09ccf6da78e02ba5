// Package forecast predicts per-model request arrival rates from the
// arrival stream alone, deterministically and allocation-free on the
// observation path.
//
// The forecaster is deliberately simple: a fixed ring of per-bucket
// arrival counts gives a sliding-window rate estimate, and an
// autocorrelation scan over the completed buckets detects the dominant
// periodicity. Both are tuned to the MAF-like workload classes in
// internal/workload — Spiky functions burst on a fixed schedule
// (burst-every 10–40 min) and Fluctuating functions swing sinusoidally
// (period 15–60 min) — so a seasonal-naive lookup ("what did the rate do
// one period ago?") captures exactly the structure those classes emit.
//
// Everything is integer bucket arithmetic plus float reductions in fixed
// index order, so two runs that feed the same arrival instants produce
// bit-identical predictions regardless of goroutine interleaving — the
// same byte-identity contract the rest of the simulator keeps.
package forecast

import (
	"fmt"

	"deepplan/internal/sim"
)

// Config tunes a Forecaster. The zero value is usable: every field has a
// default chosen for the cluster autoscaler's cadence.
type Config struct {
	// Window is the width of one counting bucket. Rate estimates and
	// period detection are quantized to this granularity. Default 10s.
	Window sim.Duration
	// Buckets is the ring length — how much history the forecaster keeps
	// (Window × Buckets of it). Default 512.
	Buckets int
	// Recent is how many completed buckets the sliding-window rate
	// estimate averages over. Default 3.
	Recent int
	// MinScore is the autocorrelation score a candidate period must reach
	// to be reported; below it the forecaster treats the stream as
	// aperiodic and forecasts the recent rate. Default 0.5.
	MinScore float64
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 10 * sim.Second
	}
	if c.Buckets <= 0 {
		c.Buckets = 512
	}
	if c.Recent <= 0 {
		c.Recent = 3
	}
	if c.MinScore <= 0 {
		c.MinScore = 0.5
	}
	return c
}

// Prediction is one forecast: the current smoothed rate, the peak rate
// expected within the requested horizon, and the detected periodicity
// (zero when the stream looks aperiodic).
type Prediction struct {
	// Rate is the sliding-window arrival rate estimate, requests/second.
	Rate float64
	// Peak is the highest bucket rate expected within the forecast
	// horizon: the seasonal-naive projection when a period is detected,
	// otherwise just Rate.
	Peak float64
	// Period is the detected dominant periodicity, quantized to Window;
	// zero when no period clears Config.MinScore.
	Period sim.Duration
	// Score is the autocorrelation coefficient of the detected period in
	// (MinScore, 1], or zero when Period is zero.
	Score float64
}

// Forecaster is a deterministic per-model arrival forecaster. Not safe
// for concurrent use; in the cluster it lives on the router, which runs
// on the shared simulation clock.
type Forecaster struct {
	cfg    Config
	counts []uint32
	cur    int64 // absolute index of the bucket currently being filled
	filled int64 // number of completed buckets ever (min(cur, Buckets) usable)
	total  uint64
}

// New builds a Forecaster; zero-valued Config fields take defaults.
func New(cfg Config) *Forecaster {
	cfg = cfg.withDefaults()
	return &Forecaster{cfg: cfg, counts: make([]uint32, cfg.Buckets)}
}

// Observe records one arrival at instant t. Amortized O(1) and 0
// allocs/op — the per-request hot path of the predictive autoscaler.
// Instants must be non-decreasing (simulation time never runs backward).
func (f *Forecaster) Observe(t sim.Time) {
	f.advance(f.bucket(t))
	f.counts[f.cur%int64(len(f.counts))]++
	f.total++
}

// Total returns the number of arrivals observed so far.
func (f *Forecaster) Total() uint64 { return f.total }

func (f *Forecaster) bucket(t sim.Time) int64 {
	return int64(t) / int64(f.cfg.Window)
}

// advance rotates the ring forward to bucket b, zeroing any buckets that
// were skipped. Bounded by the ring length no matter how far time jumped.
func (f *Forecaster) advance(b int64) {
	if b <= f.cur {
		return
	}
	n := int64(len(f.counts))
	if b-f.cur >= n {
		for i := range f.counts {
			f.counts[i] = 0
		}
		f.cur = b
		f.filled = n
		return
	}
	for f.cur < b {
		f.cur++
		f.counts[f.cur%n] = 0
	}
	if f.filled < f.cur {
		f.filled = f.cur
	}
	if f.filled > n {
		f.filled = n
	}
}

// at returns the count of the completed bucket `back` buckets before the
// current one (back=1 is the most recently completed bucket).
func (f *Forecaster) at(back int64) uint32 {
	n := int64(len(f.counts))
	return f.counts[((f.cur-back)%n+n)%n]
}

// completed returns how many completed buckets of history are usable.
func (f *Forecaster) completed() int64 {
	n := f.filled
	if n > f.cur {
		n = f.cur
	}
	if n > int64(len(f.counts))-1 {
		n = int64(len(f.counts)) - 1
	}
	return n
}

// Rate returns the sliding-window arrival rate (requests/second) as of
// now: the mean over the last Config.Recent completed buckets. Before the
// first bucket completes it falls back to total arrivals over elapsed
// time, so early ticks see a sane estimate instead of zero.
func (f *Forecaster) Rate(now sim.Time) float64 {
	f.advance(f.bucket(now))
	n := f.completed()
	if n == 0 {
		el := now.Seconds()
		if el <= 0 {
			return 0
		}
		return float64(f.total) / el
	}
	k := int64(f.cfg.Recent)
	if k > n {
		k = n
	}
	var sum float64
	for i := int64(1); i <= k; i++ {
		sum += float64(f.at(i))
	}
	return sum / (float64(k) * f.cfg.Window.Seconds())
}

// Period scans the completed history for its dominant periodicity via
// autocorrelation and returns it (quantized to Window) with its score.
// Returns (0, 0) when nothing clears Config.MinScore or fewer than two
// full cycles of history exist for every candidate lag.
func (f *Forecaster) Period(now sim.Time) (sim.Duration, float64) {
	f.advance(f.bucket(now))
	n := f.completed()
	if n < 8 {
		return 0, 0
	}
	// History oldest→newest in fixed order; all float reductions below
	// iterate the same way every run, keeping results bit-identical.
	var mean float64
	for i := n; i >= 1; i-- {
		mean += float64(f.at(i))
	}
	mean /= float64(n)
	var variance float64
	for i := n; i >= 1; i-- {
		d := float64(f.at(i)) - mean
		variance += d * d
	}
	if variance == 0 {
		return 0, 0 // flat history: constant-rate stream, no period
	}
	bestLag, bestScore := int64(0), 0.0
	maxLag := n / 2 // ≥ two full cycles of evidence for any reported lag
	for lag := int64(2); lag <= maxLag; lag++ {
		var num float64
		for i := n; i >= lag+1; i-- {
			num += (float64(f.at(i)) - mean) * (float64(f.at(i-lag)) - mean)
		}
		score := num / variance
		// Prefer the shortest lag that is essentially as good as the best
		// so harmonics (2×, 3× the true period) don't win.
		if score > bestScore*1.05 {
			bestLag, bestScore = lag, score
		}
	}
	if bestScore < f.cfg.MinScore {
		return 0, 0
	}
	return sim.Duration(bestLag) * f.cfg.Window, bestScore
}

// Forecast predicts the arrival rate over [now, now+horizon]. With a
// detected period it is seasonal-naive: the peak bucket rate one period
// ago across the same horizon-wide span, floored by the current rate.
// Without one it degrades to the sliding-window rate. Call it at
// controller cadence, not per arrival — it is O(history²) in the worst
// case, unlike Observe.
func (f *Forecaster) Forecast(now sim.Time, horizon sim.Duration) Prediction {
	rate := f.Rate(now)
	period, score := f.Period(now)
	p := Prediction{Rate: rate, Peak: rate, Period: period, Score: score}
	if period == 0 {
		return p
	}
	lag := int64(period / f.cfg.Window)
	span := int64((horizon + f.cfg.Window - 1) / f.cfg.Window)
	if span < 1 {
		span = 1
	}
	n := f.completed()
	sec := f.cfg.Window.Seconds()
	// Buckets [cur-lag, cur-lag+span) hold last cycle's view of the
	// horizon we are about to enter.
	for i := int64(0); i < span; i++ {
		back := lag - i
		if back < 1 || back > n {
			continue
		}
		if r := float64(f.at(back)) / sec; r > p.Peak {
			p.Peak = r
		}
	}
	return p
}

// String summarizes the forecaster state for debugging.
func (f *Forecaster) String() string {
	return fmt.Sprintf("forecast{window=%s buckets=%d observed=%d}",
		f.cfg.Window, len(f.counts), f.total)
}
