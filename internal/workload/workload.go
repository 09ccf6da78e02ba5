// Package workload generates the request arrival processes the paper
// evaluates with: open-loop Poisson arrivals spread across model instances
// (§5.3.1, Figures 13–14) and a Microsoft-Azure-Functions-like trace
// (§5.3.2, Figure 15).
//
// The real MAF trace is not redistributable in this environment, so
// MAFLike synthesizes the characteristics the paper relies on — "heavy
// sustained requests, fluctuations in request rates, and spikes in
// requests" — as a deterministic mixture of per-function arrival classes.
// The substitution is documented in DESIGN.md.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"deepplan/internal/sim"
)

// Request is one inference arrival. PromptTokens/OutputTokens are zero for
// the paper's single-shot workloads; the autoregressive serving mode fills
// them via WithTokens, and a zero OutputTokens is served as one forward pass
// exactly like before.
type Request struct {
	At       sim.Time
	Instance int
	// PromptTokens is the prompt length prefilled before the first token.
	PromptTokens int
	// OutputTokens is the total number of generated tokens (the first is
	// produced by the prefill; the rest by decode iterations).
	OutputTokens int
}

// Poisson generates an open-loop Poisson arrival process of the given total
// rate (requests/second), each request routed to a uniformly random
// instance. Generation stops after n requests. Deterministic for a seed.
func Poisson(seed int64, ratePerSec float64, n, numInstances int) []Request {
	if ratePerSec <= 0 || n <= 0 || numInstances <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, 0, n)
	var t float64 // seconds
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / ratePerSec
		reqs = append(reqs, Request{
			At:       sim.Time(t * 1e9),
			Instance: rng.Intn(numInstances),
		})
	}
	return reqs
}

// PoissonZipf generates the same open-loop Poisson arrival process as
// Poisson but with Zipf-skewed instance popularity: instance i receives
// traffic proportional to 1/(i+1)^skew, so low-numbered instances are the
// heavy hitters and the tail goes increasingly cold as skew grows. skew <= 0
// degenerates to the uniform Poisson generator (byte-identical output), so
// existing workloads are unchanged. Deterministic for a seed.
//
// Skewed popularity is what makes capacity planning interesting: uniform
// traffic keeps every replica equally warm, while a Zipf head concentrates
// residency value on a few instances — exactly the regime where affinity
// routing and autoscaling earn (or lose) their keep.
func PoissonZipf(seed int64, ratePerSec float64, n, numInstances int, skew float64) []Request {
	if skew <= 0 {
		return Poisson(seed, ratePerSec, n, numInstances)
	}
	if ratePerSec <= 0 || n <= 0 || numInstances <= 0 {
		return nil
	}
	// Cumulative Zipf weights; inverse-CDF sampling keeps the generator a
	// pure function of (seed, parameters) with one rng draw per arrival.
	cum := make([]float64, numInstances)
	total := 0.0
	for i := 0; i < numInstances; i++ {
		total += math.Pow(float64(i+1), -skew)
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, 0, n)
	var t float64 // seconds
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / ratePerSec
		u := rng.Float64() * total
		inst := sort.SearchFloat64s(cum, u)
		if inst >= numInstances {
			inst = numInstances - 1
		}
		reqs = append(reqs, Request{
			At:       sim.Time(t * 1e9),
			Instance: inst,
		})
	}
	return reqs
}

// WithTokens assigns prompt and output lengths to an existing arrival
// sequence, in place, and returns it. Lengths are drawn i.i.d. from
// exponential distributions around the given means — the long-tailed shape
// production LLM traces show — clamped to [1, 4x mean] so a single freak
// sequence cannot dominate a figure. The draw stream is independent of the
// arrival-time stream (separate seed), so the same arrival process can be
// replayed with different length mixes. Deterministic for a seed.
func WithTokens(reqs []Request, seed int64, promptMean, outputMean int) []Request {
	if promptMean < 1 {
		promptMean = 1
	}
	if outputMean < 1 {
		outputMean = 1
	}
	rng := rand.New(rand.NewSource(seed ^ 0x746f6b656e73)) // "tokens"
	draw := func(mean int) int {
		n := int(rng.ExpFloat64() * float64(mean))
		if n < 1 {
			n = 1
		}
		if max := 4 * mean; n > max {
			n = max
		}
		return n
	}
	for i := range reqs {
		reqs[i].PromptTokens = draw(promptMean)
		reqs[i].OutputTokens = draw(outputMean)
	}
	return reqs
}

// ZipfWeights returns the normalized popularity weights PoissonZipf samples
// instances with: weight i ∝ 1/(i+1)^skew, summing to 1. skew <= 0
// degenerates to uniform, mirroring PoissonZipf's fallback. The model-zoo
// registry uses these as per-variant request probabilities, so a zoo's
// popularity metadata and its generated traffic agree by construction.
func ZipfWeights(n int, skew float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	if skew <= 0 {
		for i := range w {
			w[i] = 1 / float64(n)
		}
		return w
	}
	total := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -skew)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// FunctionClass is a MAF-like arrival behaviour.
type FunctionClass int

const (
	// Sustained functions receive a steady high rate (heavy hitters).
	Sustained FunctionClass = iota
	// Fluctuating functions oscillate sinusoidally over tens of minutes.
	Fluctuating
	// Spiky functions idle at a low base rate with rare intense bursts.
	Spiky
	// Rare functions receive only occasional requests (the long tail that
	// is almost always cold).
	Rare
)

// String names the arrival class ("sustained", "fluctuating", ...).
func (c FunctionClass) String() string {
	switch c {
	case Sustained:
		return "sustained"
	case Fluctuating:
		return "fluctuating"
	case Spiky:
		return "spiky"
	case Rare:
		return "rare"
	default:
		return fmt.Sprintf("FunctionClass(%d)", int(c))
	}
}

// TraceSpec configures MAFLike.
type TraceSpec struct {
	Seed         int64
	Duration     sim.Duration // e.g. 3 hours
	TotalRate    float64      // average requests/second across all functions
	NumFunctions int
	// Mix is the fraction of functions per class; zero value uses the
	// default 10% sustained / 30% fluctuating / 20% spiky / 40% rare.
	Mix map[FunctionClass]float64
	// BurstEvery/BurstLen, when both positive, pin every Spiky function to
	// this shared phase-aligned burst schedule (bursts at t = 0, BurstEvery,
	// 2×BurstEvery, ... each lasting BurstLen) instead of the per-function
	// random draws. That makes the spike timing a controlled experimental
	// variable — exactly what the forecasting experiments need — while the
	// zero value leaves every existing trace byte-identical.
	BurstEvery sim.Duration
	BurstLen   sim.Duration
}

// Trace is a generated arrival sequence with its per-function metadata.
type Trace struct {
	Requests []Request
	Classes  []FunctionClass // per function (instance) index
}

// MAFLike synthesizes an Azure-Functions-like trace. Each function (mapped
// 1:1 onto a model instance) draws a class and a mean rate; arrivals are
// generated by thinning a Poisson process against the class's time-varying
// rate profile. The result is sorted by arrival time and deterministic for
// a seed.
func MAFLike(spec TraceSpec) (*Trace, error) {
	if spec.Duration <= 0 || spec.TotalRate <= 0 || spec.NumFunctions <= 0 {
		return nil, fmt.Errorf("workload: invalid trace spec %+v", spec)
	}
	mix := spec.Mix
	if mix == nil {
		mix = map[FunctionClass]float64{
			Sustained: 0.10, Fluctuating: 0.30, Spiky: 0.20, Rare: 0.40,
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// Assign classes by mix fractions.
	classes := make([]FunctionClass, spec.NumFunctions)
	idx := 0
	for _, c := range []FunctionClass{Sustained, Fluctuating, Spiky, Rare} {
		n := int(math.Round(mix[c] * float64(spec.NumFunctions)))
		for i := 0; i < n && idx < spec.NumFunctions; i++ {
			classes[idx] = c
			idx++
		}
	}
	for ; idx < spec.NumFunctions; idx++ {
		classes[idx] = Rare
	}
	// Shuffle so classes are not correlated with instance index.
	rng.Shuffle(len(classes), func(i, j int) {
		classes[i], classes[j] = classes[j], classes[i]
	})

	// Relative mean-rate weights per class (sustained functions dominate
	// traffic, as in the MAF characterization).
	weight := func(c FunctionClass) float64 {
		switch c {
		case Sustained:
			return 20
		case Fluctuating:
			return 6
		case Spiky:
			return 3
		default:
			return 0.2
		}
	}
	var totalWeight float64
	for _, c := range classes {
		totalWeight += weight(c)
	}

	durSec := spec.Duration.Seconds()
	tr := &Trace{Classes: classes}
	for fn, c := range classes {
		mean := spec.TotalRate * weight(c) / totalWeight
		// Per-function phase/burst structure. The draws always happen so
		// the rng stream — and therefore every other function's arrivals —
		// stays byte-identical whether or not the burst override is set.
		phase := rng.Float64() * 2 * math.Pi
		period := (15 + rng.Float64()*45) * 60 // 15-60 min
		burstEvery := (10 + rng.Float64()*30) * 60
		burstLen := 20 + rng.Float64()*60 // 20-80 s
		burstOffset := rng.Float64() * burstEvery
		if spec.BurstEvery > 0 && spec.BurstLen > 0 {
			burstEvery = spec.BurstEvery.Seconds()
			burstLen = spec.BurstLen.Seconds()
			burstOffset = 0
		}
		rate := func(t float64) float64 {
			switch c {
			case Sustained:
				return mean
			case Fluctuating:
				return mean * (1 + 0.8*math.Sin(2*math.Pi*t/period+phase))
			case Spiky:
				// Base 40% of the mean; bursts carry the rest.
				pos := math.Mod(t+burstOffset, burstEvery)
				if pos < burstLen {
					return mean * 0.4 * (1 + (burstEvery/burstLen)*1.5)
				}
				return mean * 0.4
			default:
				return mean
			}
		}
		maxRate := mean * 25 // safe thinning envelope for all classes
		var t float64
		for {
			t += rng.ExpFloat64() / maxRate
			if t >= durSec {
				break
			}
			if rng.Float64() <= rate(t)/maxRate {
				tr.Requests = append(tr.Requests, Request{
					At:       sim.Time(t * 1e9),
					Instance: fn,
				})
			}
		}
	}
	sort.Slice(tr.Requests, func(i, j int) bool {
		if tr.Requests[i].At != tr.Requests[j].At {
			return tr.Requests[i].At < tr.Requests[j].At
		}
		return tr.Requests[i].Instance < tr.Requests[j].Instance
	})
	return tr, nil
}
