package workload

import (
	"math"
	"sort"
	"testing"

	"deepplan/internal/sim"
)

func TestPoissonBasics(t *testing.T) {
	reqs := Poisson(1, 100, 5000, 40)
	if len(reqs) != 5000 {
		t.Fatalf("len = %d", len(reqs))
	}
	if !sort.SliceIsSorted(reqs, func(i, j int) bool { return reqs[i].At < reqs[j].At }) {
		t.Fatal("arrivals not sorted")
	}
	for _, r := range reqs {
		if r.Instance < 0 || r.Instance >= 40 {
			t.Fatalf("instance %d out of range", r.Instance)
		}
	}
	// Mean rate ~100 rps: 5000 requests should span ~50 s (±15%).
	span := reqs[len(reqs)-1].At.Seconds()
	if span < 42 || span > 58 {
		t.Fatalf("5000 requests at 100 rps spanned %0.1f s, want ~50", span)
	}
}

func TestPoissonInstanceSpreadUniform(t *testing.T) {
	const n, inst = 20000, 10
	reqs := Poisson(7, 100, n, inst)
	counts := make([]int, inst)
	for _, r := range reqs {
		counts[r.Instance]++
	}
	want := float64(n) / inst
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Fatalf("instance %d got %d of %d requests, want ~%0.0f", i, c, n, want)
		}
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a := Poisson(9, 50, 100, 5)
	b := Poisson(9, 50, 100, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different workloads")
		}
	}
	c := Poisson(10, 50, 100, 5)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestPoissonInterarrivalsExponential(t *testing.T) {
	reqs := Poisson(3, 100, 50000, 1)
	var gaps []float64
	prev := sim.Time(0)
	for _, r := range reqs {
		gaps = append(gaps, r.At.Sub(prev).Seconds())
		prev = r.At
	}
	// Exponential(λ=100): mean 10 ms, CV 1.
	var sum, sumsq float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	for _, g := range gaps {
		sumsq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sumsq/float64(len(gaps))) / mean
	if mean < 0.009 || mean > 0.011 {
		t.Errorf("mean gap = %g s, want ~0.01", mean)
	}
	if cv < 0.9 || cv > 1.1 {
		t.Errorf("gap CV = %g, want ~1 (exponential)", cv)
	}
}

func TestPoissonInvalidInputs(t *testing.T) {
	if Poisson(1, 0, 10, 5) != nil || Poisson(1, 10, 0, 5) != nil || Poisson(1, 10, 10, 0) != nil {
		t.Fatal("invalid inputs produced requests")
	}
}

func TestPoissonZipfUniformFallback(t *testing.T) {
	// skew <= 0 must be byte-identical to the uniform generator: the
	// capacity sweeps default to uniform and must reproduce historical runs.
	a := Poisson(9, 80, 500, 20)
	b := PoissonZipf(9, 80, 500, 20, 0)
	c := PoissonZipf(9, 80, 500, 20, -1)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("lengths differ: %d %d %d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("request %d differs between uniform and skew<=0", i)
		}
	}
}

func TestPoissonZipfSkewedDistribution(t *testing.T) {
	const n, inst = 20000, 10
	reqs := PoissonZipf(7, 100, n, inst, 1.0)
	if len(reqs) != n {
		t.Fatalf("len = %d", len(reqs))
	}
	counts := make([]int, inst)
	for _, r := range reqs {
		if r.Instance < 0 || r.Instance >= inst {
			t.Fatalf("instance %d out of range", r.Instance)
		}
		counts[r.Instance]++
	}
	// Zipf(1) over 10 instances: instance 0 carries 1/H(10) ~ 34% of
	// traffic, instance 9 ~3.4%. Check the head dominates and the ordering
	// is broadly decreasing (adjacent ranks can jitter; head vs tail not).
	if counts[0] < counts[9]*4 {
		t.Errorf("head not dominant: counts[0]=%d counts[9]=%d", counts[0], counts[9])
	}
	want0 := 0.3414 * n // 1/H(10), H(10)=2.9290
	if math.Abs(float64(counts[0])-want0) > want0*0.15 {
		t.Errorf("instance 0 got %d of %d, want ~%.0f", counts[0], n, want0)
	}
	// Arrival *times* must be unaffected by skew: same seed, same rate,
	// same exponential gaps (instance choice draws after the gap draw).
	uni := Poisson(7, 100, n, inst)
	for i := range reqs {
		if reqs[i].At != uni[i].At {
			t.Fatalf("arrival %d moved under skew: %v vs %v", i, reqs[i].At, uni[i].At)
		}
	}
}

func TestPoissonZipfSkewMonotone(t *testing.T) {
	// Higher skew concentrates more traffic on instance 0.
	const n, inst = 20000, 20
	share := func(skew float64) float64 {
		reqs := PoissonZipf(11, 100, n, inst, skew)
		c := 0
		for _, r := range reqs {
			if r.Instance == 0 {
				c++
			}
		}
		return float64(c) / n
	}
	s05, s10, s15 := share(0.5), share(1.0), share(1.5)
	if !(s05 < s10 && s10 < s15) {
		t.Fatalf("head share not monotone in skew: %0.3f %0.3f %0.3f", s05, s10, s15)
	}
}

func TestPoissonZipfDeterministic(t *testing.T) {
	a := PoissonZipf(5, 60, 300, 12, 0.9)
	b := PoissonZipf(5, 60, 300, 12, 0.9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different skewed workloads")
		}
	}
	c := PoissonZipf(6, 60, 300, 12, 0.9)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical skewed workloads")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].At < a[j].At }) {
		t.Fatal("skewed arrivals not sorted")
	}
}

func TestPoissonZipfInvalidInputs(t *testing.T) {
	if PoissonZipf(1, 0, 10, 5, 1) != nil ||
		PoissonZipf(1, 10, 0, 5, 1) != nil ||
		PoissonZipf(1, 10, 10, 0, 1) != nil {
		t.Fatal("invalid inputs produced requests")
	}
}

func defaultSpec() TraceSpec {
	return TraceSpec{
		Seed:         1,
		Duration:     sim.Duration(30 * 60 * sim.Second), // 30 min for test speed
		TotalRate:    50,
		NumFunctions: 90,
	}
}

func TestMAFLikeBasics(t *testing.T) {
	tr, err := MAFLike(defaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Classes) != 90 {
		t.Fatalf("classes = %d", len(tr.Classes))
	}
	if !sort.SliceIsSorted(tr.Requests, func(i, j int) bool { return tr.Requests[i].At < tr.Requests[j].At }) {
		t.Fatal("trace not sorted")
	}
	// Average rate within 20% of the requested 50 rps.
	got := float64(len(tr.Requests)) / (30 * 60)
	if got < 40 || got > 60 {
		t.Fatalf("trace rate = %0.1f rps, want ~50", got)
	}
	for _, r := range tr.Requests {
		if r.Instance < 0 || r.Instance >= 90 {
			t.Fatalf("bad instance %d", r.Instance)
		}
		if r.At < 0 || r.At.Seconds() > 30*60 {
			t.Fatalf("arrival %v outside trace window", r.At)
		}
	}
}

func TestMAFLikeHasAllClasses(t *testing.T) {
	tr, err := MAFLike(defaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[FunctionClass]int{}
	for _, c := range tr.Classes {
		seen[c]++
	}
	for _, c := range []FunctionClass{Sustained, Fluctuating, Spiky, Rare} {
		if seen[c] == 0 {
			t.Errorf("no %v functions generated", c)
		}
	}
	// Default mix: rare is the most common class by count.
	if seen[Rare] <= seen[Sustained] {
		t.Error("rare functions should outnumber sustained ones")
	}
}

func TestMAFLikeSustainedDominatesTraffic(t *testing.T) {
	tr, err := MAFLike(defaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	perClass := map[FunctionClass]int{}
	for _, r := range tr.Requests {
		perClass[tr.Classes[r.Instance]]++
	}
	if perClass[Sustained] <= perClass[Rare] {
		t.Error("sustained traffic should dwarf rare traffic")
	}
}

func TestMAFLikeSpikyBursts(t *testing.T) {
	spec := defaultSpec()
	spec.Mix = map[FunctionClass]float64{Spiky: 1}
	tr, err := MAFLike(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) == 0 {
		t.Fatal("empty trace")
	}
	// Arrivals per minute bucket, up to the last arrival's minute.
	minute := sim.Time(60 * sim.Second)
	perMinute := make([]float64, int(tr.Requests[len(tr.Requests)-1].At/minute)+1)
	for _, r := range tr.Requests {
		perMinute[int(r.At/minute)]++
	}
	var max, sum float64
	for _, r := range perMinute {
		sum += r
		if r > max {
			max = r
		}
	}
	mean := sum / float64(len(perMinute))
	// Bursts from many functions partially overlap, so the aggregate peak
	// is damped; still expect clearly super-Poisson variation.
	if max < 1.25*mean {
		t.Errorf("spiky trace peak %0.1f not bursty vs mean %0.1f", max, mean)
	}
}

func TestMAFLikeDeterministic(t *testing.T) {
	a, _ := MAFLike(defaultSpec())
	b, _ := MAFLike(defaultSpec())
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("lengths differ across identical seeds")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestMAFLikeInvalidSpec(t *testing.T) {
	bad := []TraceSpec{
		{Duration: 0, TotalRate: 1, NumFunctions: 1},
		{Duration: sim.Second, TotalRate: 0, NumFunctions: 1},
		{Duration: sim.Second, TotalRate: 1, NumFunctions: 0},
	}
	for i, s := range bad {
		if _, err := MAFLike(s); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

func TestFunctionClassString(t *testing.T) {
	if Sustained.String() != "sustained" || Rare.String() != "rare" {
		t.Fatal("FunctionClass.String broken")
	}
	if FunctionClass(42).String() != "FunctionClass(42)" {
		t.Fatal("out-of-range String broken")
	}
}

func TestZipfWeightsNormalized(t *testing.T) {
	w := ZipfWeights(100, 1.2)
	if len(w) != 100 {
		t.Fatalf("len = %d", len(w))
	}
	sum := 0.0
	for i, wi := range w {
		if wi <= 0 {
			t.Fatalf("weight %d not positive: %g", i, wi)
		}
		if i > 0 && wi >= w[i-1] {
			t.Fatalf("weights not strictly decreasing at %d", i)
		}
		sum += wi
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %g", sum)
	}
}

func TestZipfWeightsUniformFallback(t *testing.T) {
	for _, skew := range []float64{0, -1} {
		w := ZipfWeights(4, skew)
		for i, wi := range w {
			if math.Abs(wi-0.25) > 1e-12 {
				t.Fatalf("skew %g: weight %d = %g, want 0.25", skew, i, wi)
			}
		}
	}
	if ZipfWeights(0, 1) != nil {
		t.Fatal("non-nil weights for empty population")
	}
}

// ZipfWeights must agree with PoissonZipf's sampler: the empirical arrival
// share of each instance converges on its weight.
func TestZipfWeightsMatchSampler(t *testing.T) {
	const n, reqs = 10, 200000
	w := ZipfWeights(n, 1.1)
	counts := make([]float64, n)
	for _, r := range PoissonZipf(3, 1000, reqs, n, 1.1) {
		counts[r.Instance]++
	}
	for i := range counts {
		got := counts[i] / reqs
		if math.Abs(got-w[i]) > 0.01 {
			t.Fatalf("instance %d: empirical %g vs weight %g", i, got, w[i])
		}
	}
}

func TestWithTokensIsDeterministicAndBounded(t *testing.T) {
	a := WithTokens(Poisson(5, 100, 300, 4), 5, 128, 32)
	b := WithTokens(Poisson(5, 100, 300, 4), 5, 128, 32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d diverged: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].PromptTokens < 1 || a[i].PromptTokens > 4*128 {
			t.Fatalf("prompt %d out of [1, 512]", a[i].PromptTokens)
		}
		if a[i].OutputTokens < 1 || a[i].OutputTokens > 4*32 {
			t.Fatalf("output %d out of [1, 128]", a[i].OutputTokens)
		}
	}
	// Arrival process untouched: times and routing match the raw draw.
	raw := Poisson(5, 100, 300, 4)
	for i := range a {
		if a[i].At != raw[i].At || a[i].Instance != raw[i].Instance {
			t.Fatalf("request %d arrival perturbed", i)
		}
	}
	// The token stream is seed-independent of the arrival stream: a
	// different token seed changes lengths but not arrivals.
	c := WithTokens(Poisson(5, 100, 300, 4), 6, 128, 32)
	same := true
	for i := range a {
		if a[i].PromptTokens != c[i].PromptTokens || a[i].OutputTokens != c[i].OutputTokens {
			same = false
		}
		if a[i].At != c[i].At {
			t.Fatalf("token seed perturbed arrivals at %d", i)
		}
	}
	if same {
		t.Fatal("different token seeds drew identical lengths")
	}
}

func TestWithTokensClampsDegenerateMeans(t *testing.T) {
	reqs := WithTokens(Poisson(1, 50, 20, 2), 1, 0, -3)
	for i, r := range reqs {
		if r.PromptTokens < 1 || r.OutputTokens < 1 {
			t.Fatalf("request %d: non-positive lengths %d/%d", i, r.PromptTokens, r.OutputTokens)
		}
	}
}

func TestMAFLikeBurstOverrideSharedSchedule(t *testing.T) {
	spec := defaultSpec()
	spec.Mix = map[FunctionClass]float64{Spiky: 1}
	spec.BurstEvery = 5 * 60 * sim.Second
	spec.BurstLen = 40 * sim.Second
	tr, err := MAFLike(spec)
	if err != nil {
		t.Fatal(err)
	}
	for fn, c := range tr.Classes {
		if c != Spiky {
			t.Fatalf("fn %d: class %v, want spiky under Mix{Spiky:1}", fn, c)
		}
	}
	// Arrivals must actually concentrate in the shared burst windows:
	// bursts occupy 40s/300s ≈ 13% of time but carry the large majority
	// of traffic (burst rate is ~12x the base rate).
	inBurst := 0
	for _, r := range tr.Requests {
		sec := r.At.Seconds()
		if math.Mod(sec, spec.BurstEvery.Seconds()) < spec.BurstLen.Seconds() {
			inBurst++
		}
	}
	frac := float64(inBurst) / float64(len(tr.Requests))
	if frac < 0.5 {
		t.Fatalf("burst windows carry %.0f%% of traffic, want majority", frac*100)
	}
}

func TestMAFLikeBurstOverrideKeepsDefaultPathIdentical(t *testing.T) {
	// Setting the override fields must not perturb the rng stream of the
	// default path: a zero-valued override equals the untouched spec.
	base, err := MAFLike(defaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := defaultSpec()
	spec.BurstEvery = 0
	spec.BurstLen = 0
	again, err := MAFLike(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Requests) != len(again.Requests) {
		t.Fatalf("request counts diverged: %d vs %d", len(base.Requests), len(again.Requests))
	}
	for i := range base.Requests {
		if base.Requests[i] != again.Requests[i] {
			t.Fatalf("request %d diverged", i)
		}
	}
	// And with the override set, non-spiky functions keep their exact
	// arrivals: the draws still happen, only spiky schedules change.
	spec.BurstEvery = 7 * 60 * sim.Second
	spec.BurstLen = 30 * sim.Second
	over, err := MAFLike(spec)
	if err != nil {
		t.Fatal(err)
	}
	byFn := func(tr *Trace) map[int][]sim.Time {
		m := map[int][]sim.Time{}
		for _, r := range tr.Requests {
			m[r.Instance] = append(m[r.Instance], r.At)
		}
		return m
	}
	b, o := byFn(base), byFn(over)
	for fn, c := range base.Classes {
		if c == Spiky {
			continue
		}
		if len(b[fn]) != len(o[fn]) {
			t.Fatalf("fn %d (%v): arrivals diverged under spiky-only override", fn, c)
		}
		for i := range b[fn] {
			if b[fn][i] != o[fn][i] {
				t.Fatalf("fn %d (%v): arrival %d moved", fn, c, i)
			}
		}
	}
}
