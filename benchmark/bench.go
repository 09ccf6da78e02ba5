package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// refSeconds is the unit of every reported host time: a wall time
	// measured between two reference runs is divided by their mean wall
	// time and multiplied by refSeconds, the reference job's nominal
	// duration. See ref.go.
	refSeconds = 0.15
	// minReps is the fewest timed reps an untraced run makes, however small
	// its -seconds.
	minReps = 3
	// setupBatches is the number of timed set-up batches; setup_s is their
	// median.
	setupBatches = 7
	// profileHz is the sampling rate of runtime/pprof's CPU profiler: each
	// sample stands for 1/profileHz s of CPU time on some thread of the
	// process. The benchmark keeps pprof's rate because Linux checks CPU
	// timers once per scheduler tick: a rate above the kernel's tick rate
	// (often 250 Hz) yields fewer samples than asked for, and 100 Hz is
	// below every common tick rate.
	profileHz = 100
)

// metric is one printed number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload run's verdict and numbers.
type result struct {
	correct   bool
	attempted int
	failed    int
	reps      int
	metrics   []metric
	problems  []string
}

// run measures one workload on one seed. Reps replay the same inputs on
// fresh systems, and every rep is checked against the first.
type run struct {
	w    *spec
	in   *inputs
	seed int64
	// ref is the wall time of the latest reference run; the next timed step
	// is normalised by it and by the reference run that follows the step.
	ref time.Duration
	// first is the first rep's outcome; every later rep must equal it.
	first     *outcome
	attempted int
	failed    int
	problems  []string
}

func newRun(w *spec, seed int64) (*run, error) {
	in, err := w.inputs(seed, w.requests)
	if err != nil {
		return nil, fmt.Errorf("generating %s inputs: %w", w.name, err)
	}
	r := &run{w: w, in: in, seed: seed}
	r.ref, err = timeRef()
	return r, err
}

// timeRef runs the reference job after a collection and returns its wall
// time.
func timeRef() (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	sum := refRun()
	d := time.Since(start)
	if sum != refChecksum {
		return 0, fmt.Errorf("reference job checksum %d, want %d", sum, refChecksum)
	}
	return d, nil
}

// processCPU returns the CPU time the process has used so far, user and
// system, over all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bracket times fn and normalises its wall time.
func (r *run) bracket(fn func() error) (float64, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	return r.normalise(time.Since(start))
}

// normalise returns wall, measured since the run's latest reference run, in
// reference-normalised seconds.
func (r *run) normalise(wall time.Duration) (float64, error) {
	s, err := r.refScale()
	return wall.Seconds() * s, err
}

// refScale runs the reference job and returns the factor that turns a host
// time measured since the previous reference run into reference-normalised
// seconds: refSeconds over the mean wall time of the two reference runs.
func (r *run) refScale() (float64, error) {
	after, err := timeRef()
	if err != nil {
		return 0, err
	}
	s := refSeconds / ((r.ref + after).Seconds() / 2)
	r.ref = after
	return s, nil
}

// record checks one rep's outcome: requests are conserved, and the rep
// equals the first.
func (r *run) record(out *outcome) {
	r.attempted += out.attempted
	lost := out.attempted - out.completed - out.shed
	r.failed += out.shed + lost
	if lost != 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d requests neither completed nor shed", lost, out.attempted))
	}
	if r.first == nil {
		r.first = out
		return
	}
	if d := diffOutcomes(r.first, out); d != "" {
		r.problems = append(r.problems, "rep differs from the first: "+d)
	}
}

// repStat is one untraced rep's host-side measurements.
type repStat struct {
	hostS    float64 // serve phase, reference-normalised seconds
	mallocs  uint64  // heap objects allocated by the serve phase
	bytes    uint64  // heap bytes allocated by the serve phase
	liveHeap uint64  // heap in use after the serve phase, system still reachable
}

// reps runs n untraced reps. Each rep builds a fresh system (untimed), then
// times the serve phase between two reference runs.
func (r *run) reps(n int) ([]repStat, error) {
	var stats []repStat
	for len(stats) < n {
		sys, err := r.w.setup(nil)
		if err != nil {
			return nil, err
		}
		var m0, m1, m2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		out, err := sys.serve(r.in, nil)
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&m2)
		runtime.KeepAlive(sys)
		st := repStat{liveHeap: m2.HeapAlloc}
		if st.hostS, err = r.normalise(wall); err != nil {
			return nil, err
		}
		st.mallocs = m1.Mallocs - m0.Mallocs
		st.bytes = m1.TotalAlloc - m0.TotalAlloc
		r.record(out)
		stats = append(stats, st)
	}
	return stats, nil
}

// setupSeconds times setupBatches batches of fresh set-ups and returns the
// reference-normalised seconds of one set-up in each batch.
func (r *run) setupSeconds() ([]float64, error) {
	var per []float64
	for b := 0; b < setupBatches; b++ {
		s, err := r.bracket(r.setupBatch(r.w.setups))
		if err != nil {
			return nil, err
		}
		per = append(per, s/float64(r.w.setups))
	}
	return per, nil
}

// setupBatch returns a function that builds n fresh systems and drops them.
func (r *run) setupBatch(n int) func() error {
	return func() error {
		for i := 0; i < n; i++ {
			if _, err := r.w.setup(nil); err != nil {
				return err
			}
		}
		return nil
	}
}

// endToEnd measures the untraced end-to-end metrics of a run of the given
// seconds.
func (r *run) endToEnd(seconds int) ([]metric, int, error) {
	setups, err := r.setupSeconds()
	if err != nil {
		return nil, 0, err
	}
	stats, err := r.reps(r.w.repCount(seconds))
	if err != nil {
		return nil, 0, err
	}
	n := float64(r.w.requests)
	pick := func(f func(repStat) float64) float64 {
		v := make([]float64, len(stats))
		for i, s := range stats {
			v[i] = f(s)
		}
		return median(v)
	}
	return []metric{
		{"setup_s", median(setups), "s"},
		{"host_us_per_req", pick(func(s repStat) float64 { return s.hostS / n * 1e6 }), "us"},
		{"allocs_per_req", pick(func(s repStat) float64 { return float64(s.mallocs) / n }), "count"},
		{"alloc_kb_per_req", pick(func(s repStat) float64 { return float64(s.bytes) / n / 1024 }), "KiB"},
		{"live_heap_mb", pick(func(s repStat) float64 { return float64(s.liveHeap) / (1 << 20) }), "MiB"},
		{"mean_ms", r.first.modelled["mean_ms"], "ms"},
		{"goodput", r.first.modelled["goodput"], "frac"},
	}, len(stats), nil
}

// median returns the median of v (the mean of the middle two when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
