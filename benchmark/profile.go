package main

// Per-package attribution of the process's own CPU and allocation profiles.
// The CPU profile is runtime/pprof's gzipped protocol buffer, decoded here
// with a minimal reader for the few fields attribution needs, so the
// benchmark takes no module dependency.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// cpuBuckets are the CPU-attribution buckets: the simulator's packages, the
// garbage collector, the allocator, and everything else.
var cpuBuckets = []string{
	"sim", "simnet", "stream", "engine", "serving", "gpumem", "hostmem", "planner", "profiler",
	"costmodel", "cluster", "forecast", "monitor", "metrics", "trace", "gc", "malloc", "other",
}

// setupBuckets are the buckets reported for set-up CPU.
var setupBuckets = []string{
	"profiler", "planner", "costmodel", "serving", "hostmem", "gpumem", "registry", "cluster",
	"monitor", "dnn", "gc", "malloc", "other",
}

// allocBuckets are the allocation-attribution buckets.
var allocBuckets = []string{
	"sim", "simnet", "stream", "engine", "serving", "gpumem", "hostmem", "costmodel",
	"cluster", "forecast", "monitor", "metrics", "other",
}

const internalPrefix = "deepplan/internal/"

// internalPackage returns the deepplan/internal package a function belongs
// to ("serving" for "deepplan/internal/serving.(*Server).Submit").
func internalPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// bucketOf charges a leaf-first stack to the first deepplan/internal
// package on it, or "other" when there is none or it is not in buckets.
func bucketOf(frames []string, buckets []string) string {
	for _, f := range frames {
		if pkg, ok := internalPackage(f); ok {
			for _, b := range buckets {
				if b == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}

// gcFrame reports whether a runtime function is garbage-collector work:
// background mark workers, mutator assists, sweeping and write barriers.
func gcFrame(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") {
		return true
	}
	switch fn {
	case "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.deductSweepCredit", "runtime.wbBufFlush", "runtime.markroot", "runtime.scanobject":
		return true
	}
	return false
}

// cpuBucket charges one CPU sample: collector work to "gc", allocator work
// to "malloc", and the rest to the first simulator package on the stack.
func cpuBucket(frames []string, buckets []string) string {
	for _, f := range frames {
		if gcFrame(f) {
			return "gc"
		}
	}
	for _, f := range frames {
		if f == "runtime.mallocgc" {
			return "malloc"
		}
	}
	return bucketOf(frames, buckets)
}

// cpuProfile runs fn under the CPU profiler, which samples at profileHz,
// and returns the sample count per bucket.
func cpuProfile(buckets []string, fn func() error) (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	counts := map[string]int64{}
	for _, s := range samples {
		counts[cpuBucket(s.frames, buckets)] += s.count
	}
	return counts, nil
}

// cpuSample is one decoded profile sample: its stack, leaf first, and the
// number of times it was observed.
type cpuSample struct {
	frames []string
	count  int64
}

// decodeCPUProfile decodes the samples of a gzipped pprof profile. Field
// numbers are those of profile.proto: Profile.sample 2, location 4,
// function 5, string_table 6; Sample.location_id 1, value 2; Location.id 1,
// line 4; Line.function_id 1; Function.id 1, name 2.
func decodeCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					if vals := appendVarints(nil, wire, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, len(samples))
	for i, s := range samples {
		out[i].count = s.count
		for _, loc := range s.locs {
			for _, f := range locFuncs[loc] {
				if idx := funcName[f]; idx >= 0 && idx < int64(len(strs)) {
					out[i].frames = append(out[i].frames, strs[idx])
				}
			}
		}
	}
	return out, nil
}

var errTruncated = errors.New("truncated protocol buffer")

// eachField calls fn for every field of a protocol-buffer message: v holds
// a varint's value, b a length-delimited field's bytes.
func eachField(msg []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// uvarint decodes a varint, returning the byte count read (<= 0 on error).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// allocProfileRate is the heap profiler's sampling rate during the
// allocation pass: on average one sample per this many allocated bytes.
// Recording every allocation costs about 10 µs each, far too slow for
// millions of allocations; at this rate a rep yields 10^5 or more samples,
// enough to split the exact total by package to well under a percent.
const allocProfileRate = 4096

// memRecord is one allocation stack's cumulative sampled counts.
type memRecord struct{ objects, bytes int64 }

// memSnapshot returns the cumulative sampled allocations of every stack in
// the heap profile, after two collections so that every allocation made
// before the call is published.
func memSnapshot() map[[32]uintptr]memRecord {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:m]
			break
		}
		n = m
	}
	out := make(map[[32]uintptr]memRecord, len(recs))
	for _, r := range recs {
		m := out[r.Stack0]
		out[r.Stack0] = memRecord{m.objects + r.AllocObjects, m.bytes + r.AllocBytes}
	}
	return out
}

// allocShares runs fn with the heap profiler sampling at allocProfileRate
// and returns each bucket's estimated share of the objects fn allocated.
// A stack's sampled object count is scaled by 1/(1-exp(-size/rate)), the
// inverse of the probability that an object of its mean size is sampled,
// as pprof does.
func allocShares(fn func() error) (map[string]float64, error) {
	prev := runtime.MemProfileRate
	runtime.MemProfileRate = allocProfileRate
	defer func() { runtime.MemProfileRate = prev }()
	before := memSnapshot()
	if err := fn(); err != nil {
		return nil, err
	}
	after := memSnapshot()
	est := map[string]float64{}
	var total float64
	for stk, a := range after {
		b := before[stk]
		objects, bytes := a.objects-b.objects, a.bytes-b.bytes
		if objects <= 0 {
			continue
		}
		size := float64(bytes) / float64(objects)
		n := float64(objects) / (1 - math.Exp(-size/allocProfileRate))
		est[bucketOf(stackFuncs(stk), allocBuckets)] += n
		total += n
	}
	for b := range est {
		est[b] /= total
	}
	return est, nil
}

// stackFuncs symbolizes an allocation stack, leaf first, inlined frames
// expanded.
func stackFuncs(stk [32]uintptr) []string {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	var out []string
	frames := runtime.CallersFrames(stk[:n])
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			break
		}
	}
	return out
}
