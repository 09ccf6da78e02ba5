package gpumem

import (
	"math/rand"
	"testing"
)

func TestKVCacheAdmitValidation(t *testing.T) {
	kc := NewKVCache(New(1 << 20))
	if _, err := kc.Admit("m", 0, 10); err == nil {
		t.Error("perToken = 0 accepted")
	}
	if _, err := kc.Admit("m", 16, 0); err == nil {
		t.Error("maxTokens = 0 accepted")
	}
}

func TestKVCacheGrowBounds(t *testing.T) {
	kc := NewKVCache(New(1 << 20))
	r, err := kc.Admit("m", 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	r.Grow(10)
	if r.used != 1000 {
		t.Fatalf("used = %d", r.used)
	}
	// The reservation is page-aligned, so a little headroom beyond
	// perToken*maxTokens exists; outgrowing the aligned block must panic.
	grew := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		r.Grow(int(r.block.Size()/100) + 1)
		return false
	}()
	if !grew {
		t.Error("outgrowing the reservation did not panic")
	}
	r.Release()
	r.Release() // idempotent
	if kc.ReservedBytes() != 0 || kc.Sequences() != 0 {
		t.Fatalf("cache not empty after release: %d bytes, %d seqs", kc.ReservedBytes(), kc.Sequences())
	}
	if !func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		r.Grow(1)
		return false
	}() {
		t.Error("Grow on a released reservation did not panic")
	}
}

// The property the serving layer's no-OOM guarantee rests on: under any
// interleaving of weight allocations (instance placements/evictions) and
// KV admissions/releases (sequence join/finish churn), resident weights
// plus KV reservations never exceed device capacity, and the cache's
// accounting stays exact.
func TestKVCacheChurnNeverExceedsCapacity(t *testing.T) {
	const capacity = 64 << 20
	mem := New(capacity)
	kc := NewKVCache(mem)
	rng := rand.New(rand.NewSource(99)) // fixed seed: deterministic property walk

	type seq struct {
		r    *KVReservation
		left int // tokens not yet grown
	}
	var weights []*Block
	var seqs []*seq
	var weightBytes int64

	for step := 0; step < 5000; step++ {
		switch rng.Intn(5) {
		case 0: // place an instance
			size := int64(1+rng.Intn(8)) << 20
			if blk, err := mem.Alloc(size, "weights"); err == nil {
				weights = append(weights, blk)
				weightBytes += blk.Size()
			}
		case 1: // evict an instance
			if len(weights) > 0 {
				i := rng.Intn(len(weights))
				weightBytes -= weights[i].Size()
				if err := mem.Free(weights[i]); err != nil {
					t.Fatal(err)
				}
				weights = append(weights[:i], weights[i+1:]...)
			}
		case 2: // sequence joins decode
			perTok := int64(1024 * (1 + rng.Intn(64)))
			maxTok := 1 + rng.Intn(2048)
			r, err := kc.Admit("m", perTok, maxTok)
			if err != nil {
				continue // full: the join defers, which is the point
			}
			seqs = append(seqs, &seq{r: r, left: maxTok})
		case 3: // decode iteration: every live sequence grows a token
			for _, s := range seqs {
				if s.left > 0 {
					s.r.Grow(1)
					s.left--
				}
			}
		case 4: // sequence finishes (or its instance is evicted)
			if len(seqs) > 0 {
				i := rng.Intn(len(seqs))
				seqs[i].r.Release()
				seqs = append(seqs[:i], seqs[i+1:]...)
			}
		}

		if used := mem.Used(); used > capacity {
			t.Fatalf("step %d: used %d exceeds capacity %d", step, used, capacity)
		}
		var kvLive int64
		for _, s := range seqs {
			kvLive += s.r.block.Size()
		}
		if kc.ReservedBytes() != kvLive {
			t.Fatalf("step %d: cache reserved %d != live reservations %d", step, kc.ReservedBytes(), kvLive)
		}
		if kc.Sequences() != len(seqs) {
			t.Fatalf("step %d: cache seqs %d != live %d", step, kc.Sequences(), len(seqs))
		}
		if weightBytes+kvLive != mem.Used() {
			t.Fatalf("step %d: weights %d + kv %d != allocator used %d", step, weightBytes, kvLive, mem.Used())
		}
	}

	for _, s := range seqs {
		s.r.Release()
	}
	for _, blk := range weights {
		if err := mem.Free(blk); err != nil {
			t.Fatal(err)
		}
	}
	if mem.Used() != 0 || kc.ReservedBytes() != 0 || kc.Sequences() != 0 {
		t.Fatalf("leak after full drain: used=%d reserved=%d seqs=%d", mem.Used(), kc.ReservedBytes(), kc.Sequences())
	}
}
