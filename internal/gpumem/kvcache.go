package gpumem

import "fmt"

// KVCache manages per-sequence KV-cache reservations on top of a GPU's
// weight allocator. Sharing one Allocator is the point: weights and KV
// compete for the same HBM, so "resident weights + KV bytes <= capacity"
// holds by construction — a reservation that would overflow the device
// simply fails with ErrOutOfMemory and the serving layer defers the join.
//
// Admission is Orca-style worst-case: a sequence reserves its full footprint
// (prompt + maximum output, at the model's per-token KV width) when it
// enters decode, then Grow only advances the used-bytes watermark inside the
// reservation. This forgoes some packing density in exchange for a hard
// no-OOM guarantee mid-generation, which is the right trade for a simulator
// whose invariants are checked every quiescence.
type KVCache struct {
	mem      *Allocator
	reserved int64
	seqs     int
}

// KVReservation is one sequence's admitted KV footprint.
type KVReservation struct {
	cache    *KVCache
	block    *Block
	perToken int64
	used     int64
}

// NewKVCache wraps the given weight allocator.
func NewKVCache(mem *Allocator) *KVCache {
	return &KVCache{mem: mem}
}

// Admit reserves capacity for a sequence that will hold at most maxTokens
// tokens of KV state at perToken bytes each. It returns ErrOutOfMemory
// (possibly wrapped) when weights and existing reservations leave too
// little room; callers defer the join and retry when memory frees.
func (kc *KVCache) Admit(tag string, perToken int64, maxTokens int) (*KVReservation, error) {
	if perToken <= 0 || maxTokens <= 0 {
		return nil, fmt.Errorf("gpumem: kv admit %s: need perToken > 0 and maxTokens > 0 (got %d, %d)", tag, perToken, maxTokens)
	}
	blk, err := kc.mem.Alloc(perToken*int64(maxTokens), "kv:"+tag)
	if err != nil {
		return nil, err
	}
	kc.reserved += blk.Size()
	kc.seqs++
	return &KVReservation{cache: kc, block: blk, perToken: perToken}, nil
}

// Grow records one generated token's KV state inside the reservation. It
// cannot fail — the bytes were reserved at admission — but panics if the
// sequence outruns the footprint it declared, which would be an admission
// bug upstream.
func (r *KVReservation) Grow(tokens int) {
	if r.block == nil {
		panic("gpumem: Grow on released KV reservation")
	}
	r.used += r.perToken * int64(tokens)
	if r.used > r.block.Size() {
		panic(fmt.Sprintf("gpumem: KV sequence outgrew its reservation (%d > %d bytes)", r.used, r.block.Size()))
	}
}

// Release frees the reservation. Safe to call once per reservation; the
// sequence is done (completed, shed, or its GPU failed).
func (r *KVReservation) Release() {
	if r.block == nil {
		return
	}
	r.cache.reserved -= r.block.Size()
	r.cache.seqs--
	r.cache.mem.Free(r.block)
	r.block = nil
}

// ReservedBytes returns the total bytes held by live reservations.
func (kc *KVCache) ReservedBytes() int64 { return kc.reserved }

// Sequences returns the number of live reservations.
func (kc *KVCache) Sequences() int { return kc.seqs }
