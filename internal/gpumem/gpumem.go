package gpumem

import (
	"errors"
	"fmt"
	"sort"
)

// PageBytes is the 2 MiB granularity CUDA maps device memory at; dense
// fractional-GPU packing rounds footprints up to it so simulated packing
// density never exceeds what real hardware could achieve.
const PageBytes int64 = 2 << 20

// AlignUp rounds n up to the next multiple of align (a power of two is not
// required; align must be positive).
func AlignUp(n, align int64) int64 {
	if align <= 0 {
		panic(fmt.Sprintf("gpumem: align must be positive, got %d", align))
	}
	if n <= 0 {
		return 0
	}
	rem := n % align
	if rem == 0 {
		return n
	}
	return n + align - rem
}

// ErrOutOfMemory is returned when no free extent can satisfy a request.
var ErrOutOfMemory = errors.New("gpumem: out of memory")

// Block is an allocated extent of device memory.
type Block struct {
	off   int64
	size  int64
	freed bool
	owner *Allocator
	tag   string
}

// Size returns the block's size in bytes.
func (b *Block) Size() int64 { return b.size }

type extent struct {
	off, size int64
}

// Allocator manages a fixed-capacity device memory space.
type Allocator struct {
	capacity int64
	used     int64
	free     []extent // sorted by offset, coalesced
}

// New returns an allocator over capacity bytes.
func New(capacity int64) *Allocator {
	if capacity <= 0 {
		panic(fmt.Sprintf("gpumem: capacity must be positive, got %d", capacity))
	}
	return &Allocator{
		capacity: capacity,
		free:     []extent{{0, capacity}},
	}
}

// Capacity returns the total device memory size.
func (a *Allocator) Capacity() int64 { return a.capacity }

// Used returns the bytes currently allocated.
func (a *Allocator) Used() int64 { return a.used }

// Available returns the bytes currently free (possibly fragmented).
func (a *Allocator) Available() int64 { return a.capacity - a.used }

// LargestFree returns the size of the largest contiguous free extent.
func (a *Allocator) LargestFree() int64 {
	var max int64
	for _, e := range a.free {
		if e.size > max {
			max = e.size
		}
	}
	return max
}

// Fits reports whether a request of the given size could be satisfied now.
func (a *Allocator) Fits(size int64) bool {
	if size <= 0 {
		return true
	}
	return a.LargestFree() >= size
}

// Alloc carves a block of the given size, first-fit. A tag labels the block
// for diagnostics. Zero or negative sizes are rejected: model footprints in
// this system are always positive, so a non-positive request is a bug above.
func (a *Allocator) Alloc(size int64, tag string) (*Block, error) {
	if size <= 0 {
		return nil, fmt.Errorf("gpumem: invalid allocation size %d", size)
	}
	for i, e := range a.free {
		if e.size < size {
			continue
		}
		b := &Block{off: e.off, size: size, owner: a, tag: tag}
		if e.size == size {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = extent{e.off + size, e.size - size}
		}
		a.used += size
		return b, nil
	}
	return nil, fmt.Errorf("%w: need %d, largest free extent %d (capacity %d, used %d)",
		ErrOutOfMemory, size, a.LargestFree(), a.capacity, a.used)
}

// Free returns a block to the allocator. Freeing twice or freeing a block
// from another allocator is an error.
func (a *Allocator) Free(b *Block) error {
	if b == nil {
		return errors.New("gpumem: free of nil block")
	}
	if b.owner != a {
		return errors.New("gpumem: block belongs to a different allocator")
	}
	if b.freed {
		return fmt.Errorf("gpumem: double free of block %q at offset %d", b.tag, b.off)
	}
	b.freed = true
	a.used -= b.size
	// Insert keeping offset order, then coalesce neighbours.
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off > b.off })
	a.free = append(a.free, extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = extent{b.off, b.size}
	a.coalesce(i)
	return nil
}

func (a *Allocator) coalesce(i int) {
	// Merge with next.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	// Merge with previous.
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// CheckInvariants validates internal consistency; tests call it after
// randomized operation sequences.
func (a *Allocator) CheckInvariants() error {
	var freeTotal int64
	for i, e := range a.free {
		if e.size <= 0 {
			return fmt.Errorf("gpumem: free extent %d has size %d", i, e.size)
		}
		if e.off < 0 || e.off+e.size > a.capacity {
			return fmt.Errorf("gpumem: free extent %d out of bounds [%d,%d)", i, e.off, e.off+e.size)
		}
		if i > 0 {
			prev := a.free[i-1]
			if prev.off+prev.size > e.off {
				return fmt.Errorf("gpumem: overlapping free extents at %d", i)
			}
			if prev.off+prev.size == e.off {
				return fmt.Errorf("gpumem: uncoalesced adjacent free extents at %d", i)
			}
		}
		freeTotal += e.size
	}
	if freeTotal+a.used != a.capacity {
		return fmt.Errorf("gpumem: accounting mismatch: free %d + used %d != capacity %d",
			freeTotal, a.used, a.capacity)
	}
	return nil
}
