package gpumem

import (
	"errors"
	"math/rand"
	"testing"
)

func TestAllocFree(t *testing.T) {
	a := New(1000)
	b1, err := a.Alloc(300, "m1")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.Alloc(700, "m2")
	if err != nil {
		t.Fatal(err)
	}
	if a.Used() != 1000 || a.Available() != 0 {
		t.Fatalf("used=%d avail=%d", a.Used(), a.Available())
	}
	if _, err := a.Alloc(1, "m3"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if err := a.Free(b1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b2); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 0 || a.LargestFree() != 1000 {
		t.Fatalf("after free: used=%d largest=%d", a.Used(), a.LargestFree())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockAccessors(t *testing.T) {
	a := New(100)
	b, _ := a.Alloc(40, "tagged")
	if b.Size() != 40 {
		t.Fatalf("Size = %d", b.Size())
	}
	if a.Capacity() != 100 {
		t.Fatalf("Capacity = %d", a.Capacity())
	}
}

func TestDoubleFree(t *testing.T) {
	a := New(100)
	b, _ := a.Alloc(10, "x")
	if err := a.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b); err == nil {
		t.Fatal("double free succeeded")
	}
	if err := a.Free(nil); err == nil {
		t.Fatal("nil free succeeded")
	}
}

func TestForeignBlock(t *testing.T) {
	a, b := New(100), New(100)
	blk, _ := a.Alloc(10, "x")
	if err := b.Free(blk); err == nil {
		t.Fatal("freeing foreign block succeeded")
	}
}

func TestInvalidSize(t *testing.T) {
	a := New(100)
	if _, err := a.Alloc(0, "z"); err == nil {
		t.Fatal("zero alloc succeeded")
	}
	if _, err := a.Alloc(-5, "n"); err == nil {
		t.Fatal("negative alloc succeeded")
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestCoalescing(t *testing.T) {
	a := New(300)
	b1, _ := a.Alloc(100, "a")
	b2, _ := a.Alloc(100, "b")
	b3, _ := a.Alloc(100, "c")
	// Free middle, then ends: all orders must coalesce back to one extent.
	if err := a.Free(b2); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b3); err != nil {
		t.Fatal(err)
	}
	if a.LargestFree() != 300 {
		t.Fatalf("LargestFree = %d, want 300 (coalescing failed)", a.LargestFree())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentationAndFits(t *testing.T) {
	a := New(300)
	b1, _ := a.Alloc(100, "a")
	_, _ = a.Alloc(100, "b")
	b3, _ := a.Alloc(100, "c")
	_ = a.Free(b1)
	_ = a.Free(b3)
	// 200 bytes free but fragmented into two 100-byte extents.
	if a.Available() != 200 {
		t.Fatalf("Available = %d", a.Available())
	}
	if a.Fits(150) {
		t.Fatal("Fits(150) true despite fragmentation")
	}
	if !a.Fits(100) {
		t.Fatal("Fits(100) false")
	}
	if !a.Fits(0) {
		t.Fatal("Fits(0) should be trivially true")
	}
	if _, err := a.Alloc(150, "big"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("fragmented alloc: %v", err)
	}
}

func TestFirstFitReusesEarliestHole(t *testing.T) {
	a := New(400)
	b1, _ := a.Alloc(100, "a")
	_, _ = a.Alloc(100, "b")
	_ = a.Free(b1)
	nb, _ := a.Alloc(50, "c")
	if nb.off != 0 {
		t.Fatalf("first-fit offset = %d, want 0", nb.off)
	}
}

// Property: arbitrary alloc/free sequences preserve allocator invariants and
// never lose or duplicate bytes.
func TestPropertyRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		a := New(1 << 20)
		var live []*Block
		var liveBytes int64
		for op := 0; op < 500; op++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				size := int64(1 + rng.Intn(1<<16))
				b, err := a.Alloc(size, "r")
				if err != nil {
					if errors.Is(err, ErrOutOfMemory) {
						continue
					}
					t.Fatal(err)
				}
				live = append(live, b)
				liveBytes += size
			} else {
				i := rng.Intn(len(live))
				b := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := a.Free(b); err != nil {
					t.Fatal(err)
				}
				liveBytes -= b.Size()
			}
			if a.Used() != liveBytes {
				t.Fatalf("trial %d op %d: Used=%d want %d", trial, op, a.Used(), liveBytes)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
		}
		// Overlap check across live blocks.
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				bi, bj := live[i], live[j]
				if bi.off < bj.off+bj.size && bj.off < bi.off+bi.size {
					t.Fatalf("trial %d: overlapping blocks", trial)
				}
			}
		}
		for _, b := range live {
			if err := a.Free(b); err != nil {
				t.Fatal(err)
			}
		}
		if a.Used() != 0 || a.LargestFree() != 1<<20 {
			t.Fatalf("trial %d: leak after freeing all", trial)
		}
	}
}
