package hostmem

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"deepplan/internal/sim"
)

// unlocked is the lock predicate of a cache whose owners never lock.
func unlocked(int) bool { return false }

// newCache builds a cache and fails the test on error.
func newCache(t *testing.T, capacity int64, p Policy, locked func(int) bool) *Cache {
	t.Helper()
	c, err := NewCache(capacity, p, locked)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// admit pins bytes for owner (named after it) and fails the test on error.
func admit(t *testing.T, c *Cache, owner int, bytes int64, load sim.Duration, pop float64, now sim.Time) (*Entry, []*Entry) {
	t.Helper()
	e, evicted, err := c.Admit(owner, strconv.Itoa(owner), bytes, load, pop, now)
	if err != nil {
		t.Fatal(err)
	}
	return e, evicted
}

// owners lists the owners of evicted entries.
func owners(evicted []*Entry) []int {
	var ids []int
	for _, e := range evicted {
		ids = append(ids, e.Owner())
	}
	return ids
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{
		{"", PolicyPinned}, {"pinned", PolicyPinned},
		{"lru", PolicyLRU}, {"cost", PolicyCostAware},
	} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// Admission pins an entry's bytes; eviction unpins them and marks the
// entry no longer resident.
func TestPinUnpin(t *testing.T) {
	c := newCache(t, 1000, PolicyLRU, unlocked)
	a, _ := admit(t, c, 7, 400, sim.Millisecond, 0.5, 0)
	if a.Owner() != 7 || a.Bytes() != 400 || !a.Resident() {
		t.Fatalf("entry = owner %d, %d bytes, resident %v", a.Owner(), a.Bytes(), a.Resident())
	}
	if c.Pinned() != 400 {
		t.Fatalf("Pinned = %d", c.Pinned())
	}
	b, evicted := admit(t, c, 8, 700, sim.Millisecond, 0.5, 1)
	if len(evicted) != 1 || evicted[0] != a || a.Resident() || !b.Resident() {
		t.Fatalf("evicted owners %v; a resident %v, b resident %v", owners(evicted), a.Resident(), b.Resident())
	}
	if c.Pinned() != 700 {
		t.Fatalf("Pinned after eviction = %d", c.Pinned())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityEnforced(t *testing.T) {
	c := newCache(t, 1000, PolicyPinned, unlocked)
	admit(t, c, 0, 800, sim.Millisecond, 0.5, 0)
	if _, _, err := c.Admit(1, "1", 300, sim.Millisecond, 0.5, 0); err == nil {
		t.Fatal("over-capacity pin succeeded")
	}
	admit(t, c, 1, 200, sim.Millisecond, 0.5, 0) // exact fit
	if c.Pinned() != 1000 {
		t.Fatalf("Pinned = %d", c.Pinned())
	}
}

func TestInvalidOperations(t *testing.T) {
	c := newCache(t, 1000, PolicyLRU, unlocked)
	for _, bytes := range []int64{0, -10} {
		if _, _, err := c.Admit(0, "0", bytes, sim.Millisecond, 0.5, 0); err == nil {
			t.Fatalf("%d-byte pin succeeded", bytes)
		}
	}
	if c.Pinned() != 0 {
		t.Fatalf("refused pins left %d bytes pinned", c.Pinned())
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCache(-1, ...) did not panic")
		}
	}()
	NewCache(-1, PolicyLRU, unlocked)
}

func TestPinnedPolicyErrorsOnOverflow(t *testing.T) {
	c := newCache(t, 100, PolicyPinned, unlocked)
	admit(t, c, 0, 60, sim.Millisecond, 0.5, 0)
	_, evicted, err := c.Admit(1, "1", 60, sim.Millisecond, 0.5, 1)
	if err == nil {
		t.Fatal("overflow accepted under pinned policy")
	}
	if len(evicted) != 0 {
		t.Fatalf("pinned policy evicted owners %v", owners(evicted))
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newCache(t, 100, PolicyLRU, unlocked)
	a, _ := admit(t, c, 0, 40, sim.Millisecond, 0.1, 0)
	admit(t, c, 1, 40, sim.Millisecond, 0.9, 1)
	c.Touch(a, 10) // owner 0 is now the most recently used
	_, evicted := admit(t, c, 2, 40, sim.Millisecond, 0.5, 11)
	if len(evicted) != 1 || evicted[0].Owner() != 1 {
		t.Fatalf("evicted owners %v, want [1]", owners(evicted))
	}
	if !a.Resident() {
		t.Fatal("recently used entry evicted")
	}
}

func TestCostAwareKeepsExpensivePopularEntries(t *testing.T) {
	c := newCache(t, 100, PolicyCostAware, unlocked)
	// Owner 1 is both faster to reload and less popular than owner 0.
	admit(t, c, 0, 40, 10*sim.Millisecond, 0.9, 0)
	admit(t, c, 1, 40, 1*sim.Millisecond, 0.1, 1)
	_, evicted := admit(t, c, 2, 40, 5*sim.Millisecond, 0.5, 2)
	if len(evicted) != 1 || evicted[0].Owner() != 1 {
		t.Fatalf("evicted owners %v, want [1]", owners(evicted))
	}
}

// The cache asks its predicate, at each admission, which owners are
// locked; a locked owner's entry is never a victim.
func TestLockedEntriesAreNotVictims(t *testing.T) {
	locked := map[int]bool{}
	c := newCache(t, 100, PolicyLRU, func(owner int) bool { return locked[owner] })
	a, _ := admit(t, c, 0, 60, sim.Millisecond, 0.5, 0)
	locked[0] = true
	if _, _, err := c.Admit(1, "1", 60, sim.Millisecond, 0.5, 1); !errors.Is(err, ErrCacheBusy) {
		t.Fatalf("got %v, want ErrCacheBusy", err)
	}
	locked[0] = false
	admit(t, c, 1, 60, sim.Millisecond, 0.5, 2)
	if a.Resident() {
		t.Fatal("unlocked LRU entry survived pressure")
	}
}

// An entry larger than the whole cache can never fit: Admit must refuse it
// before evicting anything, and with an error other than ErrCacheBusy,
// which callers read as "wait and retry".
func TestOversizedAdmitEvictsNothing(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyCostAware} {
		c := newCache(t, 100, p, unlocked)
		a, _ := admit(t, c, 0, 50, sim.Millisecond, 0.5, 0)
		_, evicted, err := c.Admit(1, "huge", 200, sim.Millisecond, 0.5, 1)
		if err == nil {
			t.Fatalf("%s: admit larger than capacity accepted", p)
		}
		if errors.Is(err, ErrCacheBusy) {
			t.Fatalf("%s: oversized admit reported ErrCacheBusy (%v); retrying can never succeed", p, err)
		}
		if len(evicted) != 0 {
			t.Fatalf("%s: oversized admit evicted owners %v", p, owners(evicted))
		}
		if !a.Resident() {
			t.Fatalf("%s: resident entry lost to an admit that could never fit", p)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: the cost-aware policy never evicts an entry that strictly
// dominates a surviving unlocked entry on both load time and popularity.
// The score load_time × popularity is strictly monotone in each factor, so
// a dominating entry always outscores a dominated one — this test pins
// that guarantee against regressions in victim selection.
func TestCostAwareEvictionNeverEvictsDominators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		c := newCache(t, 1000, PolicyCostAware, unlocked)
		type meta struct {
			load sim.Duration
			pop  float64
		}
		live := map[int]meta{}
		now := sim.Time(0)
		for op := 0; op < 60; op++ {
			now++
			owner := rng.Intn(26)
			if _, ok := live[owner]; ok {
				continue
			}
			m := meta{
				load: sim.Duration(1+rng.Intn(1000)) * sim.Microsecond,
				pop:  rng.Float64(),
			}
			_, evicted := admit(t, c, owner, int64(50+rng.Intn(300)), m.load, m.pop, now)
			for _, ev := range evicted {
				v := live[ev.Owner()]
				delete(live, ev.Owner())
				// No survivor may be strictly dominated by the victim.
				for so, sm := range live {
					if v.load > sm.load && v.pop > sm.pop {
						t.Fatalf("trial %d: evicted %d (load %v, pop %.3f) dominating survivor %d (load %v, pop %.3f)",
							trial, ev.Owner(), v.load, v.pop, so, sm.load, sm.pop)
					}
				}
			}
			live[owner] = m
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The victim choice must be a pure function of cache contents, not of the
// slot order that removals permute: two caches built by the same operation
// sequence evict identical entries.
func TestVictimSelectionDeterministic(t *testing.T) {
	build := func() []int {
		c := newCache(t, 500, PolicyCostAware, unlocked)
		resident := map[int]*Entry{}
		var evictions []int
		rng := rand.New(rand.NewSource(99))
		for op := 0; op < 400; op++ {
			owner := rng.Intn(26 * 26)
			if e := resident[owner]; e != nil && e.Resident() {
				continue
			}
			e, evicted := admit(t, c, owner, int64(20+rng.Intn(120)),
				sim.Duration(1+rng.Intn(50))*sim.Millisecond, rng.Float64(), sim.Time(op))
			resident[owner] = e
			evictions = append(evictions, owners(evicted)...)
		}
		return evictions
	}
	a, b := build(), build()
	if len(a) == 0 {
		t.Fatal("test exercised no evictions")
	}
	if len(a) != len(b) {
		t.Fatalf("eviction counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}
