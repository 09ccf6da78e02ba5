package hostmem

import (
	"errors"
	"math/rand"
	"testing"

	"deepplan/internal/sim"
)

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

func TestPinnedPolicyErrorsOnOverflow(t *testing.T) {
	c, err := NewCache(100, PolicyPinned)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Admit("a", 60, sim.Millisecond, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Admit("b", 60, sim.Millisecond, 0.5, 1); err == nil {
		t.Fatal("overflow accepted under pinned policy")
	}
	if c.Evictions() != 0 {
		t.Fatalf("pinned policy evicted %d entries", c.Evictions())
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c, _ := NewCache(100, PolicyLRU)
	a, _, _ := c.Admit("a", 40, sim.Millisecond, 0.1, 0)
	if _, _, err := c.Admit("b", 40, sim.Millisecond, 0.9, 1); err != nil {
		t.Fatal(err)
	}
	c.Touch(a, 10) // "a" is now the most recently used
	_, evicted, err := c.Admit("c", 40, sim.Millisecond, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Name != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
}

func TestCostAwareKeepsExpensivePopularEntries(t *testing.T) {
	c, _ := NewCache(100, PolicyCostAware)
	// "cheap" is both faster to reload and less popular than "dear".
	c.Admit("dear", 40, 10*sim.Millisecond, 0.9, 0)
	c.Admit("cheap", 40, 1*sim.Millisecond, 0.1, 1)
	_, evicted, err := c.Admit("new", 40, 5*sim.Millisecond, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Name != "cheap" {
		t.Fatalf("evicted %v, want [cheap]", evicted)
	}
}

func TestLockedEntriesAreNotVictims(t *testing.T) {
	c, _ := NewCache(100, PolicyLRU)
	a, _, _ := c.Admit("a", 60, sim.Millisecond, 0.5, 0)
	a.SetLocked(true)
	if _, _, err := c.Admit("b", 60, sim.Millisecond, 0.5, 1); !errors.Is(err, ErrCacheBusy) {
		t.Fatalf("got %v, want ErrCacheBusy", err)
	}
	a.SetLocked(false)
	if _, _, err := c.Admit("b", 60, sim.Millisecond, 0.5, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek("a"); ok {
		t.Fatal("unlocked LRU entry survived pressure")
	}
}

func TestLookupCountsHitsAndMisses(t *testing.T) {
	c, _ := NewCache(100, PolicyLRU)
	c.Admit("a", 10, sim.Millisecond, 0.5, 0)
	if _, ok := c.Lookup("a"); !ok {
		t.Fatal("miss on resident entry")
	}
	if _, ok := c.Lookup("b"); ok {
		t.Fatal("hit on absent entry")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

// An entry larger than the whole cache can never fit: Admit must refuse it
// before evicting anything, and with an error other than ErrCacheBusy,
// which callers read as "wait and retry".
func TestOversizedAdmitEvictsNothing(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyCostAware} {
		c, _ := NewCache(100, p)
		c.Admit("a", 50, sim.Millisecond, 0.5, 0)
		_, evicted, err := c.Admit("huge", 200, sim.Millisecond, 0.5, 1)
		if err == nil {
			t.Fatalf("%s: admit larger than capacity accepted", p)
		}
		if errors.Is(err, ErrCacheBusy) {
			t.Fatalf("%s: oversized admit reported ErrCacheBusy (%v); retrying can never succeed", p, err)
		}
		if len(evicted) != 0 || c.Evictions() != 0 {
			t.Fatalf("%s: oversized admit evicted %v (%d evictions)", p, evicted, c.Evictions())
		}
		if _, ok := c.Peek("a"); !ok {
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
		c, _ := NewCache(1000, PolicyCostAware)
		type meta struct {
			load sim.Duration
			pop  float64
		}
		live := map[string]meta{}
		now := sim.Time(0)
		for op := 0; op < 60; op++ {
			now++
			name := string(rune('a' + rng.Intn(26)))
			if _, ok := c.Peek(name); ok {
				continue
			}
			m := meta{
				load: sim.Duration(1+rng.Intn(1000)) * sim.Microsecond,
				pop:  rng.Float64(),
			}
			_, evicted, err := c.Admit(name, int64(50+rng.Intn(300)), m.load, m.pop, now)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range evicted {
				v := live[ev.Name]
				delete(live, ev.Name)
				// No survivor may be strictly dominated by the victim.
				for sn, sm := range live {
					if v.load > sm.load && v.pop > sm.pop {
						t.Fatalf("trial %d: evicted %q (load %v, pop %.3f) dominating survivor %q (load %v, pop %.3f)",
							trial, ev.Name, v.load, v.pop, sn, sm.load, sm.pop)
					}
				}
			}
			live[name] = m
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The victim choice must be a pure function of cache contents, not map
// iteration order: two caches built by the same operation sequence evict
// identical entries.
func TestVictimSelectionDeterministic(t *testing.T) {
	build := func() []string {
		c, _ := NewCache(500, PolicyCostAware)
		var evictions []string
		rng := rand.New(rand.NewSource(99))
		for op := 0; op < 400; op++ {
			name := string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
			if _, ok := c.Peek(name); ok {
				continue
			}
			_, evicted, err := c.Admit(name, int64(20+rng.Intn(120)),
				sim.Duration(1+rng.Intn(50))*sim.Millisecond, rng.Float64(), sim.Time(op))
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range evicted {
				evictions = append(evictions, ev.Name)
			}
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
			t.Fatalf("eviction %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}
