package hostmem

import (
	"errors"
	"fmt"

	"deepplan/internal/sim"
)

// Policy selects how the pinned-cache tier admits and evicts model weights
// when host memory comes under capacity pressure (docs/ZOO.md §3).
type Policy string

const (
	// PolicyPinned is the legacy pin-everything tier: every admission is
	// permanent, nothing is ever evicted, and exceeding capacity is an
	// error. This is the default and preserves the paper's §5.3 serving
	// setup, where all deployed weights stay pinned for the model's
	// lifetime.
	PolicyPinned Policy = "pinned"
	// PolicyLRU evicts the least-recently-used unlocked entry until the
	// newcomer fits.
	PolicyLRU Policy = "lru"
	// PolicyCostAware evicts the unlocked entry with the lowest keep-value
	// load_time × popularity, so models that are cheap to re-fetch and
	// rarely requested are sacrificed first.
	PolicyCostAware Policy = "cost"
)

// ParsePolicy maps a CLI spelling ("pinned", "lru", "cost"; "" means
// pinned) to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", PolicyPinned:
		return PolicyPinned, nil
	case PolicyLRU:
		return PolicyLRU, nil
	case PolicyCostAware:
		return PolicyCostAware, nil
	}
	return "", fmt.Errorf("hostmem: unknown policy %q (want pinned, lru or cost)", s)
}

// ErrCacheBusy is returned by Admit when the newcomer cannot fit even
// after evicting every unlocked entry: all remaining residents are locked
// (warm on a GPU or mid-fetch). Callers typically defer and retry once
// some instance quiesces.
var ErrCacheBusy = errors.New("hostmem: every evictable entry is locked")

// Entry is one cached pinned registration plus the metadata the eviction
// policies rank it by.
type Entry struct {
	region     *Region
	loadTime   sim.Duration
	popularity float64
	lastUsed   sim.Time
	locked     bool
}

// Name returns the registration label.
func (e *Entry) Name() string { return e.region.name }

// Bytes returns the pinned size.
func (e *Entry) Bytes() int64 { return e.region.bytes }

// LoadTime returns the estimated cost of re-materialising the entry
// (profiled cold-load estimate), the first factor of the cost-aware score.
func (e *Entry) LoadTime() sim.Duration { return e.loadTime }

// Popularity returns the entry's request-probability weight, the second
// factor of the cost-aware score.
func (e *Entry) Popularity() float64 { return e.popularity }

// LastUsed returns the virtual time of the entry's last Touch.
func (e *Entry) LastUsed() sim.Time { return e.lastUsed }

// Locked reports whether the entry is pinned against eviction.
func (e *Entry) Locked() bool { return e.locked }

// SetLocked marks the entry un-evictable (true) while its instance is warm
// on a GPU or a fetch is in flight, or releases it (false).
func (e *Entry) SetLocked(v bool) { e.locked = v }

// score is the cost-aware keep-value: what eviction would cost, weighted by
// how likely the cost is to be paid. Strictly monotone in both factors, so
// an entry that strictly dominates another on load time and popularity
// always scores strictly higher — the dominated entry is evicted first.
func (e *Entry) score() float64 { return e.loadTime.Seconds() * e.popularity }

// Evicted describes one eviction performed by Admit, for trace and
// monitoring hooks.
type Evicted struct {
	// Name is the evicted registration's label.
	Name string
	// Bytes is the evicted registration's size.
	Bytes int64
}

// Cache is the pinned-cache tier: a capacity-bounded Store whose residents
// are admitted and evicted under a Policy. It is the accounting model for
// host DRAM at model-zoo scale, where aggregate weight bytes exceed
// capacity and pinned memory itself behaves as a cache.
type Cache struct {
	store   *Store
	policy  Policy
	entries map[string]*Entry

	hits      int
	misses    int
	evictions int
}

// NewCache returns a cache over capacity bytes of pinnable host memory
// under the given policy ("" means PolicyPinned).
func NewCache(capacity int64, policy Policy) (*Cache, error) {
	p, err := ParsePolicy(string(policy))
	if err != nil {
		return nil, err
	}
	return &Cache{
		store:   NewStore(capacity),
		policy:  p,
		entries: make(map[string]*Entry),
	}, nil
}

// Policy returns the active eviction policy.
func (c *Cache) Policy() Policy { return c.policy }

// Capacity returns the configured host memory capacity.
func (c *Cache) Capacity() int64 { return c.store.Capacity() }

// Pinned returns the total bytes currently pinned.
func (c *Cache) Pinned() int64 { return c.store.Pinned() }

// Len returns the number of resident entries.
func (c *Cache) Len() int { return len(c.entries) }

// Hits returns the number of Lookup calls that found their entry resident.
func (c *Cache) Hits() int { return c.hits }

// Misses returns the number of Lookup calls that missed.
func (c *Cache) Misses() int { return c.misses }

// Evictions returns the number of entries evicted by Admit.
func (c *Cache) Evictions() int { return c.evictions }

// Lookup returns the entry pinned under name and records a hit or miss.
// This is the serving hot path — one map probe and a counter bump, no
// allocation (BenchmarkZooPinnedCacheLookup pins this).
func (c *Cache) Lookup(name string) (*Entry, bool) {
	e, ok := c.entries[name]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// Peek returns the entry pinned under name without touching the hit/miss
// counters (for invariant checks and admission-control estimates).
func (c *Cache) Peek(name string) (*Entry, bool) {
	e, ok := c.entries[name]
	return e, ok
}

// Touch records a use of the entry at the given virtual time; LRU ranks
// victims by this.
func (c *Cache) Touch(e *Entry, now sim.Time) { e.lastUsed = now }

// Admit pins bytes under name, evicting unlocked residents per the policy
// until the newcomer fits. It returns the new entry and the evictions it
// forced. Under PolicyPinned no eviction happens and overflow is the
// Store's capacity error; under the cache policies, overflow with every
// resident locked is ErrCacheBusy. A request larger than total capacity is
// refused before anything is evicted, with an error that is not
// ErrCacheBusy: no amount of waiting makes it fit.
func (c *Cache) Admit(name string, bytes int64, load sim.Duration, popularity float64, now sim.Time) (*Entry, []Evicted, error) {
	if _, ok := c.entries[name]; ok {
		return nil, nil, fmt.Errorf("hostmem: region %q already pinned", name)
	}
	if bytes > c.store.capacity {
		return nil, nil, fmt.Errorf("hostmem: cannot admit %q: %d bytes exceed capacity %d",
			name, bytes, c.store.capacity)
	}
	var evicted []Evicted
	for c.policy != PolicyPinned && bytes > 0 && c.store.pinned+bytes > c.store.capacity {
		v := c.victim()
		if v == nil {
			return nil, evicted, fmt.Errorf("%w: cannot admit %q (%d bytes, %d pinned of %d)",
				ErrCacheBusy, name, bytes, c.store.pinned, c.store.capacity)
		}
		ev := Evicted{Name: v.region.name, Bytes: v.region.bytes}
		if err := c.Remove(v); err != nil {
			return nil, evicted, err
		}
		evicted = append(evicted, ev)
	}
	r, err := c.store.Pin(name, bytes)
	if err != nil {
		return nil, evicted, err
	}
	e := &Entry{region: r, loadTime: load, popularity: popularity, lastUsed: now}
	c.entries[name] = e
	return e, evicted, nil
}

// TryAdmit pins bytes under name only if they fit without any eviction;
// it reports whether the entry was admitted. Deploy-time eager pinning
// uses this so a zoo's popularity head starts resident while the tail
// stays cold, without deploy order forcing evictions.
func (c *Cache) TryAdmit(name string, bytes int64, load sim.Duration, popularity float64, now sim.Time) (*Entry, bool) {
	if _, ok := c.entries[name]; ok {
		return nil, false
	}
	if bytes <= 0 || c.store.pinned+bytes > c.store.capacity {
		return nil, false
	}
	e, _, err := c.Admit(name, bytes, load, popularity, now)
	return e, err == nil
}

// Remove unpins an entry and counts the eviction.
func (c *Cache) Remove(e *Entry) error {
	if e == nil {
		return errors.New("hostmem: remove of nil entry")
	}
	if c.entries[e.region.name] != e {
		return fmt.Errorf("hostmem: entry %q not resident in this cache", e.region.name)
	}
	if err := c.store.Unpin(e.region); err != nil {
		return err
	}
	delete(c.entries, e.region.name)
	c.evictions++
	return nil
}

// victim picks the next eviction candidate, or nil if every resident is
// locked.
func (c *Cache) victim() *Entry {
	var v *Entry
	// deterministic: min-by-(score, lastUsed, name) reduction over the map —
	// the total order makes the pick independent of map iteration order.
	for _, e := range c.entries {
		if e.locked {
			continue
		}
		if v == nil || c.less(e, v) {
			v = e
		}
	}
	return v
}

// less orders eviction candidates: lower is evicted first. Cost-aware
// compares keep-values before falling through to the LRU order; both end
// at the unique region name, making the order total.
func (c *Cache) less(a, b *Entry) bool {
	if c.policy == PolicyCostAware {
		if sa, sb := a.score(), b.score(); sa != sb {
			return sa < sb
		}
	}
	if a.lastUsed != b.lastUsed {
		return a.lastUsed < b.lastUsed
	}
	return a.region.name < b.region.name
}

// CheckInvariants validates cache/store consistency; tests call it after
// randomized operation sequences.
func (c *Cache) CheckInvariants() error {
	var total int64
	// deterministic: order-independent reduction (sum + per-entry checks);
	// the first error wins only among violations that are themselves bugs.
	for name, e := range c.entries {
		if e.region.name != name {
			return fmt.Errorf("hostmem: entry keyed %q wraps region %q", name, e.region.name)
		}
		if _, ok := c.store.Lookup(name); !ok {
			return fmt.Errorf("hostmem: entry %q has no backing region", name)
		}
		total += e.region.bytes
	}
	if total != c.store.Pinned() {
		return fmt.Errorf("hostmem: entries sum to %d bytes but store has %d pinned", total, c.store.Pinned())
	}
	if c.store.Pinned() > c.store.Capacity() {
		return fmt.Errorf("hostmem: pinned %d exceeds capacity %d", c.store.Pinned(), c.store.Capacity())
	}
	if len(c.entries) != len(c.store.regions) {
		return fmt.Errorf("hostmem: %d entries vs %d regions", len(c.entries), len(c.store.regions))
	}
	return nil
}
