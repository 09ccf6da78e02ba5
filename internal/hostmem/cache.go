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

// Entry is one pinned registration: its owner, its size, and the metadata
// the eviction policies rank it by.
type Entry struct {
	owner      int
	name       string
	bytes      int64
	loadTime   sim.Duration
	popularity float64
	lastUsed   sim.Time
	slot       int // index in Cache.entries; -1 once evicted
}

// Owner returns the ID the entry was admitted for.
func (e *Entry) Owner() int { return e.owner }

// Bytes returns the pinned size.
func (e *Entry) Bytes() int64 { return e.bytes }

// Resident reports whether the entry is still pinned (not yet evicted).
func (e *Entry) Resident() bool { return e.slot >= 0 }

// score is the cost-aware keep-value: what eviction would cost, weighted by
// how likely the cost is to be paid. Strictly monotone in both factors, so
// an entry that strictly dominates another on load time and popularity
// always scores strictly higher — the dominated entry is evicted first.
func (e *Entry) score() float64 { return e.loadTime.Seconds() * e.popularity }

// Cache is the host-memory ledger: the pinned bytes, bounded by a capacity,
// held as entries admitted and evicted under a Policy. At model-zoo scale,
// where aggregate weight bytes exceed capacity, pinned memory itself
// behaves as a cache.
type Cache struct {
	capacity int64
	pinned   int64
	policy   Policy
	locked   func(owner int) bool
	entries  []*Entry
	evicted  []*Entry // Admit's victims, reused by the next Admit
}

// NewCache returns a cache over capacity bytes of pinnable host memory
// under the given policy ("" means PolicyPinned). locked reports whether an
// owner's entry must stay resident; locked entries are never victims. A
// non-positive capacity is a bug and panics.
func NewCache(capacity int64, policy Policy, locked func(owner int) bool) (*Cache, error) {
	if capacity <= 0 {
		panic(fmt.Sprintf("hostmem: capacity must be positive, got %d", capacity))
	}
	p, err := ParsePolicy(string(policy))
	if err != nil {
		return nil, err
	}
	return &Cache{capacity: capacity, policy: p, locked: locked}, nil
}

// Pinned returns the total bytes currently pinned.
func (c *Cache) Pinned() int64 { return c.pinned }

// Touch records a use of the entry at the given virtual time; LRU ranks
// victims by this.
func (c *Cache) Touch(e *Entry, now sim.Time) { e.lastUsed = now }

// Admit pins bytes for owner under name, evicting unlocked residents per
// the policy until the newcomer fits. Names break eviction ties, so they
// must be unique among residents. It returns the new entry and the entries
// it evicted; the evicted slice is reused by the next Admit. Under
// PolicyPinned no eviction happens and overflow is an error; under the
// cache policies, overflow with every resident locked is ErrCacheBusy. A
// request larger than total capacity is refused before anything is
// evicted, with an error that is not ErrCacheBusy: no amount of waiting
// makes it fit.
func (c *Cache) Admit(owner int, name string, bytes int64, load sim.Duration, popularity float64, now sim.Time) (*Entry, []*Entry, error) {
	if bytes <= 0 {
		return nil, nil, fmt.Errorf("hostmem: invalid pin size %d for %q", bytes, name)
	}
	if bytes > c.capacity {
		return nil, nil, fmt.Errorf("hostmem: cannot admit %q: %d bytes exceed capacity %d",
			name, bytes, c.capacity)
	}
	c.evicted = c.evicted[:0]
	for c.policy != PolicyPinned && c.pinned+bytes > c.capacity {
		v := c.victim()
		if v == nil {
			return nil, c.evicted, fmt.Errorf("%w: cannot admit %q (%d bytes, %d pinned of %d)",
				ErrCacheBusy, name, bytes, c.pinned, c.capacity)
		}
		c.remove(v)
		c.evicted = append(c.evicted, v)
	}
	if c.pinned+bytes > c.capacity {
		return nil, c.evicted, fmt.Errorf("hostmem: pinning %q (%d bytes) exceeds capacity (%d pinned of %d)",
			name, bytes, c.pinned, c.capacity)
	}
	e := &Entry{owner: owner, name: name, bytes: bytes, loadTime: load, popularity: popularity,
		lastUsed: now, slot: len(c.entries)}
	c.entries = append(c.entries, e)
	c.pinned += bytes
	return e, c.evicted, nil
}

// remove unpins a resident entry, moving the last entry into its slot.
func (c *Cache) remove(e *Entry) {
	last := len(c.entries) - 1
	c.entries[e.slot] = c.entries[last]
	c.entries[e.slot].slot = e.slot
	c.entries[last] = nil
	c.entries = c.entries[:last]
	e.slot = -1
	c.pinned -= e.bytes
}

// victim picks the next eviction candidate, or nil if every resident is
// locked.
func (c *Cache) victim() *Entry {
	var v *Entry
	// deterministic: min-by-(score, lastUsed, name) reduction — the total
	// order makes the pick independent of slot order, which removals permute.
	for _, e := range c.entries {
		if c.locked(e.owner) {
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
// at the unique name, making the order total.
func (c *Cache) less(a, b *Entry) bool {
	if c.policy == PolicyCostAware {
		if sa, sb := a.score(), b.score(); sa != sb {
			return sa < sb
		}
	}
	if a.lastUsed != b.lastUsed {
		return a.lastUsed < b.lastUsed
	}
	return a.name < b.name
}

// CheckInvariants validates the ledger: every entry sits in its own slot,
// the entries sum to the pinned bytes, and those fit the capacity. Tests
// call it after randomized operation sequences.
func (c *Cache) CheckInvariants() error {
	var total int64
	// deterministic: a sum and per-slot checks in slot order.
	for i, e := range c.entries {
		if e.slot != i {
			return fmt.Errorf("hostmem: entry %q in slot %d records slot %d", e.name, i, e.slot)
		}
		total += e.bytes
	}
	if total != c.pinned {
		return fmt.Errorf("hostmem: entries sum to %d bytes but %d are pinned", total, c.pinned)
	}
	if c.pinned > c.capacity {
		return fmt.Errorf("hostmem: pinned %d exceeds capacity %d", c.pinned, c.capacity)
	}
	return nil
}
