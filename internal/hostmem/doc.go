// Package hostmem tracks pinned host memory — the DRAM tier that
// direct-host-access executes from — as one capacity-bounded ledger
// (Cache) whose entries are admitted and evicted under a Policy.
//
// Direct-host-access requires model weights to live in page-locked
// (pinned) host memory so the GPU can read them over PCIe
// (`cudaHostAlloc`, paper §4.1). The paper's serving experiments
// (§5.3) pin every deployed model's weights once at deployment time
// and keep them pinned for the model's lifetime, which is what makes
// eviction from GPU memory free: only the device copy is dropped, the
// host copy stays hot. Cache is the accounting ledger for that
// host-side tier: a hard capacity bound (e.g. the p3.8xlarge's 244 GB
// of host DRAM), the pinned-byte count, and one Entry per pinned
// registration, recording its owner's ID so the caller can hold its
// own entry and map evictions back to owners.
//
// # The pinned-cache tier
//
// At model-zoo scale (thousands to hundreds of thousands of registered
// variants; docs/ZOO.md) the pin-everything discipline breaks: the zoo's
// aggregate weight bytes exceed host DRAM, so pinned host memory itself
// becomes a cache with real capacity pressure. Admission and eviction
// follow a pluggable Policy:
//
//   - PolicyPinned — the legacy tier: admit everything at deploy time,
//     never evict, error when capacity is exceeded. Single-model and
//     small-fleet configurations keep this default and behave exactly
//     as before.
//   - PolicyLRU — evict the least-recently-used unlocked entry until
//     the newcomer fits.
//   - PolicyCostAware — evict the unlocked entry with the lowest
//     keep-value load_time × popularity: cheap-to-reload and unpopular
//     models go first, so a model that strictly dominates another on
//     both axes is never chosen before it.
//
// An entry is "locked" while the serving layer needs it resident (the
// instance is warm on a GPU, or a fetch-to-pin is in flight); locked
// entries are never eviction victims. The cache stores no lock: it asks
// the predicate its owner supplied at NewCache, so the lock is whatever
// the owner's state says. A model whose weights are not resident pays a
// fetch-to-pin delay — reading weights from disk or a remote store into
// freshly pinned DRAM — before its DHA cold-start plan can begin
// (serving.Config.HostFetchBandwidth).
//
// Victim selection scans the entry slice, whose order evictions permute,
// but reduces to a deterministic minimum with total-order tie-breaking,
// so the same sequence of operations always evicts the same entries —
// the byte-identity discipline of the simulator (DESIGN.md §7) extends
// through this package.
package hostmem
