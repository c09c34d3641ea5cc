#ifndef FEISU_INDEX_INDEX_CACHE_H_
#define FEISU_INDEX_INDEX_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "index/smart_index.h"

namespace feisu {

/// Index-cache tuning knobs (paper §IV-C.2: 512 MB default budget, 72 h
/// TTL, user preferences that may outlive the TTL while memory is free).
struct IndexCacheConfig {
  uint64_t capacity_bytes = 512ULL * 1024 * 1024;
  SimTime ttl = 72 * kSimHour;
  /// Lock-striping width: keys hash onto `shards` independent LRU domains,
  /// each guarded by its own mutex and owning capacity_bytes / shards of
  /// the budget. 1 reproduces the pre-striping single-LRU semantics (tests
  /// that pin exact eviction order use it); the default spreads contention
  /// across concurrent leaf sub-plans.
  size_t shards = 8;
};

struct IndexCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t lru_evictions = 0;
  uint64_t ttl_evictions = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
  double MissRate() const { return 1.0 - HitRate(); }

  IndexCacheStats& operator+=(const IndexCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    lru_evictions += other.lru_evictions;
    ttl_evictions += other.ttl_evictions;
    return *this;
  }
};

/// The per-leaf-server SmartIndex store. An index is dropped when (1) the
/// memory budget is full (LRU order) or (2) it has been cached longer than
/// the TTL — except that preferred (pinned) indices survive TTL expiry as
/// long as memory is not under pressure.
///
/// Thread safety (compile-time checked via the annotations below): every
/// public method is safe to call concurrently; the key space is striped
/// over independently locked shards. Lookup/Peek return a shared_ptr that
/// keeps the index alive even if a concurrent Insert evicts the entry —
/// the old "pointer valid until the next mutating call" contract is gone
/// (it was a dangling-pointer hazard under LRU eviction, and indefensible
/// once sub-plans run in parallel).
///
/// Handle/ownership contract, member by member:
///  - `config_` and `shards_` (the vector itself, not the Shards) are
///    immutable after construction — read freely from any thread.
///  - `capacity_bytes_` is an atomic: set_capacity_bytes may race with
///    readers by design (the budget is advisory between operations).
///  - Everything inside a `Shard` (probe table, node pool, LRU links,
///    memory_bytes, stats) is guarded by that shard's own mutex.
///  - `preferred_predicates_` is guarded by `preferred_mutex_`, a
///    reader/writer lock: IsPreferred takes shared access on the hot
///    lookup/eviction paths, SetPreference takes exclusive access.
///  - The `SmartIndex` objects handed out by Lookup/Peek are immutable;
///    the shared_ptr is the lifetime token, valid for as long as the
///    caller holds it, no matter what the cache does afterwards.
class IndexCache {
 public:
  explicit IndexCache(IndexCacheConfig config = {});

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  const IndexCacheConfig& config() const { return config_; }
  void set_capacity_bytes(uint64_t bytes) {
    capacity_bytes_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t capacity_bytes() const {
    return capacity_bytes_.load(std::memory_order_relaxed);
  }

  /// Looks up the index for (block, predicate) at simulated time `now`.
  /// Expired entries are treated as misses and removed. Returns nullptr on
  /// miss. The returned pointer owns the index: it stays valid for as long
  /// as the caller holds it, no matter what the cache does afterwards. A
  /// hit allocates nothing: one probe of the shard's flat table, then two
  /// index relinks move its node to the LRU front.
  std::shared_ptr<const SmartIndex> Lookup(const SmartIndexKeyView& key,
                                           SimTime now);

  /// Same as Lookup but without touching the hit/miss statistics or LRU
  /// order (used by the resolver's compositional probes).
  std::shared_ptr<const SmartIndex> Peek(const SmartIndexKeyView& key,
                                         SimTime now);

  /// Inserts (or replaces) the index for `key`. Evicts LRU entries as
  /// needed; an entry larger than its shard's budget is not cached.
  void Insert(SmartIndexKey key, const BitVector& bits, SimTime now);

  /// User preference hook (paper: "interfaces for users to set preferences
  /// and retire strategies on indices"). Preferred predicates survive TTL
  /// expiry under low memory pressure and are evicted last.
  void SetPreference(const std::string& predicate, bool preferred)
      FEISU_EXCLUDES(preferred_mutex_);

  /// Drops every entry whose TTL expired at `now` (periodic maintenance).
  void EvictExpired(SimTime now);

  void Clear();

  uint64_t memory_bytes() const;
  size_t size() const;
  /// Aggregated over all shards (a coherent snapshot per shard; counters
  /// keep moving while concurrent callers run).
  IndexCacheStats stats() const;
  void ResetStats();

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// One cached index in a shard's node pool, threaded on the shard's LRU
  /// list by index. A free node holds no index; its `next` links the free
  /// list.
  struct Node {
    std::shared_ptr<const SmartIndex> index;
    uint64_t hash = 0;      ///< SmartIndexKeyHash of the index's key
    uint32_t prev = kNil;   ///< toward the LRU front (more recently used)
    uint32_t next = kNil;   ///< toward the LRU back
  };

  /// A probe-table slot: the full key hash and the node it names; `node ==
  /// kNil` marks an empty slot.
  struct Slot {
    uint64_t hash = 0;
    uint32_t node = kNil;
  };

  /// One independently locked LRU domain. `slots` is a flat linear-probing
  /// table over a power-of-two array, at most half full, whose home slot
  /// comes from mixed bits of the key hash (its low bits already chose the
  /// shard); deletion shifts the rest of the probe chain back, so there are
  /// no tombstones. Keys are compared against the key owned by the node's
  /// own SmartIndex, so a probe borrows the caller's key and builds none.
  struct Shard {
    mutable Mutex mutex;
    std::vector<Slot> slots FEISU_GUARDED_BY(mutex);
    std::vector<Node> nodes FEISU_GUARDED_BY(mutex);
    uint32_t free_head FEISU_GUARDED_BY(mutex) = kNil;
    uint32_t lru_front FEISU_GUARDED_BY(mutex) = kNil;  // most recently used
    uint32_t lru_back FEISU_GUARDED_BY(mutex) = kNil;
    size_t size FEISU_GUARDED_BY(mutex) = 0;
    uint64_t memory_bytes FEISU_GUARDED_BY(mutex) = 0;
    IndexCacheStats stats FEISU_GUARDED_BY(mutex);

    /// The node holding `key` (whose hash is `hash`), or kNil.
    uint32_t Find(const SmartIndexKeyView& key, uint64_t hash) const
        FEISU_REQUIRES(mutex);
    /// Adds `index` (its key not resident) at the LRU front.
    void Add(std::shared_ptr<const SmartIndex> index, uint64_t hash)
        FEISU_REQUIRES(mutex);
    /// Drops node `n`: its slot, its LRU links and its memory charge.
    void Remove(uint32_t n) FEISU_REQUIRES(mutex);
    /// Relinks node `n` at the LRU front.
    void Touch(uint32_t n) FEISU_REQUIRES(mutex);
    void Clear() FEISU_REQUIRES(mutex);

   private:
    size_t Home(uint64_t hash) const FEISU_REQUIRES(mutex);
    void Grow(size_t capacity) FEISU_REQUIRES(mutex);
    void Link(uint32_t n) FEISU_REQUIRES(mutex);
    void Unlink(uint32_t n) FEISU_REQUIRES(mutex);
  };

  Shard& ShardFor(uint64_t hash);
  uint64_t ShardCapacity() const;
  bool IsExpired(const Shard& shard, const SmartIndex& index,
                 SimTime now) const FEISU_REQUIRES(shard.mutex);
  bool IsPreferred(std::string_view predicate) const
      FEISU_EXCLUDES(preferred_mutex_);
  /// Requires `shard->mutex` to be held by the caller (compile-time
  /// enforced).
  void EvictForSpaceLocked(Shard* shard, uint64_t incoming_bytes)
      FEISU_REQUIRES(shard->mutex);

  /// Immutable after construction.
  IndexCacheConfig config_;
  std::atomic<uint64_t> capacity_bytes_;
  /// The vector is immutable after construction; per-shard state is
  /// guarded by each Shard's own mutex.
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable SharedMutex preferred_mutex_;
  std::set<std::string, std::less<>> preferred_predicates_
      FEISU_GUARDED_BY(preferred_mutex_);
};

}  // namespace feisu

#endif  // FEISU_INDEX_INDEX_CACHE_H_
