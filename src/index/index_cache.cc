#include "index/index_cache.h"

#include <algorithm>

namespace feisu {

IndexCache::IndexCache(IndexCacheConfig config)
    : config_(config), capacity_bytes_(config.capacity_bytes) {
  size_t n = std::max<size_t>(1, config_.shards);
  config_.shards = n;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

IndexCache::Shard& IndexCache::ShardFor(const SmartIndexKeyView& key) {
  return *shards_[SmartIndexKeyHash()(key) % shards_.size()];
}

uint64_t IndexCache::ShardCapacity() const {
  return capacity_bytes_.load(std::memory_order_relaxed) / shards_.size();
}

bool IndexCache::IsPreferred(std::string_view predicate) const {
  ReaderLock lock(preferred_mutex_);
  return preferred_predicates_.contains(predicate);
}

bool IndexCache::IsExpired(const Shard& shard, const SmartIndex& index,
                           SimTime now) const {
  if (now - index.created_at() <= config_.ttl) return false;
  // Preferred indices may outlive their TTL while memory is not full
  // (paper §IV-C.2).
  if (IsPreferred(index.key().predicate) &&
      shard.memory_bytes <= ShardCapacity()) {
    return false;
  }
  return true;
}

std::shared_ptr<const SmartIndex> IndexCache::Lookup(
    const SmartIndexKeyView& key, SimTime now) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  if (IsExpired(shard, *it->second.index, now)) {
    ++shard.stats.ttl_evictions;
    RemoveLocked(&shard, key);
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.index;
}

std::shared_ptr<const SmartIndex> IndexCache::Peek(
    const SmartIndexKeyView& key, SimTime now) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return nullptr;
  if (IsExpired(shard, *it->second.index, now)) return nullptr;
  return it->second.index;
}

void IndexCache::Insert(SmartIndexKey key, const BitVector& bits,
                        SimTime now) {
  // Build outside the lock: RLE compression is the expensive part.
  auto index = std::make_shared<const SmartIndex>(std::move(key), bits, now);
  const SmartIndexKeyView view(index->key());
  uint64_t bytes = index->MemoryBytes();
  Shard& shard = ShardFor(view);
  MutexLock lock(shard.mutex);
  RemoveLocked(&shard, view);
  if (bytes > ShardCapacity()) return;
  EvictForSpaceLocked(&shard, bytes);
  if (shard.memory_bytes + bytes > ShardCapacity()) return;
  shard.lru.push_front(view);
  Entry entry{std::move(index), shard.lru.begin()};
  shard.memory_bytes += bytes;
  shard.entries.emplace(view, std::move(entry));
  ++shard.stats.insertions;
}

void IndexCache::SetPreference(const std::string& predicate, bool preferred) {
  WriterLock lock(preferred_mutex_);
  if (preferred) {
    preferred_predicates_.insert(predicate);
  } else {
    preferred_predicates_.erase(predicate);
  }
}

void IndexCache::EvictExpired(SimTime now) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mutex);
    std::vector<SmartIndexKeyView> victims;
    // All expired entries are removed under this same lock, so collection
    // order affects no observable state (counters bump once per victim).
    // feisu-analyze: allow(unordered-iter): removal set, order unobservable
    for (const auto& [key, entry] : shard.entries) {
      if (IsExpired(shard, *entry.index, now)) victims.push_back(key);
    }
    for (const auto& key : victims) {
      ++shard.stats.ttl_evictions;
      RemoveLocked(&shard, key);
    }
  }
}

void IndexCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mutex);
    shard.entries.clear();
    shard.lru.clear();
    shard.memory_bytes = 0;
  }
}

uint64_t IndexCache::memory_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += shard->memory_bytes;
  }
  return total;
}

size_t IndexCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

IndexCacheStats IndexCache::stats() const {
  IndexCacheStats total;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += shard->stats;
  }
  return total;
}

void IndexCache::ResetStats() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    shard->stats = IndexCacheStats();
  }
}

void IndexCache::RemoveLocked(Shard* shard, const SmartIndexKeyView& key) {
  auto it = shard->entries.find(key);
  if (it == shard->entries.end()) return;
  shard->memory_bytes -= it->second.index->MemoryBytes();
  shard->lru.erase(it->second.lru_it);
  shard->entries.erase(it);
}

void IndexCache::EvictForSpaceLocked(Shard* shard, uint64_t incoming_bytes) {
  // Two passes over the LRU tail: first evict unpreferred entries, then —
  // only if still necessary — preferred ones.
  uint64_t capacity = ShardCapacity();
  for (int pass = 0; pass < 2; ++pass) {
    bool allow_preferred = pass == 1;
    while (shard->memory_bytes + incoming_bytes > capacity &&
           !shard->entries.empty()) {
      auto victim = shard->lru.rbegin();
      while (victim != shard->lru.rend() && !allow_preferred &&
             IsPreferred(victim->predicate)) {
        ++victim;
      }
      if (victim == shard->lru.rend()) break;
      // A copy: RemoveLocked erases the list node the iterator points at.
      const SmartIndexKeyView key = *victim;
      RemoveLocked(shard, key);
      ++shard->stats.lru_evictions;
    }
    if (shard->memory_bytes + incoming_bytes <= capacity) return;
  }
}

}  // namespace feisu
