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

IndexCache::Shard& IndexCache::ShardFor(uint64_t hash) {
  return *shards_[hash % shards_.size()];
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
  const uint64_t hash = SmartIndexKeyHash()(key);
  Shard& shard = ShardFor(hash);
  MutexLock lock(shard.mutex);
  const uint32_t n = shard.Find(key, hash);
  if (n == kNil) {
    ++shard.stats.misses;
    return nullptr;
  }
  if (IsExpired(shard, *shard.nodes[n].index, now)) {
    ++shard.stats.ttl_evictions;
    shard.Remove(n);
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  shard.Touch(n);
  return shard.nodes[n].index;
}

std::shared_ptr<const SmartIndex> IndexCache::Peek(
    const SmartIndexKeyView& key, SimTime now) {
  const uint64_t hash = SmartIndexKeyHash()(key);
  Shard& shard = ShardFor(hash);
  MutexLock lock(shard.mutex);
  const uint32_t n = shard.Find(key, hash);
  if (n == kNil) return nullptr;
  if (IsExpired(shard, *shard.nodes[n].index, now)) return nullptr;
  return shard.nodes[n].index;
}

void IndexCache::Insert(SmartIndexKey key, const BitVector& bits,
                        SimTime now) {
  // Build outside the lock: RLE compression is the expensive part.
  auto index = std::make_shared<const SmartIndex>(std::move(key), bits, now);
  const uint64_t hash = SmartIndexKeyHash()(index->key());
  uint64_t bytes = index->MemoryBytes();
  Shard& shard = ShardFor(hash);
  MutexLock lock(shard.mutex);
  const uint32_t old = shard.Find(index->key(), hash);
  if (old != kNil) shard.Remove(old);
  if (bytes > ShardCapacity()) return;
  EvictForSpaceLocked(&shard, bytes);
  if (shard.memory_bytes + bytes > ShardCapacity()) return;
  shard.Add(std::move(index), hash);
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
  std::vector<uint32_t> victims;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mutex);
    // Collect first: whether a preferred entry has expired depends on the
    // shard's memory before this sweep removes anything.
    victims.clear();
    for (uint32_t n = shard.lru_front; n != kNil; n = shard.nodes[n].next) {
      if (IsExpired(shard, *shard.nodes[n].index, now)) victims.push_back(n);
    }
    for (uint32_t n : victims) {
      ++shard.stats.ttl_evictions;
      shard.Remove(n);
    }
  }
}

void IndexCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mutex);
    shard.Clear();
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
    total += shard->size;
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

void IndexCache::EvictForSpaceLocked(Shard* shard, uint64_t incoming_bytes) {
  // Two passes over the LRU tail: first evict unpreferred entries, then —
  // only if still necessary — preferred ones.
  uint64_t capacity = ShardCapacity();
  for (int pass = 0; pass < 2; ++pass) {
    bool allow_preferred = pass == 1;
    while (shard->memory_bytes + incoming_bytes > capacity &&
           shard->size > 0) {
      uint32_t victim = shard->lru_back;
      while (victim != kNil && !allow_preferred &&
             IsPreferred(shard->nodes[victim].index->key().predicate)) {
        victim = shard->nodes[victim].prev;
      }
      if (victim == kNil) break;
      shard->Remove(victim);
      ++shard->stats.lru_evictions;
    }
    if (shard->memory_bytes + incoming_bytes <= capacity) return;
  }
}

// --- Shard: the flat probe table, node pool and LRU links. ---

size_t IndexCache::Shard::Home(uint64_t hash) const {
  // Fibonacci mixing: the low bits of `hash` picked the shard, so the
  // home slot takes the product's high bits instead.
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> 32) &
         (slots.size() - 1);
}

uint32_t IndexCache::Shard::Find(const SmartIndexKeyView& key,
                                 uint64_t hash) const {
  if (slots.empty()) return kNil;
  const size_t mask = slots.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    const Slot& slot = slots[i];
    if (slot.node == kNil) return kNil;
    if (slot.hash != hash) continue;
    const SmartIndexKey& stored = nodes[slot.node].index->key();
    if (stored.block_id == key.block_id && stored.predicate == key.predicate) {
      return slot.node;
    }
  }
}

void IndexCache::Shard::Grow(size_t capacity) {
  std::vector<Slot> old = std::move(slots);
  slots.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.node == kNil) continue;
    size_t i = Home(slot.hash);
    while (slots[i].node != kNil) i = (i + 1) & mask;
    slots[i] = slot;
  }
}

void IndexCache::Shard::Add(std::shared_ptr<const SmartIndex> index,
                            uint64_t hash) {
  constexpr size_t kInitialSlots = 16;
  // Load factor at most 1/2 keeps probe chains short.
  if (slots.empty()) {
    Grow(kInitialSlots);
  } else if ((size + 1) * 2 > slots.size()) {
    Grow(slots.size() * 2);
  }
  uint32_t n = free_head;
  if (n != kNil) {
    free_head = nodes[n].next;
  } else {
    n = static_cast<uint32_t>(nodes.size());
    nodes.emplace_back();
  }
  memory_bytes += index->MemoryBytes();
  nodes[n].index = std::move(index);
  nodes[n].hash = hash;
  Link(n);
  const size_t mask = slots.size() - 1;
  size_t i = Home(hash);
  while (slots[i].node != kNil) i = (i + 1) & mask;
  slots[i] = Slot{hash, n};
  ++size;
}

void IndexCache::Shard::Remove(uint32_t n) {
  Node& node = nodes[n];
  const size_t mask = slots.size() - 1;
  size_t hole = Home(node.hash);
  while (slots[hole].node != n) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the probe chain
  // into the hole unless its home lies cyclically in (hole, j].
  for (size_t j = (hole + 1) & mask; slots[j].node != kNil;
       j = (j + 1) & mask) {
    if (((j - Home(slots[j].hash)) & mask) >= ((j - hole) & mask)) {
      slots[hole] = slots[j];
      hole = j;
    }
  }
  slots[hole] = Slot{};
  Unlink(n);
  memory_bytes -= node.index->MemoryBytes();
  node.index.reset();
  node.next = free_head;
  free_head = n;
  --size;
}

void IndexCache::Shard::Touch(uint32_t n) {
  if (n == lru_front) return;
  Unlink(n);
  Link(n);
}

void IndexCache::Shard::Clear() {
  slots.clear();
  nodes.clear();
  free_head = lru_front = lru_back = kNil;
  size = 0;
  memory_bytes = 0;
}

void IndexCache::Shard::Link(uint32_t n) {
  nodes[n].prev = kNil;
  nodes[n].next = lru_front;
  if (lru_front != kNil) nodes[lru_front].prev = n;
  lru_front = n;
  if (lru_back == kNil) lru_back = n;
}

void IndexCache::Shard::Unlink(uint32_t n) {
  const Node& node = nodes[n];
  if (node.prev != kNil) {
    nodes[node.prev].next = node.next;
  } else {
    lru_front = node.next;
  }
  if (node.next != kNil) {
    nodes[node.next].prev = node.prev;
  } else {
    lru_back = node.prev;
  }
}

}  // namespace feisu
