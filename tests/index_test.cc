#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <gtest/gtest.h>
#include <iterator>
#include <list>
#include <map>
#include <new>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "expr/evaluator.h"
#include "expr/normalize.h"
#include "index/btree.h"
#include "index/btree_index.h"
#include "index/index_cache.h"
#include "index/index_resolver.h"
#include "index/smart_index.h"
#include "sql/parser.h"

// Every heap allocation of this test binary, so a test can assert that a
// code path allocates nothing.
namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

// All out of line, so the compiler does not pair the malloc() and free()
// inside them with the `new` and `delete` it sees at inlined call sites
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace feisu {
namespace {

ExprPtr ParsePredicate(const std::string& condition) {
  auto stmt = ParseSql("SELECT a FROM t WHERE " + condition);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return CanonicalizeAtoms(PushDownNot(stmt->where));
}

// The single keyed conjunct of `condition`: what a leaf task probes with.
KeyedPredicate KeyedConjunct(const std::string& condition) {
  auto stmt = ParseSql("SELECT a FROM t WHERE " + condition);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::vector<KeyedPredicate> conjuncts = KeyConjuncts(stmt->where);
  EXPECT_EQ(conjuncts.size(), 1u) << condition;
  return conjuncts.at(0);
}

BitVector MakeBits(const std::string& pattern) {
  BitVector bits(pattern.size(), false);
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '1') bits.Set(i, true);
  }
  return bits;
}

// ---------- SmartIndex ----------

TEST(SmartIndexTest, RoundTripsBits) {
  BitVector bits = MakeBits("0110100");
  SmartIndex index({7, "(c2 > 0)"}, bits, 100);
  EXPECT_EQ(index.num_rows(), 7u);
  EXPECT_EQ(index.matched_rows(), 3u);
  EXPECT_TRUE(index.Bits() == bits);
  EXPECT_EQ(index.created_at(), 100);
}

TEST(SmartIndexTest, MemoryUsesCompressedSize) {
  BitVector sparse(100000, false);
  sparse.Set(5, true);
  SmartIndex index({1, "(c2 > 0)"}, sparse, 0);
  // 100k bits raw = 12.5 KB; compressed run form is tiny.
  EXPECT_LT(index.MemoryBytes(), 300u);
}

TEST(SmartIndexTest, KeyHashDistinguishes) {
  SmartIndexKeyHash hasher;
  EXPECT_NE(hasher({1, "(a > 1)"}), hasher({2, "(a > 1)"}));
  EXPECT_NE(hasher({1, "(a > 1)"}), hasher({1, "(a > 2)"}));
  EXPECT_EQ(hasher({1, "(a > 1)"}), hasher({1, "(a > 1)"}));
}

// ---------- IndexCache ----------

IndexCacheConfig SmallCache(uint64_t bytes = 10 * 1024,
                            SimTime ttl = 72 * kSimHour) {
  IndexCacheConfig config;
  config.capacity_bytes = bytes;
  config.ttl = ttl;
  // Single shard: these tests pin exact LRU/eviction order, which only the
  // unsharded cache guarantees (striping splits the budget per shard).
  config.shards = 1;
  return config;
}

TEST(IndexCacheTest, InsertLookup) {
  IndexCache cache(SmallCache());
  cache.Insert({1, "(a > 1)"}, MakeBits("101"), 0);
  std::shared_ptr<const SmartIndex> hit = cache.Lookup({1, "(a > 1)"}, 10);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->matched_rows(), 2u);
  EXPECT_EQ(cache.Lookup({1, "(a > 2)"}, 10), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(IndexCacheTest, TtlExpiry) {
  IndexCache cache(SmallCache(10 * 1024, 10 * kSimHour));
  cache.Insert({1, "(a > 1)"}, MakeBits("1"), 0);
  EXPECT_NE(cache.Lookup({1, "(a > 1)"}, 9 * kSimHour), nullptr);
  EXPECT_EQ(cache.Lookup({1, "(a > 1)"}, 11 * kSimHour), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().ttl_evictions, 1u);
}

TEST(IndexCacheTest, DefaultTtlIs72Hours) {
  IndexCache cache;
  EXPECT_EQ(cache.config().ttl, 72 * kSimHour);
  EXPECT_EQ(cache.config().capacity_bytes, 512ULL * 1024 * 1024);
}

TEST(IndexCacheTest, LruEvictionUnderPressure) {
  // Each dense-random index of 4096 bits costs ~528+ bytes compressed.
  Rng rng(3);
  auto random_bits = [&rng]() {
    BitVector bits(4096, false);
    for (size_t i = 0; i < bits.size(); ++i) bits.Set(i, rng.NextBool(0.5));
    return bits;
  };
  IndexCache cache(SmallCache(1400));
  cache.Insert({1, "(a > 1)"}, random_bits(), 0);
  cache.Insert({2, "(a > 1)"}, random_bits(), 1);
  EXPECT_EQ(cache.size(), 2u);
  // Touch entry 1 so entry 2 is LRU.
  EXPECT_NE(cache.Lookup({1, "(a > 1)"}, 2), nullptr);
  cache.Insert({3, "(a > 1)"}, random_bits(), 3);
  EXPECT_NE(cache.Peek({1, "(a > 1)"}, 3), nullptr);
  EXPECT_EQ(cache.Peek({2, "(a > 1)"}, 3), nullptr);  // evicted
  EXPECT_GT(cache.stats().lru_evictions, 0u);
}

TEST(IndexCacheTest, OversizedEntryNotCached) {
  IndexCache cache(SmallCache(100));
  Rng rng(5);
  BitVector big(100000, false);
  for (size_t i = 0; i < big.size(); ++i) big.Set(i, rng.NextBool(0.5));
  cache.Insert({1, "(a > 1)"}, big, 0);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(IndexCacheTest, PreferredSurvivesTtlWhileMemoryFree) {
  IndexCache cache(SmallCache(10 * 1024, kSimHour));
  cache.SetPreference("(a > 1)", true);
  cache.Insert({1, "(a > 1)"}, MakeBits("1"), 0);
  cache.Insert({1, "(b > 1)"}, MakeBits("1"), 0);
  // Past TTL: preferred entry survives, unpreferred does not.
  EXPECT_NE(cache.Lookup({1, "(a > 1)"}, 2 * kSimHour), nullptr);
  EXPECT_EQ(cache.Lookup({1, "(b > 1)"}, 2 * kSimHour), nullptr);
}

TEST(IndexCacheTest, PreferredEvictedLast) {
  Rng rng(7);
  auto random_bits = [&rng]() {
    BitVector bits(4096, false);
    for (size_t i = 0; i < bits.size(); ++i) bits.Set(i, rng.NextBool(0.5));
    return bits;
  };
  IndexCache cache(SmallCache(1400));
  cache.SetPreference("(a > 1)", true);
  cache.Insert({1, "(a > 1)"}, random_bits(), 0);   // preferred
  cache.Insert({2, "(b > 1)"}, random_bits(), 1);   // not preferred
  cache.Insert({3, "(c > 1)"}, random_bits(), 2);   // forces eviction
  EXPECT_NE(cache.Peek({1, "(a > 1)"}, 3), nullptr);
  EXPECT_EQ(cache.Peek({2, "(b > 1)"}, 3), nullptr);
}

TEST(IndexCacheTest, EvictExpiredSweep) {
  IndexCache cache(SmallCache(10 * 1024, kSimHour));
  cache.Insert({1, "(a > 1)"}, MakeBits("1"), 0);
  cache.Insert({2, "(a > 1)"}, MakeBits("1"), kSimHour);
  cache.EvictExpired(kSimHour + kSimMinute);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(IndexCacheTest, ClearResets) {
  IndexCache cache(SmallCache());
  cache.Insert({1, "(a > 1)"}, MakeBits("1"), 0);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.memory_bytes(), 0u);
}

TEST(IndexCacheTest, ReplaceUpdatesMemoryAccounting) {
  IndexCache cache(SmallCache());
  cache.Insert({1, "(a > 1)"}, MakeBits("1111"), 0);
  uint64_t before = cache.memory_bytes();
  cache.Insert({1, "(a > 1)"}, MakeBits("1111"), 5);
  EXPECT_EQ(cache.memory_bytes(), before);
  EXPECT_EQ(cache.size(), 1u);
}

// Ownership-contract regression (successor to the PR-1 pointer-contract
// test). Lookup/Peek used to hand out raw pointers valid only "until the
// next mutating call" — a dangling-pointer hazard once Insert could rehash
// the map or LRU-evict the entry, and indefensible with sub-plans running
// in parallel. The cache now returns a shared_ptr that OWNS the index:
// a handle taken before arbitrary churn — including eviction of its own
// entry — stays alive and bit-exact for as long as the caller holds it.
TEST(IndexCacheTest, LookupHandleSurvivesInsertChurnAndEviction) {
  IndexCache cache(SmallCache(2000));
  BitVector original = MakeBits("0110100");
  cache.Insert({1, "(a > 1)"}, original, 0);
  std::shared_ptr<const SmartIndex> hit = cache.Lookup({1, "(a > 1)"}, 0);
  ASSERT_NE(hit, nullptr);

  // Churn the cache hard: many inserts force rehashes and LRU evictions.
  // The tiny budget guarantees entry {1, "(a > 1)"} is evicted along the
  // way — yet `hit` keeps its index alive and unchanged.
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    BitVector bits(4096, false);
    for (size_t j = 0; j < bits.size(); ++j) bits.Set(j, rng.NextBool(0.5));
    cache.Insert({100 + i, "(b > 1)"}, bits, 1);
  }
  EXPECT_EQ(cache.Peek({1, "(a > 1)"}, 1), nullptr);  // evicted from cache

  EXPECT_TRUE(hit->Bits() == original);
  EXPECT_EQ(hit->matched_rows(), 3u);

  // Replacing a live entry detaches, not mutates: an old handle still sees
  // the bits it was taken with after Insert overwrites the key.
  cache.Insert({2, "(c > 1)"}, MakeBits("1111"), 2);
  std::shared_ptr<const SmartIndex> before = cache.Lookup({2, "(c > 1)"}, 2);
  ASSERT_NE(before, nullptr);
  cache.Insert({2, "(c > 1)"}, MakeBits("0000"), 3);
  EXPECT_TRUE(before->Bits() == MakeBits("1111"));
  std::shared_ptr<const SmartIndex> after = cache.Lookup({2, "(c > 1)"}, 3);
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(after->Bits() == MakeBits("0000"));
}

// With one shard, a hit moves its entry to the LRU front exactly as an
// erase followed by a push to the front did: after every insert, the
// resident set equals that of a list model of the old policy.
TEST(IndexCacheTest, SingleShardEvictionOrderFollowsHits) {
  const BitVector bits = MakeBits("0110");
  auto key_of = [](int i) {
    std::string key = "(k > ";
    if (i < 10) key += "0";
    key += std::to_string(i);
    key += ")";
    return key;
  };
  constexpr size_t kResident = 6;
  const uint64_t entry_bytes = SmartIndex({1, key_of(0)}, bits, 0).MemoryBytes();
  IndexCache cache(SmallCache(kResident * entry_bytes));
  std::list<std::string> model;  // front = most recently used
  Rng rng(5);
  constexpr int kInserts = 40;
  for (int i = 0; i < kInserts; ++i) {
    for (int h = 0; h < 3 && !model.empty(); ++h) {
      auto it = std::next(model.begin(),
                          static_cast<std::ptrdiff_t>(
                              rng.NextUint64(model.size())));
      ASSERT_NE(cache.Lookup({1, *it}, 1), nullptr) << *it;
      std::string key = *it;
      model.erase(it);
      model.push_front(key);
    }
    cache.Insert({1, key_of(i)}, bits, 1);
    model.push_front(key_of(i));
    if (model.size() > kResident) model.pop_back();
    for (int j = 0; j <= i; ++j) {
      const bool resident =
          std::find(model.begin(), model.end(), key_of(j)) != model.end();
      EXPECT_EQ(cache.Peek({1, key_of(j)}, 1) != nullptr, resident)
          << "after insert " << i << ", key " << key_of(j);
    }
  }
  EXPECT_EQ(cache.stats().lru_evictions, kInserts - kResident);
}

// A reference model of the cache's documented policy: per shard, a list
// in LRU order plus a map of the resident entries, with the same budget,
// TTL, preference and eviction rules.
class IndexCacheModel {
 public:
  struct Entry {
    uint64_t bytes = 0;
    SimTime created_at = 0;
  };
  using Key = std::pair<int64_t, std::string>;

  IndexCacheModel(size_t shards, uint64_t capacity, SimTime ttl)
      : shards_(shards), capacity_(capacity), ttl_(ttl) {}

  void set_capacity_bytes(uint64_t bytes) { capacity_ = bytes; }

  void Insert(const Key& key, uint64_t bytes, SimTime now) {
    Shard& shard = ShardFor(key);
    Remove(&shard, key);
    if (bytes > ShardCapacity()) return;
    for (int pass = 0; pass < 2; ++pass) {
      while (shard.memory + bytes > ShardCapacity() && !shard.lru.empty()) {
        auto victim = shard.lru.rbegin();
        while (victim != shard.lru.rend() && pass == 0 &&
               preferred_.contains(victim->second)) {
          ++victim;
        }
        if (victim == shard.lru.rend()) break;
        const Key copy = *victim;
        Remove(&shard, copy);
        ++stats_.lru_evictions;
      }
      if (shard.memory + bytes <= ShardCapacity()) break;
    }
    if (shard.memory + bytes > ShardCapacity()) return;
    shard.lru.push_front(key);
    shard.entries[key] = Entry{bytes, now};
    shard.memory += bytes;
    ++stats_.insertions;
  }

  bool Lookup(const Key& key, SimTime now) {
    Shard& shard = ShardFor(key);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      ++stats_.misses;
      return false;
    }
    if (Expired(shard, key, it->second, now)) {
      ++stats_.ttl_evictions;
      Remove(&shard, key);
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    shard.lru.remove(key);
    shard.lru.push_front(key);
    return true;
  }

  bool Peek(const Key& key, SimTime now) {
    Shard& shard = ShardFor(key);
    auto it = shard.entries.find(key);
    return it != shard.entries.end() && !Expired(shard, key, it->second, now);
  }

  void EvictExpired(SimTime now) {
    for (Shard& shard : shards_) {
      std::vector<Key> victims;
      for (const auto& [key, entry] : shard.entries) {
        if (Expired(shard, key, entry, now)) victims.push_back(key);
      }
      for (const Key& key : victims) {
        ++stats_.ttl_evictions;
        Remove(&shard, key);
      }
    }
  }

  void SetPreference(const std::string& predicate, bool preferred) {
    if (preferred) {
      preferred_.insert(predicate);
    } else {
      preferred_.erase(predicate);
    }
  }

  const Entry* Find(const Key& key) {
    Shard& shard = ShardFor(key);
    auto it = shard.entries.find(key);
    return it == shard.entries.end() ? nullptr : &it->second;
  }
  uint64_t memory_bytes() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) total += shard.memory;
    return total;
  }
  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) total += shard.entries.size();
    return total;
  }
  const IndexCacheStats& stats() const { return stats_; }

 private:
  struct Shard {
    std::list<Key> lru;  // front = most recently used
    std::map<Key, Entry> entries;
    uint64_t memory = 0;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[SmartIndexKeyHash()({key.first, key.second}) %
                   shards_.size()];
  }
  uint64_t ShardCapacity() const { return capacity_ / shards_.size(); }
  bool Expired(const Shard& shard, const Key& key, const Entry& entry,
               SimTime now) const {
    if (now - entry.created_at <= ttl_) return false;
    return !(preferred_.contains(key.second) &&
             shard.memory <= ShardCapacity());
  }
  void Remove(Shard* shard, const Key& key) {
    auto it = shard->entries.find(key);
    if (it == shard->entries.end()) return;
    shard->memory -= it->second.bytes;
    shard->lru.remove(key);
    shard->entries.erase(it);
  }

  std::vector<Shard> shards_;
  uint64_t capacity_;
  SimTime ttl_;
  std::set<std::string> preferred_;
  IndexCacheStats stats_;
};

// Random Insert/Lookup/Peek/EvictExpired/SetPreference and budget changes
// against the reference model. Budgets swing from a few entries per shard
// (LRU and preferred evictions) to hundreds (table growth, long and
// wrapped probe chains, backward shifts on every removal); after each
// operation residency, stats, memory and size must match the model.
class IndexCacheModelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IndexCacheModelTest, MatchesReferenceModel) {
  const size_t shards = GetParam();
  constexpr SimTime kTtl = 1000;
  const std::vector<std::string> predicates = {
      "(a > 1)", "(a <= 1)", "(b = 2)", "((c = 1) OR (d = 2))", "(e > 10)",
      "(f CONTAINS 'x')"};
  constexpr int64_t kBlocks = 90;
  std::vector<IndexCacheModel::Key> keys;
  for (int64_t block = 0; block < kBlocks; ++block) {
    for (const std::string& predicate : predicates) {
      keys.emplace_back(block, predicate);
    }
  }
  Rng rng(17 + shards);
  std::vector<BitVector> bitmaps;
  for (size_t size : {8, 64, 200, 700, 1500}) {
    BitVector bits(size, false);
    for (size_t i = 0; i < size; ++i) bits.Set(i, rng.NextBool(0.3));
    bitmaps.push_back(std::move(bits));
  }
  const uint64_t small_entry =
      SmartIndex({0, predicates[0]}, bitmaps[0], 0).MemoryBytes();
  const uint64_t large_budget = small_entry * 600 * shards;
  const uint64_t tight_budget = small_entry * 5 * shards;

  IndexCacheConfig config;
  config.capacity_bytes = large_budget;
  config.ttl = kTtl;
  config.shards = shards;
  IndexCache cache(config);
  IndexCacheModel model(shards, large_budget, kTtl);
  SimTime now = 0;
  constexpr int kOps = 6000;
  for (int op = 0; op < kOps; ++op) {
    // Long phases alternate the budget so tables both grow large and
    // evict constantly.
    if (op % 1500 == 0) {
      const uint64_t budget = (op / 1500) % 2 == 0 ? large_budget
                                                   : tight_budget;
      cache.set_capacity_bytes(budget);
      model.set_capacity_bytes(budget);
    }
    now += static_cast<SimTime>(rng.NextUint64(4));
    const IndexCacheModel::Key& key = keys[rng.NextUint64(keys.size())];
    const SmartIndexKey owned{key.first, key.second};
    const uint64_t choice = rng.NextUint64(100);
    std::string what;
    if (choice < 45) {
      const BitVector& bits = bitmaps[rng.NextUint64(bitmaps.size())];
      cache.Insert(owned, bits, now);
      model.Insert(key, SmartIndex(owned, bits, now).MemoryBytes(), now);
      what = "Insert";
    } else if (choice < 80) {
      EXPECT_EQ(cache.Lookup(owned, now) != nullptr, model.Lookup(key, now));
      what = "Lookup";
    } else if (choice < 94) {
      EXPECT_EQ(cache.Peek(owned, now) != nullptr, model.Peek(key, now));
      what = "Peek";
    } else if (choice < 97) {
      cache.EvictExpired(now);
      model.EvictExpired(now);
      what = "EvictExpired";
    } else {
      const std::string& predicate =
          predicates[rng.NextUint64(predicates.size())];
      const bool preferred = rng.NextBool(0.5);
      cache.SetPreference(predicate, preferred);
      model.SetPreference(predicate, preferred);
      what = "SetPreference";
    }
    // Peek at time 0 sees every resident entry (nothing has aged) and
    // touches neither stats nor LRU order.
    for (const IndexCacheModel::Key& k : keys) {
      const IndexCacheModel::Entry* expected = model.Find(k);
      std::shared_ptr<const SmartIndex> got =
          cache.Peek({k.first, k.second}, 0);
      ASSERT_EQ(got != nullptr, expected != nullptr)
          << "op " << op << " (" << what << "), key " << k.first << " "
          << k.second;
      if (got != nullptr) {
        ASSERT_EQ(got->created_at(), expected->created_at) << "op " << op;
        ASSERT_EQ(got->MemoryBytes(), expected->bytes) << "op " << op;
      }
    }
    const IndexCacheStats stats = cache.stats();
    ASSERT_EQ(stats.hits, model.stats().hits) << "op " << op;
    ASSERT_EQ(stats.misses, model.stats().misses) << "op " << op;
    ASSERT_EQ(stats.insertions, model.stats().insertions) << "op " << op;
    ASSERT_EQ(stats.lru_evictions, model.stats().lru_evictions)
        << "op " << op;
    ASSERT_EQ(stats.ttl_evictions, model.stats().ttl_evictions)
        << "op " << op;
    ASSERT_EQ(cache.memory_bytes(), model.memory_bytes()) << "op " << op;
    ASSERT_EQ(cache.size(), model.size()) << "op " << op;
  }
  // The run exercised what it is meant to.
  EXPECT_GT(model.stats().lru_evictions, 100u);
  EXPECT_GT(model.stats().ttl_evictions, 10u);
  EXPECT_GT(model.stats().hits, 100u);
}

INSTANTIATE_TEST_SUITE_P(Shards, IndexCacheModelTest,
                         ::testing::Values(size_t{1}, size_t{8}));

// ---------- Keyed conjuncts ----------

// The keys the master builds once per query are exactly the keys the leaf
// used to render per block: PredicateKey over NormalizePredicate, the
// hash of that text, and the dual's rendering for atoms and NOT atoms.
TEST(KeyConjunctsTest, KeysMatchPerConjunctRendering) {
  const char* const kConditions[] = {
      "c2 > 0 AND c2 <= 5",             // Q10
      "c2 > 0 AND !(c2 > 5)",           // Q11
      "NOT (c2 <= 0 OR c2 > 5)",        // Q12
      "a = 1 OR b = 2",
      "(a = 1 AND b = 2) OR c = 3",
      "5 < a AND NOT (b != 'x')",
      "s CONTAINS 'x' AND NOT (s CONTAINS 'y')",
      "NOT (s CONTAINS 'x' OR a >= 2.5)",
      "(a = 1 OR b = 2) AND (c = 3 OR NOT (d CONTAINS 'z'))",
  };
  for (const char* condition : kConditions) {
    SCOPED_TRACE(condition);
    auto stmt = ParseSql(std::string("SELECT a FROM t WHERE ") + condition);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    const std::vector<ExprPtr> normalized = NormalizePredicate(stmt->where);
    const std::vector<KeyedPredicate> keyed = KeyConjuncts(stmt->where);
    ASSERT_EQ(keyed.size(), normalized.size());
    for (size_t i = 0; i < keyed.size(); ++i) {
      const ExprPtr& conjunct = normalized[i];
      EXPECT_EQ(keyed[i].key, PredicateKey(conjunct));
      EXPECT_EQ(keyed[i].key_hash, HashString(keyed[i].key));
      const bool atom =
          conjunct->kind() == ExprKind::kComparison ||
          (conjunct->kind() == ExprKind::kLogical &&
           conjunct->logical_op() == LogicalOp::kNot);
      EXPECT_EQ(keyed[i].dual_key,
                atom ? PredicateKey(CanonicalizeAtoms(
                           PushDownNot(Expr::Not(conjunct))))
                     : std::string());
      // AND/OR nodes key their operands for compositional probes.
      if (conjunct->kind() == ExprKind::kLogical &&
          conjunct->logical_op() != LogicalOp::kNot) {
        ASSERT_EQ(keyed[i].children.size(), 2u);
        for (size_t c = 0; c < 2; ++c) {
          EXPECT_EQ(keyed[i].children[c].key,
                    PredicateKey(conjunct->child(c)));
          EXPECT_EQ(keyed[i].children[c].key_hash,
                    HashString(keyed[i].children[c].key));
        }
      } else {
        EXPECT_TRUE(keyed[i].children.empty());
      }
    }
  }
  EXPECT_TRUE(KeyConjuncts(nullptr).empty());
}

// A borrowed key hashes and compares exactly like the owned key it views.
TEST(SmartIndexTest, KeyViewHashesLikeOwnedKey) {
  SmartIndexKeyHash hasher;
  for (int64_t block : {int64_t{0}, int64_t{7}, int64_t{-3}}) {
    for (const char* text : {"(a > 1)", "((a = 1) OR (b = 2))", ""}) {
      SmartIndexKey owned{block, text};
      const uint64_t expected =
          HashCombine(HashInt64(block), HashString(text));
      EXPECT_EQ(hasher(owned), expected);
      EXPECT_EQ(hasher(SmartIndexKeyView(block, text, HashString(text))),
                expected);
      EXPECT_EQ(hasher(SmartIndexKeyView(owned)), expected);
    }
  }
}

// ---------- IndexResolver (Fig. 7 bitmap algebra) ----------

TEST(ResolverTest, DirectHit) {
  IndexCache cache;
  IndexResolver resolver(&cache);
  ExprPtr p = ParsePredicate("c2 > 0");
  cache.Insert({1, PredicateKey(p)}, MakeBits("0110"), 0);
  auto bits = resolver.Resolve(1, KeyedConjunct("c2 > 0"), 10);
  ASSERT_TRUE(bits.has_value());
  EXPECT_EQ(bits->ToString(), "0110");
  EXPECT_EQ(resolver.stats().direct_hits, 1u);
  // A direct hit borrows the cached payload instead of copying it.
  std::shared_ptr<const std::string> payload =
      resolver.ResolvePayload(1, KeyedConjunct("c2 > 0"), 10);
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload.get(), &cache.Peek({1, PredicateKey(p)}, 10)
                                ->compressed_bits());
}

// The engine's hit path: a direct hit ANDs the cached payload into the
// caller's selection through a borrowed handle, allocating and inflating
// nothing.
TEST(ResolverTest, DirectHitAndsWithoutAllocating) {
  IndexCache cache;
  const KeyedPredicate conjunct = KeyedConjunct("c2 > 0");
  Rng rng(5);
  BitVector bits(2048, false);
  for (size_t i = 0; i < bits.size(); ++i) bits.Set(i, rng.NextBool(0.3));
  cache.Insert({1, conjunct.key}, bits, 0);
  IndexResolver resolver(&cache);
  BitVector selection(bits.size(), true);
  const uint64_t inflations = BitVector::inflation_count();
  const uint64_t allocations = g_heap_allocations.load();
  const bool hit = resolver.ResolveAnd(1, conjunct, 10, &selection);
  EXPECT_EQ(g_heap_allocations.load(), allocations);
  EXPECT_EQ(BitVector::inflation_count(), inflations);
  ASSERT_TRUE(hit);
  EXPECT_TRUE(selection == bits);
  EXPECT_EQ(resolver.stats().direct_hits, 1u);
  EXPECT_EQ(resolver.stats().bitmap_words, (bits.size() + 63) / 64);
}

TEST(ResolverTest, NegationResolvesViaMaterializedDual) {
  IndexCache cache;
  IndexResolver resolver(&cache);
  // Evaluating `c2 > 5` materializes two entries: its TRUE bitmap and the
  // negation's bitmap under the `c2 <= 5` key (the FALSE set, which may be
  // smaller than NOT(TRUE) when NULLs exist). A later `c2 <= 5` lookup is
  // a direct hit on the dual entry.
  cache.Insert({1, PredicateKey(ParsePredicate("c2 > 5"))},
               MakeBits("0011"), 0);
  cache.Insert({1, PredicateKey(ParsePredicate("c2 <= 5"))},
               MakeBits("1000"), 0);  // row 1 has NULL c2
  auto bits = resolver.Resolve(1, KeyedConjunct("c2 <= 5"), 10);
  ASSERT_TRUE(bits.has_value());
  EXPECT_EQ(bits->ToString(), "1000");
  EXPECT_EQ(resolver.stats().direct_hits, 1u);
}

TEST(ResolverTest, NoUnsafeBitNotComposition) {
  IndexCache cache;
  IndexResolver resolver(&cache);
  // Only the positive atom is cached; its negation must MISS (bit-NOT of
  // the TRUE set would wrongly select NULL rows).
  cache.Insert({1, PredicateKey(ParsePredicate("c2 > 5"))},
               MakeBits("0011"), 0);
  EXPECT_FALSE(resolver.Resolve(1, KeyedConjunct("c2 <= 5"), 10)
                   .has_value());
}

TEST(ResolverTest, OrComposition) {
  IndexCache cache;
  IndexResolver resolver(&cache);
  cache.Insert({1, PredicateKey(ParsePredicate("a = 1"))},
               MakeBits("1000"), 0);
  cache.Insert({1, PredicateKey(ParsePredicate("b = 2"))},
               MakeBits("0100"), 0);
  auto bits = resolver.Resolve(1, KeyedConjunct("a = 1 OR b = 2"), 10);
  ASSERT_TRUE(bits.has_value());
  EXPECT_EQ(bits->ToString(), "1100");
  EXPECT_EQ(resolver.stats().composed_hits, 2u);
}

TEST(ResolverTest, NotContainsResolvesByDirectKeyOnly) {
  IndexCache cache;
  IndexResolver resolver(&cache);
  cache.Insert({1, PredicateKey(ParsePredicate("s CONTAINS 'x'"))},
               MakeBits("1010"), 0);
  // Without the materialized dual entry, NOT(CONTAINS) misses.
  EXPECT_FALSE(
      resolver.Resolve(1, KeyedConjunct("NOT (s CONTAINS 'x')"), 10)
          .has_value());
  // With it, the lookup is a direct hit.
  cache.Insert({1, PredicateKey(ParsePredicate("NOT (s CONTAINS 'x')"))},
               MakeBits("0101"), 0);
  auto bits = resolver.Resolve(1, KeyedConjunct("NOT (s CONTAINS 'x')"), 10);
  ASSERT_TRUE(bits.has_value());
  EXPECT_EQ(bits->ToString(), "0101");
}

TEST(ResolverTest, MissWhenNothingCached) {
  IndexCache cache;
  IndexResolver resolver(&cache);
  auto bits = resolver.Resolve(1, KeyedConjunct("a = 1"), 10);
  EXPECT_FALSE(bits.has_value());
  EXPECT_EQ(resolver.stats().misses, 1u);
}

TEST(ResolverTest, PartialOrCompositionMisses) {
  IndexCache cache;
  IndexResolver resolver(&cache);
  cache.Insert({1, PredicateKey(ParsePredicate("a = 1"))},
               MakeBits("1000"), 0);
  // Other disjunct missing: cannot compose.
  auto bits = resolver.Resolve(1, KeyedConjunct("a = 1 OR b = 2"), 10);
  EXPECT_FALSE(bits.has_value());
}

TEST(ResolverTest, WrongBlockMisses) {
  IndexCache cache;
  IndexResolver resolver(&cache);
  ExprPtr p = ParsePredicate("a = 1");
  cache.Insert({1, PredicateKey(p)}, MakeBits("1"), 0);
  EXPECT_FALSE(resolver.Resolve(2, KeyedConjunct("a = 1"), 10).has_value());
}

// ---------- BPlusTree ----------

TEST(BPlusTreeTest, InsertAndScanAll) {
  BPlusTree<double> tree;
  for (int i = 0; i < 1000; ++i) tree.Insert(i, static_cast<uint32_t>(i));
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GT(tree.height(), 1u);
  size_t count = 0;
  double last = -1;
  tree.ScanRange(std::nullopt, true, std::nullopt, true,
                 [&](uint32_t row) {
                   EXPECT_GE(static_cast<double>(row), last);
                   last = static_cast<double>(row);
                   ++count;
                 });
  EXPECT_EQ(count, 1000u);
}

TEST(BPlusTreeTest, RangeBounds) {
  BPlusTree<double> tree;
  for (int i = 0; i < 100; ++i) tree.Insert(i, static_cast<uint32_t>(i));
  std::vector<uint32_t> rows;
  tree.ScanRange(10.0, true, 20.0, false,
                 [&](uint32_t row) { rows.push_back(row); });
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.front(), 10u);
  EXPECT_EQ(rows.back(), 19u);
}

TEST(BPlusTreeTest, DuplicateKeys) {
  BPlusTree<double> tree;
  for (int rep = 0; rep < 200; ++rep) {
    tree.Insert(5.0, static_cast<uint32_t>(rep));
    tree.Insert(7.0, static_cast<uint32_t>(1000 + rep));
  }
  size_t fives = 0;
  tree.ScanEqual(5.0, [&](uint32_t) { ++fives; });
  EXPECT_EQ(fives, 200u);
}

TEST(BPlusTreeTest, StringKeys) {
  BPlusTree<std::string> tree;
  tree.Insert("banana", 1);
  tree.Insert("apple", 0);
  tree.Insert("cherry", 2);
  std::vector<uint32_t> rows;
  tree.ScanRange(std::string("apple"), true, std::string("banana"), true,
                 [&](uint32_t row) { rows.push_back(row); });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[1], 1u);
}

// Property: random inserts, range scan equals brute force.
class BPlusTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  BPlusTree<double> tree;
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) {
    double v = static_cast<double>(rng.NextInt64(0, 200));
    values.push_back(v);
    tree.Insert(v, static_cast<uint32_t>(i));
  }
  for (int trial = 0; trial < 20; ++trial) {
    double lo = static_cast<double>(rng.NextInt64(0, 200));
    double hi = lo + static_cast<double>(rng.NextInt64(0, 50));
    size_t expected = 0;
    for (double v : values) {
      if (v >= lo && v <= hi) ++expected;
    }
    size_t actual = 0;
    tree.ScanRange(lo, true, hi, true, [&](uint32_t) { ++actual; });
    EXPECT_EQ(actual, expected) << "range [" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeProperty,
                         ::testing::Values(1, 2, 3, 42, 99));

// ---------- ColumnBTreeIndex ----------

ColumnVector MakeIndexedColumn() {
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 100; ++i) {
    if (i % 10 == 9) {
      col.AppendNull();
    } else {
      col.AppendInt64(i % 7);
    }
  }
  return col;
}

TEST(ColumnBTreeIndexTest, MatchesScanForAllOps) {
  ColumnVector col = MakeIndexedColumn();
  ColumnBTreeIndex index = ColumnBTreeIndex::Build(col);
  Schema schema({{"v", DataType::kInt64, true}});
  std::vector<ColumnVector> cols{col};
  RecordBatch batch(schema, cols);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (int64_t lit : {0, 3, 6, 10}) {
      auto via_index = index.Query(op, Value::Int64(lit));
      ASSERT_TRUE(via_index.has_value());
      ExprPtr pred = Expr::Compare(op, Expr::ColumnRef("v"),
                                   Expr::Literal(Value::Int64(lit)));
      auto via_scan = EvaluatePredicate(*pred, batch);
      ASSERT_TRUE(via_scan.ok());
      EXPECT_TRUE(*via_index == *via_scan)
          << CompareOpName(op) << " " << lit;
    }
  }
}

TEST(ColumnBTreeIndexTest, ContainsUnsupported) {
  ColumnVector col(DataType::kString);
  col.AppendString("ab");
  ColumnBTreeIndex index = ColumnBTreeIndex::Build(col);
  EXPECT_FALSE(index.Query(CompareOp::kContains, Value::String("a"))
                   .has_value());
}

TEST(ColumnBTreeIndexTest, StringIndex) {
  ColumnVector col(DataType::kString);
  col.AppendString("b");
  col.AppendString("a");
  col.AppendString("c");
  ColumnBTreeIndex index = ColumnBTreeIndex::Build(col);
  auto bits = index.Query(CompareOp::kLe, Value::String("b"));
  ASSERT_TRUE(bits.has_value());
  EXPECT_EQ(bits->ToString(), "110");
}

TEST(BTreeIndexManagerTest, BuildOnceFindAfter) {
  BTreeIndexManager manager;
  ColumnVector col = MakeIndexedColumn();
  EXPECT_EQ(manager.Find(1, "v"), nullptr);
  const ColumnBTreeIndex* built = manager.BuildAndStore(1, "v", col);
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(manager.Find(1, "v"), built);
  EXPECT_EQ(manager.builds(), 1u);
  EXPECT_GT(manager.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace feisu
