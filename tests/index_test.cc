#include <algorithm>
#include <gtest/gtest.h>
#include <iterator>
#include <list>

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
