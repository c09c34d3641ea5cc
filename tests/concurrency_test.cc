#include <atomic>
#include <gtest/gtest.h>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "columnar/block.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "index/index_cache.h"
#include "storage/storage_factory.h"
#include "workload/datagen.h"

namespace feisu {
namespace {

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, SubmitReturnsValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, DrainWaitsForAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    auto unused = pool.Submit([&done]() { done.fetch_add(1); });
    (void)unused;  // futures are optional; Drain is the synchronization
  }
  pool.Drain();
  EXPECT_EQ(done.load(), 64);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  std::future<int> failing =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  std::future<int> fine = pool.Submit([]() { return 7; });
  EXPECT_THROW(failing.get(), std::runtime_error);
  EXPECT_EQ(fine.get(), 7);  // one failure does not poison the pool
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    // One worker: tasks run in submission order, so no synchronization is
    // needed here.
    futures.push_back(pool.Submit([&order, i]() { order.push_back(i); }));
  }
  for (std::future<void>& f : futures) f.get();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// ---------- IndexCache under concurrency ----------

BitVector PatternBits(uint64_t salt) {
  BitVector bits(512, false);
  for (size_t i = 0; i < bits.size(); ++i) {
    bits.Set(i, ((i * 2654435761u + salt) % 7) == 0);
  }
  return bits;
}

// Hammer one small cache from several threads with inserts, lookups,
// preference flips and TTL sweeps. Asserts (a) no crash/race (TSan lane),
// (b) every handle obtained remains bit-exact even after its entry is
// evicted, (c) the aggregate statistics remain consistent.
TEST(IndexCacheConcurrencyTest, ParallelHammerKeepsHandlesValid) {
  IndexCacheConfig config;
  config.capacity_bytes = 64 * 1024;  // small: constant LRU pressure
  config.ttl = 72 * kSimHour;
  IndexCache cache(config);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::atomic<uint64_t> lookups{0};
  std::atomic<uint64_t> bad_bits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int op = 0; op < kOpsPerThread; ++op) {
        int64_t block = (t * kOpsPerThread + op) % 97;
        std::string predicate = "(c" + std::to_string(op % 5) + " > 1)";
        SmartIndexKey key{block, predicate};
        uint64_t salt = static_cast<uint64_t>(block) * 131 +
                        static_cast<uint64_t>(op % 5);
        switch (op % 4) {
          case 0:
            cache.Insert(key, PatternBits(salt), op);
            break;
          case 1: {
            std::shared_ptr<const SmartIndex> hit = cache.Lookup(key, op);
            lookups.fetch_add(1);
            if (hit != nullptr && !(hit->Bits() == PatternBits(salt))) {
              bad_bits.fetch_add(1);
            }
            break;
          }
          case 2: {
            std::shared_ptr<const SmartIndex> hit = cache.Peek(key, op);
            if (hit != nullptr && !(hit->Bits() == PatternBits(salt))) {
              bad_bits.fetch_add(1);
            }
            break;
          }
          case 3:
            cache.SetPreference(predicate, op % 8 == 3);
            if (op % 50 == 7) cache.EvictExpired(op);
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_bits.load(), 0u);
  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_LE(cache.memory_bytes(), config.capacity_bytes);
}

// A handle taken just before a concurrent flood of inserts (which evicts
// the entry) must survive and stay bit-exact — the ownership contract that
// replaced the old raw-pointer API.
TEST(IndexCacheConcurrencyTest, HandleOutlivesConcurrentEviction) {
  IndexCacheConfig config;
  config.capacity_bytes = 8 * 1024;
  IndexCache cache(config);
  SmartIndexKey key{1, "(a > 1)"};
  cache.Insert(key, PatternBits(42), 0);
  std::shared_ptr<const SmartIndex> held = cache.Lookup(key, 0);
  ASSERT_NE(held, nullptr);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t]() {
      for (int i = 0; i < 200; ++i) {
        cache.Insert({1000 + t * 200 + i, "(b > 1)"},
                     PatternBits(static_cast<uint64_t>(i)), 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_TRUE(held->Bits() == PatternBits(42));
}

// ---------- Parallel leaf path: determinism ----------

std::unique_ptr<FeisuEngine> MakeEngine(uint64_t seed, size_t parallelism) {
  EngineConfig config;
  config.num_leaf_nodes = 8;
  config.rows_per_block = 512;
  config.master.leaf_parallelism = parallelism;
  auto engine = std::make_unique<FeisuEngine>(config);
  engine->AddStorage("/hdfs", MakeHdfs(), /*is_default=*/true);
  engine->GrantAllDomains("ana");
  Schema schema = MakeLogSchema(12);
  EXPECT_TRUE(engine->CreateTable("t1", schema, "/hdfs/t1").ok());
  Rng rng(seed);
  for (int chunk = 0; chunk < 6; ++chunk) {
    EXPECT_TRUE(engine->Ingest("t1", GenerateRows(schema, 512, &rng)).ok());
  }
  EXPECT_TRUE(engine->Flush("t1").ok());
  return engine;
}

const char* const kDeterminismQueries[] = {
    "SELECT COUNT(*) FROM t1",
    "SELECT COUNT(*) FROM t1 WHERE c0 > 5",
    "SELECT c1, COUNT(*) FROM t1 GROUP BY c1",
    "SELECT SUM(c0) FROM t1 WHERE c3 < 500",
    "SELECT c0, COUNT(*) FROM t1 WHERE c2 >= 10 GROUP BY c0",
    "SELECT c0, c2 FROM t1 WHERE c0 > 50",
    "SELECT c0, c1 FROM t1 WHERE c2 >= 10 ORDER BY c0 LIMIT 40",
    // Grouped aggregation through the vectorized hash table: every agg
    // kernel, string and numeric group keys, and a grouping expression.
    "SELECT c1, COUNT(*), SUM(c0), MIN(c2), MAX(c2), AVG(c3) "
    "FROM t1 GROUP BY c1",
    "SELECT c0 % 5 AS b, SUM(c3), MIN(c1), MAX(c1) FROM t1 GROUP BY c0 % 5",
    // String predicates over the dictionary-friendly columns (c1 keywords,
    // c8 categories): equality hit, inequality, range, CONTAINS, and a
    // dictionary miss — the shapes the compressed-domain kernels serve.
    "SELECT COUNT(*) FROM t1 WHERE c1 = 'kw_1'",
    "SELECT c8, COUNT(*) FROM t1 WHERE c8 <> 'cat_2' GROUP BY c8",
    "SELECT c0, c1 FROM t1 WHERE c1 CONTAINS 'kw_1' ORDER BY c0 LIMIT 20",
    "SELECT COUNT(*) FROM t1 WHERE c1 = 'zz_no_such_keyword'",
    "SELECT c8, SUM(c0) FROM t1 WHERE c8 >= 'cat_3' GROUP BY c8",
};

// Serializes a batch through the columnar codec: a byte-exact fingerprint
// (RecordBatch::ToString truncates long batches).
std::string Fingerprint(const RecordBatch& batch) {
  return ColumnarBlock::FromBatch(0, batch).Serialize();
}

// FormatQueryStats without its admission line, which holds the host
// wall-clock queue wait.
std::string StatsWithoutAdmission(const QueryStats& stats) {
  std::istringstream report(FormatQueryStats(stats));
  std::string line;
  std::string out;
  while (std::getline(report, line)) {
    if (line.rfind("admission:", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

struct QueryOutcome {
  std::string fingerprint;
  SimTime response_time = 0;
  std::string stats;  ///< StatsWithoutAdmission
  bool operator==(const QueryOutcome&) const = default;
};

// Runs the query list on one engine at fixed simulated timestamps and
// returns each query's result fingerprint, response time and stats.
std::vector<QueryOutcome> RunWorkload(FeisuEngine* engine) {
  std::vector<QueryOutcome> outcomes;
  SimTime at = kSimMinute;
  for (const char* sql : kDeterminismQueries) {
    auto result = engine->QueryAt("ana", sql, at);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    QueryOutcome outcome;
    if (!result.ok()) {
      outcome.fingerprint = "<error>";
    } else {
      outcome.fingerprint = Fingerprint(result->batch);
      outcome.response_time = result->stats.response_time;
      outcome.stats = StatsWithoutAdmission(result->stats);
    }
    outcomes.push_back(std::move(outcome));
    at += kSimMinute;
  }
  return outcomes;
}

class ParallelDeterminism : public ::testing::TestWithParam<uint64_t> {};

// One query path for every width: with fault injection disabled, width 4
// produces byte-identical result batches, the same response time and the
// same stats report (admission line aside) as width 1, for every query
// shape, across a grid of data seeds.
TEST_P(ParallelDeterminism, ParallelMatchesSequentialByteForByte) {
  uint64_t seed = GetParam();
  auto sequential = MakeEngine(seed, /*parallelism=*/1);
  auto parallel = MakeEngine(seed, /*parallelism=*/4);
  std::vector<QueryOutcome> seq = RunWorkload(sequential.get());
  std::vector<QueryOutcome> par = RunWorkload(parallel.get());
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].fingerprint, par[i].fingerprint)
        << "result bytes diverged: " << kDeterminismQueries[i];
    EXPECT_EQ(seq[i].response_time, par[i].response_time)
        << "response time diverged: " << kDeterminismQueries[i];
    EXPECT_EQ(seq[i].stats, par[i].stats)
        << "stats diverged: " << kDeterminismQueries[i];
  }
}

// Parallel mode must also be deterministic run-to-run: two identically
// seeded parallel engines give identical bytes, times and stats
// regardless of worker interleaving.
TEST_P(ParallelDeterminism, ParallelIsDeterministicRunToRun) {
  uint64_t seed = GetParam();
  auto first = MakeEngine(seed, /*parallelism=*/4);
  auto second = MakeEngine(seed, /*parallelism=*/4);
  EXPECT_EQ(RunWorkload(first.get()), RunWorkload(second.get()));
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, ParallelDeterminism,
                         ::testing::Values(1, 7, 42, 1234, 99991));

// Grouped aggregation hammered through parallel leaves: many GROUP BY
// queries against one engine while the pool fans leaf sub-plans out. Under
// the TSan lane this doubles as a race check on the per-leaf Aggregator
// and on the stats plumbing; everywhere it pins run-to-run byte equality
// and the aggregation counters' visibility in the query stats.
TEST(ParallelGroupedAggregationTest, RepeatedGroupByIsStableUnderParallelism) {
  auto engine = MakeEngine(/*seed=*/7, /*parallelism=*/4);
  const char* sql =
      "SELECT c1, COUNT(*), SUM(c0), MIN(c3), MAX(c3) FROM t1 GROUP BY c1";
  std::string expected;
  SimTime at = kSimMinute;
  for (int round = 0; round < 8; ++round) {
    auto result = engine->QueryAt("ana", sql, at);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->stats.leaf.agg_groups, 0u);
    EXPECT_GT(result->stats.leaf.agg_hash_probes, 0u);
    std::string print = Fingerprint(result->batch);
    if (round == 0) {
      expected = print;
    } else {
      EXPECT_EQ(print, expected) << "round " << round << " diverged";
    }
    at += kSimMinute;
  }
}

// The parallel path must survive fault injection: results may be partial
// (lost blocks degrade gracefully) but never crash or deadlock, and the
// recovery counters must be populated coherently.
TEST(ParallelFaultToleranceTest, ParallelPathSurvivesInjectedFaults) {
  EngineConfig config;
  config.num_leaf_nodes = 8;
  config.rows_per_block = 512;
  config.master.leaf_parallelism = 4;
  config.fault.enabled = true;
  config.fault.seed = 5;
  config.fault.default_profile.read_error_rate = 0.2;
  config.fault.default_profile.corruption_rate = 0.05;
  FeisuEngine engine(config);
  engine.AddStorage("/hdfs", MakeHdfs(), /*is_default=*/true);
  engine.GrantAllDomains("ana");
  Schema schema = MakeLogSchema(12);
  ASSERT_TRUE(engine.CreateTable("t1", schema, "/hdfs/t1").ok());
  Rng rng(3);
  for (int chunk = 0; chunk < 6; ++chunk) {
    ASSERT_TRUE(engine.Ingest("t1", GenerateRows(schema, 512, &rng)).ok());
  }
  ASSERT_TRUE(engine.Flush("t1").ok());

  auto result = engine.Query("ana", "SELECT COUNT(*) FROM t1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryStats& stats = result->stats;
  EXPECT_GT(stats.io_errors + stats.corrupt_blocks + stats.task_retries, 0u)
      << "fault rates this high must leave traces in the recovery counters";
  EXPECT_GE(stats.processed_ratio, 0.0);
  EXPECT_LE(stats.processed_ratio, 1.0);
}

// Partitioned hosts receive no work at any width: the execute stage skips
// replicas the master cannot reach, so a leaf cut off for the whole query
// window gains no SmartIndex entries from the query.
TEST(ParallelFaultToleranceTest, PartitionedReplicaExecutesNothing) {
  auto engine = MakeEngine(/*seed=*/7, /*parallelism=*/4);
  const TableMeta* meta = engine->catalog().Find("t1");
  ASSERT_NE(meta, nullptr);
  ASSERT_FALSE(meta->blocks().empty());
  std::vector<uint32_t> replicas =
      engine->router().ReplicaNodes(meta->blocks()[0].path);
  ASSERT_FALSE(replicas.empty());
  const uint32_t cut = replicas[0];
  const SimTime at = kSimMinute;
  FaultConfig faults;
  faults.enabled = true;
  faults.partitions.push_back(
      PartitionSpec{/*node_id=*/cut, /*start=*/0, /*end=*/at + kSimHour});
  engine->fault_injector().Configure(faults);

  const size_t entries_before = engine->leaf(cut).index_cache().size();
  auto result =
      engine->QueryAt("ana", "SELECT COUNT(*) FROM t1 WHERE c1 = 'kw_1'", at);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->stats.partial);
  EXPECT_GT(result->stats.leaf.index_misses, 0u)
      << "the query must build SmartIndex entries somewhere";
  EXPECT_EQ(engine->leaf(cut).index_cache().size(), entries_before)
      << "leaf " << cut << " executed a task while partitioned";
}

}  // namespace
}  // namespace feisu
