#include <gtest/gtest.h>

#include "client/client.h"
#include "core/engine.h"
#include "storage/storage_factory.h"
#include "workload/datagen.h"

namespace feisu {
namespace {

/// A small deployment with one HDFS system and a deterministic table of
/// 8000 rows over 10 blocks.
class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineConfig config;
    config.num_leaf_nodes = 4;
    config.rows_per_block = 800;
    engine_ = std::make_unique<FeisuEngine>(config);
    engine_->AddStorage("/hdfs", MakeHdfs(), true);
    engine_->GrantAllDomains("ana");
    Schema schema({{"id", DataType::kInt64, true},
                   {"mod", DataType::kInt64, true},
                   {"name", DataType::kString, true},
                   {"score", DataType::kDouble, true}});
    ASSERT_TRUE(engine_->CreateTable("t", schema, "/hdfs/t").ok());
    RecordBatch batch(schema);
    for (int64_t i = 0; i < 8000; ++i) {
      std::string name = "n";
      name += std::to_string(i % 4);
      ASSERT_TRUE(batch
                      .AppendRow({Value::Int64(i), Value::Int64(i % 10),
                                  Value::String(name),
                                  Value::Double(static_cast<double>(i) / 10)})
                      .ok());
    }
    ASSERT_TRUE(engine_->Ingest("t", batch).ok());
    ASSERT_TRUE(engine_->Flush("t").ok());
  }

  QueryResult Run(const std::string& sql) {
    auto result = engine_->Query("ana", sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::unique_ptr<FeisuEngine> engine_;
};

TEST_F(EngineFixture, IngestCreatesExpectedBlocks) {
  const TableMeta* meta = engine_->catalog().Find("t");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->TotalRows(), 8000u);
  EXPECT_EQ(meta->blocks().size(), 10u);
  EXPECT_FALSE(meta->blocks()[0].stats.empty());
}

TEST_F(EngineFixture, CountStar) {
  QueryResult result = Run("SELECT COUNT(*) FROM t");
  ASSERT_EQ(result.batch.num_rows(), 1u);
  EXPECT_EQ(result.batch.column(0).GetInt64(0), 8000);
}

TEST_F(EngineFixture, FilteredCount) {
  QueryResult result = Run("SELECT COUNT(*) FROM t WHERE mod < 3");
  EXPECT_EQ(result.batch.column(0).GetInt64(0), 2400);
}

TEST_F(EngineFixture, FilteredScanRows) {
  QueryResult result = Run("SELECT id FROM t WHERE id < 5");
  EXPECT_EQ(result.batch.num_rows(), 5u);
}

TEST_F(EngineFixture, AggregatesMatchGroundTruth) {
  QueryResult result = Run(
      "SELECT SUM(id), MIN(id), MAX(id), AVG(id), COUNT(id) FROM t "
      "WHERE mod = 0");
  // ids 0,10,...,7990: 800 values, sum = 10*(0+1+...+799) = 3196000.
  EXPECT_EQ(result.batch.column(0).GetInt64(0), 3196000);
  EXPECT_EQ(result.batch.column(1).GetInt64(0), 0);
  EXPECT_EQ(result.batch.column(2).GetInt64(0), 7990);
  EXPECT_DOUBLE_EQ(result.batch.column(3).GetDouble(0), 3995.0);
  EXPECT_EQ(result.batch.column(4).GetInt64(0), 800);
}

TEST_F(EngineFixture, GroupByWithHavingOrderLimit) {
  QueryResult result = Run(
      "SELECT name, COUNT(*) AS n FROM t WHERE mod < 5 GROUP BY name "
      "HAVING COUNT(*) > 0 ORDER BY name LIMIT 2");
  ASSERT_EQ(result.batch.num_rows(), 2u);
  EXPECT_EQ(result.batch.column(0).GetString(0), "n0");
  // i%10 < 5 and i%4 == 0: 3 of every 20 ids.
  EXPECT_EQ(result.batch.column(1).GetInt64(0), 1200);
}

TEST_F(EngineFixture, SecondSimilarQueryIsFasterViaSmartIndex) {
  // Different aggregates, same predicate: the second query cannot reuse the
  // first one's task results, but its predicate evaluation comes straight
  // from SmartIndex.
  QueryResult cold = Run("SELECT COUNT(*) FROM t WHERE mod > 2 AND mod <= 7");
  QueryResult warm = Run("SELECT MAX(id) FROM t WHERE mod > 2 AND mod <= 7");
  EXPECT_EQ(cold.batch.column(0).GetInt64(0), 4000);
  EXPECT_EQ(warm.stats.reused_tasks, 0u);
  EXPECT_GT(warm.stats.leaf.index_direct_hits, 0u);
  EXPECT_LT(warm.stats.response_time, cold.stats.response_time);
}

TEST_F(EngineFixture, IdenticalQueryFasterViaTaskReuse) {
  QueryResult cold = Run("SELECT COUNT(*) FROM t WHERE mod > 2 AND mod <= 7");
  QueryResult warm = Run("SELECT COUNT(*) FROM t WHERE mod > 2 AND mod <= 7");
  EXPECT_EQ(cold.batch.column(0).GetInt64(0),
            warm.batch.column(0).GetInt64(0));
  EXPECT_EQ(warm.stats.reused_tasks, warm.stats.total_tasks);
  EXPECT_LT(warm.stats.response_time, cold.stats.response_time);
}

TEST_F(EngineFixture, Fig7NegatedPredicateReusesIndex) {
  Run("SELECT COUNT(*) FROM t WHERE mod > 5");
  // Use a different aggregate so the task signature differs (no task-level
  // reuse). `NOT (mod > 5)` normalizes to `mod <= 5`, whose bitmap was
  // materialized as the dual when `mod > 5` was evaluated — a direct hit
  // with no scanning.
  QueryResult result = Run("SELECT SUM(id) FROM t WHERE NOT (mod > 5)");
  EXPECT_GT(result.stats.leaf.index_direct_hits, 0u);
  EXPECT_EQ(result.stats.leaf.rows_scanned, 0u);
  EXPECT_EQ(result.batch.column(0).GetInt64(0), 19188000);  // sum of ids with id%10<=5
}

TEST_F(EngineFixture, ResolverStatsTotalSumsEveryLeafField) {
  Run("SELECT COUNT(*) FROM t WHERE mod = 1");
  Run("SELECT COUNT(*) FROM t WHERE mod = 2");
  // Both atoms are cached, so the OR composes in the RLE domain.
  QueryResult result = Run("SELECT SUM(id) FROM t WHERE mod = 1 OR mod = 2");
  EXPECT_GT(result.stats.leaf.index_composed_hits, 0u);
  ResolverStats sum;
  for (size_t i = 0; i < engine_->num_leaves(); ++i) {
    sum += engine_->leaf(i).resolver_stats();
  }
  ResolverStats total = engine_->AggregateResolverStats();
  EXPECT_GT(total.rle_tokens, 0u);
  EXPECT_EQ(total.rle_tokens, sum.rle_tokens);
  EXPECT_EQ(total.direct_hits, sum.direct_hits);
  EXPECT_EQ(total.composed_hits, sum.composed_hits);
  EXPECT_EQ(total.misses, sum.misses);
  EXPECT_EQ(total.bitmap_words, sum.bitmap_words);
}

TEST_F(EngineFixture, IdenticalQueryReusesTaskResults) {
  Run("SELECT COUNT(*) FROM t WHERE mod = 1");
  QueryResult again = Run("SELECT COUNT(*) FROM t WHERE mod = 1");
  EXPECT_EQ(again.stats.reused_tasks, again.stats.total_tasks);
  EXPECT_EQ(again.batch.column(0).GetInt64(0), 800);
}

TEST_F(EngineFixture, ZoneMapsSkipOutOfRangeBlocks) {
  // id is monotone: only the last block holds id >= 7200.
  QueryResult result = Run("SELECT COUNT(*) FROM t WHERE id >= 7200");
  EXPECT_EQ(result.batch.column(0).GetInt64(0), 800);
  EXPECT_EQ(result.stats.skipped_blocks, 9u);
}

TEST_F(EngineFixture, ProjectionExpressionsAndAliases) {
  QueryResult result =
      Run("SELECT id * 2 AS twice, score FROM t WHERE id = 21");
  ASSERT_EQ(result.batch.num_rows(), 1u);
  EXPECT_EQ(result.batch.schema().field(0).name, "twice");
  EXPECT_EQ(result.batch.column(0).GetInt64(0), 42);
  EXPECT_DOUBLE_EQ(result.batch.column(1).GetDouble(0), 2.1);
}

TEST_F(EngineFixture, OrderByDescLimit) {
  QueryResult result =
      Run("SELECT id FROM t WHERE mod = 3 ORDER BY id DESC LIMIT 3");
  ASSERT_EQ(result.batch.num_rows(), 3u);
  EXPECT_EQ(result.batch.column(0).GetInt64(0), 7993);
  EXPECT_EQ(result.batch.column(0).GetInt64(2), 7973);
}

TEST_F(EngineFixture, ContainsPredicate) {
  QueryResult result = Run("SELECT COUNT(*) FROM t WHERE name CONTAINS '3'");
  EXPECT_EQ(result.batch.column(0).GetInt64(0), 2000);
}

TEST_F(EngineFixture, UnknownUserRejected) {
  auto result = engine_->Query("ghost", "SELECT COUNT(*) FROM t");
  EXPECT_TRUE(result.status().IsPermissionDenied());
}

TEST_F(EngineFixture, UnknownTableRejected) {
  auto result = engine_->Query("ana", "SELECT COUNT(*) FROM nope");
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_F(EngineFixture, SyntaxErrorSurfaced) {
  auto result = engine_->Query("ana", "SELECT FROM WHERE");
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(EngineFixture, StatsAreAccounted) {
  QueryResult result = Run("SELECT COUNT(*) FROM t WHERE mod = 2");
  EXPECT_EQ(result.stats.total_tasks, 10u);
  EXPECT_GT(result.stats.leaf.bytes_read, 0u);
  EXPECT_GT(result.stats.response_time, 0);
  EXPECT_FALSE(result.stats.plan_text.empty());
  EXPECT_GT(result.stats.leaf_finish_time, 0);
  EXPECT_GE(result.stats.stem_finish_time, result.stats.leaf_finish_time);
}

TEST_F(EngineFixture, ClockAdvancesWithQueries) {
  SimTime before = engine_->clock().Now();
  Run("SELECT COUNT(*) FROM t");
  EXPECT_GT(engine_->clock().Now(), before);
}

TEST_F(EngineFixture, NodeFailureToleratedViaReplicas) {
  engine_->cluster().MarkDead(0);
  QueryResult result = Run("SELECT COUNT(*) FROM t WHERE mod = 7");
  EXPECT_EQ(result.batch.column(0).GetInt64(0), 800);
}

TEST_F(EngineFixture, EarlyTerminationAbandonsTasks) {
  // A crawling node makes its tasks long-tail; with processed_ratio 0.5
  // (and speculative execution off) the job returns approximate results
  // without waiting for them.
  ScheduleConfig schedule = engine_->master().scheduler().config();
  schedule.enable_backup_tasks = false;
  engine_->master().scheduler().set_config(schedule);
  engine_->cluster().SetSlowdown(1, 100.0);
  engine_->master().mutable_config().processed_ratio = 0.5;
  QueryResult result = Run("SELECT COUNT(*) FROM t");
  EXPECT_LT(result.batch.column(0).GetInt64(0), 8000);
  EXPECT_GT(result.stats.abandoned_tasks, 0u);
  engine_->master().mutable_config().processed_ratio = 1.0;
}

TEST_F(EngineFixture, CheckpointRestore) {
  MasterCheckpoint checkpoint = engine_->master().Checkpoint();
  EXPECT_EQ(checkpoint.tables.size(), 1u);
  EXPECT_TRUE(MasterServer::RestoreFromCheckpoint(checkpoint,
                                                  engine_->catalog())
                  .ok());
  Catalog empty;
  EXPECT_TRUE(MasterServer::RestoreFromCheckpoint(checkpoint, empty)
                  .IsCorruption());
}

TEST_F(EngineFixture, JsonIngestion) {
  Schema schema({{"user.name", DataType::kString, true},
                 {"user.age", DataType::kInt64, true},
                 {"clicks[0].url", DataType::kString, true}});
  ASSERT_TRUE(engine_->CreateTable("j", schema, "/hdfs/j").ok());
  std::string lines =
      R"({"user": {"name": "ann", "age": 30}, "clicks": [{"url": "u0"}]})"
      "\n"
      R"({"user": {"name": "bob", "age": 25}})"
      "\n";
  ASSERT_TRUE(engine_->IngestJsonLines("j", lines).ok());
  ASSERT_TRUE(engine_->Flush("j").ok());
  const TableMeta* meta = engine_->catalog().Find("j");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->TotalRows(), 2u);
}

TEST_F(EngineFixture, JsonIngestionRejectsUnknownAttribute) {
  Schema schema({{"a", DataType::kInt64, true}});
  ASSERT_TRUE(engine_->CreateTable("j2", schema, "/hdfs/j2").ok());
  EXPECT_TRUE(engine_->IngestJsonLines("j2", R"({"b": 1})")
                  .IsInvalidArgument());
}

TEST_F(EngineFixture, IndexMemorySweepAffectsHitRate) {
  // Disable task-result reuse so the repeated queries exercise the index
  // cache rather than short-circuiting at the master.
  engine_->master().mutable_config().enable_task_result_reuse = false;
  // With a tiny cache, repeated distinct predicates evict each other.
  engine_->SetIndexCacheCapacity(512);
  for (int round = 0; round < 2; ++round) {
    for (int v = 0; v < 8; ++v) {
      Run("SELECT SUM(id) FROM t WHERE mod <= " + std::to_string(v));
    }
  }
  IndexCacheStats small = engine_->AggregateIndexStats();
  engine_->ResetCaches();
  engine_->SetIndexCacheCapacity(64 * 1024 * 1024);
  for (int round = 0; round < 2; ++round) {
    for (int v = 0; v < 8; ++v) {
      Run("SELECT MAX(id) FROM t WHERE mod <= " + std::to_string(v));
    }
  }
  IndexCacheStats big = engine_->AggregateIndexStats();
  EXPECT_GT(big.HitRate(), small.HitRate());
}

TEST_F(EngineFixture, OversizedResultsSpillToGlobalStorage) {
  // Force a tiny spill threshold: every stem result routes via global
  // storage (write flow + locator + read flow), which costs more simulated
  // time than direct streaming.
  QueryResult direct = Run("SELECT id FROM t WHERE mod >= 0");
  engine_->master().mutable_config().result_spill_threshold_bytes = 1024;
  QueryResult spilled = Run("SELECT score FROM t WHERE mod >= 0");
  EXPECT_GT(spilled.stats.spilled_results, 0u);
  EXPECT_GT(spilled.stats.spilled_bytes, 0u);
  EXPECT_EQ(direct.stats.spilled_results, 0u);
  EXPECT_EQ(spilled.batch.num_rows(), 8000u);
  engine_->master().mutable_config().result_spill_threshold_bytes =
      4ULL * 1024 * 1024;
}

TEST_F(EngineFixture, ClientExplainRendersOptimizedPlan) {
  FeisuClient client(engine_.get(), "ana");
  auto plan = client.Explain(
      "SELECT name, COUNT(*) FROM t WHERE mod > 1 + 1 GROUP BY name");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Scan t"), std::string::npos);
  EXPECT_NE(plan->find("(mod > 2)"), std::string::npos);  // folded+pushed
  EXPECT_NE(plan->find("Aggregate"), std::string::npos);
  // Explain of an inaccessible table fails the same way Query would.
  EXPECT_TRUE(client.Explain("SELECT a FROM nope").status().IsNotFound());
}

TEST_F(EngineFixture, MultiLevelStemTreeCorrectness) {
  // stem_fanout 1 puts every leaf in its own level-0 stem and forces the
  // merge tree to collapse over multiple levels; results must not change.
  engine_->master().mutable_config().stem_fanout = 1;
  QueryResult result = Run(
      "SELECT name, COUNT(*) AS n FROM t GROUP BY name ORDER BY name");
  ASSERT_EQ(result.batch.num_rows(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(result.batch.column(1).GetInt64(r), 2000);
  }
  engine_->master().mutable_config().stem_fanout = 50;
}

TEST_F(EngineFixture, AllNodesDeadFailsGracefully) {
  for (size_t i = 0; i < engine_->num_leaves(); ++i) {
    engine_->cluster().MarkDead(static_cast<uint32_t>(i));
  }
  auto result = engine_->Query("ana", "SELECT COUNT(*) FROM t");
  // Placement falls back to node 0, whose process is dead... the master
  // surfaces the failure instead of hanging or crashing.
  EXPECT_FALSE(result.ok());
}

TEST_F(EngineFixture, ExpressionGroupByKeys) {
  // GROUP BY an expression; the select list repeats it under an alias.
  // (`/` is double division in this dialect, so `%` makes the buckets.)
  QueryResult result = Run(
      "SELECT id % 4 AS bucket, COUNT(*) AS n FROM t "
      "GROUP BY id % 4 ORDER BY bucket");
  ASSERT_EQ(result.batch.num_rows(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(result.batch.column(0).GetInt64(r), static_cast<int64_t>(r));
    EXPECT_EQ(result.batch.column(1).GetInt64(r), 2000);
  }
  // HAVING may also reference the group expression.
  QueryResult filtered = Run(
      "SELECT id % 4 AS bucket, COUNT(*) AS n FROM t "
      "GROUP BY id % 4 HAVING id % 4 >= 2 ORDER BY bucket");
  EXPECT_EQ(filtered.batch.num_rows(), 2u);
  // A select column that is neither grouped nor aggregated still fails.
  auto bad = engine_->Query(
      "ana", "SELECT id, COUNT(*) FROM t GROUP BY id % 4");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST_F(EngineFixture, DistributedLimitCutsShuffle) {
  QueryResult capped = Run("SELECT id FROM t WHERE mod = 1 LIMIT 5");
  EXPECT_EQ(capped.batch.num_rows(), 5u);
  // Each of the 10 leaf tasks returned at most 5 rows instead of 80.
  QueryResult full = Run("SELECT id FROM t WHERE mod = 1");
  EXPECT_EQ(full.batch.num_rows(), 800u);
  EXPECT_LT(capped.stats.bytes_shuffled, full.stats.bytes_shuffled / 4);
  // Ordered limits run as per-leaf top-k; the global order is preserved
  // and the shuffle stays small.
  QueryResult ordered =
      Run("SELECT id FROM t WHERE mod = 1 ORDER BY id DESC LIMIT 5");
  EXPECT_EQ(ordered.batch.num_rows(), 5u);
  EXPECT_EQ(ordered.batch.column(0).GetInt64(0), 7991);
  EXPECT_EQ(ordered.batch.column(0).GetInt64(4), 7951);
  EXPECT_LT(ordered.stats.bytes_shuffled, full.stats.bytes_shuffled / 4);
}

TEST_F(EngineFixture, MaintenanceExpiresIndicesAndSweepsLiveness) {
  // Build an index, then run maintenance past its TTL.
  Run("SELECT COUNT(*) FROM t WHERE mod = 4");
  EXPECT_GT(engine_->leaf(0).index_cache().size() +
                engine_->leaf(1).index_cache().size() +
                engine_->leaf(2).index_cache().size() +
                engine_->leaf(3).index_cache().size(),
            0u);
  SimTime ttl = engine_->leaf(0).index_cache().config().ttl;
  engine_->RunMaintenance(engine_->clock().Now() + ttl + kSimHour);
  uint64_t remaining = 0;
  for (size_t i = 0; i < engine_->num_leaves(); ++i) {
    remaining += engine_->leaf(i).index_cache().size();
  }
  EXPECT_EQ(remaining, 0u);
  // Heartbeats kept every node alive.
  EXPECT_EQ(engine_->cluster().AliveCount(), engine_->num_leaves());
  // A crashed node stays dead across maintenance (no heartbeat from it).
  engine_->cluster().MarkDead(2);
  engine_->RunMaintenance(engine_->clock().Now() + kSimMinute);
  EXPECT_EQ(engine_->cluster().AliveCount(), engine_->num_leaves() - 1);
}

TEST_F(EngineFixture, FormatQueryStatsReport) {
  QueryResult result = Run("SELECT COUNT(*) FROM t WHERE mod = 6");
  std::string report = FormatQueryStats(result.stats);
  EXPECT_NE(report.find("response time:"), std::string::npos);
  EXPECT_NE(report.find("tasks: 10 total"), std::string::npos);
  EXPECT_NE(report.find("SmartIndex:"), std::string::npos);
  EXPECT_NE(report.find("Scan t"), std::string::npos);  // embedded plan
}

// ---------- Multi-storage ----------

TEST(MultiStorageTest, QuerySpansHeterogeneousSystems) {
  EngineConfig config;
  config.num_leaf_nodes = 4;
  config.rows_per_block = 500;
  FeisuEngine engine(config);
  engine.AddStorage("/hdfs", MakeHdfs("hdfs_a"), true);
  engine.AddStorage("/ffs", MakeFatman("ffs"));
  engine.GrantAllDomains("ana");

  Schema schema({{"k", DataType::kInt64, true},
                 {"v", DataType::kInt64, true}});
  ASSERT_TRUE(engine.CreateTable("hot", schema, "/hdfs/hot").ok());
  ASSERT_TRUE(engine.CreateTable("cold", schema, "/ffs/cold").ok());
  RecordBatch batch(schema);
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        batch.AppendRow({Value::Int64(i % 100), Value::Int64(i)}).ok());
  }
  ASSERT_TRUE(engine.Ingest("hot", batch).ok());
  ASSERT_TRUE(engine.Ingest("cold", batch).ok());
  ASSERT_TRUE(engine.Flush("hot").ok());
  ASSERT_TRUE(engine.Flush("cold").ok());

  // Same scan on the cold system is slower (Fatman's cost personality).
  auto hot = engine.Query("ana", "SELECT COUNT(*) FROM hot WHERE v > 10");
  auto cold = engine.Query("ana", "SELECT COUNT(*) FROM cold WHERE v > 10");
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(hot->batch.column(0).GetInt64(0),
            cold->batch.column(0).GetInt64(0));
  EXPECT_GT(cold->stats.response_time, hot->stats.response_time);

  // A join across the two systems.
  auto join = engine.Query(
      "ana",
      "SELECT COUNT(*) FROM hot JOIN cold ON hot.k = cold.k "
      "WHERE hot.v < 10 AND cold.v < 10");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  // hot.v<10 -> 10 rows with k=v; cold likewise; k matches pairwise once.
  EXPECT_EQ(join->batch.column(0).GetInt64(0), 10);
}

TEST(MultiStorageTest, DomainDenialBlocksQuery) {
  EngineConfig config;
  config.num_leaf_nodes = 2;
  FeisuEngine engine(config);
  engine.AddStorage("/hdfs", MakeHdfs(), true);
  engine.AddStorage("/ffs", MakeFatman());
  // ana gets HDFS only.
  engine.sso().GrantDomain("ana", "hdfs-domain");

  Schema schema({{"a", DataType::kInt64, true}});
  ASSERT_TRUE(engine.CreateTable("cold", schema, "/ffs/cold").ok());
  RecordBatch batch(schema);
  ASSERT_TRUE(batch.AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(engine.Ingest("cold", batch).ok());
  ASSERT_TRUE(engine.Flush("cold").ok());
  auto result = engine.Query("ana", "SELECT COUNT(*) FROM cold");
  EXPECT_TRUE(result.status().IsPermissionDenied());
}

// ---------- Client ----------

TEST(ClientTest, SyntaxAndAccessChecks) {
  EngineConfig config;
  config.num_leaf_nodes = 2;
  FeisuEngine engine(config);
  engine.AddStorage("/hdfs", MakeHdfs(), true);
  engine.GrantAllDomains("ana");
  Schema schema({{"a", DataType::kInt64, true}});
  ASSERT_TRUE(engine.CreateTable("t", schema, "/hdfs/t").ok());
  RecordBatch batch(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(batch.AppendRow({Value::Int64(i)}).ok());
  }
  ASSERT_TRUE(engine.Ingest("t", batch).ok());
  ASSERT_TRUE(engine.Flush("t").ok());

  FeisuClient client(&engine, "ana");
  EXPECT_TRUE(client.CheckSyntax("SELECT a FROM t").ok());
  EXPECT_FALSE(client.CheckSyntax("SELEKT a").ok());
  EXPECT_TRUE(client.Verify("SELECT a FROM nope").IsNotFound());

  auto result = client.Query("SELECT COUNT(*) FROM t WHERE a > 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.column(0).GetInt64(0), 7);
  ASSERT_EQ(client.history().size(), 1u);
  EXPECT_TRUE(client.history()[0].succeeded);
}

TEST(ClientTest, FrequentPredicatesAndPinning) {
  EngineConfig config;
  config.num_leaf_nodes = 2;
  FeisuEngine engine(config);
  engine.AddStorage("/hdfs", MakeHdfs(), true);
  engine.GrantAllDomains("ana");
  Schema schema({{"a", DataType::kInt64, true}});
  ASSERT_TRUE(engine.CreateTable("t", schema, "/hdfs/t").ok());
  RecordBatch batch(schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(batch.AppendRow({Value::Int64(i)}).ok());
  }
  ASSERT_TRUE(engine.Ingest("t", batch).ok());
  ASSERT_TRUE(engine.Flush("t").ok());

  FeisuClient client(&engine, "ana");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Query("SELECT COUNT(*) FROM t WHERE a > 50").ok());
  }
  ASSERT_TRUE(client.Query("SELECT COUNT(*) FROM t WHERE a > 7").ok());
  auto frequent = client.FrequentPredicates(1);
  ASSERT_EQ(frequent.size(), 1u);
  EXPECT_EQ(frequent[0].first, "(a > 50)");
  EXPECT_EQ(frequent[0].second, 3u);
  client.PinFrequentPredicates(1);  // smoke: marks preference on leaves
}

}  // namespace
}  // namespace feisu
