// Straggler & partition tolerance suite: speculative backup tasks
// (quantile detection + first-commit-wins), deadline early termination
// with an honesty floor, injected network partitions, stem-server death
// mid-merge, and a seed-swept chaos harness over all of them. The core
// invariant matches fault_test.cc's: a query under faults either matches
// the no-fault answer exactly, or honestly reports a partial result
// (processed_ratio < 1) — never a wrong answer labeled complete.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_manager.h"
#include "cluster/network.h"
#include "common/fault_injector.h"
#include "core/engine.h"
#include "sql/parser.h"
#include "storage/storage_factory.h"
#include "tests/reference_executor.h"
#include "workload/datagen.h"

namespace feisu {
namespace {

constexpr size_t kNumBlocks = 6;
constexpr size_t kRowsPerBlock = 512;
constexpr size_t kTotalRows = kNumBlocks * kRowsPerBlock;

std::string BlockPath(size_t i) {
  return "/hdfs/t1/blk_" + std::to_string(i);
}

const char* const kChaosQueries[] = {
    "SELECT COUNT(*) FROM t1",
    "SELECT COUNT(*) FROM t1 WHERE c0 > 5",
    "SELECT c1, COUNT(*) FROM t1 GROUP BY c1",
    "SELECT SUM(c0) FROM t1 WHERE c3 < 500",
    "SELECT c0, COUNT(*) FROM t1 WHERE c2 >= 10 GROUP BY c0",
    // Row plans ride the batch-list exchange, uncapped and as an unordered
    // LIMIT (any 40 matching rows are a correct answer).
    "SELECT c0, c1 FROM t1 WHERE c3 < 500",
    "SELECT c0, c1 FROM t1 WHERE c3 < 500 LIMIT 40",
};

// Stem trees the chaos sweep runs under: the default one-level tree (4
// leaves under stem 0), and 8 leaves at stem_fanout 2, whose 4 leaf-level
// stems collapse into 2 upper-level ones.
struct StemTopology {
  size_t leaves;
  size_t stem_fanout;
};
constexpr StemTopology kStemTopologies[] = {{4, 50}, {8, 2}};

std::vector<std::string> CanonicalRowList(const RecordBatch& batch) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      Value v = batch.column(c).GetValue(r);
      if (!v.is_null() && v.type() == DataType::kDouble &&
          v.double_value() == static_cast<double>(
                                  static_cast<int64_t>(v.double_value()))) {
        row += std::to_string(static_cast<int64_t>(v.double_value()));
      } else {
        row += v.ToString();
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string CanonicalRows(const RecordBatch& batch) {
  std::string out;
  for (const auto& row : CanonicalRowList(batch)) out += row + "\n";
  return out;
}

/// 4 leaves, 6 x 512-row HDFS blocks of generated log data; `all_rows`
/// (optional) receives the ingested rows for the reference oracle and
/// `tweak` (optional) adjusts the EngineConfig before construction.
std::unique_ptr<FeisuEngine> MakeEngine(
    const FaultConfig& fault, RecordBatch* all_rows = nullptr,
    const std::function<void(EngineConfig*)>& tweak = {}) {
  EngineConfig config;
  config.num_leaf_nodes = 4;
  config.rows_per_block = kRowsPerBlock;
  config.master.enable_task_result_reuse = false;
  config.fault = fault;
  if (tweak) tweak(&config);
  auto engine = std::make_unique<FeisuEngine>(config);
  engine->AddStorage("/hdfs", MakeHdfs(), true);
  engine->GrantAllDomains("chaos");
  Schema schema = MakeLogSchema(10);
  EXPECT_TRUE(engine->CreateTable("t1", schema, "/hdfs/t1").ok());
  if (all_rows != nullptr) *all_rows = RecordBatch(schema);
  Rng rng(77);
  for (size_t b = 0; b < kNumBlocks; ++b) {
    RecordBatch rows = GenerateRows(schema, kRowsPerBlock, &rng);
    if (all_rows != nullptr) {
      EXPECT_TRUE(all_rows->Append(rows).ok());
    }
    EXPECT_TRUE(engine->Ingest("t1", rows).ok());
  }
  EXPECT_TRUE(engine->Flush("t1").ok());
  return engine;
}

std::string ReferenceRows(const ReferenceExecutor& reference,
                          const std::string& sql) {
  auto stmt = ParseSql(sql);
  EXPECT_TRUE(stmt.ok()) << sql;
  auto out = reference.Execute(*stmt);
  EXPECT_TRUE(out.ok()) << sql << ": " << out.status().ToString();
  return out.ok() ? CanonicalRows(*out) : std::string();
}

/// Checks a complete answer against the oracle. An unordered LIMIT may
/// return any `limit` matching rows, so its rows must be a sub-multiset of
/// the uncapped answer, of the capped size.
void ExpectOracleAnswer(const ReferenceExecutor& reference,
                        const std::string& sql, const RecordBatch& batch) {
  auto stmt = ParseSql(sql);
  ASSERT_TRUE(stmt.ok()) << sql;
  if (stmt->limit < 0 || !stmt->order_by.empty()) {
    EXPECT_EQ(CanonicalRows(batch), ReferenceRows(reference, sql)) << sql;
    return;
  }
  SelectStatement uncapped = *stmt;
  uncapped.limit = -1;
  auto all = reference.Execute(uncapped);
  ASSERT_TRUE(all.ok()) << sql << ": " << all.status().ToString();
  std::vector<std::string> got = CanonicalRowList(batch);
  std::vector<std::string> want = CanonicalRowList(*all);
  EXPECT_EQ(got.size(),
            std::min(want.size(), static_cast<size_t>(stmt->limit)))
      << sql;
  EXPECT_TRUE(std::includes(want.begin(), want.end(), got.begin(), got.end()))
      << sql;
}

// ---------- Slow-node injection unit tests ----------

TEST(SlowNodeInjection, IdentityWithoutEntryOrWhenDisabled) {
  FaultConfig config;
  config.enabled = true;
  config.slow_nodes.push_back({2, 8.0, 10 * kSimMillisecond});
  FaultInjector injector(config);
  SlowNodeProfile other = injector.NodeSlowProfile(1, /*count=*/true);
  EXPECT_DOUBLE_EQ(other.latency_multiplier, 1.0);
  EXPECT_EQ(other.stall, 0);
  EXPECT_EQ(injector.stats().slowed_tasks, 0u);

  config.enabled = false;
  injector.Configure(config);
  SlowNodeProfile off = injector.NodeSlowProfile(2, /*count=*/true);
  EXPECT_DOUBLE_EQ(off.latency_multiplier, 1.0);
  EXPECT_EQ(off.stall, 0);
  EXPECT_EQ(injector.stats().slowed_tasks, 0u);
}

TEST(SlowNodeInjection, ProfileAppliesAndCountsDegradedCommits) {
  FaultConfig config;
  config.enabled = true;
  config.slow_nodes.push_back({2, 8.0, 10 * kSimMillisecond});
  FaultInjector injector(config);
  SlowNodeProfile slow = injector.NodeSlowProfile(2, /*count=*/true);
  EXPECT_EQ(slow.node_id, 2u);
  EXPECT_DOUBLE_EQ(slow.latency_multiplier, 8.0);
  EXPECT_EQ(slow.stall, 10 * kSimMillisecond);
  // Probes without `count` (placement decisions) do not inflate stats.
  (void)injector.NodeSlowProfile(2);
  EXPECT_EQ(injector.stats().slowed_tasks, 1u);
}

// ---------- Partition injection unit tests ----------

TEST(PartitionInjection, WindowAndOpenEndedSemantics) {
  FaultConfig config;
  config.enabled = true;
  config.partitions.push_back({1, 5 * kSimSecond, 10 * kSimSecond});
  config.partitions.push_back({2, 3 * kSimSecond, 0});  // never heals
  FaultInjector injector(config);
  EXPECT_FALSE(injector.IsPartitioned(1, 0));
  EXPECT_TRUE(injector.IsPartitioned(1, 5 * kSimSecond));
  EXPECT_TRUE(injector.IsPartitioned(1, 7 * kSimSecond));
  EXPECT_FALSE(injector.IsPartitioned(1, 10 * kSimSecond));  // healed
  EXPECT_FALSE(injector.IsPartitioned(2, kSimSecond));
  EXPECT_TRUE(injector.IsPartitioned(2, kSimHour));  // open-ended
  EXPECT_FALSE(injector.IsPartitioned(0, 7 * kSimSecond));  // no spec

  FaultConfig disabled = config;
  disabled.enabled = false;
  injector.Configure(disabled);
  EXPECT_FALSE(injector.IsPartitioned(1, 7 * kSimSecond));
  EXPECT_FALSE(
      injector.PartitionedWithin(1, 0, 20 * kSimSecond).has_value());
}

TEST(PartitionInjection, PartitionedWithinFindsEarliestCut) {
  FaultConfig config;
  config.enabled = true;
  config.partitions.push_back({1, 5 * kSimSecond, 10 * kSimSecond});
  FaultInjector injector(config);
  // Task spanning the partition start is cut the moment it begins.
  auto cut = injector.PartitionedWithin(1, 0, 20 * kSimSecond);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, 5 * kSimSecond);
  // A task starting inside the window is cut right after it starts.
  cut = injector.PartitionedWithin(1, 6 * kSimSecond, 20 * kSimSecond);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, 6 * kSimSecond + 1);
  // After the heal the window never bites.
  EXPECT_FALSE(injector.PartitionedWithin(1, 12 * kSimSecond, 20 * kSimSecond)
                   .has_value());
  // Other nodes are untouched.
  EXPECT_FALSE(
      injector.PartitionedWithin(0, 0, 20 * kSimSecond).has_value());
}

TEST(PartitionInjection, ReachabilityFoldsTheSchedule) {
  Reachability open(nullptr);
  EXPECT_TRUE(open.Reachable(0, 0));

  FaultConfig config;
  config.enabled = true;
  config.partitions.push_back({3, kSimSecond, 2 * kSimSecond});
  FaultInjector injector(config);
  Reachability reach(&injector);
  EXPECT_TRUE(reach.Reachable(3, 0));
  EXPECT_FALSE(reach.Reachable(3, kSimSecond));
  EXPECT_TRUE(reach.Reachable(3, 2 * kSimSecond));
  EXPECT_TRUE(reach.Reachable(0, kSimSecond));
}

// ---------- Stem-death injection unit tests ----------

TEST(StemDeathInjection, ReplaysScheduleIndependentlyOfNodeEvents) {
  FaultConfig config;
  config.enabled = true;
  config.stem_events.push_back({5 * kSimSecond, 0, true});
  config.stem_events.push_back({8 * kSimSecond, 0, false});
  config.node_events.push_back({kSimSecond, 0, true});
  FaultInjector injector(config);
  // The stem schedule sees the stem outage only.
  auto crash = injector.StemCrashWithin(0, 0, 10 * kSimSecond);
  ASSERT_TRUE(crash.has_value());
  EXPECT_EQ(*crash, 5 * kSimSecond);
  // Recovered before this merge window opens: no crash observed.
  EXPECT_FALSE(injector.StemCrashWithin(0, 9 * kSimSecond, 20 * kSimSecond)
                   .has_value());
  // Other stem ids are untouched, and the node schedule stays separate:
  // node 0's crash at 1s is not a stem death.
  EXPECT_FALSE(
      injector.StemCrashWithin(1, 0, 10 * kSimSecond).has_value());
  auto node_crash = injector.CrashWithin(0, 0, 10 * kSimSecond);
  ASSERT_TRUE(node_crash.has_value());
  EXPECT_EQ(*node_crash, kSimSecond);
}

// ---------- Speculative backup tasks end-to-end ----------

// One leaf is degraded 10x plus a long stall; the master must notice the
// straggling tasks, launch backups on another replica, and serve the
// exact answer sooner than a speculation-free run — with the accounting
// to prove it.
TEST(StragglerSuite, SlowNodeBackupRescuesStragglers) {
  RecordBatch all_rows;
  auto with = MakeEngine(FaultConfig(), &all_rows);
  auto without = MakeEngine(FaultConfig(), nullptr,
                            [](EngineConfig* config) {
                              config->master.schedule.enable_backup_tasks =
                                  false;
                            });
  uint32_t victim = with->router().ReplicaNodes(BlockPath(0))[0];
  FaultConfig fault;
  fault.enabled = true;
  fault.slow_nodes.push_back({victim, 10.0, 500 * kSimMillisecond});
  with->fault_injector().Configure(fault);
  without->fault_injector().Configure(fault);
  ReferenceExecutor reference;
  reference.AddTable("t1", all_rows);

  const std::string sql = "SELECT c1, COUNT(*) FROM t1 GROUP BY c1";
  auto rescued = with->Query("chaos", sql);
  auto straggled = without->Query("chaos", sql);
  ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
  ASSERT_TRUE(straggled.ok()) << straggled.status().ToString();

  // Detection, launch and first-commit-wins all fired.
  EXPECT_GE(rescued->stats.straggler_tasks, 1u);
  EXPECT_GE(rescued->stats.backup_tasks_launched, 1u);
  EXPECT_GE(rescued->stats.backup_tasks_won, 1u);
  EXPECT_GE(with->fault_injector().stats().slowed_tasks, 1u);
  // The speculation-free twin saw the same stragglers but no backups.
  EXPECT_GE(straggled->stats.straggler_tasks, 1u);
  EXPECT_EQ(straggled->stats.backup_tasks_launched, 0u);
  EXPECT_EQ(straggled->stats.backup_tasks_won, 0u);
  // Speculation bought real simulated latency.
  EXPECT_LT(rescued->stats.response_time, straggled->stats.response_time);
  // ... without touching the bytes: both match the oracle exactly.
  std::string expected = ReferenceRows(reference, sql);
  EXPECT_EQ(CanonicalRows(rescued->batch), expected);
  EXPECT_EQ(CanonicalRows(straggled->batch), expected);
  EXPECT_FALSE(rescued->stats.partial);
  EXPECT_DOUBLE_EQ(rescued->stats.processed_ratio, 1.0);

  // The stats report and the job record carry the speculation history.
  std::string report = FormatQueryStats(rescued->stats);
  EXPECT_NE(report.find("speculation:"), std::string::npos);
  EXPECT_NE(report.find("backups launched"), std::string::npos);
  std::optional<JobInfo> job = with->master().job_manager().Find(1);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->recovery.backup_tasks_launched,
            rescued->stats.backup_tasks_launched);
  EXPECT_EQ(job->recovery.backup_tasks_won, rescued->stats.backup_tasks_won);
}

// ---------- Deadline early termination end-to-end ----------

// A stalled node pushes some tasks past the response deadline: the master
// returns early with an honestly-labeled partial whose processed_ratio
// matches the rows actually committed (cross-checked via COUNT(*)
// against the reference oracle's full count).
TEST(StragglerSuite, DeadlineTerminationReportsHonestRatio) {
  RecordBatch all_rows;
  auto engine = MakeEngine(FaultConfig(), &all_rows,
                           [](EngineConfig* config) {
                             config->master.schedule.enable_backup_tasks =
                                 false;
                             config->master.response_deadline =
                                 200 * kSimMillisecond;
                           });
  uint32_t victim = engine->router().ReplicaNodes(BlockPath(0))[0];
  FaultConfig fault;
  fault.enabled = true;
  fault.slow_nodes.push_back({victim, 1.0, 2 * kSimSecond});
  engine->fault_injector().Configure(fault);
  ReferenceExecutor reference;
  reference.AddTable("t1", all_rows);

  auto result = engine->Query("chaos", "SELECT COUNT(*) FROM t1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.partial);
  EXPECT_GE(result->stats.tasks_terminated_early, 1u);
  // No ratio target was set: every abandonment came from the deadline.
  EXPECT_EQ(result->stats.tasks_terminated_early,
            result->stats.abandoned_tasks);
  EXPECT_EQ(result->stats.lost_blocks, 0u);
  EXPECT_LT(result->stats.processed_ratio, 1.0);
  EXPECT_GT(result->stats.processed_ratio, 0.0);

  // Honesty: the partial COUNT equals ratio x the oracle's full count
  // (every block holds the same number of rows).
  auto stmt = ParseSql("SELECT COUNT(*) FROM t1");
  ASSERT_TRUE(stmt.ok());
  auto full = reference.Execute(*stmt);
  ASSERT_TRUE(full.ok());
  int64_t full_count = full->column(0).GetInt64(0);
  ASSERT_EQ(full_count, static_cast<int64_t>(kTotalRows));
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.column(0).GetInt64(0),
            std::llround(result->stats.processed_ratio *
                         static_cast<double>(full_count)));

  std::string report = FormatQueryStats(result->stats);
  EXPECT_NE(report.find("by deadline"), std::string::npos);
  std::optional<JobInfo> job = engine->master().job_manager().Find(1);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->recovery.tasks_terminated_early,
            result->stats.tasks_terminated_early);
  EXPECT_DOUBLE_EQ(job->recovery.processed_ratio,
                   result->stats.processed_ratio);
}

// ratio == 1.0 boundary, both ways: a deadline nothing exceeds leaves the
// result complete, and min_processed_ratio = 1.0 forces completeness even
// under an absurdly tight deadline (the floor outranks the clock).
TEST(StragglerSuite, RatioOneBoundaryKeepsResultComplete) {
  for (bool via_floor : {false, true}) {
    RecordBatch all_rows;
    auto engine = MakeEngine(
        FaultConfig(), &all_rows, [via_floor](EngineConfig* config) {
          config->master.schedule.enable_backup_tasks = false;
          if (via_floor) {
            config->master.response_deadline = 1;  // 1 ns: cuts everything
            config->master.min_processed_ratio = 1.0;  // ... but may not
          } else {
            config->master.response_deadline = kSimHour;
          }
        });
    uint32_t victim = engine->router().ReplicaNodes(BlockPath(0))[0];
    FaultConfig fault;
    fault.enabled = true;
    fault.slow_nodes.push_back({victim, 1.0, 2 * kSimSecond});
    engine->fault_injector().Configure(fault);
    ReferenceExecutor reference;
    reference.AddTable("t1", all_rows);

    auto result = engine->Query("chaos", "SELECT COUNT(*) FROM t1");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->stats.partial) << "via_floor=" << via_floor;
    EXPECT_DOUBLE_EQ(result->stats.processed_ratio, 1.0);
    EXPECT_EQ(result->stats.tasks_terminated_early, 0u);
    EXPECT_EQ(result->stats.abandoned_tasks, 0u);
    ASSERT_EQ(result->batch.num_rows(), 1u);
    EXPECT_EQ(result->batch.column(0).GetInt64(0),
              static_cast<int64_t>(kTotalRows));
  }
}

// The honesty floor: a 1 ns deadline would cut everything, but
// min_processed_ratio = 0.5 makes the master wait for at least half the
// tasks before answering.
TEST(StragglerSuite, MinRatioFloorHoldsPastTheDeadline) {
  RecordBatch all_rows;
  auto engine = MakeEngine(FaultConfig(), &all_rows,
                           [](EngineConfig* config) {
                             config->master.schedule.enable_backup_tasks =
                                 false;
                             config->master.response_deadline = 1;
                             config->master.min_processed_ratio = 0.5;
                           });
  uint32_t victim = engine->router().ReplicaNodes(BlockPath(0))[0];
  FaultConfig fault;
  fault.enabled = true;
  fault.slow_nodes.push_back({victim, 1.0, 2 * kSimSecond});
  engine->fault_injector().Configure(fault);

  auto result = engine->Query("chaos", "SELECT COUNT(*) FROM t1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.partial);
  EXPECT_GE(result->stats.processed_ratio, 0.5);
  EXPECT_LT(result->stats.processed_ratio, 1.0);
  EXPECT_GE(result->stats.tasks_terminated_early, 1u);
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.column(0).GetInt64(0),
            std::llround(result->stats.processed_ratio *
                         static_cast<double>(kTotalRows)));
}

// The planned processed_ratio target is a different axis from deadline
// termination: it abandons tasks but must not count them as deadline
// kills.
TEST(StragglerSuite, RatioTargetIsNotDeadlineTermination) {
  auto engine = MakeEngine(FaultConfig(), nullptr,
                           [](EngineConfig* config) {
                             config->master.schedule.enable_backup_tasks =
                                 false;
                             config->master.processed_ratio = 0.5;
                           });
  uint32_t victim = engine->router().ReplicaNodes(BlockPath(0))[0];
  FaultConfig fault;
  fault.enabled = true;
  fault.slow_nodes.push_back({victim, 1.0, 2 * kSimSecond});
  engine->fault_injector().Configure(fault);

  auto result = engine->Query("chaos", "SELECT COUNT(*) FROM t1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.partial);
  EXPECT_GE(result->stats.abandoned_tasks, 1u);
  EXPECT_EQ(result->stats.tasks_terminated_early, 0u);
}

// ---------- Network partitions end-to-end ----------

// A partition cuts a leaf off mid-task: the task is rescheduled on a
// reachable replica after a heartbeat interval, the node is never
// declared dead (its process is fine), and the answer stays exact.
TEST(PartitionSuite, MidTaskPartitionRetriesOnAnotherReplica) {
  RecordBatch all_rows;
  auto engine = MakeEngine(FaultConfig(), &all_rows);
  uint32_t victim = engine->router().ReplicaNodes(BlockPath(0))[0];
  FaultConfig fault;
  fault.enabled = true;
  fault.partitions.push_back({victim, 1, 0});  // from t=1 ns, never heals
  engine->fault_injector().Configure(fault);
  ReferenceExecutor reference;
  reference.AddTable("t1", all_rows);

  const std::string sql = "SELECT SUM(c0) FROM t1 WHERE c3 < 500";
  auto result = engine->Query("chaos", sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->stats.partitioned_tasks, 1u);
  EXPECT_GE(result->stats.task_retries, 1u);
  EXPECT_EQ(result->stats.failed_nodes, 0u);
  EXPECT_EQ(result->stats.lost_blocks, 0u);
  EXPECT_FALSE(result->stats.partial);
  EXPECT_EQ(CanonicalRows(result->batch), ReferenceRows(reference, sql));
  // Alive-but-unreachable: the cluster manager never marked it dead.
  const NodeInfo* node = engine->cluster().Node(victim);
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->alive);
  std::string report = FormatQueryStats(result->stats);
  EXPECT_NE(report.find("partition-hit"), std::string::npos);
  std::optional<JobInfo> job = engine->master().job_manager().Find(1);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->recovery.partitioned_tasks,
            result->stats.partitioned_tasks);

  // A later query sees the partition up front: placement simply avoids
  // the unreachable node, so nothing is cut mid-task.
  auto rerouted = engine->Query("chaos", sql);
  ASSERT_TRUE(rerouted.ok()) << rerouted.status().ToString();
  EXPECT_EQ(rerouted->stats.partitioned_tasks, 0u);
  EXPECT_EQ(CanonicalRows(rerouted->batch), ReferenceRows(reference, sql));
}

// A long partition starves the heartbeat path until the sweep declares
// the node dead; because suppression (not a crash) caused it, the first
// heartbeat after the heal revives the node. Queries stay exact
// throughout.
TEST(PartitionSuite, SweepKillsAndHealRevivesThroughMaintenance) {
  RecordBatch all_rows;
  auto engine = MakeEngine(FaultConfig(), &all_rows);
  uint32_t victim = engine->router().ReplicaNodes(BlockPath(0))[0];
  FaultConfig fault;
  fault.enabled = true;
  fault.partitions.push_back({victim, 10 * kSimSecond, 70 * kSimSecond});
  engine->fault_injector().Configure(fault);
  ReferenceExecutor reference;
  reference.AddTable("t1", all_rows);

  engine->RunMaintenance(5 * kSimSecond);
  EXPECT_TRUE(engine->cluster().Node(victim)->alive);
  // Heartbeats at 15..40s are all suppressed; by 45s the node has been
  // silent past dead_after (30s) and the sweep declares it dead.
  for (SimTime t = 15 * kSimSecond; t <= 45 * kSimSecond;
       t += 5 * kSimSecond) {
    engine->RunMaintenance(t);
  }
  EXPECT_FALSE(engine->cluster().Node(victim)->alive);

  const std::string sql = "SELECT COUNT(*) FROM t1 WHERE c0 > 5";
  auto during = engine->QueryAt("chaos", sql, 50 * kSimSecond);
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_FALSE(during->stats.partial);
  EXPECT_EQ(CanonicalRows(during->batch), ReferenceRows(reference, sql));

  // First maintenance round after the heal: the backlog of heartbeats
  // flows again and the node comes back.
  engine->RunMaintenance(75 * kSimSecond);
  EXPECT_TRUE(engine->cluster().Node(victim)->alive);
  auto after = engine->QueryAt("chaos", sql, 80 * kSimSecond);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->stats.partial);
  EXPECT_EQ(CanonicalRows(after->batch), ReferenceRows(reference, sql));
}

// ---------- Stem-server death end-to-end ----------

// The primary stem dies mid-merge on every attempt window; a replacement
// stem redoes the merge from the children's resent partials and the
// answer stays exact and complete.
TEST(StemDeathSuite, StemDeathRetriesOnReplacementStem) {
  RecordBatch all_rows;
  auto engine = MakeEngine(FaultConfig(), &all_rows);
  FaultConfig fault;
  fault.enabled = true;
  // Stem 0 (all 4 leaves with the default fanout) is down from t=1 ns
  // and never recovers: every merge window it owns overlaps the outage.
  fault.stem_events.push_back({1, 0, true});
  engine->fault_injector().Configure(fault);
  ReferenceExecutor reference;
  reference.AddTable("t1", all_rows);

  const std::string sql = "SELECT c1, COUNT(*) FROM t1 GROUP BY c1";
  auto result = engine->Query("chaos", sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->stats.stem_failures, 1u);
  EXPECT_GE(result->stats.stem_retries, 1u);
  EXPECT_FALSE(result->stats.partial);
  EXPECT_DOUBLE_EQ(result->stats.processed_ratio, 1.0);
  EXPECT_EQ(CanonicalRows(result->batch), ReferenceRows(reference, sql));
  std::string report = FormatQueryStats(result->stats);
  EXPECT_NE(report.find("stem deaths"), std::string::npos);
  std::optional<JobInfo> job = engine->master().job_manager().Find(1);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->recovery.stem_retries, result->stats.stem_retries);
}

// A replacement stem merges the resent partials exactly as the original
// would have: the answer bytes, in output order, and the hash probes of
// the one merge that stands match a run without deaths.
TEST(StemDeathSuite, ReplacementStemMergeMatchesDeathFreeRun) {
  auto healthy = MakeEngine(FaultConfig());
  auto doomed = MakeEngine(FaultConfig());
  FaultConfig fault;
  fault.enabled = true;
  // Stem 0 is down for good; the first replacement stays up.
  fault.stem_events.push_back({1, 0, true});
  doomed->fault_injector().Configure(fault);

  const std::string sql = "SELECT c1, COUNT(*), SUM(c0) FROM t1 GROUP BY c1";
  auto want = healthy->Query("chaos", sql);
  auto got = doomed->Query("chaos", sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(want->stats.stem_failures, 0u);
  EXPECT_EQ(got->stats.stem_failures, 1u);
  EXPECT_EQ(got->stats.stem_retries, 1u);
  EXPECT_FALSE(got->stats.partial);
  auto rows_in_order = [](const RecordBatch& batch) {
    std::string out;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        out += batch.column(c).GetValue(r).ToString() + "|";
      }
      out += "\n";
    }
    return out;
  };
  ASSERT_GT(want->batch.num_rows(), 1u);
  EXPECT_EQ(rows_in_order(got->batch), rows_in_order(want->batch));
  EXPECT_GT(want->stats.leaf.agg_hash_probes, 0u);
  EXPECT_EQ(got->stats.leaf.agg_hash_probes,
            want->stats.leaf.agg_hash_probes);
}

// Every replacement dies too: the subtree's partials are lost and the
// job degrades to an honest partial instead of lying or failing.
TEST(StemDeathSuite, AllReplacementsDeadDegradesHonestly) {
  auto engine = MakeEngine(FaultConfig());
  FaultConfig fault;
  fault.enabled = true;
  fault.stem_events.push_back({1, 0, true});
  // Replacement ids are handed out from a reserved range in merge order;
  // killing the first max_task_retries of them exhausts every attempt.
  fault.stem_events.push_back({1, 0xC0000000u, true});
  fault.stem_events.push_back({1, 0xC0000001u, true});
  fault.stem_events.push_back({1, 0xC0000002u, true});
  engine->fault_injector().Configure(fault);

  auto result = engine->Query("chaos", "SELECT c1, COUNT(*) FROM t1 GROUP BY c1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Four attempts (original + 3 replacements), all fatal.
  EXPECT_EQ(result->stats.stem_failures, 4u);
  EXPECT_EQ(result->stats.stem_retries, 3u);
  EXPECT_TRUE(result->stats.partial);
  EXPECT_DOUBLE_EQ(result->stats.processed_ratio, 0.0);
  EXPECT_EQ(result->stats.abandoned_tasks, result->stats.total_tasks);
  EXPECT_EQ(result->batch.num_rows(), 0u);
}

// ---------- Seed-swept chaos soak ----------

// Mixed chaos derived from the sweep seed: one degraded node, one short
// partition, transient read errors, light corruption, a doomed primary
// stem, speculation on, and a deadline with a 0.5 honesty floor, under each
// of kStemTopologies. Twin engines replay the same seed. The invariant, per
// query:
//   - full results are byte-identical to the reference oracle (an
//     unordered LIMIT: `limit` of the oracle's rows);
//   - partials are honest (ratio < 1, consistent with the abandoned/lost
//     accounting, COUNT(*) matching the committed rows) and the deadline
//     alone never cuts below the floor — only genuine data loss can;
//   - the twin replays byte-identically, counter for counter.
class ChaosSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSweep, FullOrHonestPartialAcrossMixedFaults) {
  const uint64_t seed = GetParam();
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = seed;
  fault.default_profile.read_error_rate = 0.15;
  fault.default_profile.corruption_rate = 0.05;
  fault.slow_nodes.push_back(
      {static_cast<uint32_t>(seed % 4), 3.0 + static_cast<double>(seed % 3),
       static_cast<SimTime>(seed % 5) * kSimSecond});
  fault.partitions.push_back({static_cast<uint32_t>((seed + 1) % 4),
                              kSimMillisecond, 11 * kSimMillisecond});
  fault.stem_events.push_back({1, 0, true});

  for (const StemTopology& topology : kStemTopologies) {
    SCOPED_TRACE("leaves " + std::to_string(topology.leaves) +
                 ", stem_fanout " + std::to_string(topology.stem_fanout));
    auto tweak = [&topology](EngineConfig* config) {
      config->num_leaf_nodes = topology.leaves;
      config->master.stem_fanout = topology.stem_fanout;
      config->master.response_deadline = 2 * kSimSecond;
      config->master.min_processed_ratio = 0.5;
    };
    RecordBatch all_rows;
    auto engine = MakeEngine(fault, &all_rows, tweak);
    auto twin = MakeEngine(fault, nullptr, tweak);
    ReferenceExecutor reference;
    reference.AddTable("t1", all_rows);

    for (const char* sql : kChaosQueries) {
      auto a = engine->Query("chaos", sql);
      auto b = twin->Query("chaos", sql);
      ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
      const QueryStats& stats = a->stats;
      if (!stats.partial) {
        EXPECT_DOUBLE_EQ(stats.processed_ratio, 1.0) << sql;
        ExpectOracleAnswer(reference, sql, a->batch);
      } else {
        EXPECT_LT(stats.processed_ratio, 1.0) << sql;
        // Self-consistency with the task accounting.
        ASSERT_GT(stats.total_tasks, 0u) << sql;
        EXPECT_DOUBLE_EQ(
            stats.processed_ratio,
            1.0 - static_cast<double>(stats.abandoned_tasks +
                                      stats.lost_blocks) /
                      static_cast<double>(stats.total_tasks))
            << sql;
        // The deadline honors the floor; only real data loss may go lower.
        if (stats.lost_blocks == 0 && stats.stem_failures == 0) {
          EXPECT_GE(stats.processed_ratio, 0.5) << sql;
        }
        // Committed-row honesty on the plain count.
        if (std::string(sql) == "SELECT COUNT(*) FROM t1" &&
            a->batch.num_rows() == 1) {
          EXPECT_EQ(a->batch.column(0).GetInt64(0),
                    std::llround(stats.processed_ratio *
                                 static_cast<double>(kTotalRows)))
              << sql;
        }
      }
      // Twin determinism: bytes and accounting replay identically.
      EXPECT_EQ(CanonicalRows(a->batch), CanonicalRows(b->batch)) << sql;
      EXPECT_EQ(stats.response_time, b->stats.response_time) << sql;
      EXPECT_EQ(stats.backup_tasks_launched, b->stats.backup_tasks_launched)
          << sql;
      EXPECT_EQ(stats.backup_tasks_won, b->stats.backup_tasks_won) << sql;
      EXPECT_EQ(stats.tasks_terminated_early, b->stats.tasks_terminated_early)
          << sql;
      EXPECT_EQ(stats.partitioned_tasks, b->stats.partitioned_tasks) << sql;
      EXPECT_EQ(stats.stem_failures, b->stats.stem_failures) << sql;
      EXPECT_EQ(stats.stem_retries, b->stats.stem_retries) << sql;
      EXPECT_EQ(stats.abandoned_tasks, b->stats.abandoned_tasks) << sql;
      EXPECT_EQ(stats.lost_blocks, b->stats.lost_blocks) << sql;
      EXPECT_EQ(stats.partial, b->stats.partial) << sql;
      EXPECT_DOUBLE_EQ(stats.processed_ratio, b->stats.processed_ratio)
          << sql;
    }
    const FaultStats fa = engine->fault_injector().stats();
    const FaultStats fb = twin->fault_injector().stats();
    EXPECT_EQ(fa.injected_read_errors, fb.injected_read_errors);
    EXPECT_EQ(fa.injected_corrupt_reads, fb.injected_corrupt_reads);
    EXPECT_EQ(fa.slowed_tasks, fb.slowed_tasks);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Range<uint64_t>(1, 33));

// ---------- Parallel leaf path under chaos (TSan target) ----------

// The same mixed-fault schedule with leaf_parallelism > 1: pool workers
// race over the leaf caches while the commit phase stays ordered. Run
// under TSan in CI; here we assert the invariant and determinism.
TEST(StragglerSuite, ParallelLeafPathKeepsInvariantUnderChaos) {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 11;
  fault.default_profile.read_error_rate = 0.1;
  fault.slow_nodes.push_back({0, 6.0, 100 * kSimMillisecond});
  fault.partitions.push_back({1, kSimMillisecond, 11 * kSimMillisecond});
  fault.stem_events.push_back({1, 0, true});
  auto tweak = [](EngineConfig* config) {
    config->master.leaf_parallelism = 3;
  };
  RecordBatch all_rows;
  auto engine = MakeEngine(fault, &all_rows, tweak);
  auto twin = MakeEngine(fault, nullptr, tweak);
  ReferenceExecutor reference;
  reference.AddTable("t1", all_rows);

  for (const char* sql : kChaosQueries) {
    auto a = engine->Query("chaos", sql);
    auto b = twin->Query("chaos", sql);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    if (!a->stats.partial) {
      ExpectOracleAnswer(reference, sql, a->batch);
    } else {
      EXPECT_LT(a->stats.processed_ratio, 1.0) << sql;
    }
    EXPECT_EQ(CanonicalRows(a->batch), CanonicalRows(b->batch)) << sql;
    EXPECT_EQ(a->stats.partial, b->stats.partial) << sql;
    EXPECT_DOUBLE_EQ(a->stats.processed_ratio, b->stats.processed_ratio)
        << sql;
  }
}

}  // namespace
}  // namespace feisu
