#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cluster/cluster_manager.h"
#include "cluster/entry_guard.h"
#include "cluster/job_manager.h"
#include "cluster/leaf_server.h"
#include "cluster/network.h"
#include "cluster/scheduler.h"
#include "cluster/stem_server.h"
#include "cluster/master_load.h"
#include "cluster/task.h"
#include "columnar/block.h"
#include "columnar/encoding.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "expr/normalize.h"
#include "sql/parser.h"
#include "storage/storage_factory.h"

namespace feisu {
namespace {

// ---------- NetworkModel ----------

TEST(NetworkTest, TransferScalesWithBytes) {
  NetworkModel net;
  EXPECT_GT(net.Transfer(1024 * 1024, TrafficClass::kRead),
            net.Transfer(1024, TrafficClass::kRead));
}

TEST(NetworkTest, TrafficClassPriorities) {
  NetworkModel net;
  uint64_t bytes = 10 * 1024 * 1024;
  SimTime control = net.Transfer(bytes, TrafficClass::kControl);
  SimTime write = net.Transfer(bytes, TrafficClass::kWrite);
  SimTime read = net.Transfer(bytes, TrafficClass::kRead);
  EXPECT_LT(control, write);
  EXPECT_LT(write, read);
}

// ---------- ClusterManager ----------

TEST(ClusterManagerTest, AddAndLookup) {
  ClusterManager cluster;
  uint32_t a = cluster.AddNode(false);
  uint32_t b = cluster.AddNode(true);
  EXPECT_EQ(cluster.NumNodes(), 2u);
  EXPECT_FALSE(cluster.Node(a)->is_stem);
  EXPECT_TRUE(cluster.Node(b)->is_stem);
  EXPECT_EQ(cluster.Node(99), nullptr);
}

TEST(ClusterManagerTest, HeartbeatLiveness) {
  ClusterManager cluster(5 * kSimSecond, 30 * kSimSecond);
  uint32_t node = cluster.AddNode(false);
  cluster.Heartbeat(node, 0);
  EXPECT_EQ(cluster.SweepLiveness(10 * kSimSecond), 0u);
  EXPECT_TRUE(cluster.Node(node)->alive);
  EXPECT_EQ(cluster.SweepLiveness(60 * kSimSecond), 1u);
  EXPECT_FALSE(cluster.Node(node)->alive);
  // A new heartbeat revives the node.
  cluster.Heartbeat(node, 61 * kSimSecond);
  EXPECT_TRUE(cluster.Node(node)->alive);
}

TEST(ClusterManagerTest, AliveLeafNodesExcludesDeadAndStems) {
  ClusterManager cluster;
  uint32_t leaf1 = cluster.AddNode(false);
  cluster.AddNode(true);
  uint32_t leaf2 = cluster.AddNode(false);
  cluster.MarkDead(leaf2);
  std::vector<uint32_t> alive = cluster.AliveLeafNodes();
  ASSERT_EQ(alive.size(), 1u);
  EXPECT_EQ(alive[0], leaf1);
  EXPECT_EQ(cluster.AliveCount(), 2u);
}

TEST(ClusterManagerTest, HeartbeatLoadGrowsWithNodes) {
  ClusterManager cluster;
  for (int i = 0; i < 100; ++i) cluster.AddNode(false);
  EXPECT_EQ(cluster.HeartbeatMessagesPerSweep(), 100u);
}

// ---------- JobManager ----------

TEST(JobManagerTest, JobLifecycle) {
  JobManager jobs;
  int64_t id = jobs.CreateJob("ana", "SELECT 1", 100);
  std::optional<JobInfo> job = jobs.Find(id);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->state, JobState::kQueued);
  jobs.SetState(id, JobState::kRunning, 200);
  jobs.SetState(id, JobState::kFinished, 300);
  EXPECT_EQ(jobs.Find(id)->finish_time, 300);
  EXPECT_FALSE(jobs.Find(999).has_value());
}

TEST(JobManagerTest, TaskResultReuse) {
  JobManager jobs(4);
  TaskResult result;
  result.stats.bytes_read = 777;
  jobs.CacheResult("sig1", result);
  TaskResult reused;
  EXPECT_TRUE(jobs.TryReuse("sig1", &reused));
  // Stats are zeroed on reuse (no double counting).
  EXPECT_EQ(reused.stats.bytes_read, 0u);
  EXPECT_FALSE(jobs.TryReuse("sig2", &reused));
  EXPECT_EQ(jobs.reuse_hits(), 1u);
  EXPECT_EQ(jobs.reuse_misses(), 1u);
}

TEST(JobManagerTest, ReuseCacheLruBounded) {
  JobManager jobs(2);
  TaskResult result;
  jobs.CacheResult("a", result);
  jobs.CacheResult("b", result);
  TaskResult out;
  EXPECT_TRUE(jobs.TryReuse("a", &out));  // refresh a
  jobs.CacheResult("c", result);          // evicts b
  EXPECT_TRUE(jobs.TryReuse("a", &out));
  EXPECT_FALSE(jobs.TryReuse("b", &out));
  EXPECT_TRUE(jobs.TryReuse("c", &out));
}

// ---------- EntryGuard ----------

TEST(EntryGuardTest, AdmitChecksAclAndAuth) {
  SsoAuthenticator sso;
  sso.GrantDomain("ana", "hdfs-domain");
  Catalog catalog;
  TableMeta open_table("open", Schema({{"a", DataType::kInt64, true}}));
  TableMeta restricted("vip", Schema({{"a", DataType::kInt64, true}}));
  restricted.GrantAccess("boss");
  ASSERT_TRUE(catalog.RegisterTable(open_table).ok());
  ASSERT_TRUE(catalog.RegisterTable(restricted).ok());
  EntryGuard guard(&sso, &catalog);

  EXPECT_TRUE(guard.Admit("ana", "open", 0).ok());
  EXPECT_TRUE(guard.Admit("ana", "vip", 0).status().IsPermissionDenied());
  EXPECT_TRUE(guard.Admit("ghost", "open", 0).status().IsPermissionDenied());
  EXPECT_TRUE(guard.Admit("ana", "nope", 0).status().IsNotFound());
  EXPECT_EQ(guard.admitted_count(), 1u);
  EXPECT_EQ(guard.rejected_count(), 3u);
}

TEST(EntryGuardTest, DailyQuota) {
  SsoAuthenticator sso;
  sso.GrantDomain("ana", "d");
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable(
                      TableMeta("t", Schema({{"a", DataType::kInt64, true}})))
                  .ok());
  EntryGuard guard(&sso, &catalog, /*daily_query_quota=*/2);
  EXPECT_TRUE(guard.Admit("ana", "t", 0).ok());
  EXPECT_TRUE(guard.Admit("ana", "t", kSimHour).ok());
  EXPECT_TRUE(guard.Admit("ana", "t", 2 * kSimHour)
                  .status()
                  .IsResourceExhausted());
  // Next simulated day the quota resets.
  EXPECT_TRUE(guard.Admit("ana", "t", 25 * kSimHour).ok());
}

TEST(EntryGuardTest, DomainAuthorization) {
  SsoAuthenticator sso;
  sso.GrantDomain("ana", "hdfs-domain");
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable(
                      TableMeta("t", Schema({{"a", DataType::kInt64, true}})))
                  .ok());
  EntryGuard guard(&sso, &catalog);
  auto credential = guard.Admit("ana", "t", 0);
  ASSERT_TRUE(credential.ok());
  EXPECT_TRUE(guard.AuthorizeDomain(*credential, "hdfs-domain"));
  EXPECT_FALSE(guard.AuthorizeDomain(*credential, "fatman-domain"));
}

// ---------- JobScheduler ----------

TEST(SchedulerTest, PrefersLocalReplica) {
  ClusterManager cluster;
  for (int i = 0; i < 4; ++i) cluster.AddNode(false);
  PathRouter router;
  JobScheduler scheduler(&cluster, &router, NetworkModel(), ScheduleConfig(),
                         1);
  SlotLedger ledger(1);
  Placement p = scheduler.PlaceTask({2, 3}, 4, 0, &ledger).value();
  EXPECT_TRUE(p.local);
  EXPECT_TRUE(p.node_id == 2 || p.node_id == 3);
}

TEST(SchedulerTest, FallsBackWhenReplicasDead) {
  ClusterManager cluster;
  for (int i = 0; i < 4; ++i) cluster.AddNode(false);
  cluster.MarkDead(2);
  cluster.MarkDead(3);
  PathRouter router;
  JobScheduler scheduler(&cluster, &router, NetworkModel(), ScheduleConfig(),
                         1);
  SlotLedger ledger(1);
  Placement p = scheduler.PlaceTask({2, 3}, 4, 0, &ledger).value();
  EXPECT_FALSE(p.local);
  EXPECT_TRUE(p.node_id == 0 || p.node_id == 1);
}

TEST(SchedulerTest, LoadBalancesAcrossReplicas) {
  ClusterManager cluster;
  for (int i = 0; i < 2; ++i) cluster.AddNode(false, 4, 1);
  PathRouter router;
  JobScheduler scheduler(&cluster, &router, NetworkModel(), ScheduleConfig(),
                         1);
  SlotLedger ledger(1);
  // With 1 slot per node, consecutive tasks should alternate nodes.
  Placement p1 = scheduler.PlaceTask({0, 1}, 1, 0, &ledger).value();
  scheduler.CommitTask(&p1, kSimSecond, 0, &ledger);
  Placement p2 = scheduler.PlaceTask({0, 1}, 1, 0, &ledger).value();
  scheduler.CommitTask(&p2, kSimSecond, 0, &ledger);
  EXPECT_NE(p1.node_id, p2.node_id);
}

TEST(SchedulerTest, SlotQueueingDelaysStart) {
  ClusterManager cluster;
  cluster.AddNode(false, 4, 1);  // one slot
  PathRouter router;
  JobScheduler scheduler(&cluster, &router, NetworkModel(), ScheduleConfig(),
                         1);
  SlotLedger ledger(1);
  Placement p1 = scheduler.PlaceTask({0}, 1, 0, &ledger).value();
  scheduler.CommitTask(&p1, kSimSecond, 0, &ledger);
  Placement p2 = scheduler.PlaceTask({0}, 1, 0, &ledger).value();
  scheduler.CommitTask(&p2, kSimSecond, 0, &ledger);
  EXPECT_GE(p2.start_time, p1.finish_time);
}

TEST(SchedulerTest, SlowdownFactorStretchesTasks) {
  ClusterManager cluster;
  cluster.AddNode(false);
  cluster.SetSlowdown(0, 3.0);
  PathRouter router;
  JobScheduler scheduler(&cluster, &router, NetworkModel(), ScheduleConfig(),
                         1);
  SlotLedger ledger(1);
  Placement p = scheduler.PlaceTask({0}, 4, 0, &ledger).value();
  scheduler.CommitTask(&p, kSimSecond, 0, &ledger);
  EXPECT_GE(p.finish_time - p.start_time, 3 * kSimSecond);
}

// The slot arithmetic the sorted ledger must reproduce: sort a copy of a
// node's bookings on every query, and sort-then-trim to the 64 latest once
// it holds more than 256.
struct NaiveSlots {
  std::map<uint32_t, std::vector<SimTime>> booked;

  SimTime Earliest(uint32_t node, int slots, SimTime now) const {
    auto it = booked.find(node);
    if (it == booked.end() || it->second.size() < static_cast<size_t>(slots)) {
      return now;
    }
    std::vector<SimTime> copy = it->second;
    std::sort(copy.begin(), copy.end());
    return std::max(now, copy[copy.size() - static_cast<size_t>(slots)]);
  }

  void Book(uint32_t node, SimTime finish) {
    std::vector<SimTime>& v = booked[node];
    v.push_back(finish);
    if (v.size() > 256) {
      std::sort(v.begin(), v.end());
      v.erase(v.begin(), v.end() - 64);
    }
  }
};

TEST(SchedulerTest, SortedLedgerMatchesNaiveReferencePastTrim) {
  ClusterManager cluster;
  cluster.AddNode(false, 4, 3);
  cluster.AddNode(false, 4, 3);
  PathRouter router;
  JobScheduler scheduler(&cluster, &router, NetworkModel(), ScheduleConfig(),
                         1);
  SlotLedger ledger(1);
  NaiveSlots reference;
  Rng rng(20260617);
  const int max_tasks_per_node = 3;
  SimTime now = 0;
  // Enough commits that both nodes pass the 256 trim more than once.
  for (int i = 0; i < 1500; ++i) {
    // `now` wanders backwards as well as forwards, and durations span
    // three orders of magnitude, so finish times arrive out of order.
    now = std::max<SimTime>(
        0, now + rng.NextInt64(-20, 30) * kSimMillisecond);
    SimTime duration = rng.NextInt64(1, 2000) * kSimMillisecond;
    SimTime expected_start = 0;
    uint32_t expected_node = 0;
    for (uint32_t node : {0u, 1u}) {
      SimTime start = reference.Earliest(node, max_tasks_per_node, now);
      if (node == 0 || start < expected_start) {
        expected_start = start;
        expected_node = node;
      }
    }
    Placement p =
        scheduler.PlaceTask({0, 1}, max_tasks_per_node, now, &ledger).value();
    ASSERT_EQ(p.node_id, expected_node) << "commit " << i;
    ASSERT_EQ(p.start_time, expected_start) << "commit " << i;
    scheduler.CommitTask(&p, duration, now, &ledger);
    reference.Book(p.node_id, p.finish_time);
  }
  for (uint32_t node : {0u, 1u}) {
    std::vector<SimTime> expected = reference.booked[node];
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ledger.node_slots[node], expected);
  }
}

TEST(SchedulerTest, DetectStragglersFlagsQuantileOutlier) {
  ClusterManager cluster;
  cluster.AddNode(false);
  cluster.AddNode(false);
  PathRouter router;
  ScheduleConfig config;
  config.backup_threshold = 2.0;
  config.backup_quantile = 0.5;
  JobScheduler scheduler(&cluster, &router, NetworkModel(), config, 1);

  std::vector<Placement> placements(3);
  for (auto& p : placements) {
    p.node_id = 0;
    p.start_time = 0;
    p.finish_time = kSimSecond;
  }
  placements[2].finish_time = 10 * kSimSecond;  // straggler
  std::vector<StragglerVerdict> verdicts =
      scheduler.DetectStragglers(placements);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].index, 2u);
  // Detection fires at start + threshold x median elapsed (= 2s), long
  // before the straggler would have finished on its own.
  EXPECT_EQ(verdicts[0].detect_time, 2 * kSimSecond);
}

TEST(SchedulerTest, DetectStragglersUniformRuntimesClean) {
  ClusterManager cluster;
  cluster.AddNode(false);
  PathRouter router;
  JobScheduler scheduler(&cluster, &router, NetworkModel(), ScheduleConfig(),
                         1);
  std::vector<Placement> placements(4);
  for (auto& p : placements) {
    p.start_time = 0;
    p.finish_time = kSimSecond;
  }
  EXPECT_TRUE(scheduler.DetectStragglers(placements).empty());
}

TEST(SchedulerTest, BackupDisabledByConfig) {
  ClusterManager cluster;
  cluster.AddNode(false);
  cluster.AddNode(false);
  PathRouter router;
  ScheduleConfig config;
  config.enable_backup_tasks = false;
  JobScheduler scheduler(&cluster, &router, NetworkModel(), config, 1);
  std::vector<Placement> placements(2);
  placements[0].finish_time = kSimSecond;
  placements[1].finish_time = 100 * kSimSecond;
  EXPECT_TRUE(scheduler.DetectStragglers(placements).empty());
}

TEST(SchedulerTest, FirstUsableHostPrefersReplicasThenLeaves) {
  ClusterManager cluster;
  for (int i = 0; i < 3; ++i) cluster.AddNode(false);
  PathRouter router;
  JobScheduler scheduler(&cluster, &router, NetworkModel(), ScheduleConfig(),
                         1);
  // A backup excludes its original host: the other replica wins.
  JobScheduler::HostChoice choice = scheduler.FirstUsableHost({0, 1}, 0, {0});
  ASSERT_TRUE(choice.host.has_value());
  EXPECT_EQ(*choice.host, 1u);
  EXPECT_TRUE(choice.any_alive);
  EXPECT_TRUE(choice.any_candidate);
  // Replica dead: fall back to any other alive leaf.
  cluster.MarkDead(1);
  choice = scheduler.FirstUsableHost({0, 1}, 0, {0});
  ASSERT_TRUE(choice.host.has_value());
  EXPECT_EQ(*choice.host, 2u);
  // An excluded leaf is skipped like the original.
  EXPECT_FALSE(scheduler.FirstUsableHost({0, 1}, 0, {0, 2}).host.has_value());
  // Nothing but the original left: no host, but one alive non-candidate.
  cluster.MarkDead(2);
  choice = scheduler.FirstUsableHost({0, 1}, 0, {0});
  EXPECT_FALSE(choice.host.has_value());
  EXPECT_TRUE(choice.any_alive);
  EXPECT_FALSE(choice.any_candidate);
  // Every host dead: neither flag.
  cluster.MarkDead(0);
  choice = scheduler.FirstUsableHost({0, 1}, 0, {});
  EXPECT_FALSE(choice.host.has_value());
  EXPECT_FALSE(choice.any_alive);
  EXPECT_FALSE(choice.any_candidate);
}

TEST(SchedulerTest, FirstUsableHostSkipsPartitionedHosts) {
  ClusterManager cluster;
  for (int i = 0; i < 2; ++i) cluster.AddNode(false);
  FaultConfig config;
  config.enabled = true;
  config.partitions.push_back({0, kSimSecond, 2 * kSimSecond});
  config.partitions.push_back({1, kSimSecond, 3 * kSimSecond});
  FaultInjector injector(config);
  PathRouter router;
  router.set_fault_injector(&injector);
  JobScheduler scheduler(&cluster, &router, NetworkModel(), ScheduleConfig(),
                         1);
  EXPECT_EQ(scheduler.CheckHost(0, 0, {}), JobScheduler::HostState::kUsable);
  EXPECT_EQ(scheduler.CheckHost(0, kSimSecond, {}),
            JobScheduler::HostState::kUnreachable);
  // At 1s both nodes are cut off: alive candidates, yet none usable (the
  // master waits a heartbeat for a heal).
  JobScheduler::HostChoice choice =
      scheduler.FirstUsableHost({0}, kSimSecond, {});
  EXPECT_FALSE(choice.host.has_value());
  EXPECT_TRUE(choice.any_alive);
  EXPECT_TRUE(choice.any_candidate);
  // Node 0 heals first and wins over the still-cut-off leaf.
  choice = scheduler.FirstUsableHost({1}, 2 * kSimSecond, {});
  ASSERT_TRUE(choice.host.has_value());
  EXPECT_EQ(*choice.host, 0u);
  // Placement applies the same rule: no usable host, no placement.
  SlotLedger ledger(1);
  EXPECT_FALSE(
      scheduler.PlaceTask({0, 1}, 4, kSimSecond, &ledger).has_value());
  std::optional<Placement> placed =
      scheduler.PlaceTask({1}, 4, 2 * kSimSecond, &ledger);
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(placed->node_id, 0u);
  EXPECT_FALSE(placed->local);
}

// ---------- StemServer ----------

TEST(StemServerTest, ConcatenatesRows) {
  Schema schema({{"v", DataType::kInt64, true}});
  RecordBatch a(schema);
  RecordBatch b(schema);
  ASSERT_TRUE(a.AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(2)}).ok());
  StemServer stem(0, NetworkModel());
  auto merged = stem.Merge({a, b}, {kSimSecond, 2 * kSimSecond}, nullptr);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->batch.num_rows(), 2u);
  // Finish no earlier than the slowest child plus transfer.
  EXPECT_GT(merged->finish_time, 2 * kSimSecond);
}

TEST(StemServerTest, MergesPartialAggregates) {
  Schema schema({{"v", DataType::kInt64, true}});
  AggSpec spec;
  spec.func = AggFunc::kCount;
  spec.output_name = "n";
  auto leaf1 = Aggregator::Make({}, {spec}, schema);
  auto leaf2 = Aggregator::Make({}, {spec}, schema);
  ASSERT_TRUE(leaf1.ok());
  ASSERT_TRUE(leaf2.ok());
  ASSERT_TRUE(leaf1->ConsumeCount(10).ok());
  ASSERT_TRUE(leaf2->ConsumeCount(5).ok());
  auto p1 = leaf1->PartialResult();
  auto p2 = leaf2->PartialResult();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());

  auto merger = Aggregator::Make({}, {spec}, schema);
  ASSERT_TRUE(merger.ok());
  StemServer stem(0, NetworkModel());
  auto merged = stem.Merge({*p1, *p2}, {0, 0}, &*merger);
  ASSERT_TRUE(merged.ok());
  // The stem's output is still partial state; finalize to check.
  auto final_agg = Aggregator::Make({}, {spec}, schema);
  ASSERT_TRUE(final_agg.ok());
  ASSERT_TRUE(final_agg->ConsumePartial(merged->batch).ok());
  auto result = final_agg->FinalResult();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->column(0).GetInt64(0), 15);
}

// ---------- LeafServer ----------

struct LeafFixture {
  PathRouter router;
  StorageSystem* hdfs = nullptr;
  TableBlockMeta block_meta;
  Schema schema{std::vector<Field>{{"c1", DataType::kInt64, true},
                                   {"c2", DataType::kInt64, true},
                                   {"s", DataType::kString, true}}};

  LeafFixture() {
    hdfs = router.Register("/hdfs", MakeHdfs(), true);
    hdfs->RegisterNode(0);
    RecordBatch batch(schema);
    for (int i = 0; i < 1000; ++i) {
      EXPECT_TRUE(batch
                      .AppendRow({Value::Int64(i), Value::Int64(i % 10),
                                  Value::String(i % 2 == 0 ? "even" : "odd")})
                      .ok());
    }
    ColumnarBlock block = ColumnarBlock::FromBatch(1, batch);
    std::string payload = block.Serialize();
    block_meta.block_id = 1;
    block_meta.path = "/hdfs/t/blk_0";
    block_meta.num_rows = 1000;
    block_meta.bytes = payload.size();
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      block_meta.stats.push_back(block.stats(c));
      block_meta.stats_columns.push_back(schema.field(c).name);
    }
    EXPECT_TRUE(router.Write(block_meta.path, std::move(payload)).ok());
  }

  LeafTask MakeTask(const std::string& condition,
                    std::vector<std::string> columns = {"c1"}) {
    LeafTask task;
    task.table = "t";
    task.block = block_meta;
    task.columns = std::move(columns);
    if (!condition.empty()) {
      auto stmt = ParseSql("SELECT c1 FROM t WHERE " + condition);
      EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
      task.predicate = stmt->where;
    }
    return task;
  }
};

TEST(LeafServerTest, FilteredScanCorrectness) {
  LeafFixture fixture;
  LeafServer leaf(0, &fixture.router, LeafServerConfig());
  auto result = leaf.Execute(fixture.MakeTask("c2 < 3"), 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->batch.num_rows(), 300u);
  EXPECT_EQ(result->stats.rows_matched, 300u);
  EXPECT_GT(result->stats.bytes_read, 0u);
  EXPECT_GT(result->stats.io_time, 0);
}

TEST(LeafServerTest, SecondQueryHitsSmartIndex) {
  LeafFixture fixture;
  LeafServer leaf(0, &fixture.router, LeafServerConfig());
  auto first = leaf.Execute(fixture.MakeTask("c2 < 3"), 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.index_misses, 1u);
  auto second = leaf.Execute(fixture.MakeTask("c2 < 3"), kSimSecond);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.index_direct_hits, 1u);
  EXPECT_EQ(second->stats.rows_scanned, 0u);
  EXPECT_EQ(second->batch.num_rows(), 300u);
  // Index-served predicate avoids the predicate column I/O.
  EXPECT_LT(second->stats.io_time, first->stats.io_time);
}

TEST(LeafServerTest, Fig7NegationReusesIndex) {
  LeafFixture fixture;
  LeafServer leaf(0, &fixture.router, LeafServerConfig());
  ASSERT_TRUE(leaf.Execute(fixture.MakeTask("c2 > 5"), 0).ok());
  auto result = leaf.Execute(fixture.MakeTask("NOT (c2 > 5)"), 0);
  ASSERT_TRUE(result.ok());
  // The first task materialized the `c2 <= 5` dual, so this is a direct
  // hit that never touches data.
  EXPECT_EQ(result->stats.index_direct_hits, 1u);
  EXPECT_EQ(result->stats.rows_scanned, 0u);
  EXPECT_EQ(result->batch.num_rows(), 600u);  // c2 in {0..5}
}

TEST(LeafServerTest, PureCountStarServedFromMemory) {
  LeafFixture fixture;
  LeafServer leaf(0, &fixture.router, LeafServerConfig());
  LeafTask task = fixture.MakeTask("c2 = 4", {});
  task.has_aggregate = true;
  AggSpec spec;
  spec.func = AggFunc::kCount;
  spec.output_name = "n";
  task.aggregates = {spec};
  ASSERT_TRUE(leaf.Execute(task, 0).ok());
  auto second = leaf.Execute(task, 0);
  ASSERT_TRUE(second.ok());
  // Fully index-served COUNT(*): no bytes touched at all.
  EXPECT_EQ(second->stats.bytes_read, 0u);
  EXPECT_EQ(second->stats.io_time, 0);
}

TEST(LeafServerTest, ZoneMapSkipsImpossibleBlocks) {
  LeafFixture fixture;
  LeafServer leaf(0, &fixture.router, LeafServerConfig());
  // c1 ranges 0..999; c1 > 5000 can't match.
  auto result = leaf.Execute(fixture.MakeTask("c1 > 5000"), 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.block_skipped);
  EXPECT_EQ(result->batch.num_rows(), 0u);
  EXPECT_EQ(result->stats.rows_scanned, 0u);
}

TEST(LeafServerTest, BTreeModeBuildsOnceThenProbes) {
  LeafFixture fixture;
  LeafServerConfig config;
  config.enable_smart_index = false;
  config.enable_btree_index = true;
  LeafServer leaf(0, &fixture.router, config);
  auto first = leaf.Execute(fixture.MakeTask("c2 < 3"), 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.btree_builds, 1u);
  EXPECT_EQ(first->batch.num_rows(), 300u);
  auto second = leaf.Execute(fixture.MakeTask("c2 < 7"), 0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.btree_builds, 0u);
  EXPECT_EQ(second->stats.btree_probes, 1u);
  EXPECT_EQ(second->batch.num_rows(), 700u);
}

TEST(LeafServerTest, ContainsFallsBackToScanInBTreeMode) {
  LeafFixture fixture;
  LeafServerConfig config;
  config.enable_smart_index = false;
  config.enable_btree_index = true;
  LeafServer leaf(0, &fixture.router, config);
  auto result = leaf.Execute(fixture.MakeTask("s CONTAINS 'eve'"), 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.num_rows(), 500u);
  EXPECT_GT(result->stats.rows_scanned, 0u);
}

TEST(LeafServerTest, NoPredicateReturnsAllRows) {
  LeafFixture fixture;
  LeafServer leaf(0, &fixture.router, LeafServerConfig());
  auto result = leaf.Execute(fixture.MakeTask(""), 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.num_rows(), 1000u);
}

void ExpectSameTaskStats(const TaskStats& a, const TaskStats& b) {
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.rows_matched, b.rows_matched);
  EXPECT_EQ(a.values_decoded, b.values_decoded);
  EXPECT_EQ(a.values_skipped_encoded, b.values_skipped_encoded);
  EXPECT_EQ(a.index_direct_hits, b.index_direct_hits);
  EXPECT_EQ(a.index_composed_hits, b.index_composed_hits);
  EXPECT_EQ(a.index_misses, b.index_misses);
  EXPECT_EQ(a.btree_probes, b.btree_probes);
  EXPECT_EQ(a.btree_builds, b.btree_builds);
  EXPECT_EQ(a.agg_groups, b.agg_groups);
  EXPECT_EQ(a.agg_hash_probes, b.agg_hash_probes);
  EXPECT_EQ(a.agg_rehashes, b.agg_rehashes);
  EXPECT_EQ(a.agg_null_fast_batches, b.agg_null_fast_batches);
  EXPECT_EQ(a.agg_code_domain_groups, b.agg_code_domain_groups);
  EXPECT_EQ(a.block_skipped, b.block_skipped);
  EXPECT_EQ(a.io_time, b.io_time);
  EXPECT_EQ(a.cpu_time, b.cpu_time);
}

// An unordered LIMIT leaf decodes only its first `limit` selected rows: its
// batch is the first `limit` rows of the uncapped task's, and every charge
// (values_decoded, cpu and io time) is the uncapped task's, with and
// without a predicate and with no data columns at all (row-id output).
TEST(LeafServerTest, UnorderedLimitIsPrefixOfUncappedTask) {
  LeafFixture fixture;
  const std::vector<std::string> kColumnSets[] = {{"c1"}, {"c1", "s"}, {}};
  for (const char* condition : {"", "c2 < 3", "s CONTAINS 'eve'"}) {
    for (const std::vector<std::string>& columns : kColumnSets) {
      LeafTask uncapped = fixture.MakeTask(condition, columns);
      // A fresh leaf per run, so SmartIndex warmth cannot differ.
      LeafServer reference_leaf(0, &fixture.router, LeafServerConfig());
      auto all = reference_leaf.Execute(uncapped, 0);
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      ASSERT_GT(all->batch.num_rows(), 250u) << condition;
      for (int64_t limit : {0, 1, 63, 64, 65, 250}) {
        LeafTask capped = uncapped;
        capped.limit = limit;
        LeafServer leaf(0, &fixture.router, LeafServerConfig());
        auto head = leaf.Execute(capped, 0);
        ASSERT_TRUE(head.ok()) << head.status().ToString();
        SCOPED_TRACE(std::string("WHERE ") + condition + ", " +
                     std::to_string(columns.size()) + " columns, LIMIT " +
                     std::to_string(limit));
        BitVector prefix(all->batch.num_rows(), false);
        prefix.SetRange(0, static_cast<size_t>(limit), true);
        RecordBatch expected = all->batch.Filter(prefix);
        ASSERT_EQ(head->batch.schema(), expected.schema());
        ASSERT_EQ(head->batch.num_rows(), expected.num_rows());
        for (size_t c = 0; c < expected.num_columns(); ++c) {
          EXPECT_EQ(EncodeColumnAs(head->batch.column(c), Encoding::kPlain)
                        .payload,
                    EncodeColumnAs(expected.column(c), Encoding::kPlain)
                        .payload);
        }
        ExpectSameTaskStats(head->stats, all->stats);
      }
    }
  }
}

void ExpectSameBatch(const RecordBatch& a, const RecordBatch& b) {
  ASSERT_EQ(a.schema(), b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(EncodeColumnAs(a.column(c), Encoding::kPlain).payload,
              EncodeColumnAs(b.column(c), Encoding::kPlain).payload);
  }
}

// The master keys a query's conjuncts once and every block task shares
// them; a task without them (perfbench's layered twin builds its tasks
// field by field) keys its predicate itself. Both give the same batch and
// the same stats, on a cold cache and then on the warm one.
TEST(LeafServerTest, MasterKeyedConjunctsMatchLeafKeyedOnes) {
  LeafFixture fixture;
  const std::vector<std::string> kColumnSets[] = {{"c1"}, {"c1", "s"}, {}};
  for (const char* condition :
       {"", "c2 < 3", "c2 > 0 AND NOT (c2 > 5)", "c2 = 1 OR c2 = 8",
        "s CONTAINS 'eve' AND c1 >= 100", "NOT (s CONTAINS 'od')",
        "c1 > 5000", "c2 = 3 AND c1 = 4"}) {
    for (const std::vector<std::string>& columns : kColumnSets) {
      SCOPED_TRACE(std::string("WHERE ") + condition + ", " +
                   std::to_string(columns.size()) + " columns");
      LeafTask own = fixture.MakeTask(condition, columns);
      LeafTask keyed = own;
      keyed.conjuncts = std::make_shared<const std::vector<KeyedPredicate>>(
          KeyConjuncts(keyed.predicate));
      LeafServer own_leaf(0, &fixture.router, LeafServerConfig());
      LeafServer keyed_leaf(0, &fixture.router, LeafServerConfig());
      for (SimTime now : {SimTime{0}, kSimSecond}) {  // cold, then warm
        auto a = own_leaf.Execute(own, now);
        auto b = keyed_leaf.Execute(keyed, now);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        ExpectSameBatch(a->batch, b->batch);
        ExpectSameTaskStats(a->stats, b->stats);
      }
      EXPECT_EQ(own_leaf.index_cache().stats().hits,
                keyed_leaf.index_cache().stats().hits);
      EXPECT_EQ(own_leaf.index_cache().stats().insertions,
                keyed_leaf.index_cache().stats().insertions);
    }
  }
}

// A zone-pruned or zero-match projection task builds its zero-row batch
// from the block schema. It equals what decoding through an all-false
// selection gives, for columns of every encoding and for the row-id
// output of a task with no data columns; an unknown column is NotFound.
TEST(LeafServerTest, EmptyOutputsMatchAllFalseDecode) {
  PathRouter router;
  router.Register("/hdfs", MakeHdfs(), true)->RegisterNode(0);
  Schema schema{std::vector<Field>{{"run", DataType::kInt64, true},
                                   {"small", DataType::kInt64, true},
                                   {"wide", DataType::kInt64, false},
                                   {"flag", DataType::kBool, true},
                                   {"ratio", DataType::kDouble, true},
                                   {"cat", DataType::kString, true},
                                   {"name", DataType::kString, false}}};
  RecordBatch batch(schema);
  for (int i = 0; i < 1000; ++i) {
    Value null;
    ASSERT_TRUE(batch
                    .AppendRow({Value::Int64(i / 100),
                                i % 13 == 0 ? null : Value::Int64(i % 10),
                                Value::Int64(int64_t{i} << 40),
                                Value::Bool(i < 500),
                                Value::Double(i * 0.25),
                                i % 17 == 0 ? null
                                            : Value::String(i % 3 == 0
                                                                ? "red"
                                                                : "blue"),
                                Value::String("row" + std::to_string(i))})
                    .ok());
  }
  ColumnarBlock block = ColumnarBlock::FromBatch(1, batch);
  std::set<Encoding> encodings;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    encodings.insert(block.ColumnEncoding(c));
  }
  ASSERT_EQ(encodings.size(), 4u);  // plain, RLE, dict and bit-pack
  TableBlockMeta meta;
  meta.block_id = 1;
  meta.path = "/hdfs/e/blk_0";
  meta.num_rows = 1000;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    meta.stats.push_back(block.stats(c));
    meta.stats_columns.push_back(schema.field(c).name);
  }
  std::string payload = block.Serialize();
  meta.bytes = payload.size();
  ASSERT_TRUE(router.Write(meta.path, std::move(payload)).ok());

  std::vector<std::vector<std::string>> column_sets = {{}};
  std::vector<std::string> all;
  for (const Field& f : schema.fields()) {
    column_sets.push_back({f.name});
    all.push_back(f.name);
  }
  column_sets.push_back(all);
  const BitVector none(1000, false);
  // Zone-pruned, then zero-match (each atom's range admits the block).
  for (const char* condition : {"small > 100", "small = 3 AND wide = 0"}) {
    auto stmt = ParseSql(std::string("SELECT run FROM e WHERE ") + condition);
    ASSERT_TRUE(stmt.ok());
    for (const std::vector<std::string>& columns : column_sets) {
      SCOPED_TRACE(std::string(condition) + ", " +
                   (columns.empty() ? std::string("__rowid") : columns[0]) +
                   " x" + std::to_string(columns.size()));
      LeafTask task;
      task.table = "e";
      task.block = meta;
      task.columns = columns;
      task.predicate = stmt->where;
      LeafServer leaf(0, &router, LeafServerConfig());
      auto result = leaf.Execute(task, 0);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->stats.block_skipped,
                std::string(condition) == "small > 100");
      EXPECT_EQ(result->stats.rows_matched, 0u);
      if (columns.empty()) {
        ExpectSameBatch(
            result->batch,
            RecordBatch(Schema({{"__rowid", DataType::kInt64, false}})));
        continue;
      }
      auto decoded = block.DecodeBatch(columns, &none);
      ASSERT_TRUE(decoded.ok());
      ExpectSameBatch(result->batch, *decoded);
    }
    LeafTask unknown;
    unknown.table = "e";
    unknown.block = meta;
    unknown.columns = {"run", "nope"};
    unknown.predicate = stmt->where;
    LeafServer leaf(0, &router, LeafServerConfig());
    EXPECT_TRUE(leaf.Execute(unknown, 0).status().IsNotFound());
  }
}

TEST(LeafServerTest, MissingBlockErrors) {
  LeafFixture fixture;
  LeafServer leaf(0, &fixture.router, LeafServerConfig());
  LeafTask task = fixture.MakeTask("c2 < 3");
  task.block.path = "/hdfs/nope";
  task.block.stats.clear();
  task.block.stats_columns.clear();
  EXPECT_TRUE(leaf.Execute(task, 0).status().IsNotFound());
}

TEST(LeafServerTest, SsdCacheAcceleratesRepeatedReads) {
  LeafFixture fixture;
  LeafServerConfig config;
  config.enable_smart_index = false;  // force repeated column reads
  config.ssd_capacity_bytes = 64 * 1024 * 1024;
  config.ssd_policy = CachePolicy::kLru;
  LeafServer leaf(0, &fixture.router, config);
  auto first = leaf.Execute(fixture.MakeTask("c2 < 3"), 0);
  auto second = leaf.Execute(fixture.MakeTask("c2 < 3"), 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->stats.io_time, first->stats.io_time);
  EXPECT_GT(leaf.ssd_cache()->hits(), 0u);
}

TEST(TaskTest, SignatureDistinguishesWork) {
  LeafFixture fixture;
  LeafTask a = fixture.MakeTask("c2 < 3");
  LeafTask b = fixture.MakeTask("c2 < 3");
  LeafTask c = fixture.MakeTask("c2 < 4");
  EXPECT_EQ(a.Signature(), b.Signature());
  EXPECT_NE(a.Signature(), c.Signature());
  LeafTask d = fixture.MakeTask("c2 < 3", {"c1", "c2"});
  EXPECT_NE(a.Signature(), d.Signature());
}

TEST(SchedulerTest, PlaceTaskFindsNoHostWhenAllNodesDead) {
  // With every node dead there is nowhere to book: the master then
  // declares the block lost.
  ClusterManager cluster;
  cluster.AddNode(false);
  cluster.MarkDead(0);
  PathRouter router;
  JobScheduler scheduler(&cluster, &router, NetworkModel(), ScheduleConfig(),
                         1);
  SlotLedger ledger(1);
  EXPECT_FALSE(scheduler.PlaceTask({0}, 4, 0, &ledger).has_value());
}

TEST(StemServerTest, EmptyInput) {
  StemServer stem(0, NetworkModel());
  auto merged = stem.Merge({}, {}, nullptr);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->batch.num_rows(), 0u);
  EXPECT_EQ(merged->finish_time, 0);
}

// ---------- MasterLoadModel (paper §VII) ----------

TEST(MasterLoadTest, InternalRateScalesWithWorkers) {
  MasterLoadModel model(MasterServiceLayout::Monolithic());
  EXPECT_DOUBLE_EQ(model.InternalMessageRate(2000),
                   2 * model.InternalMessageRate(1000));
  // 5s heartbeat, 1+3 messages per worker per period.
  EXPECT_DOUBLE_EQ(model.InternalMessageRate(1000), 800.0);
}

TEST(MasterLoadTest, MonolithicSaturatesNear8000Workers) {
  MasterLoadModel model(MasterServiceLayout::Monolithic());
  EXPECT_LT(model.ExternalServiceUtilization(1000, 50.0), 0.5);
  // ~8,000 workers: heavily degraded but still serving (the paper's
  // "began affecting external user experience").
  EXPECT_GT(model.ExternalServiceUtilization(8000, 50.0), 0.7);
  EXPECT_LT(model.ExternalServiceUtilization(8000, 50.0), 1.0);
  EXPECT_GE(model.ExternalServiceUtilization(15000, 50.0), 1.0);
  // Saturated service reports unbounded overhead.
  EXPECT_EQ(model.ExternalRequestOverhead(15000, 50.0, kSimMillisecond), -1);
}

TEST(MasterLoadTest, SeparationShieldsExternalRequests) {
  MasterLoadModel monolithic(MasterServiceLayout::Monolithic());
  MasterLoadModel separated(MasterServiceLayout::FullySeparated());
  // External utilization no longer grows with workers once the cluster
  // manager is split out.
  EXPECT_DOUBLE_EQ(separated.ExternalServiceUtilization(1000, 50.0),
                   separated.ExternalServiceUtilization(15000, 50.0));
  EXPECT_LT(separated.ExternalServiceUtilization(15000, 50.0),
            monolithic.ExternalServiceUtilization(15000, 50.0));
  // At 5,000 workers the monolithic master is near saturation but still
  // serving; by 8,000 it is fully saturated (ExternalRequestOverhead -1).
  SimTime mono = monolithic.ExternalRequestOverhead(8000, 50.0, 0);
  SimTime sep = separated.ExternalRequestOverhead(8000, 50.0, 0);
  ASSERT_GT(mono, 0);
  ASSERT_GT(sep, 0);
  EXPECT_GT(mono, 3 * sep);
  EXPECT_EQ(monolithic.ExternalRequestOverhead(15000, 50.0, 0), -1);
}

TEST(MasterLoadTest, SeparatedInternalBottleneckStillGrows) {
  MasterLoadModel separated(MasterServiceLayout::FullySeparated(1));
  MasterLoadModel scaled(MasterServiceLayout::FullySeparated(4));
  // The cluster-manager service itself can still saturate; horizontal
  // scaling divides its load (the paper's final evolution step).
  EXPECT_GT(separated.BottleneckUtilization(15000, 50.0),
            scaled.BottleneckUtilization(15000, 50.0));
}

TEST(MasterLoadTest, SeparationAddsRpcHops) {
  MasterLoadModel monolithic(MasterServiceLayout::Monolithic());
  MasterLoadModel separated(MasterServiceLayout::FullySeparated());
  // At trivial load the separated layout pays two extra control RTTs.
  SimTime rtt = kSimMillisecond;
  SimTime mono = monolithic.ExternalRequestOverhead(10, 1.0, rtt);
  SimTime sep = separated.ExternalRequestOverhead(10, 1.0, rtt);
  EXPECT_NEAR(static_cast<double>(sep - mono), 2.0 * rtt,
              static_cast<double>(kSimMillisecond) / 2);
}

}  // namespace
}  // namespace feisu
