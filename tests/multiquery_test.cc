// Multi-query master: priority admission, tenant quotas, fair leaf
// sharing, backpressure, and the determinism contract (a query's result
// bytes are independent of what else is in flight). The whole binary runs
// in the TSan chaos lane, so every assertion here doubles as a race probe.
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/entry_guard.h"
#include "cluster/job_manager.h"
#include "cluster/scheduler.h"
#include "columnar/block.h"
#include "common/rng.h"
#include "core/engine.h"
#include "storage/storage_factory.h"
#include "workload/datagen.h"

namespace feisu {
namespace {

// ---------- JobManager: priority bands, FIFO, aging ----------

TEST(JobManagerPriorityTest, HigherBandFirstFifoWithin) {
  JobManager jm;
  jm.set_starvation_boost_interval(0);  // plain priority order
  int64_t low = jm.CreateJob("ana", "q1", 0, /*priority=*/0);
  int64_t hi_a = jm.CreateJob("ana", "q2", 0, /*priority=*/2);
  int64_t hi_b = jm.CreateJob("bob", "q3", 0, /*priority=*/2);
  int64_t mid = jm.CreateJob("ana", "q4", 0, /*priority=*/1);
  for (int64_t id : {low, hi_a, hi_b, mid}) jm.EnqueueJob(id);
  EXPECT_EQ(jm.QueueDepth(), 4u);

  auto always = [](const JobInfo&) { return true; };
  EXPECT_EQ(jm.PopRunnable(always), hi_a);  // highest band
  EXPECT_EQ(jm.PopRunnable(always), hi_b);  // FIFO within the band
  EXPECT_EQ(jm.PopRunnable(always), mid);
  EXPECT_EQ(jm.PopRunnable(always), low);
  EXPECT_FALSE(jm.PopRunnable(always).has_value());
  EXPECT_EQ(jm.QueueDepth(), 0u);
}

TEST(JobManagerPriorityTest, AgingBoostServesOldestEveryNthPop) {
  JobManager jm;
  jm.set_starvation_boost_interval(2);
  int64_t starved = jm.CreateJob("ana", "old", 0, /*priority=*/0);
  std::vector<int64_t> highs;
  for (int i = 0; i < 4; ++i) {
    highs.push_back(jm.CreateJob("bob", "hi", 0, /*priority=*/2));
  }
  jm.EnqueueJob(starved);
  for (int64_t id : highs) jm.EnqueueJob(id);

  auto always = [](const JobInfo&) { return true; };
  // Pop 1 is normal (highest band); pop 2 is the aging boost and must
  // serve the globally oldest job even under sustained high-band load.
  EXPECT_EQ(jm.PopRunnable(always), highs[0]);
  EXPECT_EQ(jm.PopRunnable(always), starved);
  EXPECT_EQ(jm.PopRunnable(always), highs[1]);
  EXPECT_EQ(jm.PopRunnable(always), highs[2]);
  EXPECT_EQ(jm.PopRunnable(always), highs[3]);
}

TEST(JobManagerPriorityTest, IneligibleJobsStayQueued) {
  JobManager jm;
  jm.set_starvation_boost_interval(0);
  int64_t blocked = jm.CreateJob("bob", "q", 0, /*priority=*/2);
  int64_t runnable = jm.CreateJob("ana", "q", 0, /*priority=*/0);
  jm.EnqueueJob(blocked);
  jm.EnqueueJob(runnable);
  auto not_bob = [](const JobInfo& job) { return job.user != "bob"; };
  // The high-band job is quota-blocked: the pop skips it without losing it.
  EXPECT_EQ(jm.PopRunnable(not_bob), runnable);
  EXPECT_EQ(jm.QueueDepth(), 1u);
  auto always = [](const JobInfo&) { return true; };
  EXPECT_EQ(jm.PopRunnable(always), blocked);
}

// ---------- EntryGuard: tenant quotas, backpressure, accounting ----------

TEST(EntryGuardAdmissionTest, TenantBacklogQuotaRejects) {
  SsoAuthenticator sso;
  Catalog catalog;
  EntryGuard guard(&sso, &catalog);
  TenantQuota quota;
  quota.max_queued_jobs = 2;
  guard.SetTenantQuota("bob", quota);

  EXPECT_TRUE(guard.EnqueueJob("bob", /*queue_capacity=*/0).ok());
  EXPECT_TRUE(guard.EnqueueJob("bob", 0).ok());
  Status third = guard.EnqueueJob("bob", 0);
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.ToString().find("queued-job quota"), std::string::npos);

  AdmissionSnapshot snapshot = guard.admission_snapshot();
  EXPECT_EQ(snapshot.jobs_admitted, 2u);
  EXPECT_EQ(snapshot.jobs_rejected, 1u);
  EXPECT_EQ(snapshot.jobs_queued, 2u);
  EXPECT_EQ(snapshot.tenant_quota_hits.at("bob"), 1u);
}

TEST(EntryGuardAdmissionTest, BoundedQueueBackpressure) {
  SsoAuthenticator sso;
  Catalog catalog;
  EntryGuard guard(&sso, &catalog);
  EXPECT_TRUE(guard.EnqueueJob("ana", /*queue_capacity=*/2).ok());
  EXPECT_TRUE(guard.EnqueueJob("bob", 2).ok());
  // The master's bounded queue is full: any tenant bounces, explicitly.
  Status full = guard.EnqueueJob("carl", 2);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(full.ToString().find("admission queue full"), std::string::npos);
  EXPECT_EQ(guard.admission_snapshot().jobs_queued, 2u);
}

TEST(EntryGuardAdmissionTest, ConcurrencyQuotaDefersAndDomainLimitGates) {
  SsoAuthenticator sso;
  Catalog catalog;
  EntryGuard guard(&sso, &catalog);
  TenantQuota quota;
  quota.max_concurrent_jobs = 1;
  guard.SetTenantQuota("carl", quota);

  EXPECT_TRUE(guard.EnqueueJob("carl", 0).ok());
  EXPECT_TRUE(guard.MayStartJob("carl", "", 0));
  guard.StartJob("carl", "hdfs");
  // Tenant at its concurrency cap: deferral, counted as a quota hit.
  EXPECT_FALSE(guard.MayStartJob("carl", "", 0));
  EXPECT_EQ(guard.admission_snapshot().tenant_quota_hits.at("carl"), 1u);

  // Per-storage resource agreement: one job already reads "hdfs".
  EXPECT_FALSE(guard.MayStartJob("dana", "hdfs", /*domain_job_limit=*/1));
  EXPECT_TRUE(guard.MayStartJob("dana", "fatman", 1));
  guard.FinishJob("carl", "hdfs");
  EXPECT_TRUE(guard.MayStartJob("carl", "", 0));
  EXPECT_TRUE(guard.MayStartJob("dana", "hdfs", 1));
}

// Regression (blocking-under-lock gate): Admit reserves the daily-quota
// slot, releases mutex_ across the authentication round trip, and rolls
// the reservation back on failure — a failed authentication must never
// consume quota.
TEST(EntryGuardAdmissionTest, AdmitAuthFailureRollsBackQuotaSlot) {
  SsoAuthenticator sso;
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable(
                      TableMeta("open", Schema({{"a", DataType::kInt64, true}})))
                  .ok());
  EntryGuard guard(&sso, &catalog, /*daily_query_quota=*/2);

  // "eve" passes the ACL (open table) but is unknown to the SSO: every
  // attempt fails authentication, and none may burn a quota slot.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(guard.Admit("eve", "open", 0).status().IsPermissionDenied());
  }
  // Once enrolled, the full quota is still available...
  sso.GrantDomain("eve", "d");
  EXPECT_TRUE(guard.Admit("eve", "open", 0).ok());
  EXPECT_TRUE(guard.Admit("eve", "open", 0).ok());
  // ...and only now is it exhausted.
  EXPECT_TRUE(guard.Admit("eve", "open", 0).status().IsResourceExhausted());
}

// Regression: racing admits cannot overshoot the daily quota even though
// mutex_ is dropped across authentication (the slot is reserved first).
// Runs under the TSan lane, so the lock-free path into the internally
// synchronized SsoAuthenticator is race-probed too.
TEST(EntryGuardAdmissionTest, ConcurrentAdmitsRespectDailyQuota) {
  SsoAuthenticator sso;
  sso.GrantDomain("ana", "hdfs-domain");
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable(
                      TableMeta("open", Schema({{"a", DataType::kInt64, true}})))
                  .ok());
  EntryGuard guard(&sso, &catalog, /*daily_query_quota=*/4);

  auto seed_credential = guard.Admit("ana", "open", 0);
  ASSERT_TRUE(seed_credential.ok());

  std::atomic<int> admitted{0};
  std::atomic<int> quota_bounced{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        auto r = guard.Admit("ana", "open", 0);
        if (r.ok()) {
          ++admitted;
        } else if (r.status().IsResourceExhausted()) {
          ++quota_bounced;
        }
        // Race credential checks and auth failures against the mints.
        guard.AuthorizeDomain(*seed_credential, "hdfs-domain");
        EXPECT_FALSE(guard.Admit("ghost", "open", 0).ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  // One slot went to the seed admit; exactly three more may succeed.
  EXPECT_EQ(admitted.load(), 3);
  EXPECT_EQ(quota_bounced.load(), 13);
  EXPECT_EQ(guard.admitted_count(), 4u);
  EXPECT_TRUE(guard.AuthorizeDomain(*seed_credential, "hdfs-domain"));
}

// ---------- JobScheduler: fair leaf sharing ----------

TEST(FairShareGateTest, WeightedCapsBlockAtLimitAndGrowOnExit) {
  ClusterManager cluster;
  PathRouter router;
  JobScheduler sched(&cluster, &router, NetworkModel{}, ScheduleConfig{},
                     /*seed=*/1);
  sched.SetLeafPoolWidth(8);
  sched.RegisterJobShare(1, /*weight=*/1);
  sched.RegisterJobShare(2, /*weight=*/4);
  // caps: job1 = max(1, 8*1/5) = 1, job2 = 8*4/5 = 6.

  sched.AcquireLeafSlot(1);  // hits job1's cap
  std::atomic<bool> acquired{false};
  std::thread waiter([&]() {
    sched.AcquireLeafSlot(1);  // must block until the cap grows
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());

  for (int i = 0; i < 6; ++i) sched.AcquireLeafSlot(2);  // job2 under cap
  EXPECT_EQ(sched.PeakLeafTasks(2), 6u);

  // job2 leaves: job1's cap grows to 8 and the waiter wakes.
  for (int i = 0; i < 6; ++i) sched.ReleaseLeafSlot(2);
  sched.UnregisterJobShare(2);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(sched.PeakLeafTasks(1), 2u);
  EXPECT_GE(sched.leaf_slot_waits(), 1u);
}

// A job that never registered a share — the serial master running on a
// leaf pool, or ResumeJob — passes the gate untouched: the pooled dispatch
// relies on acquire/release being immediate no-ops for it.
TEST(FairShareGateTest, UnregisteredJobPassesGateUntouched) {
  ClusterManager cluster;
  PathRouter router;
  JobScheduler sched(&cluster, &router, NetworkModel{}, ScheduleConfig{},
                     /*seed=*/1);
  sched.SetLeafPoolWidth(1);
  sched.RegisterJobShare(1, /*weight=*/1);
  sched.AcquireLeafSlot(1);  // the only registered job sits at its cap
  for (int i = 0; i < 16; ++i) sched.AcquireLeafSlot(7);
  for (int i = 0; i < 16; ++i) sched.ReleaseLeafSlot(7);
  EXPECT_EQ(sched.leaf_slot_waits(), 0u);
  EXPECT_EQ(sched.PeakLeafTasks(7), 0u);
  EXPECT_EQ(sched.PeakLeafTasks(1), 1u);
}

// ---------- Engine integration ----------

std::unique_ptr<FeisuEngine> MakeEngine(uint64_t seed, size_t concurrent_jobs,
                                        size_t leaf_parallelism,
                                        bool chaos = false,
                                        size_t chunks = 6) {
  EngineConfig config;
  config.num_leaf_nodes = 8;
  config.rows_per_block = 512;
  config.master.seed = seed;
  config.master.max_concurrent_jobs = concurrent_jobs;
  config.master.leaf_parallelism = leaf_parallelism;
  config.master.admission_queue_capacity = 0;  // unbounded for determinism
  // Cross-job result reuse would couple jobs through the cache; the
  // determinism contract is about execution, so isolate it.
  config.master.enable_task_result_reuse = false;
  if (chaos) {
    config.fault.enabled = true;
    config.fault.seed = seed;
    // Stateless fault classes only (verdicts are hash-derived from
    // identity, never from shared call order): corruption, a pre-run
    // crash, a healing partition, slow nodes, one stem outage window.
    config.fault.default_profile.corruption_rate = 0.03;
    config.fault.node_events.push_back(
        NodeFaultEvent{/*at=*/1, /*node_id=*/2, /*crash=*/true});
    config.fault.partitions.push_back(
        PartitionSpec{/*node_id=*/5, /*start=*/0, /*end=*/30 * kSimSecond});
    config.fault.slow_nodes.push_back(
        SlowNodeProfile{/*node_id=*/1, /*latency_multiplier=*/4.0,
                        /*stall=*/10 * kSimMillisecond});
    config.fault.stem_events.push_back(
        NodeFaultEvent{/*at=*/0, /*node_id=*/0, /*crash=*/true});
  }
  auto engine = std::make_unique<FeisuEngine>(config);
  engine->AddStorage("/hdfs", MakeHdfs(), /*is_default=*/true);
  for (const char* user : {"ana", "bob", "carl"}) {
    engine->GrantAllDomains(user);
  }
  Schema schema = MakeLogSchema(12);
  EXPECT_TRUE(engine->CreateTable("t1", schema, "/hdfs/t1").ok());
  Rng rng(seed);
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    EXPECT_TRUE(engine->Ingest("t1", GenerateRows(schema, 512, &rng)).ok());
  }
  EXPECT_TRUE(engine->Flush("t1").ok());
  return engine;
}

std::string Fingerprint(const RecordBatch& batch) {
  return ColumnarBlock::FromBatch(0, batch).Serialize();
}

struct MixedJob {
  const char* user;
  const char* sql;
  int priority;
};

const MixedJob kMixedJobs[] = {
    {"ana", "SELECT COUNT(*) FROM t1", 0},
    {"bob", "SELECT COUNT(*) FROM t1 WHERE c0 > 5", 2},
    {"carl", "SELECT c1, COUNT(*) FROM t1 GROUP BY c1", 1},
    {"ana", "SELECT SUM(c0) FROM t1 WHERE c3 < 500", 2},
    {"bob", "SELECT c0, COUNT(*) FROM t1 WHERE c2 >= 10 GROUP BY c0", 0},
    {"carl", "SELECT c0, c2 FROM t1 WHERE c0 > 50", 1},
    {"ana", "SELECT c0, c1 FROM t1 WHERE c2 >= 10 ORDER BY c0 LIMIT 40", 2},
    {"bob",
     "SELECT c1, COUNT(*), SUM(c0), MIN(c2), MAX(c2), AVG(c3) "
     "FROM t1 GROUP BY c1",
     0},
    {"carl", "SELECT c8, COUNT(*) FROM t1 WHERE c8 <> 'cat_2' GROUP BY c8",
     1},
    {"ana", "SELECT COUNT(*) FROM t1 WHERE c1 = 'kw_1'", 0},
};

class MultiQueryDeterminism
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

// The determinism contract: a query executed among concurrent jobs of
// mixed tenants and priorities returns byte-identical results to the same
// query run with nothing else in flight — per-job scheduling ledgers keep
// placements, straggler draws and early-termination decisions independent
// of queue interleaving. Holds with chaos faults on (stateless classes).
TEST_P(MultiQueryDeterminism, ConcurrentMatchesSoloByteForByte) {
  auto [seed, chaos] = GetParam();
  auto solo = MakeEngine(seed, /*concurrent_jobs=*/1, /*leaf_parallelism=*/4,
                         chaos);
  auto concurrent = MakeEngine(seed, /*concurrent_jobs=*/4,
                               /*leaf_parallelism=*/4, chaos);

  const SimTime now = kSimMinute;
  std::vector<std::string> solo_prints;
  for (const MixedJob& job : kMixedJobs) {
    auto result = solo->QueryAt(job.user, job.sql, now);
    ASSERT_TRUE(result.ok()) << job.sql << ": " << result.status().ToString();
    solo_prints.push_back(Fingerprint(result->batch));
  }

  // Submit everything before waiting, so the jobs genuinely overlap.
  std::vector<int64_t> ids;
  for (const MixedJob& job : kMixedJobs) {
    SubmitOptions options;
    options.priority = job.priority;
    auto id = concurrent->SubmitQueryAt(job.user, job.sql, now, options);
    ASSERT_TRUE(id.ok()) << job.sql << ": " << id.status().ToString();
    ids.push_back(*id);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    auto result = concurrent->WaitQuery(ids[i]);
    ASSERT_TRUE(result.ok())
        << kMixedJobs[i].sql << ": " << result.status().ToString();
    EXPECT_EQ(Fingerprint(result->batch), solo_prints[i])
        << "result bytes diverged under concurrency: " << kMixedJobs[i].sql;
    EXPECT_GE(result->stats.queue_wait_ms, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndChaos, MultiQueryDeterminism,
    ::testing::Combine(::testing::Values(11u, 22u, 33u, 44u, 55u),
                       ::testing::Bool()));

// A flood of high-priority work cannot starve a low-priority job: the
// aging boost guarantees it is served, and every submission completes.
TEST(MultiQueryMasterTest, LowPriorityJobSurvivesHighPriorityFlood) {
  auto engine = MakeEngine(7, /*concurrent_jobs=*/2, /*leaf_parallelism=*/4);
  engine->master().mutable_config().starvation_boost_interval = 2;
  const SimTime now = kSimMinute;

  SubmitOptions low;
  low.priority = 0;
  auto starved =
      engine->SubmitQueryAt("ana", "SELECT COUNT(*) FROM t1", now, low);
  ASSERT_TRUE(starved.ok());
  std::vector<int64_t> ids;
  for (int i = 0; i < 12; ++i) {
    SubmitOptions high;
    high.priority = 5;
    auto id = engine->SubmitQueryAt(
        "bob", "SELECT c1, COUNT(*) FROM t1 GROUP BY c1", now, high);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  auto low_result = engine->WaitQuery(*starved);
  ASSERT_TRUE(low_result.ok()) << low_result.status().ToString();
  EXPECT_EQ(low_result->batch.num_rows(), 1u);
  for (int64_t id : ids) {
    ASSERT_TRUE(engine->WaitQuery(id).ok());
  }
  AdmissionSnapshot snapshot =
      engine->master().entry_guard().admission_snapshot();
  EXPECT_EQ(snapshot.jobs_admitted, 13u);
  EXPECT_EQ(snapshot.jobs_rejected, 0u);
  EXPECT_EQ(snapshot.jobs_queued, 0u);
  EXPECT_EQ(snapshot.jobs_running, 0u);
}

// Tenant concurrency quota + bounded queue end to end: while a tenant's
// job runs and another waits (quota-deferred), a third submission bounces
// off the full admission queue with an explicit ResourceExhausted; the
// deferral shows up in the tenant's quota-hit counter and the rejection
// in the job-level stats of later queries.
TEST(MultiQueryMasterTest, QuotaDeferralAndQueueBackpressure) {
  auto engine = MakeEngine(9, /*concurrent_jobs=*/2, /*leaf_parallelism=*/2,
                           /*chaos=*/false, /*chunks=*/48);
  engine->master().mutable_config().admission_queue_capacity = 1;
  TenantQuota quota;
  quota.max_concurrent_jobs = 1;
  engine->master().entry_guard().SetTenantQuota("bob", quota);
  const SimTime now = kSimMinute;
  const char* heavy =
      "SELECT c1, COUNT(*), SUM(c0), MIN(c2), MAX(c2), AVG(c3) "
      "FROM t1 GROUP BY c1";

  bool saw_rejection = false;
  for (int round = 0; round < 3 && !saw_rejection; ++round) {
    auto first = engine->SubmitQueryAt("bob", heavy, now);
    ASSERT_TRUE(first.ok());
    // Wait until the first job is running (quota slot taken)...
    auto& guard = engine->master().entry_guard();
    for (int spin = 0; spin < 2000 && guard.admission_snapshot().jobs_running == 0;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto second = engine->SubmitQueryAt("bob", heavy, now);
    ASSERT_TRUE(second.ok());
    // ...and the second is parked behind the tenant's concurrency quota.
    AdmissionSnapshot snapshot = guard.admission_snapshot();
    if (snapshot.jobs_running >= 1 && snapshot.jobs_queued >= 1) {
      // Queue capacity is 1 and one job is waiting: the next submission
      // must bounce, whatever tenant it belongs to.
      auto third = engine->SubmitQueryAt("bob", heavy, now);
      if (!third.ok()) {
        EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
        EXPECT_NE(third.status().ToString().find("admission queue full"),
                  std::string::npos);
        saw_rejection = true;
      } else {
        ASSERT_TRUE(engine->WaitQuery(*third).ok());
      }
    }
    ASSERT_TRUE(engine->WaitQuery(*first).ok());
    ASSERT_TRUE(engine->WaitQuery(*second).ok());
  }
  EXPECT_TRUE(saw_rejection) << "queue never filled across 3 rounds";

  AdmissionSnapshot final_snapshot =
      engine->master().entry_guard().admission_snapshot();
  EXPECT_GE(final_snapshot.jobs_rejected, 1u);
  EXPECT_GE(final_snapshot.tenant_quota_hits.at("bob"), 1u);

  // Observability surfaces in per-query stats and the formatted report.
  auto after = engine->SubmitQueryAt("ana", "SELECT COUNT(*) FROM t1", now);
  ASSERT_TRUE(after.ok());
  auto result = engine->WaitQuery(*after);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats.jobs_rejected, 1u);
  EXPECT_GE(result->stats.jobs_admitted, 3u);
  std::string report = FormatQueryStats(result->stats);
  EXPECT_NE(report.find("admission:"), std::string::npos);
  EXPECT_NE(report.find("rejected"), std::string::npos);
}

// The serial master is untouched by the pipeline: SubmitQuery without
// max_concurrent_jobs > 1 is an explicit error, ExecuteQuery still runs
// inline, and the admitted-job counter stays honest across both modes.
TEST(MultiQueryMasterTest, SerialModeRejectsAsyncSubmission) {
  auto engine = MakeEngine(3, /*concurrent_jobs=*/1, /*leaf_parallelism=*/1);
  auto submitted =
      engine->SubmitQueryAt("ana", "SELECT COUNT(*) FROM t1", kSimMinute);
  EXPECT_FALSE(submitted.ok());
  auto result = engine->QueryAt("ana", "SELECT COUNT(*) FROM t1", kSimMinute);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.jobs_admitted, 1u);
  EXPECT_EQ(result->stats.queue_wait_ms, 0.0);
}

// Concurrent clients hammering WaitQuery/SubmitQuery from many threads:
// accounting stays consistent (admitted = finished, nothing leaks in the
// queue) and at least one job observed a real queue wait.
TEST(MultiQueryMasterTest, ManyClientThreadsConsistentAccounting) {
  auto engine = MakeEngine(5, /*concurrent_jobs=*/3, /*leaf_parallelism=*/4);
  const SimTime now = kSimMinute;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 4;
  std::atomic<int> completed{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        const MixedJob& job = kMixedJobs[static_cast<size_t>(
            (t * kPerThread + i) % static_cast<int>(std::size(kMixedJobs)))];
        SubmitOptions options;
        options.priority = job.priority;
        auto id = engine->SubmitQueryAt(job.user, job.sql, now, options);
        if (!id.ok()) {
          rejected.fetch_add(1);
          continue;
        }
        auto result = engine->WaitQuery(*id);
        if (result.ok()) completed.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(completed.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(rejected.load(), 0);  // unbounded queue in this config
  AdmissionSnapshot snapshot =
      engine->master().entry_guard().admission_snapshot();
  EXPECT_EQ(snapshot.jobs_admitted, static_cast<uint64_t>(completed.load()));
  EXPECT_EQ(snapshot.jobs_queued, 0u);
  EXPECT_EQ(snapshot.jobs_running, 0u);
}

}  // namespace
}  // namespace feisu
