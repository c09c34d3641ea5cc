#ifndef FEISU_CLUSTER_MASTER_H_
#define FEISU_CLUSTER_MASTER_H_

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_manager.h"
#include "cluster/entry_guard.h"
#include "cluster/job_manager.h"
#include "cluster/leaf_server.h"
#include "cluster/network.h"
#include "cluster/scheduler.h"
#include "cluster/stem_server.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "plan/catalog.h"
#include "plan/logical_plan.h"
#include "sql/ast.h"
#include "storage/path_router.h"
#include "storage/sso.h"

namespace feisu {

/// Master-level configuration.
struct MasterConfig {
  size_t stem_fanout = 50;  ///< leaf servers per stem server
  NetworkModel network;
  ScheduleConfig schedule;
  /// Interactive-response knobs (paper §III-C): return once this fraction
  /// of tasks has finished (1.0 = all), and/or once the deadline elapses
  /// (0 = none). Unfinished tasks are abandoned.
  double processed_ratio = 1.0;
  SimTime response_deadline = 0;
  /// Honesty floor for deadline termination: the deadline may not cut the
  /// result below this fraction of tasks — the master keeps waiting past
  /// the deadline until the floor is met. 0 = the deadline always wins.
  double min_processed_ratio = 0.0;
  bool enable_task_result_reuse = true;
  size_t task_result_cache_capacity = 4096;
  /// Read-data-flow management (paper §V-C): an intermediate result larger
  /// than this is dumped to global storage over the write flow and only
  /// its location travels up the tree; the consumer then fetches it over
  /// the read flow at global-storage bandwidth. 0 disables spilling.
  uint64_t result_spill_threshold_bytes = 4ULL * 1024 * 1024;
  /// Optimizer-rule toggles (design-choice ablations; production = on).
  bool enable_predicate_pushdown = true;
  bool enable_limit_pushdown = true;
  uint64_t daily_query_quota = 10'000;
  SimTime cpu_per_row_master = 8;  ///< final-operator per-row cost
  uint64_t seed = 42;
  /// Failure-driven recovery: a failed or orphaned task is retried on a
  /// different replica up to this many extra times, with capped
  /// exponential backoff between attempts. When every attempt fails the
  /// block is declared lost and the job degrades to a partial result
  /// (processed_ratio < 1) instead of failing outright.
  int max_task_retries = 3;
  SimTime retry_backoff_base = 100 * kSimMillisecond;
  SimTime retry_backoff_cap = 5 * kSimSecond;
  /// Width of the leaf pool: how many leaf tasks the master executes
  /// concurrently on host threads. Every width runs the same stages: each
  /// task first executes on its first alive, reachable replica (inline
  /// at width 1, on the pool otherwise), then the job places, books and
  /// commits the results in block order. Result batches and QueryStats
  /// are identical at every width (concurrency_test checks 1 against 4).
  size_t leaf_parallelism = 1;
  /// --- Multi-query pipeline. ---
  /// How many admitted jobs run at once. Every query goes through the
  /// same admission queue; with > 1 that many coordinator threads drain
  /// it concurrently, fair-sharing the leaf pool. With 1 the submitting
  /// thread drains the queue itself (no coordinator thread, no handoff),
  /// one job at a time.
  size_t max_concurrent_jobs = 1;
  /// Bound of the admission queue. A submission arriving with this many
  /// jobs already waiting is rejected (ResourceExhausted) instead of
  /// queued — backpressure, not unbounded latency. 0 = unbounded.
  size_t admission_queue_capacity = 64;
  /// Priority band for submissions that don't specify one (0 = lowest).
  int default_priority = 1;
  /// Every Nth queue pop serves the globally oldest waiting job whatever
  /// its band (anti-starvation aging). 0 disables the boost.
  size_t starvation_boost_interval = 8;
  /// Tenant admission quotas (see entry_guard.h); the per-user entries
  /// override the default.
  TenantQuota default_tenant_quota;
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Host wall clock (ns) for queue-wait observability. SimTime cannot
  /// measure host queueing and raw clocks are banned in src/cluster, so
  /// the embedder injects one (FeisuEngine installs a steady_clock by
  /// default). Null = queue_wait_ms reported as 0.
  std::function<uint64_t()> host_clock_ns;
};

/// End-to-end accounting for one query.
struct QueryStats {
  SimTime response_time = 0;
  SimTime leaf_finish_time = 0;
  SimTime stem_finish_time = 0;
  uint64_t total_tasks = 0;
  uint64_t reused_tasks = 0;
  /// Speculation accounting: backups launched for detected stragglers, and
  /// how many of them beat the original copy (first-commit-wins).
  uint64_t backup_tasks_launched = 0;
  uint64_t backup_tasks_won = 0;
  uint64_t straggler_tasks = 0;
  uint64_t abandoned_tasks = 0;
  /// Subset of abandoned_tasks cut specifically by the response deadline
  /// (as opposed to the planned processed_ratio target).
  uint64_t tasks_terminated_early = 0;
  uint64_t skipped_blocks = 0;
  uint64_t remote_tasks = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t spilled_results = 0;   ///< oversized results routed via global storage
  uint64_t spilled_bytes = 0;
  // Failure-driven recovery accounting.
  uint64_t task_retries = 0;    ///< failed attempts that were re-placed
  uint64_t corrupt_blocks = 0;  ///< reads rejected by the block checksum
  uint64_t io_errors = 0;       ///< transient read errors observed
  uint64_t failed_nodes = 0;    ///< leaf crashes detected mid-query
  uint64_t lost_blocks = 0;     ///< blocks with no healthy replica left
  uint64_t partitioned_tasks = 0;  ///< tasks cut off by a network partition
  uint64_t stem_failures = 0;   ///< stem servers that died mid-merge
  uint64_t stem_retries = 0;    ///< partial merges reassigned to a new stem
  /// Fraction of tasks whose results made it into the answer; < 1 when
  /// early termination abandoned tasks or replicas were lost.
  double processed_ratio = 1.0;
  bool partial = false;  ///< result is knowingly incomplete
  // Admission observability. At max_concurrent_jobs = 1 a single client's
  // job is popped by its own submitting thread, so it waits near zero.
  double queue_wait_ms = 0;        ///< host wall-clock wait in the queue
  uint64_t jobs_admitted = 0;      ///< master-lifetime jobs accepted
  uint64_t jobs_rejected = 0;      ///< master-lifetime jobs bounced
  uint64_t jobs_queued = 0;        ///< queue depth when this job finished
  uint64_t tenant_quota_hits = 0;  ///< this tenant's quota deferrals+rejections
  TaskStats leaf;  ///< accumulated leaf-side stats
  std::string plan_text;

  double ResponseSeconds() const {
    return static_cast<double>(response_time) / kSimSecond;
  }
};

struct QueryResult {
  RecordBatch batch;
  QueryStats stats;
};

/// Renders QueryStats as a human-readable EXPLAIN ANALYZE-style report
/// (used by the client tooling and examples).
std::string FormatQueryStats(const QueryStats& stats);

/// Per-submission knobs of MasterServer::SubmitQuery.
struct SubmitOptions {
  int priority = -1;  ///< band (higher first); -1 = config default
};

/// Snapshot shipped to the backup master (checkpoint + operations log in
/// the paper's primary/backup design); enough to resume service, including
/// re-running jobs that were in flight when the primary died.
struct MasterCheckpoint {
  std::vector<std::string> tables;
  int64_t jobs_created = 0;
  std::vector<JobInfo> jobs;
};

/// The root of Feisu's execution tree. Hosts the separated services (job
/// manager, cluster manager via pointer, job scheduler, entry guard),
/// creates execution plans from ad-hoc queries, dissects them into leaf
/// tasks, schedules them with locality/load awareness, and merges results
/// bottom-up through simulated stem servers.
class MasterServer {
 public:
  MasterServer(Catalog* catalog, PathRouter* router, ClusterManager* cluster,
               SsoAuthenticator* sso,
               std::vector<std::unique_ptr<LeafServer>>* leaves,
               MasterConfig config);

  MasterServer(const MasterServer&) = delete;
  MasterServer& operator=(const MasterServer&) = delete;

  /// Joins the coordinator pool (draining in-flight jobs) before the leaf
  /// pool. Out of line: PendingJob is complete only in master.cc.
  ~MasterServer();

  /// Parses, admits, plans, optimizes, schedules and executes one query at
  /// simulated time `now`: SubmitQuery + WaitQuery at every width (safe to
  /// call from many client threads).
  Result<QueryResult> ExecuteQuery(const std::string& user,
                                   const std::string& sql, SimTime now);

  /// Asynchronous submission: parses, admits against quotas and the
  /// bounded queue, enqueues, and returns the job id. With
  /// max_concurrent_jobs > 1 it returns at once and a coordinator runs
  /// the job; with 1 the calling thread drains the queue before
  /// returning, unless another thread is already draining it (that thread
  /// then runs this job too). Rejections (backpressure, tenant backlog)
  /// surface here as ResourceExhausted.
  Result<int64_t> SubmitQuery(const std::string& user, const std::string& sql,
                              SimTime now, const SubmitOptions& options = {});
  /// Blocks until the submitted job finishes and returns its result.
  /// Each job id may be waited on exactly once.
  Result<QueryResult> WaitQuery(int64_t job_id);

  JobManager& job_manager() { return job_manager_; }
  EntryGuard& entry_guard() { return entry_guard_; }
  JobScheduler& scheduler() { return scheduler_; }
  const MasterConfig& config() const { return config_; }
  MasterConfig& mutable_config() { return config_; }

  /// Primary/backup support: the primary periodically checkpoints; a
  /// promoted backup restores and continues serving.
  MasterCheckpoint Checkpoint() const;
  static Status RestoreFromCheckpoint(const MasterCheckpoint& checkpoint,
                                      const Catalog& catalog);

  /// Adopts a primary's checkpoint into this (backup) master: validates it
  /// against the local catalog and restores the job table so in-flight
  /// jobs can be resumed with ResumeJob.
  Status Restore(const MasterCheckpoint& checkpoint);

  /// Re-runs a job that was interrupted by a master failover (state still
  /// kRunning/kQueued/kFailed in the restored job table). The job keeps
  /// its id; execution restarts from the recorded SQL — the engine's
  /// determinism makes the resumed run equal the uninterrupted one. Runs
  /// on the calling thread the way a coordinator runs an admitted job,
  /// bypassing the queue (admission happened on the failed primary).
  Result<QueryResult> ResumeJob(int64_t job_id, SimTime now);

 private:
  struct Staged {
    RecordBatch batch;
    SimTime finish_time = 0;
  };

  /// One block's leaf task plus its execution outcome; defined in
  /// master.cc.
  struct PendingLeafTask;

  /// Everything a job's execution chain needs to know about which job it
  /// is serving: the id (which also keys its fair-share leaf slots), the
  /// job's own scheduling ledger every placement books on, and admission
  /// observability carried into the job's QueryStats.
  struct JobContext {
    int64_t job_id = 0;
    SlotLedger* ledger = nullptr;  ///< never null once the job runs
    std::string tenant;
    double queue_wait_ms = 0;
  };

  /// One parsed submission waiting in the admission queue; defined in
  /// master.cc.
  struct PendingJob;

  /// Drain loop: repeatedly pops runnable jobs from the priority queue
  /// (quota-eligible only, at most max_concurrent_jobs running) and runs
  /// each to completion, fulfilling its promise. Runs on job_pool_, or on
  /// the submitting thread at width 1; loops until no queued job is
  /// eligible so no submission is stranded without a wakeup.
  void DrainJobs();

  /// Runs one admitted job end to end on the calling thread: fair-share
  /// registration, a fresh MakeJobLedger ledger, RunPlannedQuery. Shared
  /// by DrainJobs and ResumeJob.
  Result<QueryResult> RunAdmittedJob(int64_t job_id, const PendingJob& job);

  /// Applies the chaos schedule's node crash/restart events due by `now`.
  /// Called once per job at admission (SubmitQuery, ResumeJob),
  /// serialized by admission_mutex_ because NodeInfo's non-atomic control
  /// fields are single-writer; drainers never apply events themselves.
  void ApplyDueNodeEvents(SimTime now) FEISU_REQUIRES(admission_mutex_);

  /// Admission front of every query: parse, authenticate, per-table ACLs
  /// and cross-domain authorization. Also reports the first table's
  /// storage domain and that system's concurrent-job agreement (0 =
  /// unlimited) for the admission queue.
  Result<SelectStatement> AdmitStatement(const std::string& user,
                                         const std::string& sql, SimTime now,
                                         std::string* domain,
                                         int* domain_job_limit);

  /// Plans, optimizes and executes an admitted statement under `ctx`;
  /// finalizes job state and recovery accounting.
  Result<QueryResult> RunPlannedQuery(const SelectStatement& stmt,
                                      const JobContext& ctx, SimTime now);

  /// Recursively executes a plan subtree, distributing scan/aggregate
  /// frontiers across leaf and stem servers and applying the remaining
  /// operators at the master.
  Result<Staged> ExecutePlanNode(const PlanPtr& node, const JobContext& ctx,
                                 SimTime now, QueryStats* stats);

  /// Distributed scan (optionally with partial-aggregation pushdown).
  /// `agg` == nullptr => plain filtered scan returning concatenated rows.
  /// Runs the leaf stages in order: MakeLeafTasks -> ExecuteLeafTasks ->
  /// CommitLeafTasks -> LaunchSpeculativeBackups -> CutOffLeafTasks ->
  /// MergeLeafResults.
  Result<Staged> RunDistributedScan(const PlanNode& scan,
                                    const PlanNode* agg,
                                    const JobContext& ctx, SimTime now,
                                    QueryStats* stats);

  /// One task per block of `meta`, shaped like `shape`; tasks whose
  /// signature hits the result-reuse cache are served from it.
  std::vector<PendingLeafTask> MakeLeafTasks(const LeafTask& shape,
                                             const TableMeta& meta,
                                             SimTime now, QueryStats* stats);

  /// Execute stage: runs ExecuteLeafTask for every non-reused task, each
  /// holding one of the job's fair-share leaf slots. Inline when the
  /// master has no leaf pool, on pool_ otherwise; either way no scheduler
  /// or stats state is touched until the commit stage.
  void ExecuteLeafTasks(std::vector<PendingLeafTask>* tasks, int64_t job_id,
                        SimTime now);

  /// The one worker body. Runs the task from `start` on the first replica
  /// that is alive, reachable and not excluded, else on any such leaf. A
  /// retryable failure excludes that host and retries after capped
  /// exponential backoff; when every candidate sits behind a partition it
  /// waits one heartbeat interval. Every wait spends one of the task's
  /// max_task_retries + 1 attempts. Writes only the task's own slot.
  void ExecuteLeafTask(PendingLeafTask* p, SimTime start);

  /// Commit stage: commits every task in block order (CommitLeafTask) and
  /// returns the tasks whose results stand; lost blocks are counted and
  /// dropped.
  Result<std::vector<PendingLeafTask>> CommitLeafTasks(
      std::vector<PendingLeafTask> tasks, int max_tasks_per_node,
      const JobContext& ctx, QueryStats* stats);

  /// Places an executed task (never on a host it failed on), books it and
  /// commits it through CommitLeafResult. A result orphaned by a crash or
  /// partition re-runs ExecuteLeafTask from when the master notices, with
  /// the orphaning host excluded, spending one attempt. Folds the task's
  /// recovery counters into `stats`. Returns true when the result stands,
  /// false when the block is lost, and the error of a non-retryable
  /// failure.
  Result<bool> CommitLeafTask(int max_tasks_per_node, const JobContext& ctx,
                              QueryStats* stats, PendingLeafTask* p);

  /// Commit tail run once a leaf result exists for `p->placement`: books
  /// its TaskDuration in the job's ledger (counting a remote read) and
  /// checks whether the host crashed or partitioned away while it ran.
  /// Returns true when the result stands (accounted and cached); false
  /// when it was orphaned, with `*resume` set to when the master notices
  /// (one heartbeat interval after the event).
  bool CommitLeafResult(SimTime attempt_time, const JobContext& ctx,
                        QueryStats* stats, PendingLeafTask* p,
                        SimTime* resume);

  /// Capped exponential backoff before retry number `attempt + 1`.
  SimTime RetryBackoff(int attempt) const;

  /// Simulated run time of a leaf result: its leaf time plus, when the
  /// node holds no replica, the block bytes read over the network.
  SimTime TaskDuration(const TaskStats& stats, bool local) const;

  /// Speculative execution (paper §1 item 3): detects stragglers among the
  /// committed placements (runtime quantile vs. peers), launches a real
  /// backup copy of each on a different replica, and resolves
  /// first-commit-wins through the ordered slots — the earlier finisher's
  /// result stays in the slot, so result bytes are independent of the
  /// winner. Runs on the job's own thread after the commit stage.
  void LaunchSpeculativeBackups(std::vector<PendingLeafTask>* pending,
                                const JobContext& ctx, QueryStats* stats);

  /// Early termination (processed_ratio / response_deadline knobs): drops
  /// the tasks that finish after the cutoff, keeping block order, counts
  /// them as abandoned, and sets stats->leaf_finish_time.
  void CutOffLeafTasks(std::vector<PendingLeafTask>* tasks, SimTime now,
                       QueryStats* stats);

  /// Merges the surviving leaf results up the stem tree and finishes them
  /// at the master (final aggregation or the one row concatenation).
  Result<Staged> MergeLeafResults(std::vector<PendingLeafTask> tasks,
                                  const LeafTask& shape, const Schema& schema,
                                  SimTime now, QueryStats* stats);

  /// What one stem forwards up the tree: aggregate plans carry the one
  /// merged partial; row plans carry their leaf batches in block order,
  /// which only the master concatenates.
  struct StemOutput {
    std::vector<RecordBatch> batches;
    SimTime finish_time = 0;
  };

  /// Stem-level merge with death recovery. `children[i]` is child i's
  /// batch list, ready at `times[i]`. Aggregate plans merge the children's
  /// partials through StemServer::Merge; row plans pay the stem's
  /// ChargeStemMerge from per-child byte and row totals and forward the
  /// batches unchanged. When the stem-death schedule kills `stem_id`
  /// inside its merge window (start_time, finish_time], the partial merge
  /// is reassigned to a replacement stem — the children resend their
  /// partials one heartbeat interval after the crash — up to
  /// max_task_retries times. Returns nullopt (not an error) when every
  /// replacement dies too; the caller abandons the subtree honestly.
  Result<std::optional<StemOutput>> MergeWithStemRecovery(
      uint32_t stem_id, std::vector<std::vector<RecordBatch>> children,
      std::vector<SimTime> times, bool has_aggregate,
      const std::vector<ExprPtr>& group_by,
      const std::vector<AggSpec>& aggregates, const Schema& schema,
      uint32_t* next_replacement_id, QueryStats* stats);

  SimTime ChargeMasterRows(uint64_t rows) const {
    return static_cast<SimTime>(rows) * config_.cpu_per_row_master;
  }

  Catalog* catalog_;
  PathRouter* router_;
  ClusterManager* cluster_;
  std::vector<std::unique_ptr<LeafServer>>* leaves_;
  MasterConfig config_;
  JobManager job_manager_;
  EntryGuard entry_guard_;
  JobScheduler scheduler_;
  /// Leaf-task workers; null when both leaf_parallelism and
  /// max_concurrent_jobs are <= 1 (the execute stage then runs inline).
  /// Shared-state discipline: workers may touch only (a) their own
  /// PendingLeafTask slot, (b) the internally synchronized leaf-server
  /// caches, and (c) read-only master state (cluster_, leaves_, config_).
  /// job_manager_, scheduler_ booking and QueryStats are per-job: each
  /// job's thread commits its workers' outcomes in block order against
  /// its own SlotLedger, so jobs never contend on scheduling state
  /// (annotated Mutexes guard the few genuinely shared pieces: the
  /// admission queue, the entry guard and the fair-share gate).
  std::unique_ptr<ThreadPool> pool_;

  /// --- Admission pipeline. ---
  /// Lock order: admission_mutex_ -> JobManager::mutex_ ->
  /// EntryGuard::mutex_. JobScheduler::share_mutex_ is a leaf acquired on
  /// its own. Drainers hold admission_mutex_ only for queue pops and
  /// bookkeeping, never across query execution.
  Mutex admission_mutex_;
  /// Jobs popped and not yet finished; DrainJobs keeps it at or below
  /// max_concurrent_jobs.
  size_t running_jobs_ FEISU_GUARDED_BY(admission_mutex_) = 0;
  std::map<int64_t, PendingJob> pending_jobs_
      FEISU_GUARDED_BY(admission_mutex_);
  std::map<int64_t, std::future<Result<QueryResult>>> job_futures_
      FEISU_GUARDED_BY(admission_mutex_);
  /// Coordinator threads draining the admission queue (null at width 1);
  /// declared after pool_ so coordinators (which submit into pool_) are
  /// joined first.
  std::unique_ptr<ThreadPool> job_pool_;
};

}  // namespace feisu

#endif  // FEISU_CLUSTER_MASTER_H_
