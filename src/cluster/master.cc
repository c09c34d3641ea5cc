#include "cluster/master.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <set>

#include "exec/operators.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "sql/parser.h"

namespace feisu {

namespace {

/// Collects the alias of the single scan under a subtree (for join column
/// qualification); empty when the subtree has several scans.
std::string SubtreeAlias(const PlanPtr& node) {
  if (node->kind == PlanKind::kScan) {
    return node->table_alias.empty() ? node->table : node->table_alias;
  }
  if (node->children.size() == 1) return SubtreeAlias(node->children[0]);
  return "";
}

/// Task failures worth a retry on another replica; anything else (parse,
/// planning, schema errors...) fails the whole job immediately.
bool IsRetryableTaskFailure(const Status& status) {
  return status.code() == StatusCode::kCorruption ||
         status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kTimedOut;
}

/// Payload bytes and rows of a batch list: what its concatenation would
/// hold, since ByteSize and row counts add up across Append.
StemInput BatchListTotals(const std::vector<RecordBatch>& batches) {
  StemInput totals;
  for (const RecordBatch& batch : batches) {
    totals.bytes += batch.ByteSize();
    totals.rows += batch.num_rows();
  }
  return totals;
}

/// The shape every leaf task of a scan shares: the pruned column set
/// (restricted to group keys + aggregate arguments when the aggregation
/// is pushed down), the scan predicate, and the pushed-down aggregation
/// or LIMIT/ORDER hints. Block and task id are set per block.
LeafTask ScanTaskShape(const PlanNode& scan, const PlanNode* agg,
                       int64_t job_id) {
  LeafTask shape;
  shape.job_id = job_id;
  shape.table = scan.table;
  shape.columns = scan.columns;
  shape.predicate = scan.scan_predicate;
  shape.conjuncts = std::make_shared<const std::vector<KeyedPredicate>>(
      KeyConjuncts(scan.scan_predicate));
  shape.has_aggregate = agg != nullptr;
  if (agg == nullptr) {
    shape.limit = scan.limit_hint;
    shape.order_by = scan.order_hint;
    return shape;
  }
  shape.group_by = agg->group_by;
  shape.aggregates = agg->aggregates;
  std::set<std::string> needed;
  for (const auto& g : shape.group_by) {
    std::vector<std::string> cols;
    g->CollectColumns(&cols);
    needed.insert(cols.begin(), cols.end());
  }
  for (const auto& spec : shape.aggregates) {
    if (spec.arg != nullptr) {
      std::vector<std::string> cols;
      spec.arg->CollectColumns(&cols);
      needed.insert(cols.begin(), cols.end());
    }
  }
  shape.columns.assign(needed.begin(), needed.end());
  return shape;
}

}  // namespace

/// One block's leaf task plus the outcome slot the execute stage fills:
/// a worker writes only its own slot; the job's commit stage folds the
/// slots into scheduler/stats state in block order.
struct MasterServer::PendingLeafTask {
  LeafTask task;
  std::string signature;  ///< built only when task-result reuse is on
  std::vector<uint32_t> replicas;
  TaskResult result;
  Placement placement;
  bool reused = false;
  // Worker outcome (written by ExecuteLeafTask).
  Status exec_status;          ///< terminal (non-retryable) failure, if any
  bool completed = false;
  SimTime attempt_time = 0;    ///< start of the latest attempt
  int attempts = 0;            ///< attempts spent before the latest one
  std::set<uint32_t> excluded;  ///< hosts that failed or orphaned the task
  // Recovery counters, folded into QueryStats by the commit stage.
  uint64_t retries = 0;
  uint64_t corrupt_reads = 0;
  uint64_t io_errors = 0;
  uint64_t partition_waits = 0;
};

/// One admitted submission parked in the admission queue until a
/// drainer pops it. Owned by pending_jobs_ (guarded by admission_mutex_)
/// until popped, then exclusively by the popping drainer.
struct MasterServer::PendingJob {
  SelectStatement stmt;
  std::string user;
  std::string domain;
  int domain_job_limit = 0;
  SimTime now = 0;
  uint64_t enqueue_ns = 0;     ///< host clock at submission (0 = no clock)
  double queue_wait_ms = 0;    ///< filled when popped
  std::promise<Result<QueryResult>> promise;
};

std::string FormatQueryStats(const QueryStats& stats) {
  std::ostringstream os;
  os << "response time: "
     << static_cast<double>(stats.response_time) / kSimMillisecond
     << " ms (leaves "
     << static_cast<double>(stats.leaf_finish_time) / kSimMillisecond
     << " ms, stems "
     << static_cast<double>(stats.stem_finish_time) / kSimMillisecond
     << " ms)\n";
  os << "tasks: " << stats.total_tasks << " total, " << stats.reused_tasks
     << " reused, " << stats.skipped_blocks << " zone-map skipped, "
     << stats.abandoned_tasks << " abandoned ("
     << stats.tasks_terminated_early << " by deadline), "
     << stats.remote_tasks << " remote\n";
  os << "speculation: " << stats.straggler_tasks << " stragglers, "
     << stats.backup_tasks_launched << " backups launched, "
     << stats.backup_tasks_won << " won\n";
  os << "leaf I/O: " << stats.leaf.bytes_read << " bytes read, "
     << stats.leaf.rows_scanned << " rows scanned, " << stats.leaf.rows_matched
     << " matched, " << stats.leaf.values_decoded << " values decoded, "
     << stats.leaf.values_skipped_encoded
     << " values filtered without decode\n";
  os << "aggregation: " << stats.leaf.agg_groups << " groups ("
     << stats.leaf.agg_code_domain_groups << " via dict codes), "
     << stats.leaf.agg_hash_probes << " hash probes, "
     << stats.leaf.agg_rehashes << " rehashes, "
     << stats.leaf.agg_null_fast_batches << " null-fast-path batches\n";
  os << "SmartIndex: " << stats.leaf.index_direct_hits << " direct + "
     << stats.leaf.index_composed_hits << " composed hits, "
     << stats.leaf.index_misses << " misses\n";
  os << "shuffle: " << stats.bytes_shuffled << " bytes ("
     << stats.spilled_results << " results spilled, " << stats.spilled_bytes
     << " bytes via global storage)\n";
  os << "recovery: " << stats.task_retries << " retries, "
     << stats.corrupt_blocks << " corrupt reads, " << stats.io_errors
     << " I/O errors, " << stats.failed_nodes << " nodes failed, "
     << stats.partitioned_tasks << " partition-hit tasks, "
     << stats.lost_blocks << " blocks lost, " << stats.stem_failures
     << " stem deaths (" << stats.stem_retries
     << " merges reassigned); processed "
     << stats.processed_ratio * 100.0 << "%"
     << (stats.partial ? " (PARTIAL result)" : "") << "\n";
  os << "admission: " << stats.queue_wait_ms << " ms queue wait; "
     << stats.jobs_admitted << " jobs admitted, " << stats.jobs_rejected
     << " rejected, " << stats.jobs_queued << " queued; "
     << stats.tenant_quota_hits << " tenant quota hits\n";
  os << "plan:\n" << stats.plan_text;
  return os.str();
}

MasterServer::MasterServer(Catalog* catalog, PathRouter* router,
                           ClusterManager* cluster, SsoAuthenticator* sso,
                           std::vector<std::unique_ptr<LeafServer>>* leaves,
                           MasterConfig config)
    : catalog_(catalog),
      router_(router),
      cluster_(cluster),
      leaves_(leaves),
      config_(config),
      entry_guard_(sso, catalog, config.daily_query_quota),
      scheduler_(cluster, router, config.network, config.schedule,
                 config.seed) {
  if (config_.leaf_parallelism > 1 || config_.max_concurrent_jobs > 1) {
    pool_ = std::make_unique<ThreadPool>(
        std::max<size_t>(config_.leaf_parallelism, 1));
  }
  entry_guard_.set_default_tenant_quota(config_.default_tenant_quota);
  for (const auto& [user, quota] : config_.tenant_quotas) {
    entry_guard_.SetTenantQuota(user, quota);
  }
  job_manager_.set_starvation_boost_interval(
      config_.starvation_boost_interval);
  if (config_.max_concurrent_jobs > 1) {
    scheduler_.SetLeafPoolWidth(pool_->num_threads());
    job_pool_ = std::make_unique<ThreadPool>(config_.max_concurrent_jobs);
  }
}

MasterServer::~MasterServer() {
  // Coordinators must finish before the leaf pool they submit into dies;
  // member order (job_pool_ declared last) already guarantees it, the
  // explicit destructor only anchors PendingJob's completeness.
  job_pool_.reset();
}

Result<SelectStatement> MasterServer::AdmitStatement(const std::string& user,
                                                     const std::string& sql,
                                                     SimTime now,
                                                     std::string* domain,
                                                     int* domain_job_limit) {
  FEISU_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));

  // Admission: authenticate once, verify ACL on every referenced table.
  std::vector<std::string> tables;
  for (const auto& ref : stmt.from) tables.push_back(ref.name);
  for (const auto& join : stmt.joins) tables.push_back(join.table.name);
  if (tables.empty()) return Status::InvalidArgument("no tables referenced");
  JobCredential credential;
  for (size_t i = 0; i < tables.size(); ++i) {
    FEISU_ASSIGN_OR_RETURN(JobCredential c,
                           entry_guard_.Admit(user, tables[i], now));
    if (i == 0) credential = c;
  }
  // Cross-domain authorization: the job credential must cover the storage
  // domain of every block it will read. The first table's storage system
  // also sets the job-level resource agreement the admission queue
  // enforces.
  bool first_table = true;
  for (const auto& table : tables) {
    FEISU_ASSIGN_OR_RETURN(const TableMeta* meta, catalog_->Get(table));
    for (const auto& block : meta->blocks()) {
      auto storage = router_->Resolve(block.path);
      if (storage.ok()) {
        if (!entry_guard_.AuthorizeDomain(credential, (*storage)->domain())) {
          return Status::PermissionDenied("user " + user + " lacks domain " +
                                          (*storage)->domain());
        }
        if (first_table) {
          *domain = (*storage)->domain();
          *domain_job_limit = (*storage)->agreement().max_concurrent_jobs;
        }
      }
      break;  // all blocks of a table share one storage system
    }
    first_table = false;
  }
  return stmt;
}

Result<QueryResult> MasterServer::ExecuteQuery(const std::string& user,
                                               const std::string& sql,
                                               SimTime now) {
  FEISU_ASSIGN_OR_RETURN(int64_t job_id, SubmitQuery(user, sql, now));
  return WaitQuery(job_id);
}

Result<int64_t> MasterServer::SubmitQuery(const std::string& user,
                                          const std::string& sql, SimTime now,
                                          const SubmitOptions& options) {
  std::string domain;
  int domain_job_limit = 0;
  FEISU_ASSIGN_OR_RETURN(
      SelectStatement stmt,
      AdmitStatement(user, sql, now, &domain, &domain_job_limit));
  int priority =
      options.priority >= 0 ? options.priority : kDefaultJobPriority;
  int64_t job_id = 0;
  {
    MutexLock lock(admission_mutex_);
    ApplyDueNodeEvents(now);
    // Backpressure + tenant backlog quotas; a bounce never creates a job.
    FEISU_RETURN_IF_ERROR(
        entry_guard_.EnqueueJob(user, config_.admission_queue_capacity));
    job_id = job_manager_.CreateJob(user, sql, now, priority);
    job_manager_.SetAdmissionInfo(job_id, domain, domain_job_limit);
    PendingJob pending;
    pending.stmt = std::move(stmt);
    pending.user = user;
    pending.domain = domain;
    pending.domain_job_limit = domain_job_limit;
    pending.now = now;
    pending.enqueue_ns = config_.host_clock_ns ? config_.host_clock_ns() : 0;
    job_futures_[job_id] = pending.promise.get_future();
    pending_jobs_.emplace(job_id, std::move(pending));
    job_manager_.EnqueueJob(job_id);
  }
  // One drain pass per submission guarantees a drainer looks at the
  // queue; completing drainers re-loop, so quota-deferred jobs are picked
  // up when capacity frees without any further wakeup. At width 1 the
  // submitting thread is the drainer.
  if (job_pool_ != nullptr) {
    job_pool_->Submit([this]() { DrainJobs(); });
  } else {
    DrainJobs();
  }
  return job_id;
}
void MasterServer::ApplyDueNodeEvents(SimTime now) {
  FaultInjector* faults = router_->fault_injector();
  if (faults == nullptr) return;
  for (const NodeFaultEvent& event : faults->TakeDueNodeEvents(now)) {
    if (event.crash) {
      cluster_->MarkDead(event.node_id);
    } else {
      cluster_->MarkAlive(event.node_id, now);
    }
  }
}

Result<QueryResult> MasterServer::WaitQuery(int64_t job_id) {
  std::future<Result<QueryResult>> future;
  {
    MutexLock lock(admission_mutex_);
    auto it = job_futures_.find(job_id);
    if (it == job_futures_.end()) {
      return Status::NotFound("no waitable job " + std::to_string(job_id));
    }
    future = std::move(it->second);
    job_futures_.erase(it);
  }
  return future.get();
}

void MasterServer::DrainJobs() {
  bool ran_job = false;
  for (;;) {
    int64_t job_id = 0;
    PendingJob pending;
    {
      MutexLock lock(admission_mutex_);
      // Releasing the finished job's run slot and popping the next job in
      // one critical section: a submission either sees this drainer still
      // running (and leaves its job to this pop) or a free slot.
      if (ran_job) --running_jobs_;
      if (running_jobs_ >= config_.max_concurrent_jobs) return;
      // Highest band first, FIFO within, aged every Nth pop; eligibility
      // = tenant concurrency quota + per-storage job agreement. The
      // predicate only consults the entry guard (admission -> job-manager
      // -> entry-guard lock order).
      std::optional<int64_t> popped =
          job_manager_.PopRunnable([this](const JobInfo& job) {
            return entry_guard_.MayStartJob(job.user, job.domain,
                                            job.domain_job_limit);
          });
      if (!popped.has_value()) return;
      job_id = *popped;
      auto it = pending_jobs_.find(job_id);
      ran_job = it != pending_jobs_.end();
      if (!ran_job) continue;
      pending = std::move(it->second);
      pending_jobs_.erase(it);
      ++running_jobs_;
      entry_guard_.StartJob(pending.user, pending.domain);
      if (config_.host_clock_ns && pending.enqueue_ns > 0) {
        uint64_t now_ns = config_.host_clock_ns();
        pending.queue_wait_ms =
            static_cast<double>(now_ns - pending.enqueue_ns) / 1e6;
      }
      job_manager_.SetQueueWait(job_id, pending.queue_wait_ms);
    }
    Result<QueryResult> result = RunAdmittedJob(job_id, pending);
    entry_guard_.FinishJob(pending.user, pending.domain);
    pending.promise.set_value(std::move(result));
    // Finishing this job may have freed tenant/storage quota: loop and
    // pop the next runnable job instead of relying on a fresh submission.
  }
}

Result<QueryResult> MasterServer::RunAdmittedJob(int64_t job_id,
                                                 const PendingJob& job) {
  std::optional<JobInfo> info = job_manager_.Find(job_id);
  int priority = info.has_value() ? info->priority : kDefaultJobPriority;
  // Fair leaf sharing: weight = priority + 1, so a band-2 job may keep
  // 3x the outstanding leaf tasks of a band-0 one.
  scheduler_.RegisterJobShare(job_id, priority + 1);
  SlotLedger ledger = scheduler_.MakeJobLedger(job_id);
  JobContext ctx;
  ctx.job_id = job_id;
  ctx.ledger = &ledger;
  ctx.tenant = job.user;
  ctx.queue_wait_ms = job.queue_wait_ms;
  Result<QueryResult> result = RunPlannedQuery(job.stmt, ctx, job.now);
  scheduler_.UnregisterJobShare(job_id);
  return result;
}

Result<QueryResult> MasterServer::RunPlannedQuery(const SelectStatement& stmt,
                                                  const JobContext& ctx,
                                                  SimTime now) {
  const int64_t job_id = ctx.job_id;
  job_manager_.SetState(job_id, JobState::kRunning, now);

  FEISU_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(stmt, *catalog_));
  // The standard rule pipeline, with per-rule ablation toggles.
  plan = FoldConstants(std::move(plan));
  if (config_.enable_predicate_pushdown) {
    plan = PushDownPredicates(std::move(plan));
  }
  if (config_.enable_limit_pushdown) {
    plan = PushDownLimits(std::move(plan), *catalog_);
  }
  plan = ReorderJoins(std::move(plan), *catalog_);
  plan = PruneColumns(std::move(plan), *catalog_);

  QueryStats stats;
  stats.plan_text = plan->ToString();

  Result<Staged> staged = ExecutePlanNode(plan, ctx, now, &stats);
  if (!staged.ok()) {
    job_manager_.SetState(job_id, JobState::kFailed, now,
                          staged.status().ToString());
    return staged.status();
  }
  // Recovery accounting: the fraction of tasks whose results actually
  // contribute. Abandoned (early termination) and lost (no healthy
  // replica) tasks both reduce it; the report never claims completeness
  // it does not have.
  stats.processed_ratio =
      stats.total_tasks == 0
          ? 1.0
          : 1.0 - static_cast<double>(stats.abandoned_tasks +
                                      stats.lost_blocks) /
                      static_cast<double>(stats.total_tasks);
  stats.partial = stats.processed_ratio < 1.0;
  JobRecoveryRecord record;
  record.task_retries = stats.task_retries;
  record.corrupt_blocks = stats.corrupt_blocks;
  record.failed_nodes = stats.failed_nodes;
  record.lost_blocks = stats.lost_blocks;
  record.backup_tasks_launched = stats.backup_tasks_launched;
  record.backup_tasks_won = stats.backup_tasks_won;
  record.tasks_terminated_early = stats.tasks_terminated_early;
  record.partitioned_tasks = stats.partitioned_tasks;
  record.stem_retries = stats.stem_retries;
  record.processed_ratio = stats.processed_ratio;
  job_manager_.RecordRecovery(job_id, record);
  stats.response_time = staged->finish_time - now;
  job_manager_.SetState(job_id, JobState::kFinished, staged->finish_time);

  // Admission observability: the master-lifetime counters plus this job's
  // own queue wait and its tenant's quota hits.
  stats.queue_wait_ms = ctx.queue_wait_ms;
  AdmissionSnapshot admission = entry_guard_.admission_snapshot();
  stats.jobs_admitted = admission.jobs_admitted;
  stats.jobs_rejected = admission.jobs_rejected;
  stats.jobs_queued = admission.jobs_queued;
  auto hits = admission.tenant_quota_hits.find(ctx.tenant);
  stats.tenant_quota_hits =
      hits != admission.tenant_quota_hits.end() ? hits->second : 0;

  QueryResult result;
  result.batch = std::move(staged->batch);
  result.stats = std::move(stats);
  return result;
}

Result<MasterServer::Staged> MasterServer::ExecutePlanNode(
    const PlanPtr& node, const JobContext& ctx, SimTime now,
    QueryStats* stats) {
  switch (node->kind) {
    case PlanKind::kScan:
      return RunDistributedScan(*node, nullptr, ctx, now, stats);

    case PlanKind::kAggregate:
      if (node->children[0]->kind == PlanKind::kScan) {
        return RunDistributedScan(*node->children[0], node.get(), ctx,
                                  now, stats);
      } else {
        FEISU_ASSIGN_OR_RETURN(
            Staged input,
            ExecutePlanNode(node->children[0], ctx, now, stats));
        FEISU_ASSIGN_OR_RETURN(
            Aggregator agg,
            Aggregator::Make(node->group_by, node->aggregates,
                             input.batch.schema()));
        FEISU_RETURN_IF_ERROR(agg.Consume(input.batch));
        FEISU_ASSIGN_OR_RETURN(RecordBatch out, agg.FinalResult());
        input.finish_time += ChargeMasterRows(input.batch.num_rows());
        return Staged{std::move(out), input.finish_time};
      }

    case PlanKind::kFilter: {
      FEISU_ASSIGN_OR_RETURN(
          Staged input, ExecutePlanNode(node->children[0], ctx, now,
                                        stats));
      FEISU_ASSIGN_OR_RETURN(RecordBatch out,
                             FilterBatch(input.batch, node->predicate));
      input.finish_time += ChargeMasterRows(input.batch.num_rows());
      return Staged{std::move(out), input.finish_time};
    }

    case PlanKind::kProject: {
      FEISU_ASSIGN_OR_RETURN(
          Staged input, ExecutePlanNode(node->children[0], ctx, now,
                                        stats));
      // The projection consumes its input: a column it reads once moves
      // into the output instead of being copied.
      const size_t rows = input.batch.num_rows();
      FEISU_ASSIGN_OR_RETURN(
          RecordBatch out,
          ProjectBatch(std::move(input.batch), node->projections));
      input.finish_time += ChargeMasterRows(rows);
      return Staged{std::move(out), input.finish_time};
    }

    case PlanKind::kSort: {
      FEISU_ASSIGN_OR_RETURN(
          Staged input, ExecutePlanNode(node->children[0], ctx, now,
                                        stats));
      FEISU_ASSIGN_OR_RETURN(RecordBatch out,
                             SortBatch(input.batch, node->order_by));
      input.finish_time += ChargeMasterRows(input.batch.num_rows() * 2);
      return Staged{std::move(out), input.finish_time};
    }

    case PlanKind::kLimit: {
      // Fuse Limit(Sort(x)) into a bounded-heap TopN: O(n log k) and no
      // full materialized ordering.
      if (node->children[0]->kind == PlanKind::kSort && node->limit >= 0) {
        const PlanPtr& sort = node->children[0];
        FEISU_ASSIGN_OR_RETURN(
            Staged input,
            ExecutePlanNode(sort->children[0], ctx, now, stats));
        FEISU_ASSIGN_OR_RETURN(
            RecordBatch out,
            TopNBatch(input.batch, sort->order_by, node->limit));
        input.finish_time += ChargeMasterRows(input.batch.num_rows());
        return Staged{std::move(out), input.finish_time};
      }
      FEISU_ASSIGN_OR_RETURN(
          Staged input, ExecutePlanNode(node->children[0], ctx, now,
                                        stats));
      RecordBatch out = LimitBatch(input.batch, node->limit);
      return Staged{std::move(out), input.finish_time};
    }

    case PlanKind::kJoin: {
      FEISU_ASSIGN_OR_RETURN(
          Staged left, ExecutePlanNode(node->children[0], ctx, now,
                                       stats));
      FEISU_ASSIGN_OR_RETURN(
          Staged right, ExecutePlanNode(node->children[1], ctx, now,
                                        stats));
      HashJoinOptions options;
      options.type = node->join_type;
      options.condition = node->join_condition;
      options.left_prefix = SubtreeAlias(node->children[0]);
      options.right_prefix = SubtreeAlias(node->children[1]);
      FEISU_ASSIGN_OR_RETURN(RecordBatch out,
                             HashJoinBatches(left.batch, right.batch,
                                             options));
      SimTime finish = std::max(left.finish_time, right.finish_time);
      finish += ChargeMasterRows(left.batch.num_rows() +
                                 right.batch.num_rows() + out.num_rows());
      return Staged{std::move(out), finish};
    }
  }
  return Status::Internal("unknown plan node");
}

Result<MasterServer::Staged> MasterServer::RunDistributedScan(
    const PlanNode& scan, const PlanNode* agg, const JobContext& ctx,
    SimTime now, QueryStats* stats) {
  FEISU_ASSIGN_OR_RETURN(const TableMeta* meta, catalog_->Get(scan.table));
  LeafTask shape = ScanTaskShape(scan, agg, ctx.job_id);
  // Storage agreement of the system holding this table's blocks.
  int max_tasks_per_node = 4;
  if (!meta->blocks().empty()) {
    auto storage = router_->Resolve(meta->blocks()[0].path);
    if (storage.ok()) {
      max_tasks_per_node = (*storage)->agreement().max_concurrent_tasks;
    }
  }
  std::vector<PendingLeafTask> tasks =
      MakeLeafTasks(shape, *meta, now, stats);
  ExecuteLeafTasks(&tasks, ctx.job_id, now);
  FEISU_ASSIGN_OR_RETURN(
      tasks, CommitLeafTasks(std::move(tasks), max_tasks_per_node, ctx,
                             stats));
  LaunchSpeculativeBackups(&tasks, ctx, stats);
  CutOffLeafTasks(&tasks, now, stats);
  return MergeLeafResults(std::move(tasks), shape, meta->schema(), now,
                          stats);
}

std::vector<MasterServer::PendingLeafTask> MasterServer::MakeLeafTasks(
    const LeafTask& shape, const TableMeta& meta, SimTime now,
    QueryStats* stats) {
  std::vector<PendingLeafTask> tasks;
  tasks.reserve(meta.blocks().size());
  for (const TableBlockMeta& block : meta.blocks()) {
    PendingLeafTask p;
    p.task = shape;
    p.task.task_id = static_cast<int64_t>(tasks.size());
    p.task.block = block;
    ++stats->total_tasks;
    p.replicas = router_->ReplicaNodes(block.path);
    if (config_.enable_task_result_reuse) {
      p.signature = p.task.Signature();
      if (job_manager_.TryReuse(p.signature, &p.result)) {
        p.reused = true;
        ++stats->reused_tasks;
        p.placement.start_time = now;
        p.placement.finish_time = now + config_.network.ControlRoundTrip();
      }
    }
    tasks.push_back(std::move(p));
  }
  return tasks;
}

void MasterServer::ExecuteLeafTasks(std::vector<PendingLeafTask>* tasks,
                                    int64_t job_id, SimTime now) {
  // Host-level concurrency only: every worker computes its slot's result
  // and outcome; all scheduler bookings, SimTime accounting and stats
  // updates happen in the commit stage, in block order. Each task holds
  // one of the job's fair-share leaf slots, capping a concurrent job's
  // outstanding leaf tasks at its weighted share of the pool.
  std::vector<std::future<void>> outstanding;
  for (PendingLeafTask& slot : *tasks) {
    if (slot.reused) continue;
    scheduler_.AcquireLeafSlot(job_id);
    auto work = [this, p = &slot, now, job_id]() {
      ExecuteLeafTask(p, now);
      scheduler_.ReleaseLeafSlot(job_id);
    };
    if (pool_ == nullptr) {
      work();
    } else {
      outstanding.push_back(pool_->Submit(std::move(work)));
    }
  }
  for (std::future<void>& f : outstanding) f.get();
}

JobScheduler::HostChoice MasterServer::PickLeafHost(
    const std::vector<uint32_t>& replicas, SimTime now,
    const std::set<uint32_t>& excluded) const {
  JobScheduler::HostChoice choice =
      scheduler_.FirstUsableHost(replicas, now, excluded);
  if (choice.host.has_value() && *choice.host >= leaves_->size()) {
    choice.host.reset();
  }
  return choice;
}

void MasterServer::ExecuteLeafTask(PendingLeafTask* p, SimTime start) {
  // Deterministic host choice independent of scheduler state (which only
  // the commit stage may touch): the first usable replica, then any
  // usable leaf in id order. The executing host affects cache warmth and
  // fault draws, never result bytes — every leaf reads the same blocks
  // through the router.
  p->completed = false;
  p->attempt_time = start;
  for (;;) {
    JobScheduler::HostChoice choice =
        PickLeafHost(p->replicas, p->attempt_time, p->excluded);
    if (!choice.any_alive) {
      p->exec_status = Status::Unavailable("no alive leaf server for task");
      return;
    }
    if (!choice.any_candidate) return;  // every alive host failed: block lost
    SimTime wait = 0;
    if (!choice.host.has_value()) {
      // Every candidate sits behind a partition: wait out one heartbeat
      // interval for a heal.
      ++p->partition_waits;
      wait = cluster_->heartbeat_interval();
    } else {
      Result<TaskResult> executed =
          (*leaves_)[*choice.host]->Execute(p->task, p->attempt_time);
      if (executed.ok()) {
        p->result = std::move(*executed);
        p->completed = true;
        return;
      }
      const Status& failure = executed.status();
      if (!IsRetryableTaskFailure(failure)) {
        p->exec_status = failure;
        return;
      }
      if (failure.code() == StatusCode::kCorruption) {
        ++p->corrupt_reads;
      } else {
        ++p->io_errors;
      }
      p->excluded.insert(*choice.host);
      wait = RetryBackoff(p->attempts);
    }
    if (p->attempts >= config_.max_task_retries) return;  // block lost
    ++p->attempts;
    ++p->retries;
    p->attempt_time += wait;
  }
}

Result<std::vector<MasterServer::PendingLeafTask>>
MasterServer::CommitLeafTasks(std::vector<PendingLeafTask> tasks,
                              int max_tasks_per_node, const JobContext& ctx,
                              QueryStats* stats) {
  // A task whose every host failed is declared lost and the job degrades
  // to an honest partial result.
  std::vector<PendingLeafTask> committed;
  committed.reserve(tasks.size());
  for (PendingLeafTask& p : tasks) {
    if (!p.reused) {
      FEISU_ASSIGN_OR_RETURN(
          bool stands, CommitLeafTask(max_tasks_per_node, ctx, stats, &p));
      if (!stands) {
        ++stats->lost_blocks;
        continue;
      }
    }
    committed.push_back(std::move(p));
  }
  return committed;
}

Result<bool> MasterServer::CommitLeafTask(int max_tasks_per_node,
                                          const JobContext& ctx,
                                          QueryStats* stats,
                                          PendingLeafTask* p) {
  bool stands = false;
  while (p->exec_status.ok() && p->completed) {
    std::optional<Placement> placed =
        scheduler_.PlaceTask(p->replicas, max_tasks_per_node,
                             p->attempt_time, ctx.ledger, p->excluded);
    // Hosts died since the execute stage: nowhere to book.
    if (!placed.has_value()) break;
    p->placement = *placed;
    SimTime resume = p->attempt_time;
    if (CommitLeafResult(p->attempt_time, ctx, stats, p, &resume)) {
      stands = true;
      break;
    }
    // Orphaned by a crash or partition (counted by CommitLeafResult): the
    // same worker body re-runs from when the master notices, away from
    // the orphaning host, on the task's remaining attempts.
    p->excluded.insert(p->placement.node_id);
    if (p->attempts >= config_.max_task_retries) break;
    ++p->attempts;
    ++p->retries;
    ExecuteLeafTask(p, resume);
  }
  stats->task_retries += p->retries;
  stats->corrupt_blocks += p->corrupt_reads;
  stats->io_errors += p->io_errors;
  stats->partitioned_tasks += p->partition_waits;
  if (!p->exec_status.ok()) return p->exec_status;
  return stands;
}

void MasterServer::CutOffLeafTasks(std::vector<PendingLeafTask>* tasks,
                                   SimTime now, QueryStats* stats) {
  // Every finish time is known here, so the cutoff is one index into the
  // sorted finish times.
  std::vector<SimTime> sorted;
  sorted.reserve(tasks->size());
  for (const PendingLeafTask& p : *tasks) {
    sorted.push_back(p.placement.finish_time);
  }
  std::sort(sorted.begin(), sorted.end());
  SimTime cutoff = sorted.empty() ? now : sorted.back();
  if (config_.processed_ratio < 1.0 && !sorted.empty()) {
    size_t keep = static_cast<size_t>(
        std::max(1.0, config_.processed_ratio *
                          static_cast<double>(sorted.size())));
    keep = std::min(keep, sorted.size());
    cutoff = sorted[keep - 1];
  }
  // The deadline cuts whatever has not finished — but never below the
  // min_processed_ratio floor: the master keeps waiting past the deadline
  // until enough tasks are in to honor the floor.
  SimTime deadline_cutoff = sorted.empty() ? now : sorted.back();
  if (config_.response_deadline > 0 && !sorted.empty()) {
    deadline_cutoff = now + config_.response_deadline;
    if (config_.min_processed_ratio > 0.0) {
      size_t floor_keep = static_cast<size_t>(
          std::ceil(config_.min_processed_ratio *
                    static_cast<double>(sorted.size())));
      floor_keep = std::min(floor_keep, sorted.size());
      if (floor_keep > 0) {
        deadline_cutoff = std::max(deadline_cutoff, sorted[floor_keep - 1]);
      }
    }
    cutoff = std::min(cutoff, deadline_cutoff);
  }
  // Survivors keep block order, so the merged bytes never depend on the
  // order tasks finished in.
  std::vector<PendingLeafTask> kept;
  kept.reserve(tasks->size());
  for (PendingLeafTask& p : *tasks) {
    if (p.placement.finish_time <= cutoff) {
      kept.push_back(std::move(p));
      continue;
    }
    ++stats->abandoned_tasks;
    if (config_.response_deadline > 0 &&
        p.placement.finish_time > deadline_cutoff) {
      ++stats->tasks_terminated_early;
    }
  }
  *tasks = std::move(kept);
  stats->leaf_finish_time =
      sorted.empty() ? now : std::min(cutoff, sorted.back());
}

Result<MasterServer::Staged> MasterServer::MergeLeafResults(
    std::vector<PendingLeafTask> tasks, const LeafTask& shape,
    const Schema& schema, SimTime now, QueryStats* stats) {
  // --- Stem merge. Every level merges groups of its entries through one
  // (recoverable) stem each; a group whose stem and every replacement died
  // abandons its tasks honestly. Replacement stems for mid-merge deaths
  // get ids from a reserved range, handed out in (deterministic) merge
  // order. ---
  struct StemLevel {
    // Per entry: one partial for aggregate plans; the leaf batches in block
    // order for row plans (see StemOutput).
    std::vector<std::vector<RecordBatch>> batches;
    std::vector<SimTime> finishes;
    std::vector<uint64_t> task_counts;
  };
  // stem id -> the level entries it merges, in merge order.
  using StemGroups = std::map<uint32_t, std::vector<size_t>>;
  uint32_t next_replacement_id = 0xC0000000u;
  auto merge_level = [&](StemLevel in,
                         const StemGroups& groups) -> Result<StemLevel> {
    StemLevel out;
    for (const auto& [stem_id, members] : groups) {
      std::vector<std::vector<RecordBatch>> children;
      std::vector<SimTime> times;
      uint64_t group_tasks = 0;
      for (size_t m : members) {
        children.push_back(std::move(in.batches[m]));
        times.push_back(in.finishes[m]);
        group_tasks += in.task_counts[m];
      }
      FEISU_ASSIGN_OR_RETURN(
          std::optional<StemOutput> merged,
          MergeWithStemRecovery(stem_id, std::move(children),
                                std::move(times), shape, schema,
                                &next_replacement_id, stats));
      if (!merged.has_value()) {
        stats->abandoned_tasks += group_tasks;
        continue;
      }
      out.batches.push_back(std::move(merged->batches));
      out.finishes.push_back(merged->finish_time);
      out.task_counts.push_back(group_tasks);
    }
    return out;
  };

  // Leaf level: tasks are grouped into stems by node id and keep block
  // order inside each group.
  StemLevel level;
  StemGroups by_stem;
  for (PendingLeafTask& p : tasks) {
    uint32_t stem_id = static_cast<uint32_t>(
        p.placement.node_id / std::max<size_t>(1, config_.stem_fanout));
    by_stem[stem_id].push_back(level.batches.size());
    level.batches.emplace_back().push_back(std::move(p.result.batch));
    level.finishes.push_back(p.placement.finish_time);
    level.task_counts.push_back(1);
  }
  FEISU_ASSIGN_OR_RETURN(level, merge_level(std::move(level), by_stem));

  // Very large clusters need more than one stem level: keep collapsing
  // groups of `stem_fanout` stems into higher-level stems until the root
  // fan-in is manageable (paper Fig. 3's tree generalizes to any depth).
  uint32_t next_stem_id = 1u << 20;  // distinct ids for upper levels
  // A collapse fan-in below 2 would never converge.
  const size_t collapse_fanout = std::max<size_t>(2, config_.stem_fanout);
  while (level.batches.size() > collapse_fanout) {
    StemGroups groups;
    for (size_t start = 0; start < level.batches.size();
         start += collapse_fanout) {
      std::vector<size_t>& members = groups[next_stem_id++];
      for (size_t i = start;
           i < std::min(level.batches.size(), start + collapse_fanout); ++i) {
        members.push_back(i);
      }
    }
    FEISU_ASSIGN_OR_RETURN(level, merge_level(std::move(level), groups));
  }

  // --- Master-level final merge. ---
  Staged staged;
  SimTime ready = now;
  uint64_t rows = 0;
  for (size_t i = 0; i < level.batches.size(); ++i) {
    StemInput entry = BatchListTotals(level.batches[i]);
    uint64_t bytes = entry.bytes;
    stats->bytes_shuffled += bytes;
    SimTime transfer;
    if (config_.result_spill_threshold_bytes > 0 &&
        bytes > config_.result_spill_threshold_bytes) {
      // §V-C: too big to stream to the caller — the stem dumps the result
      // to global storage on the (bypass) write flow and passes only the
      // location; the master pulls it on the read flow.
      transfer = config_.network.Transfer(bytes, TrafficClass::kWrite) +
                 config_.network.ControlRoundTrip() +
                 config_.network.Transfer(bytes, TrafficClass::kRead);
      ++stats->spilled_results;
      stats->spilled_bytes += bytes;
    } else {
      transfer = config_.network.Transfer(bytes, TrafficClass::kRead);
    }
    ready = std::max(ready, level.finishes[i] + transfer);
    rows += entry.rows;
  }
  stats->stem_finish_time = ready;

  if (shape.has_aggregate) {
    FEISU_ASSIGN_OR_RETURN(
        Aggregator final_agg,
        Aggregator::Make(shape.group_by, shape.aggregates, schema));
    for (const auto& entry : level.batches) {
      for (const auto& batch : entry) {
        FEISU_RETURN_IF_ERROR(final_agg.ConsumePartial(batch));
      }
    }
    FEISU_ASSIGN_OR_RETURN(staged.batch, final_agg.FinalResult());
    stats->leaf.AccumulateAgg(final_agg.stats());
  } else {
    if (level.batches.empty()) {
      // All tasks abandoned or table empty: synthesize an empty batch with
      // the pruned scan schema.
      staged.batch = RecordBatch(schema.Select(shape.columns));
    } else {
      // The one concatenation of the row exchange, in block order within
      // each stem and stem order across them.
      RecordBatch merged(level.batches[0][0].schema());
      merged.Reserve(rows);
      for (const auto& entry : level.batches) {
        for (const auto& batch : entry) {
          FEISU_RETURN_IF_ERROR(merged.Append(batch));
        }
      }
      staged.batch = std::move(merged);
    }
  }
  staged.finish_time = ready + ChargeMasterRows(rows);
  return staged;
}

SimTime MasterServer::TaskDuration(const TaskStats& stats,
                                   bool local) const {
  SimTime duration = stats.TotalTime();
  if (!local) {
    // Remote read: the block bytes cross the network on the read flow.
    duration += config_.network.Transfer(stats.bytes_read,
                                         TrafficClass::kRead);
  }
  return duration;
}

SimTime MasterServer::RetryBackoff(int attempt) const {
  SimTime backoff = config_.retry_backoff_base;
  for (int i = 0; i < attempt; ++i) {
    backoff = std::min(config_.retry_backoff_cap, backoff * 2);
  }
  return backoff;
}

bool MasterServer::CommitLeafResult(SimTime attempt_time,
                                    const JobContext& ctx, QueryStats* stats,
                                    PendingLeafTask* p, SimTime* resume) {
  if (!p->placement.local) ++stats->remote_tasks;
  scheduler_.CommitTask(&p->placement,
                        TaskDuration(p->result.stats, p->placement.local),
                        attempt_time, ctx.ledger);
  if (FaultInjector* faults = router_->fault_injector()) {
    // Orphaned-task detection: the host crashed while the task ran, so
    // its result never comes back. The master notices about one
    // heartbeat interval after the crash.
    std::optional<SimTime> crash = faults->CrashWithin(
        p->placement.node_id, p->placement.start_time,
        p->placement.finish_time);
    if (crash.has_value()) {
      const NodeInfo* node = cluster_->Node(p->placement.node_id);
      if (node != nullptr && node->alive) {
        cluster_->MarkDead(p->placement.node_id);
        ++stats->failed_nodes;
      }
      *resume = std::max(attempt_time, *crash + cluster_->heartbeat_interval());
      return false;
    }
    // Partition mid-task: the host stays alive (no MarkDead) but its
    // result cannot reach the master; noticed the same way.
    std::optional<SimTime> cut = faults->PartitionedWithin(
        p->placement.node_id, p->placement.start_time,
        p->placement.finish_time);
    if (cut.has_value()) {
      ++stats->partitioned_tasks;
      *resume = std::max(attempt_time, *cut + cluster_->heartbeat_interval());
      return false;
    }
  }
  if (p->placement.straggled) ++stats->straggler_tasks;
  if (p->result.stats.block_skipped) ++stats->skipped_blocks;
  stats->leaf.Accumulate(p->result.stats);
  if (config_.enable_task_result_reuse) {
    job_manager_.CacheResult(p->signature, p->result);
  }
  return true;
}

void MasterServer::LaunchSpeculativeBackups(
    std::vector<PendingLeafTask>* pending, const JobContext& ctx,
    QueryStats* stats) {
  if (!scheduler_.config().enable_backup_tasks) return;
  // Detect over the non-reused placements only: reused tasks cost one
  // control round trip and would drag the typical runtime toward zero.
  std::vector<size_t> candidates;
  std::vector<Placement> placements;
  for (size_t i = 0; i < pending->size(); ++i) {
    if ((*pending)[i].reused) continue;
    candidates.push_back(i);
    placements.push_back((*pending)[i].placement);
  }
  FaultInjector* faults = router_->fault_injector();
  for (const StragglerVerdict& v : scheduler_.DetectStragglers(placements)) {
    PendingLeafTask& p = (*pending)[candidates[v.index]];
    std::optional<uint32_t> alt =
        PickLeafHost(p.replicas, v.detect_time, {p.placement.node_id}).host;
    if (!alt.has_value()) continue;
    ++stats->backup_tasks_launched;
    p.placement.backup_launched = true;
    LeafServer* leaf = (*leaves_)[*alt].get();
    Result<TaskResult> executed = leaf->Execute(p.task, v.detect_time);
    if (!executed.ok()) continue;  // backup hit a fault; original stands
    Placement backup;
    backup.node_id = *alt;
    backup.local = std::find(p.replicas.begin(), p.replicas.end(), *alt) !=
                   p.replicas.end();
    backup.start_time = v.detect_time;
    backup.backup_launched = true;
    scheduler_.CommitTask(&backup,
                          TaskDuration(executed->stats, backup.local),
                          v.detect_time, ctx.ledger);
    if (faults != nullptr) {
      // A backup whose host dies or partitions away mid-run never reports
      // back; the original copy simply stands.
      if (faults
              ->CrashWithin(backup.node_id, backup.start_time,
                            backup.finish_time)
              .has_value() ||
          faults
              ->PartitionedWithin(backup.node_id, backup.start_time,
                                  backup.finish_time)
              .has_value()) {
        continue;
      }
    }
    // First-commit-wins through the ordered slot: the earlier finisher's
    // result occupies it. Every leaf reads the same blocks through the
    // router, so the bytes are identical regardless of the winner.
    if (backup.finish_time < p.placement.finish_time) {
      ++stats->backup_tasks_won;
      if (!backup.local) ++stats->remote_tasks;
      p.placement = backup;
      p.result = std::move(*executed);
    }
  }
}

Result<std::optional<MasterServer::StemOutput>>
MasterServer::MergeWithStemRecovery(
    uint32_t stem_id, std::vector<std::vector<RecordBatch>> children,
    std::vector<SimTime> times, const LeafTask& shape, const Schema& schema,
    uint32_t* next_replacement_id, QueryStats* stats) {
  FaultInjector* faults = router_->fault_injector();
  // Every attempt is charged from the children's byte and row totals; a
  // replacement stem only moves their ready times.
  std::vector<StemInput> inputs;
  inputs.reserve(children.size());
  for (const std::vector<RecordBatch>& child : children) {
    inputs.push_back(BatchListTotals(child));
  }
  uint32_t current_id = stem_id;
  for (int attempt = 0; attempt <= config_.max_task_retries; ++attempt) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      inputs[i].finish_time = times[i];
    }
    StemResult merged = ChargeStemMerge(inputs, config_.network);
    if (faults != nullptr) {
      std::optional<SimTime> crash = faults->StemCrashWithin(
          current_id, merged.start_time, merged.finish_time);
      if (crash.has_value()) {
        // The stem died holding the partial merge. A replacement takes
        // over one heartbeat interval later; the children resend their
        // partials then (modeled by bumping their ready times).
        ++stats->stem_failures;
        if (attempt >= config_.max_task_retries) break;
        ++stats->stem_retries;
        SimTime resume = *crash + cluster_->heartbeat_interval();
        for (SimTime& t : times) t = std::max(t, resume);
        current_id = (*next_replacement_id)++;
        continue;
      }
    }
    // The attempt that stands: aggregate plans merge the children's
    // partials into one; row plans forward the batches unchanged.
    stats->bytes_shuffled += merged.bytes_received;
    StemOutput out;
    out.finish_time = merged.finish_time;
    if (shape.has_aggregate) {
      FEISU_ASSIGN_OR_RETURN(
          Aggregator stem_agg,
          Aggregator::Make(shape.group_by, shape.aggregates, schema));
      for (const std::vector<RecordBatch>& child : children) {
        for (const RecordBatch& batch : child) {
          FEISU_RETURN_IF_ERROR(stem_agg.ConsumePartial(batch));
        }
      }
      FEISU_ASSIGN_OR_RETURN(RecordBatch partial, stem_agg.PartialResult());
      stats->leaf.AccumulateAgg(stem_agg.stats());
      out.batches.push_back(std::move(partial));
    } else {
      for (std::vector<RecordBatch>& child : children) {
        for (RecordBatch& batch : child) {
          out.batches.push_back(std::move(batch));
        }
      }
    }
    return std::optional<StemOutput>(std::move(out));
  }
  // Every replacement died too: the subtree's partials are lost.
  return std::optional<StemOutput>();
}

MasterCheckpoint MasterServer::Checkpoint() const {
  MasterCheckpoint checkpoint;
  checkpoint.tables = catalog_->TableNames();
  checkpoint.jobs = job_manager_.SnapshotJobs();
  return checkpoint;
}

Status MasterServer::RestoreFromCheckpoint(const MasterCheckpoint& checkpoint,
                                           const Catalog& catalog) {
  for (const auto& table : checkpoint.tables) {
    if (catalog.Find(table) == nullptr) {
      return Status::Corruption("checkpoint references missing table " +
                                table);
    }
  }
  return Status::OK();
}

Status MasterServer::Restore(const MasterCheckpoint& checkpoint) {
  FEISU_RETURN_IF_ERROR(RestoreFromCheckpoint(checkpoint, *catalog_));
  job_manager_.RestoreJobs(checkpoint.jobs);
  return Status::OK();
}

Result<QueryResult> MasterServer::ResumeJob(int64_t job_id, SimTime now) {
  std::optional<JobInfo> job = job_manager_.Find(job_id);
  if (!job.has_value()) {
    return Status::NotFound("no such job: " + std::to_string(job_id));
  }
  if (job->state == JobState::kFinished) {
    return Status::InvalidArgument("job already finished: " +
                                   std::to_string(job_id));
  }
  // Admission already happened on the failed primary; re-run from the
  // recorded SQL under the same job id, on this thread (a promoted backup
  // resumes jobs one at a time).
  PendingJob pending;
  FEISU_ASSIGN_OR_RETURN(pending.stmt, ParseSql(job->sql));
  pending.user = job->user;
  pending.now = now;
  {
    MutexLock lock(admission_mutex_);
    ApplyDueNodeEvents(now);
  }
  return RunAdmittedJob(job_id, pending);
}

}  // namespace feisu
