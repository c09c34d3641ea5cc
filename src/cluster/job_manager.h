#ifndef FEISU_CLUSTER_JOB_MANAGER_H_
#define FEISU_CLUSTER_JOB_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/task.h"
#include "common/annotations.h"
#include "common/sim_clock.h"

namespace feisu {

enum class JobState { kQueued, kRunning, kFinished, kFailed };

const char* JobStateName(JobState state);

/// Per-job recovery/speculation accounting, mirrored from QueryStats so a
/// checkpoint/monitoring view carries the job's fault history.
struct JobRecoveryRecord {
  uint64_t task_retries = 0;
  uint64_t corrupt_blocks = 0;
  uint64_t failed_nodes = 0;
  uint64_t lost_blocks = 0;
  uint64_t backup_tasks_launched = 0;
  uint64_t backup_tasks_won = 0;
  uint64_t tasks_terminated_early = 0;
  uint64_t partitioned_tasks = 0;
  uint64_t stem_retries = 0;
  double processed_ratio = 1.0;
};

struct JobInfo {
  int64_t job_id = 0;
  std::string user;
  std::string sql;
  JobState state = JobState::kQueued;
  SimTime submit_time = 0;
  SimTime finish_time = 0;
  std::string error;
  JobRecoveryRecord recovery;
  /// Priority band (higher runs first; FIFO within a band). Set at
  /// submission from kDefaultJobPriority or SubmitOptions.
  int priority = 1;
  /// Storage domain of the job's first table plus that storage system's
  /// resource-consumption agreement on concurrent jobs (0 = unlimited);
  /// the admission drain loop checks both against EntryGuard.
  std::string domain;
  int domain_job_limit = 0;
  /// Host wall-clock time spent queued before a coordinator picked the
  /// job up (observability only; never part of simulated response time).
  double queue_wait_ms = 0;
};

/// Maintains running job information (paper §III-C "Job manager"), the
/// priority admission queue of the multi-query master, and the
/// identical-task result-reuse cache: before a new job's tasks enter the
/// candidate queue, tasks whose signature matches a recently computed task
/// reuse that result instead of executing.
///
/// Concurrency: every member is guarded by `mutex_` — job coordinators on
/// the master's job pool create, pop, finish and cache concurrently, so
/// the PR 5 "single-threaded commit phase" contract no longer applies
/// here. Accessors return snapshots by value, never pointers into the
/// guarded tables. Lock order: callers holding the master's admission
/// mutex may call in (admission -> job-manager -> entry-guard); this
/// class never calls back out into master or EntryGuard except through
/// the caller-supplied PopRunnable predicate, which keeps that edge
/// explicit at the single call site.
class JobManager {
 public:
  explicit JobManager(size_t reuse_cache_capacity = 4096)
      : reuse_capacity_(reuse_cache_capacity) {}

  int64_t CreateJob(const std::string& user, const std::string& sql,
                    SimTime now, int priority = 1)
      FEISU_EXCLUDES(mutex_);
  void SetState(int64_t job_id, JobState state, SimTime now,
                const std::string& error = "") FEISU_EXCLUDES(mutex_);
  /// Snapshot of one job's record; nullopt for unknown ids.
  std::optional<JobInfo> Find(int64_t job_id) const FEISU_EXCLUDES(mutex_);

  /// Sets the job's admission metadata (storage domain + per-storage job
  /// agreement) consulted by the PopRunnable eligibility check.
  void SetAdmissionInfo(int64_t job_id, const std::string& domain,
                        int domain_job_limit) FEISU_EXCLUDES(mutex_);
  void SetQueueWait(int64_t job_id, double queue_wait_ms)
      FEISU_EXCLUDES(mutex_);

  /// --- Priority admission queue (multi-query master). ---
  /// Appends a created job to its priority band's FIFO.
  void EnqueueJob(int64_t job_id) FEISU_EXCLUDES(mutex_);
  /// Pops the next runnable job: highest priority band first, FIFO within
  /// a band, restricted to jobs `eligible` accepts (tenant/storage quota
  /// checks). Anti-starvation aging: every `starvation_boost_interval`-th
  /// successful pop takes the globally oldest eligible job regardless of
  /// band, so sustained high-priority load cannot starve a low band.
  /// Returns nullopt when no queued job is eligible.
  std::optional<int64_t> PopRunnable(
      const std::function<bool(const JobInfo&)>& eligible)
      FEISU_EXCLUDES(mutex_);
  size_t QueueDepth() const FEISU_EXCLUDES(mutex_);
  void set_starvation_boost_interval(size_t interval)
      FEISU_EXCLUDES(mutex_);

  /// Mirrors a finished query's recovery counters onto its job record.
  void RecordRecovery(int64_t job_id, const JobRecoveryRecord& record)
      FEISU_EXCLUDES(mutex_);

  /// Primary/backup support: the job table travels with the master
  /// checkpoint so a promoted backup can resume in-flight jobs.
  std::vector<JobInfo> SnapshotJobs() const FEISU_EXCLUDES(mutex_);
  void RestoreJobs(const std::vector<JobInfo>& jobs) FEISU_EXCLUDES(mutex_);
  /// Ids of jobs that were queued or running (i.e. interrupted when the
  /// primary died), in submission order.
  std::vector<int64_t> UnfinishedJobs() const FEISU_EXCLUDES(mutex_);

  /// Task-result reuse. TryReuse copies a cached result for an identical
  /// task; CacheResult publishes a fresh one (LRU-bounded). Safe to call
  /// from concurrent job coordinators.
  bool TryReuse(const std::string& signature, TaskResult* out)
      FEISU_EXCLUDES(mutex_);
  void CacheResult(const std::string& signature, const TaskResult& result)
      FEISU_EXCLUDES(mutex_);
  void InvalidateReuseCache() FEISU_EXCLUDES(mutex_);

  uint64_t reuse_hits() const FEISU_EXCLUDES(mutex_);
  uint64_t reuse_misses() const FEISU_EXCLUDES(mutex_);

 private:
  /// Removes and returns queue_[band][pos], maintaining the pop counter
  /// the aging boost keys off.
  int64_t PopAt(int band, size_t pos) FEISU_REQUIRES(mutex_);

  mutable Mutex mutex_;

  std::map<int64_t, JobInfo> jobs_ FEISU_GUARDED_BY(mutex_);
  int64_t next_job_id_ FEISU_GUARDED_BY(mutex_) = 1;

  // Priority queue: band -> FIFO of queued job ids (higher band first).
  std::map<int, std::deque<int64_t>> queue_ FEISU_GUARDED_BY(mutex_);
  size_t starvation_boost_interval_ FEISU_GUARDED_BY(mutex_) = 8;
  uint64_t pop_count_ FEISU_GUARDED_BY(mutex_) = 0;

  size_t reuse_capacity_;
  struct ReuseEntry {
    TaskResult result;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, ReuseEntry> reuse_cache_
      FEISU_GUARDED_BY(mutex_);
  std::list<std::string> reuse_lru_ FEISU_GUARDED_BY(mutex_);
  uint64_t reuse_hits_ FEISU_GUARDED_BY(mutex_) = 0;
  uint64_t reuse_misses_ FEISU_GUARDED_BY(mutex_) = 0;
};

}  // namespace feisu

#endif  // FEISU_CLUSTER_JOB_MANAGER_H_
