#include "cluster/job_manager.h"

#include <algorithm>

namespace feisu {

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "QUEUED";
    case JobState::kRunning:
      return "RUNNING";
    case JobState::kFinished:
      return "FINISHED";
    case JobState::kFailed:
      return "FAILED";
  }
  return "?";
}

int64_t JobManager::CreateJob(const std::string& user, const std::string& sql,
                              SimTime now, int priority) {
  MutexLock lock(mutex_);
  JobInfo job;
  job.job_id = next_job_id_++;
  job.user = user;
  job.sql = sql;
  job.submit_time = now;
  job.priority = priority;
  int64_t id = job.job_id;
  jobs_.emplace(id, std::move(job));
  return id;
}

void JobManager::SetState(int64_t job_id, JobState state, SimTime now,
                          const std::string& error) {
  MutexLock lock(mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  it->second.state = state;
  if (state == JobState::kFinished || state == JobState::kFailed) {
    it->second.finish_time = now;
  }
  it->second.error = error;
}

std::optional<JobInfo> JobManager::Find(int64_t job_id) const {
  MutexLock lock(mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

void JobManager::SetAdmissionInfo(int64_t job_id, const std::string& domain,
                                  int domain_job_limit) {
  MutexLock lock(mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  it->second.domain = domain;
  it->second.domain_job_limit = domain_job_limit;
}

void JobManager::SetQueueWait(int64_t job_id, double queue_wait_ms) {
  MutexLock lock(mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  it->second.queue_wait_ms = queue_wait_ms;
}

void JobManager::EnqueueJob(int64_t job_id) {
  MutexLock lock(mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  queue_[it->second.priority].push_back(job_id);
}

std::optional<int64_t> JobManager::PopRunnable(
    const std::function<bool(const JobInfo&)>& eligible) {
  MutexLock lock(mutex_);
  // Aging: every starvation_boost_interval-th pop serves the globally
  // oldest eligible job (smallest id = earliest submission), whatever its
  // band. Deterministic, so starvation tests can assert the exact bound.
  bool boost = starvation_boost_interval_ > 0 &&
               (pop_count_ + 1) % starvation_boost_interval_ == 0;
  if (boost) {
    bool found = false;
    int64_t best_id = 0;
    int best_band = 0;
    size_t best_pos = 0;
    for (const auto& [band, fifo] : queue_) {
      for (size_t pos = 0; pos < fifo.size(); ++pos) {
        const JobInfo& job = jobs_.at(fifo[pos]);
        if (!eligible(job)) continue;
        if (!found || fifo[pos] < best_id) {
          found = true;
          best_id = fifo[pos];
          best_band = band;
          best_pos = pos;
        }
        break;  // FIFO within a band: only its oldest entry can win
      }
    }
    if (found) return PopAt(best_band, best_pos);
    return std::nullopt;
  }
  for (auto band_it = queue_.rbegin(); band_it != queue_.rend(); ++band_it) {
    const std::deque<int64_t>& fifo = band_it->second;
    for (size_t pos = 0; pos < fifo.size(); ++pos) {
      const JobInfo& job = jobs_.at(fifo[pos]);
      if (eligible(job)) return PopAt(band_it->first, pos);
    }
  }
  return std::nullopt;
}

int64_t JobManager::PopAt(int band, size_t pos) {
  auto band_it = queue_.find(band);
  int64_t id = band_it->second[pos];
  band_it->second.erase(band_it->second.begin() + static_cast<long>(pos));
  if (band_it->second.empty()) queue_.erase(band_it);
  ++pop_count_;
  return id;
}

size_t JobManager::QueueDepth() const {
  MutexLock lock(mutex_);
  size_t depth = 0;
  for (const auto& [band, fifo] : queue_) depth += fifo.size();
  return depth;
}

void JobManager::set_starvation_boost_interval(size_t interval) {
  MutexLock lock(mutex_);
  starvation_boost_interval_ = interval;
}

void JobManager::RecordRecovery(int64_t job_id,
                                const JobRecoveryRecord& record) {
  MutexLock lock(mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  it->second.recovery = record;
}

std::vector<JobInfo> JobManager::SnapshotJobs() const {
  MutexLock lock(mutex_);
  std::vector<JobInfo> jobs;
  jobs.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) jobs.push_back(job);
  return jobs;
}

void JobManager::RestoreJobs(const std::vector<JobInfo>& jobs) {
  MutexLock lock(mutex_);
  jobs_.clear();
  queue_.clear();
  next_job_id_ = 1;
  for (const JobInfo& job : jobs) {
    jobs_.emplace(job.job_id, job);
    next_job_id_ = std::max(next_job_id_, job.job_id + 1);
  }
}

std::vector<int64_t> JobManager::UnfinishedJobs() const {
  MutexLock lock(mutex_);
  std::vector<int64_t> ids;
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::kQueued || job.state == JobState::kRunning) {
      ids.push_back(id);
    }
  }
  return ids;
}

bool JobManager::TryReuse(const std::string& signature, TaskResult* out) {
  MutexLock lock(mutex_);
  auto it = reuse_cache_.find(signature);
  if (it == reuse_cache_.end()) {
    ++reuse_misses_;
    return false;
  }
  ++reuse_hits_;
  reuse_lru_.erase(it->second.lru_it);
  reuse_lru_.push_front(signature);
  it->second.lru_it = reuse_lru_.begin();
  *out = it->second.result;
  // A reused result costs nothing to recompute; the stats of the original
  // execution must not be double counted.
  out->stats = TaskStats();
  return true;
}

void JobManager::CacheResult(const std::string& signature,
                             const TaskResult& result) {
  if (reuse_capacity_ == 0) return;
  MutexLock lock(mutex_);
  auto it = reuse_cache_.find(signature);
  if (it != reuse_cache_.end()) {
    reuse_lru_.erase(it->second.lru_it);
    reuse_cache_.erase(it);
  }
  while (reuse_cache_.size() >= reuse_capacity_) {
    reuse_cache_.erase(reuse_lru_.back());
    reuse_lru_.pop_back();
  }
  reuse_lru_.push_front(signature);
  reuse_cache_.emplace(signature, ReuseEntry{result, reuse_lru_.begin()});
}

void JobManager::InvalidateReuseCache() {
  MutexLock lock(mutex_);
  reuse_cache_.clear();
  reuse_lru_.clear();
}

uint64_t JobManager::reuse_hits() const {
  MutexLock lock(mutex_);
  return reuse_hits_;
}

uint64_t JobManager::reuse_misses() const {
  MutexLock lock(mutex_);
  return reuse_misses_;
}

}  // namespace feisu
