#ifndef FEISU_CLUSTER_ENTRY_GUARD_H_
#define FEISU_CLUSTER_ENTRY_GUARD_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/annotations.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "plan/catalog.h"
#include "storage/sso.h"

namespace feisu {

/// Per-tenant admission quota (0 = unlimited). `max_concurrent_jobs`
/// queues — not rejects — a job that would exceed it; `max_queued_jobs`
/// rejects outright once the tenant's backlog is that deep. This is the
/// explicit rejection-vs-queueing split of the paper's entry guard:
/// concurrency pressure waits, backlog pressure bounces.
struct TenantQuota {
  uint32_t max_concurrent_jobs = 0;
  uint32_t max_queued_jobs = 0;
};

/// Snapshot of job-level admission accounting, surfaced through
/// QueryStats / FormatQueryStats.
struct AdmissionSnapshot {
  uint64_t jobs_admitted = 0;   ///< accepted into the admission queue
  uint64_t jobs_rejected = 0;   ///< bounced (backpressure or tenant backlog)
  uint64_t jobs_queued = 0;     ///< waiting for a coordinator right now
  uint64_t jobs_running = 0;    ///< executing right now
  /// Times a tenant's quota gated a job: backlog rejections plus start
  /// deferrals while the tenant sat at max_concurrent_jobs.
  std::map<std::string, uint64_t> tenant_quota_hits;
};

/// The entry point of the system (paper §III-C): security checking of
/// access flows, dispatch of incoming traffic, and capability protection
/// against malicious/runaway clients via per-user daily query quotas,
/// per-tenant concurrency/backlog quotas and per-storage
/// resource-consumption agreements on concurrent jobs.
///
/// Concurrency: quota and accounting state is serialized under `mutex_`;
/// the SsoAuthenticator synchronizes itself, and Admit never holds
/// `mutex_` across the authentication round trip (the daily-quota slot is
/// reserved first and rolled back if authentication fails). Concurrent
/// job coordinators and submitting clients may call in freely. Never
/// calls out into JobManager or MasterServer (leaf of the admission lock
/// order).
class EntryGuard {
 public:
  EntryGuard(SsoAuthenticator* sso, const Catalog* catalog,
             uint64_t daily_query_quota = 10'000);

  /// Admits a query: authenticates the user (minting a job credential),
  /// verifies the user may read `table`, and enforces the quota. Returns
  /// the credential attached to the job on success.
  Result<JobCredential> Admit(const std::string& user,
                              const std::string& table, SimTime now)
      FEISU_EXCLUDES(mutex_);

  /// Authorizes a job credential against the storage domain owning `path`
  /// (called per-task by workers).
  bool AuthorizeDomain(const JobCredential& credential,
                       const std::string& domain) const
      FEISU_EXCLUDES(mutex_);

  /// --- Job-level admission (multi-query master). ---
  void set_default_tenant_quota(const TenantQuota& quota)
      FEISU_EXCLUDES(mutex_);
  void SetTenantQuota(const std::string& user, const TenantQuota& quota)
      FEISU_EXCLUDES(mutex_);

  /// Accepts a job into the admission queue, or rejects it: when the
  /// master's bounded queue is full (`queue_capacity` > 0 and that many
  /// jobs already queued) or the tenant's backlog quota is exhausted the
  /// job bounces with ResourceExhausted and the counters say so honestly.
  Status EnqueueJob(const std::string& user, size_t queue_capacity)
      FEISU_EXCLUDES(mutex_);

  /// Whether `user` may start a job now under its concurrency quota and
  /// the storage system's job agreement (`domain_job_limit`, 0 =
  /// unlimited). Counts a tenant quota hit on each concurrency deferral.
  bool MayStartJob(const std::string& user, const std::string& domain,
                   int domain_job_limit) FEISU_EXCLUDES(mutex_);

  /// Transitions an enqueued job to running / releases a finished one.
  void StartJob(const std::string& user, const std::string& domain)
      FEISU_EXCLUDES(mutex_);
  void FinishJob(const std::string& user, const std::string& domain)
      FEISU_EXCLUDES(mutex_);

  AdmissionSnapshot admission_snapshot() const FEISU_EXCLUDES(mutex_);

  uint64_t rejected_count() const FEISU_EXCLUDES(mutex_);
  uint64_t admitted_count() const FEISU_EXCLUDES(mutex_);

 private:
  const TenantQuota& QuotaFor(const std::string& user) const
      FEISU_REQUIRES(mutex_);

  SsoAuthenticator* sso_;  // internally synchronized
  const Catalog* catalog_;
  uint64_t daily_query_quota_;

  mutable Mutex mutex_;
  // user -> (day, count) of the per-day query quota.
  std::map<std::string, std::pair<int64_t, uint64_t>> usage_
      FEISU_GUARDED_BY(mutex_);
  uint64_t rejected_ FEISU_GUARDED_BY(mutex_) = 0;
  uint64_t admitted_ FEISU_GUARDED_BY(mutex_) = 0;

  TenantQuota default_tenant_quota_ FEISU_GUARDED_BY(mutex_);
  std::map<std::string, TenantQuota> tenant_quotas_ FEISU_GUARDED_BY(mutex_);
  std::map<std::string, uint64_t> tenant_queued_ FEISU_GUARDED_BY(mutex_);
  std::map<std::string, uint64_t> tenant_running_ FEISU_GUARDED_BY(mutex_);
  std::map<std::string, uint64_t> domain_running_ FEISU_GUARDED_BY(mutex_);
  uint64_t jobs_admitted_ FEISU_GUARDED_BY(mutex_) = 0;
  uint64_t jobs_rejected_ FEISU_GUARDED_BY(mutex_) = 0;
  uint64_t jobs_queued_ FEISU_GUARDED_BY(mutex_) = 0;
  uint64_t jobs_running_ FEISU_GUARDED_BY(mutex_) = 0;
  std::map<std::string, uint64_t> tenant_quota_hits_
      FEISU_GUARDED_BY(mutex_);
};

}  // namespace feisu

#endif  // FEISU_CLUSTER_ENTRY_GUARD_H_
