#include "cluster/entry_guard.h"

namespace feisu {

EntryGuard::EntryGuard(SsoAuthenticator* sso, const Catalog* catalog,
                       uint64_t daily_query_quota)
    : sso_(sso), catalog_(catalog), daily_query_quota_(daily_query_quota) {}

Result<JobCredential> EntryGuard::Admit(const std::string& user,
                                        const std::string& table,
                                        SimTime now) {
  // Phase 1, under mutex_: quota and ACL checks. The quota slot is
  // reserved here so racing admits for the same user cannot overshoot the
  // daily limit while an authentication round trip is in flight.
  {
    MutexLock lock(mutex_);
    // Quota: count queries per simulated day.
    int64_t day = now / (24 * kSimHour);
    auto& [last_day, count] = usage_[user];
    if (last_day != day) {
      last_day = day;
      count = 0;
    }
    if (count >= daily_query_quota_) {
      ++rejected_;
      return Status::ResourceExhausted("user " + user +
                                       " exceeded daily query quota");
    }

    const TableMeta* meta = catalog_->Find(table);
    if (meta == nullptr) {
      ++rejected_;
      return Status::NotFound("table " + table + " not found");
    }
    if (!meta->UserMayRead(user)) {
      ++rejected_;
      return Status::PermissionDenied("user " + user +
                                      " may not read table " + table);
    }
    ++count;
  }

  // Phase 2, no lock held: the certification-system round trip. Holding
  // mutex_ across it would stall every admission and job-accounting path
  // behind the authenticator.
  Result<JobCredential> credential = sso_->Authenticate(user);

  // Phase 3, under mutex_: commit, or roll the reservation back so a
  // failed authentication does not consume quota.
  MutexLock lock(mutex_);
  if (!credential.ok()) {
    auto it = usage_.find(user);
    if (it != usage_.end() && it->second.second > 0) --it->second.second;
    ++rejected_;
    return credential.status();
  }
  ++admitted_;
  return credential;
}

bool EntryGuard::AuthorizeDomain(const JobCredential& credential,
                                 const std::string& domain) const {
  // The authenticator synchronizes itself; per-task authorization must
  // not contend with admission accounting under mutex_.
  return sso_->Authorize(credential, domain);
}

void EntryGuard::set_default_tenant_quota(const TenantQuota& quota) {
  MutexLock lock(mutex_);
  default_tenant_quota_ = quota;
}

void EntryGuard::SetTenantQuota(const std::string& user,
                                const TenantQuota& quota) {
  MutexLock lock(mutex_);
  tenant_quotas_[user] = quota;
}

const TenantQuota& EntryGuard::QuotaFor(const std::string& user) const {
  auto it = tenant_quotas_.find(user);
  return it == tenant_quotas_.end() ? default_tenant_quota_ : it->second;
}

Status EntryGuard::EnqueueJob(const std::string& user,
                              size_t queue_capacity) {
  MutexLock lock(mutex_);
  if (queue_capacity > 0 && jobs_queued_ >= queue_capacity) {
    ++jobs_rejected_;
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(queue_capacity) +
        " jobs waiting); retry later");
  }
  const TenantQuota& quota = QuotaFor(user);
  if (quota.max_queued_jobs > 0 &&
      tenant_queued_[user] >= quota.max_queued_jobs) {
    ++jobs_rejected_;
    ++tenant_quota_hits_[user];
    return Status::ResourceExhausted(
        "tenant " + user + " exceeded queued-job quota (" +
        std::to_string(quota.max_queued_jobs) + ")");
  }
  ++tenant_queued_[user];
  ++jobs_queued_;
  ++jobs_admitted_;
  return Status::OK();
}

bool EntryGuard::MayStartJob(const std::string& user,
                             const std::string& domain,
                             int domain_job_limit) {
  MutexLock lock(mutex_);
  const TenantQuota& quota = QuotaFor(user);
  if (quota.max_concurrent_jobs > 0 &&
      tenant_running_[user] >= quota.max_concurrent_jobs) {
    ++tenant_quota_hits_[user];
    return false;
  }
  if (domain_job_limit > 0 && !domain.empty() &&
      domain_running_[domain] >= static_cast<uint64_t>(domain_job_limit)) {
    return false;
  }
  return true;
}

void EntryGuard::StartJob(const std::string& user,
                          const std::string& domain) {
  MutexLock lock(mutex_);
  if (tenant_queued_[user] > 0) --tenant_queued_[user];
  if (jobs_queued_ > 0) --jobs_queued_;
  ++tenant_running_[user];
  ++jobs_running_;
  if (!domain.empty()) ++domain_running_[domain];
}

void EntryGuard::FinishJob(const std::string& user,
                           const std::string& domain) {
  MutexLock lock(mutex_);
  if (tenant_running_[user] > 0) --tenant_running_[user];
  if (jobs_running_ > 0) --jobs_running_;
  if (!domain.empty() && domain_running_[domain] > 0) {
    --domain_running_[domain];
  }
}

AdmissionSnapshot EntryGuard::admission_snapshot() const {
  MutexLock lock(mutex_);
  AdmissionSnapshot snapshot;
  snapshot.jobs_admitted = jobs_admitted_;
  snapshot.jobs_rejected = jobs_rejected_;
  snapshot.jobs_queued = jobs_queued_;
  snapshot.jobs_running = jobs_running_;
  snapshot.tenant_quota_hits = tenant_quota_hits_;
  return snapshot;
}

uint64_t EntryGuard::rejected_count() const {
  MutexLock lock(mutex_);
  return rejected_;
}

uint64_t EntryGuard::admitted_count() const {
  MutexLock lock(mutex_);
  return admitted_;
}

}  // namespace feisu
