#include "storage/sso.h"

#include <algorithm>

namespace feisu {

bool JobCredential::HasDomain(const std::string& domain) const {
  return std::find(domains.begin(), domains.end(), domain) != domains.end();
}

void SsoAuthenticator::RegisterUser(const std::string& user) {
  MutexLock lock(mutex_);
  user_domains_.emplace(user, std::set<std::string>{});
}

void SsoAuthenticator::GrantDomain(const std::string& user,
                                   const std::string& domain) {
  MutexLock lock(mutex_);
  user_domains_[user].insert(domain);
}

void SsoAuthenticator::RevokeDomain(const std::string& user,
                                    const std::string& domain) {
  MutexLock lock(mutex_);
  auto it = user_domains_.find(user);
  if (it != user_domains_.end()) it->second.erase(domain);
}

Result<JobCredential> SsoAuthenticator::Authenticate(const std::string& user) {
  MutexLock lock(mutex_);
  auto it = user_domains_.find(user);
  if (it == user_domains_.end()) {
    return Status::PermissionDenied("unknown user " + user);
  }
  JobCredential credential;
  credential.user = user;
  credential.token = next_token_++;
  credential.domains.assign(it->second.begin(), it->second.end());
  live_tokens_.insert(credential.token);
  return credential;
}

bool SsoAuthenticator::Authorize(const JobCredential& credential,
                                 const std::string& domain) const {
  MutexLock lock(mutex_);
  if (!live_tokens_.contains(credential.token)) return false;
  return credential.HasDomain(domain);
}

void SsoAuthenticator::Revoke(const JobCredential& credential) {
  MutexLock lock(mutex_);
  live_tokens_.erase(credential.token);
}

}  // namespace feisu
