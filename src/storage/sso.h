#ifndef FEISU_STORAGE_SSO_H_
#define FEISU_STORAGE_SSO_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"

namespace feisu {

/// A short-lived credential attached to a running job. It carries the set
/// of storage domains the submitting user may touch, so every leaf server
/// can authorize reads without a round trip to the certification system.
struct JobCredential {
  std::string user;
  uint64_t token = 0;
  std::vector<std::string> domains;

  bool HasDomain(const std::string& domain) const;
};

/// Single-Sign-On across independent storage domains (paper §V-A). Models
/// the X.509/PAM flow: users are enrolled once, granted per-domain access
/// offline, and at job submission their authentication information is
/// mapped into a JobCredential covering all granted domains.
///
/// Internally synchronized: Authenticate models a certification-system
/// round trip, so callers must be able to reach it without holding their
/// own locks (blocking-under-lock gate); per-task Authorize calls from
/// workers race freely against credential mints.
class SsoAuthenticator {
 public:
  SsoAuthenticator() = default;

  void RegisterUser(const std::string& user);

  /// Grants `user` access to a storage `domain`. Unknown users are
  /// registered implicitly.
  void GrantDomain(const std::string& user, const std::string& domain);
  void RevokeDomain(const std::string& user, const std::string& domain);

  /// Authenticates a user and mints a job credential covering all granted
  /// domains. PermissionDenied for unknown users.
  Result<JobCredential> Authenticate(const std::string& user);

  /// Checks a credential (token must be live) against a domain.
  bool Authorize(const JobCredential& credential,
                 const std::string& domain) const;

  /// Invalidates an issued credential (e.g. job finished).
  void Revoke(const JobCredential& credential);

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::set<std::string>> user_domains_
      FEISU_GUARDED_BY(mutex_);
  std::set<uint64_t> live_tokens_ FEISU_GUARDED_BY(mutex_);
  uint64_t next_token_ FEISU_GUARDED_BY(mutex_) = 1;
};

}  // namespace feisu

#endif  // FEISU_STORAGE_SSO_H_
