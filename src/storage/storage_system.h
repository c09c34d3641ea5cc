#ifndef FEISU_STORAGE_STORAGE_SYSTEM_H_
#define FEISU_STORAGE_STORAGE_SYSTEM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/sim_clock.h"

namespace feisu {

/// I/O cost personality of a storage system. Simulated time charged for a
/// read is `seek_latency + bytes / read_bandwidth`.
struct StorageCostModel {
  SimTime seek_latency = 5 * kSimMillisecond;
  double read_bandwidth_bytes_per_sec = 100.0 * 1024 * 1024;   // SATA-ish
  double write_bandwidth_bytes_per_sec = 80.0 * 1024 * 1024;

  SimTime ReadCost(uint64_t bytes) const {
    return seek_latency +
           static_cast<SimTime>(static_cast<double>(bytes) /
                                read_bandwidth_bytes_per_sec * kSimSecond);
  }
  SimTime WriteCost(uint64_t bytes) const {
    return seek_latency +
           static_cast<SimTime>(static_cast<double>(bytes) /
                                write_bandwidth_bytes_per_sec * kSimSecond);
  }
};

/// Limits Feisu's footprint on a business-critical storage system (paper
/// §V-A: "resource consumption agreement"). The scheduler must not assign
/// more than `max_concurrent_tasks` Feisu tasks to any node of this system,
/// and leaves `reserved_bandwidth_fraction` of I/O to the business workload
/// (which scales the effective read bandwidth Feisu sees). The multi-query
/// master additionally caps how many in-flight *jobs* may read this system
/// at once (`max_concurrent_jobs`, 0 = unlimited): excess jobs wait in the
/// admission queue rather than dispatching tasks against it.
struct ResourceAgreement {
  int max_concurrent_tasks = 4;
  double reserved_bandwidth_fraction = 0.0;
  int max_concurrent_jobs = 0;
};

/// Per-file placement record.
struct FileEntry {
  std::string payload;
  std::vector<uint32_t> replica_nodes;
};

/// A simulated storage system: an independent authentication domain with an
/// in-memory file namespace, replica placement over registered storage
/// nodes, and an I/O cost personality. HDFS, Fatman (cold archival) and
/// local filesystems are instances with different parameters — see
/// storage/storage_factory.h.
class StorageSystem {
 public:
  StorageSystem(std::string name, std::string domain, StorageCostModel cost,
                int replication_factor);

  StorageSystem(const StorageSystem&) = delete;
  StorageSystem& operator=(const StorageSystem&) = delete;

  const std::string& name() const { return name_; }
  /// Authentication domain (SSO maps user credentials per domain).
  const std::string& domain() const { return domain_; }
  int replication_factor() const { return replication_factor_; }
  const StorageCostModel& cost_model() const { return cost_; }
  ResourceAgreement& agreement() { return agreement_; }
  const ResourceAgreement& agreement() const { return agreement_; }

  /// Makes a cluster node eligible to hold replicas of this system.
  void RegisterNode(uint32_t node_id);
  const std::vector<uint32_t>& nodes() const { return nodes_; }

  /// Writes a file; replicas are placed pseudo-randomly over registered
  /// nodes (deterministic given the path). Fails if no nodes registered.
  Status Write(const std::string& path, std::string payload);

  /// Writes pinned to one node (local-FS log data is generated in place on
  /// the online service machine and never replicated off it).
  Status WriteToNode(const std::string& path, std::string payload,
                     uint32_t node_id);

  /// Zero-copy access to a file payload (cost is charged by the caller via
  /// ReadCost, because Feisu's columnar reader only pays for the columns it
  /// touches).
  Result<const std::string*> Get(const std::string& path) const;

  bool Exists(const std::string& path) const;
  Status Delete(const std::string& path);

  /// Node ids holding replicas of `path` (empty if absent).
  std::vector<uint32_t> ReplicaNodes(const std::string& path) const;

  /// Paths with the given prefix, sorted.
  std::vector<std::string> List(const std::string& prefix) const;

  /// Simulated time to read/write `bytes`, after the resource agreement's
  /// bandwidth reservation.
  SimTime ReadCost(uint64_t bytes) const;
  SimTime WriteCost(uint64_t bytes) const;

  uint64_t TotalBytes() const { return total_bytes_; }

 private:
  std::string name_;
  std::string domain_;
  StorageCostModel cost_;
  int replication_factor_;
  ResourceAgreement agreement_;
  std::vector<uint32_t> nodes_;
  std::map<std::string, FileEntry> files_;
  uint64_t total_bytes_ = 0;
};

}  // namespace feisu

#endif  // FEISU_STORAGE_STORAGE_SYSTEM_H_
