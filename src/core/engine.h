#ifndef FEISU_CORE_ENGINE_H_
#define FEISU_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/master.h"
#include "common/fault_injector.h"
#include "common/result.h"
#include "plan/catalog.h"
#include "storage/path_router.h"
#include "storage/sso.h"

namespace feisu {

/// Whole-deployment configuration.
struct EngineConfig {
  size_t num_leaf_nodes = 8;
  uint32_t rows_per_block = 4096;
  LeafServerConfig leaf;
  MasterConfig master;
  /// Deterministic chaos schedule applied to the whole deployment
  /// (disabled by default). See docs/FAULTS.md.
  FaultConfig fault;
};

/// The top-level Feisu deployment: heterogeneous storage systems behind the
/// common storage layer, a catalog, an SSO authenticator, a simulated
/// cluster of leaf servers and the master. This is the public API the
/// examples and benchmarks drive.
///
/// Typical use:
///
///   EngineConfig config;
///   FeisuEngine engine(config);
///   engine.AddStorage("/hdfs", MakeHdfs());
///   engine.GrantAllDomains("ana");
///   engine.CreateTable("t1", schema, "/hdfs/t1");
///   engine.Ingest("t1", batch);
///   auto result = engine.Query("ana", "SELECT COUNT(*) FROM t1 WHERE ...");
class FeisuEngine {
 public:
  explicit FeisuEngine(EngineConfig config);

  FeisuEngine(const FeisuEngine&) = delete;
  FeisuEngine& operator=(const FeisuEngine&) = delete;

  /// Registers a storage system under a path prefix and makes every leaf
  /// node eligible to hold its replicas (local FS pins per-node instead).
  StorageSystem* AddStorage(const std::string& prefix,
                            std::unique_ptr<StorageSystem> storage,
                            bool is_default = false);

  /// Enrolls a user and grants them every registered storage domain.
  void GrantAllDomains(const std::string& user);
  SsoAuthenticator& sso() { return sso_; }

  /// Creates an empty table whose blocks will live under `path_prefix`
  /// (the prefix decides the storage system).
  Status CreateTable(const std::string& name, Schema schema,
                     const std::string& path_prefix);

  /// Appends rows; full blocks are encoded and written out automatically.
  Status Ingest(const std::string& table, const RecordBatch& batch);

  /// Flushes any buffered rows of `table` into a final block.
  Status Flush(const std::string& table);

  /// Ingests newline-separated JSON documents, flattening nested fields to
  /// columns. All documents must flatten onto the table's schema (missing
  /// attributes become NULL; unknown attributes are rejected).
  Status IngestJsonLines(const std::string& table, const std::string& lines);

  /// Compacts a table's undersized blocks: blocks below half the
  /// configured block size are read back, concatenated, re-encoded into
  /// full blocks and rewritten; the originals are deleted. Freshness-driven
  /// ingestion (LogMonitor's age-based flushes) produces many small blocks,
  /// and per-block task overhead makes them expensive to query. Returns the
  /// number of blocks removed by the pass. Invalidates cached task results
  /// (old block ids disappear; orphaned SmartIndex entries age out via TTL).
  Result<size_t> CompactTable(const std::string& table);

  /// Runs one query as `user` at the engine's current simulated time. The
  /// engine clock advances by the query's simulated response time.
  Result<QueryResult> Query(const std::string& user, const std::string& sql);

  /// Runs a query at an explicit simulated timestamp (trace replay).
  Result<QueryResult> QueryAt(const std::string& user, const std::string& sql,
                              SimTime now);

  /// Async pair of QueryAt: submit returns the job id once the job is
  /// admitted and queued (at master.max_concurrent_jobs = 1, once the
  /// calling thread has drained the queue); wait blocks for its result.
  /// Safe to call from many client threads; the engine clock does not
  /// advance (each job's simulated response time is measured from its
  /// own `now`).
  Result<int64_t> SubmitQueryAt(const std::string& user,
                                const std::string& sql, SimTime now,
                                const SubmitOptions& options = {});
  Result<QueryResult> WaitQuery(int64_t job_id);

  SimClock& clock() { return clock_; }
  Catalog& catalog() { return catalog_; }
  PathRouter& router() { return router_; }
  FaultInjector& fault_injector() { return fault_injector_; }
  MasterServer& master() { return *master_; }
  ClusterManager& cluster() { return cluster_; }
  LeafServer& leaf(size_t i) { return *leaves_[i]; }
  size_t num_leaves() const { return leaves_.size(); }
  /// The leaf-server pool, shared with a backup master during failover.
  std::vector<std::unique_ptr<LeafServer>>* leaf_servers() { return &leaves_; }

  /// Sums index-cache statistics over all leaf servers.
  IndexCacheStats AggregateIndexStats() const;
  /// Sums resolver statistics over all leaf servers.
  ResolverStats AggregateResolverStats() const;
  /// Total SmartIndex memory across leaves.
  uint64_t TotalIndexMemory() const;

  /// Periodic control-plane maintenance at simulated time `now`: every
  /// alive leaf heartbeats the cluster manager, liveness is swept, and
  /// each leaf's index cache drops TTL-expired entries. Production Feisu
  /// runs this continuously; benches/tests call it explicitly.
  void RunMaintenance(SimTime now);

  /// Reconfigures every leaf's index-cache capacity (Fig. 11 sweeps).
  void SetIndexCacheCapacity(uint64_t bytes);
  /// Clears all leaf caches and scheduler load (between experiments).
  void ResetCaches();

 private:
  struct IngestState {
    std::string path_prefix;
    RecordBatch pending;
    int64_t next_block = 0;
  };

  Status WriteBlock(const std::string& table, IngestState* state);

  EngineConfig config_;
  SimClock clock_;
  FaultInjector fault_injector_;
  PathRouter router_;
  Catalog catalog_;
  SsoAuthenticator sso_;
  ClusterManager cluster_;
  std::vector<std::unique_ptr<LeafServer>> leaves_;
  std::unique_ptr<MasterServer> master_;
  std::map<std::string, IngestState> ingest_;
  /// Leaves whose heartbeats maintenance is currently suppressing because
  /// of a network partition (the process itself keeps running). A node
  /// swept dead for this reason revives on the first heartbeat after the
  /// partition heals; a node that actually crashed does not.
  std::set<uint32_t> partition_suppressed_;
  int64_t next_global_block_id_ = 0;
};

}  // namespace feisu

#endif  // FEISU_CORE_ENGINE_H_
