#ifndef FEISU_CLUSTER_LEAF_SERVER_H_
#define FEISU_CLUSTER_LEAF_SERVER_H_

#include <memory>
#include <unordered_map>

#include "cluster/task.h"
#include "common/annotations.h"
#include "common/result.h"
#include "index/btree_index.h"
#include "index/index_cache.h"
#include "index/index_resolver.h"
#include "storage/path_router.h"
#include "storage/ssd_cache.h"

namespace feisu {

/// Execution-mode and cost knobs for one leaf server.
struct LeafServerConfig {
  IndexCacheConfig index_cache;
  bool enable_smart_index = true;
  bool enable_btree_index = false;  ///< Fig. 9b baseline mode
  bool enable_zone_maps = true;     ///< min/max block skipping
  /// Optional SSD column cache; 0 disables it.
  uint64_t ssd_capacity_bytes = 0;
  CachePolicy ssd_policy = CachePolicy::kManual;

  /// Paper-scale multiplier: every synthetic row stands for this many
  /// production rows. Scales simulated I/O bytes and per-row CPU charges
  /// (not results), so laptop-sized blocks exercise the cost regime of the
  /// paper's terabyte tables. 1.0 = charge exactly what is stored.
  double sim_data_scale = 1.0;

  // CPU cost constants (per-row / per-word simulated charges).
  SimTime cpu_task_fixed = 20 * kSimMicrosecond;  ///< per-task overhead
  SimTime cpu_per_row_predicate = 12;   ///< evaluate one predicate on one row
  SimTime cpu_per_row_aggregate = 8;
  SimTime cpu_per_row_materialize = 6;
  SimTime cpu_per_bitmap_word = 1;      ///< SmartIndex combine cost
  SimTime cpu_per_btree_probe = 250;    ///< one tree descent
  SimTime cpu_per_row_btree_build = 40;
  SimTime cpu_per_row_btree_emit = 2;   ///< materializing matching row ids
};

/// A leaf server: the light-weight Feisu process deployed on each storage
/// node. It executes scan sub-plans over local blocks, maintains the
/// SmartIndex cache (and optionally the B-tree baseline), and charges all
/// I/O and CPU against simulated time.
///
/// Execute() is safe to call concurrently: the paper's leaf processes run
/// several sub-plans at once next to the storage node, and the parallel
/// leaf path fans block tasks across a thread pool. All shared leaf state
/// (SmartIndex cache, B-tree manager, SSD cache, decoded-block memo,
/// resolver statistics) is internally synchronized; everything else in
/// Execute is per-task local.
class LeafServer {
 public:
  LeafServer(uint32_t node_id, PathRouter* router, LeafServerConfig config);

  LeafServer(const LeafServer&) = delete;
  LeafServer& operator=(const LeafServer&) = delete;

  uint32_t node_id() const { return node_id_; }
  const LeafServerConfig& config() const { return config_; }

  /// Executes one task at simulated time `now`. The returned stats carry
  /// the simulated io/cpu cost of the task; the caller (scheduler) turns
  /// that into completion times.
  Result<TaskResult> Execute(const LeafTask& task, SimTime now);

  IndexCache& index_cache() { return index_cache_; }
  /// Aggregated over every finished Execute call (snapshot by value; a
  /// per-task resolver merges into this under a mutex when the task ends).
  ResolverStats resolver_stats() const FEISU_EXCLUDES(resolver_stats_mutex_);
  BTreeIndexManager& btree_manager() { return btree_manager_; }
  SsdCache* ssd_cache() { return ssd_cache_.get(); }

 private:
  /// Loads + decodes a block, charging `io` for the given columns only
  /// (columnar read). The decoded block is memoized in host memory to keep
  /// wall-clock benches fast; simulated I/O is charged on every call. When
  /// a FaultInjector is attached to the router, the read may fail with
  /// Unavailable (transient I/O error) or Corruption (checksum mismatch on
  /// a damaged replica).
  Result<const ColumnarBlock*> LoadBlock(const TableBlockMeta& meta);

  /// The replica node this leaf's reads of `path` come from: itself when it
  /// holds a copy, otherwise the first intact remote replica.
  uint32_t PickSourceReplica(const std::string& path) const;

  /// Charges the I/O for reading a `fraction` of each of `columns` of
  /// `block` (late materialization), via the SSD cache when enabled.
  SimTime ChargeColumnRead(const ColumnarBlock& block,
                           const TableBlockMeta& meta,
                           const std::vector<std::string>& columns,
                           double fraction, TaskStats* stats);

  /// Per-row CPU charge helper honoring sim_data_scale.
  SimTime RowCost(uint64_t rows, SimTime per_row) const {
    return static_cast<SimTime>(static_cast<double>(rows) *
                                config_.sim_data_scale *
                                static_cast<double>(per_row));
  }

  /// Folds one finished task's resolver statistics into the aggregate.
  void MergeResolverStats(const ResolverStats& stats)
      FEISU_EXCLUDES(resolver_stats_mutex_);

  // node_id_, router_ and config_ are immutable after construction; the
  // caches are internally synchronized (their own annotated mutexes).
  uint32_t node_id_;
  PathRouter* router_;
  LeafServerConfig config_;
  IndexCache index_cache_;
  BTreeIndexManager btree_manager_;
  std::unique_ptr<SsdCache> ssd_cache_;
  /// Aggregate of per-task resolver stats, guarded by its own mutex.
  mutable Mutex resolver_stats_mutex_;
  ResolverStats resolver_stats_ FEISU_GUARDED_BY(resolver_stats_mutex_);
  /// Host-memory memo of decoded blocks; pointer-stable (node-based map),
  /// so a reference handed out under the lock stays valid afterwards.
  mutable Mutex decoded_mutex_;
  std::unordered_map<std::string, ColumnarBlock> decoded_blocks_
      FEISU_GUARDED_BY(decoded_mutex_);
};

}  // namespace feisu

#endif  // FEISU_CLUSTER_LEAF_SERVER_H_
