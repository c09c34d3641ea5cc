#ifndef FEISU_CLUSTER_STEM_SERVER_H_
#define FEISU_CLUSTER_STEM_SERVER_H_

#include <vector>

#include "cluster/network.h"
#include "cluster/task.h"
#include "common/result.h"
#include "exec/aggregate.h"

namespace feisu {

/// Result of one stem-level merge: the merged batch plus the simulated
/// window over which this stem worked — `start_time` is the arrival of the
/// first child partial (the stem holds state from then on, so a crash
/// inside (start_time, finish_time] loses the partial merge),
/// `finish_time` is input arrival + transfer + combine.
struct StemResult {
  RecordBatch batch;
  SimTime start_time = 0;
  SimTime finish_time = 0;
  uint64_t bytes_received = 0;
};

/// Per-row CPU charge of a stem combine.
inline constexpr SimTime kStemCpuPerRowMerge = 8;

/// What one child hands its stem: its output's payload bytes and rows, and
/// the simulated time it finished.
struct StemInput {
  uint64_t bytes = 0;
  uint64_t rows = 0;
  SimTime finish_time = 0;
};

/// The simulated cost of one stem merge, shared by StemServer::Merge and
/// the master's stem merge (which forwards row batches up the tree without
/// concatenating them): each child's bytes travel on the read data flow
/// once it finishes, and the stem combines all child rows after the last
/// input has arrived. Fills every StemResult field except `batch`.
StemResult ChargeStemMerge(const std::vector<StemInput>& children,
                           const NetworkModel& network,
                           SimTime cpu_per_row_merge = kStemCpuPerRowMerge);

/// A stem server aggregates task results from leaf servers (or from other
/// stems) on the way up the execution tree (paper Fig. 3). For aggregation
/// queries it merges partial states; for plain scans it concatenates rows.
/// The master merges without it (MasterServer::MergeWithStemRecovery);
/// perfbench's layered replay still uses it.
class StemServer {
 public:
  StemServer(uint32_t node_id, NetworkModel network,
             SimTime cpu_per_row_merge = kStemCpuPerRowMerge);

  uint32_t node_id() const { return node_id_; }

  /// Merges child outputs. `child_batches[i]` arrives at simulated time
  /// `child_finish_times[i]`; the stem starts combining when the last
  /// input has been transferred (read traffic class).
  ///
  /// `aggregator` non-null => partial-state merge; null => concatenation.
  Result<StemResult> Merge(const std::vector<RecordBatch>& child_batches,
                           const std::vector<SimTime>& child_finish_times,
                           Aggregator* aggregator);

 private:
  uint32_t node_id_;
  NetworkModel network_;
  SimTime cpu_per_row_merge_;
};

}  // namespace feisu

#endif  // FEISU_CLUSTER_STEM_SERVER_H_
