#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/record_batch.h"
#include "common/result.h"
#include "core/engine.h"
#include "ingest/log_monitor.h"
#include "plan/logical_plan.h"
#include "spans.h"

namespace perfbench {

/// Work counted at the layer boundaries of the traced replay.
struct LayerCounts {
  uint64_t queries = 0;
  uint64_t aggregate_queries = 0;
  uint64_t tasks = 0;
  uint64_t tasks_skipped = 0;  ///< zone-map pruned blocks
  uint64_t rows_scanned = 0;
  uint64_t values_decoded = 0;
  uint64_t partial_rows = 0;   ///< rows of leaf partials, aggregate queries
  uint64_t groups = 0;         ///< final groups, aggregate queries
  uint64_t blocks_written = 0;
  uint64_t rows_written = 0;
  uint64_t bytes_written = 0;
  uint64_t blocks_removed = 0;
};

/// Drives one engine layer by layer through the layers' public functions
/// instead of FeisuEngine::Query, recording a span around every call:
///
///   query ─┬─ sql.parse            ParseSql
///          ├─ plan.plan            PlanQuery + the master's rule pipeline
///          ├─ leaf.execute  ×task  LeafServer::Execute
///          ├─ cluster.stem_merge   StemServer::Merge
///          ├─ exec.merge           Aggregator::ConsumePartial at the master
///          └─ exec.final           FinalResult + master-side operators
///   columnar.decode ×task          Deserialize + DecodeBatch (a probe run
///                                  after the query, outside its span)
///   ingest.block ─┬─ columnar.encode  FromBatch + Serialize
///                 └─ storage.write    StorageSystem write
///   ingest.parse_line ×line        ParseLogLine
///   core.compact                   FeisuEngine::CompactTable
///
/// It follows the master's fault-free path: one stem (the deployment has
/// fewer leaves than a stem's fan-in), block-order merges, every task on
/// the first replica of its block. Its answers are therefore the engine's
/// answers byte for byte, which the benchmark checks. Joins are not
/// replayed (no workload sends one).
class LayeredReplay {
 public:
  LayeredReplay(feisu::FeisuEngine* engine, SpanRecorder* spans)
      : engine_(engine), spans_(spans) {}

  feisu::Result<feisu::RecordBatch> Query(const std::string& sql,
                                          feisu::SimTime now,
                                          int64_t query_id);

  /// The bulk-ingest block writer (FeisuEngine::Ingest's): block ids count
  /// from 0 and paths are `<prefix>/blk_<n>`.
  feisu::Status WriteBlock(const std::string& table, const std::string& prefix,
                           const feisu::RecordBatch& rows, int64_t step_id);

  /// The log monitor (LogMonitor's), writing blocks pinned to `node_id`.
  void StartLogIngest(feisu::StorageSystem* storage, uint32_t node_id,
                      const std::string& table, const std::string& prefix,
                      feisu::LogMonitorConfig config);
  feisu::Status OnLogLine(const std::string& line, feisu::SimTime now,
                          int64_t step_id);
  feisu::Status Tick(feisu::SimTime now, int64_t step_id);
  feisu::Status Compact(const std::string& table, int64_t step_id);

  const LayerCounts& counts() const { return counts_; }
  void ResetCounts() { counts_ = LayerCounts(); }

 private:
  struct Probe {
    std::string path;
    std::vector<std::string> columns;
  };

  feisu::Result<feisu::RecordBatch> Execute(const feisu::PlanPtr& node,
                                            feisu::SimTime now, int32_t root,
                                            int64_t query_id);
  feisu::Result<feisu::RecordBatch> RunScan(const feisu::PlanNode& scan,
                                            const feisu::PlanNode* agg,
                                            feisu::SimTime now, int32_t root,
                                            int64_t query_id);
  feisu::Status WriteEncoded(const std::string& table, int64_t block_id,
                             const std::string& path,
                             const feisu::RecordBatch& rows, bool pinned,
                             int64_t step_id);
  feisu::Status CutLogBlock(int64_t step_id);

  feisu::FeisuEngine* engine_;
  SpanRecorder* spans_;
  LayerCounts counts_;
  std::vector<Probe> probes_;
  int64_t next_job_id_ = 1;
  int64_t next_block_id_ = 0;
  int64_t next_block_seq_ = 0;

  // Log-ingest state, as LogMonitor keeps it.
  feisu::StorageSystem* log_storage_ = nullptr;
  uint32_t log_node_ = 0;
  std::string log_table_;
  std::string log_prefix_;
  feisu::LogMonitorConfig log_config_;
  feisu::RecordBatch log_pending_;
  feisu::SimTime log_oldest_ = 0;
  int64_t log_block_seq_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
