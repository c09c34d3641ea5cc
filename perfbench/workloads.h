#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "columnar/record_batch.h"
#include "common/sim_clock.h"
#include "core/engine.h"
#include "ingest/log_monitor.h"

namespace perfbench {

constexpr size_t kLeafNodes = 8;

enum class WorkloadKind { kSmartIndexTrace, kFreshIngest };

/// Every workload runs one closed-loop session on the serial master, so a
/// query runs inline on the sending thread.
constexpr size_t kMaxConcurrentJobs = 1;
constexpr size_t kLeafParallelism = 1;

/// The session's user, the user of the solo reference replay and the user
/// that warms SmartIndex in set-up; each has a daily quota of its own.
constexpr const char* kQueryUser = "analyst";
constexpr const char* kReferenceUser = "reference";
constexpr const char* kWarmUser = "warmup";

/// One query of the stream and the simulated instant it is sent at, which
/// drives index TTLs and the per-user daily quota.
struct Item {
  std::string sql;
  feisu::SimTime at = 0;
};

struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kSmartIndexTrace;
  /// Set-ups per run; setup_s is their median.
  int setup_repeats = 3;
  size_t num_fields = 12;
  uint32_t rows_per_block = 4096;
  /// smartindex_trace: size of the single table "t1".
  size_t num_blocks = 0;
  /// Per-leaf SmartIndex cache budget.
  uint64_t index_cache_bytes = 0;
  /// smartindex_trace: stream items run serially during set-up (after the
  /// predicate warm-up, see WarmupQueries), then the items the timed
  /// session may draw from, then how many of those the traced replay runs.
  size_t warm_items = 0;
  size_t stream_items = 0;
  size_t traced_items = 0;
  /// Fresh ingest: log lines per cycle, one query after every
  /// `query_every` lines and one compaction after every `compact_every`.
  size_t cycle_lines = 0;
  size_t query_every = 0;
  size_t compact_every = 0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// The deployment a workload runs on.
feisu::EngineConfig MakeEngineConfig(const WorkloadSpec& spec, uint64_t seed);

// ---- Query workload (smartindex_trace). ----

/// An engine with HDFS storage, both users and an empty "t1".
std::unique_ptr<feisu::FeisuEngine> MakeQueryEngine(const WorkloadSpec& spec,
                                                    uint64_t seed);
/// The rows of "t1", one batch per block.
std::vector<feisu::RecordBatch> GenerateTable(const WorkloadSpec& spec,
                                              uint64_t seed);
/// warm_items + stream_items queries of kQueryUser, 10 simulated seconds
/// apart.
std::vector<Item> GenerateStream(const WorkloadSpec& spec, uint64_t seed);
/// One `SELECT COUNT(*)` per distinct predicate atom of the whole stream,
/// in order of first use, sent by kWarmUser at the first item's instant.
/// Run in set-up, they put every atom the session will use into SmartIndex,
/// so the timed window does not speed up as the index fills.
std::vector<Item> WarmupQueries(const std::vector<Item>& items);

// ---- Fresh ingest. ----

constexpr const char* kLogTable = "logs";
constexpr const char* kLogPrefix = "/log/svc";
constexpr const char* kLogUser = "ops";
constexpr uint32_t kLogNode = 1;

/// One cycle's input: TSV and JSON log lines with their arrival instants,
/// and the query run after every `query_every`-th line.
struct IngestCycle {
  std::vector<std::string> lines;
  std::vector<feisu::SimTime> line_at;
  std::vector<std::string> queries;
  uint64_t input_bytes = 0;
};

IngestCycle GenerateIngestCycle(const WorkloadSpec& spec, uint64_t seed);
feisu::LogMonitorConfig MakeLogMonitorConfig(const WorkloadSpec& spec);

/// An engine whose default storage is the local FS, with the user and an
/// empty log table; `*local` receives the storage the monitor writes to.
std::unique_ptr<feisu::FeisuEngine> MakeIngestEngine(
    const WorkloadSpec& spec, uint64_t seed, feisu::StorageSystem** local);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
