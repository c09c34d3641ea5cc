#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "storage/storage_factory.h"
#include "workload/datagen.h"
#include "workload/tracegen.h"

namespace perfbench {

using feisu::DataType;
using feisu::RecordBatch;
using feisu::Rng;
using feisu::Schema;
using feisu::SimTime;

namespace {

// Stream instants 10 simulated seconds apart: the whole stream (25 600
// items, 71.1 h) stays inside SmartIndex's 72 h TTL, which a hit does not
// renew, and one session sends 8 640 queries a simulated day, below the
// default daily quota of 10 000.
constexpr SimTime kItemStep = 10 * feisu::kSimSecond;
// Log lines arrive every 10 ms and the monitor flushes rows older than
// 2 s, so fresh blocks hold about 200 rows: the small-block regime that
// compaction exists for.
constexpr SimTime kLineStep = 10 * feisu::kSimMillisecond;
constexpr SimTime kMaxBufferAge = 2 * feisu::kSimSecond;

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec trace;
  trace.name = "smartindex_trace";
  trace.kind = WorkloadKind::kSmartIndexTrace;
  trace.num_fields = 24;
  trace.rows_per_block = 2048;
  trace.num_blocks = 32;
  trace.index_cache_bytes = 512ULL * 1024 * 1024;  // holds the working set
  trace.warm_items = 600;
  trace.stream_items = 25000;
  trace.traced_items = 300;
  specs.push_back(trace);

  WorkloadSpec fresh;
  fresh.name = "fresh_ingest";
  fresh.kind = WorkloadKind::kFreshIngest;
  // One thread alternates writes and reads because the catalog is not
  // synchronized against in-flight queries.
  fresh.setup_repeats = 9;  // a set-up takes about 0.2 s
  fresh.num_fields = 12;
  fresh.rows_per_block = 2048;  // compaction merges blocks under 1024 rows
  fresh.index_cache_bytes = 512ULL * 1024 * 1024;
  fresh.cycle_lines = 16000;
  fresh.query_every = 100;
  fresh.compact_every = 4000;
  specs.push_back(fresh);
  return specs;
}

std::string FreshQuery(size_t q, Rng* rng) {
  const std::string v = std::to_string(rng->NextUint64(100));
  switch (q % 4) {
    case 0:
      return "SELECT COUNT(*), SUM(c2) FROM logs WHERE c4 > " + v;
    case 1:
      return "SELECT c8, COUNT(*) FROM logs WHERE c2 < " + v +
             " GROUP BY c8";
    case 2:
      return "SELECT c1, c3 FROM logs WHERE c2 = " + v +
             " AND c3 >= 0 ORDER BY c3 DESC LIMIT 10";
    default:
      return "SELECT MAX(c3), MIN(c3), AVG(c5) FROM logs WHERE c0 = " +
             std::to_string(rng->NextUint64(4));
  }
}

void AppendValue(const feisu::ColumnVector& col, size_t row, bool json,
                 std::string* out) {
  char buf[40];
  switch (col.type()) {
    case DataType::kInt64:
      std::snprintf(buf, sizeof(buf), "%" PRId64, col.GetInt64(row));
      *out += buf;
      break;
    case DataType::kDouble:
      std::snprintf(buf, sizeof(buf), "%.17g", col.GetDouble(row));
      *out += buf;
      break;
    case DataType::kBool:
      *out += col.GetBool(row) ? (json ? "true" : "1") : (json ? "false" : "0");
      break;
    case DataType::kString:
      if (json) *out += '"';
      *out += col.GetString(row);
      if (json) *out += '"';
      break;
  }
}

// Three lines in four are TSV ("\N" = NULL); the fourth is a JSON object
// that leaves NULL attributes out.
std::string RenderLine(const RecordBatch& rows, size_t row) {
  const bool json = row % 4 == 3;
  std::string line = json ? "{" : "";
  bool first = true;
  for (size_t c = 0; c < rows.num_columns(); ++c) {
    const feisu::ColumnVector& col = rows.column(c);
    if (json) {
      if (col.IsNull(row)) continue;
      if (!first) line += ",";
      line += "\"" + rows.schema().field(c).name + "\":";
      AppendValue(col, row, true, &line);
    } else {
      if (!first) line += "\t";
      if (col.IsNull(row)) {
        line += "\\N";
      } else {
        AppendValue(col, row, false, &line);
      }
    }
    first = false;
  }
  if (json) line += "}";
  return line;
}

/// The atoms of a stream query's WHERE clause. GenerateTrace writes one
/// atom, or two joined by AND or OR with the second maybe inside NOT (...),
/// followed by GROUP BY, ORDER BY or LIMIT; literals are numbers or 'kw_N'.
std::vector<std::string> PredicateAtoms(const std::string& sql) {
  const std::string kWhere = " WHERE ";
  size_t begin = sql.find(kWhere);
  if (begin == std::string::npos) return {};
  begin += kWhere.size();
  size_t end = sql.size();
  for (const char* tail : {" GROUP BY ", " ORDER BY ", " LIMIT "}) {
    end = std::min(end, sql.find(tail, begin));
  }
  std::string where = sql.substr(begin, end - begin);
  std::vector<std::string> atoms;
  for (const char* joiner : {" AND ", " OR "}) {
    const size_t at = where.find(joiner);
    if (at != std::string::npos) {
      atoms.push_back(where.substr(0, at));
      where = where.substr(at + std::string(joiner).size());
      break;
    }
  }
  const std::string kNot = "NOT (";
  if (where.rfind(kNot, 0) == 0 && where.back() == ')') {
    where = where.substr(kNot.size(), where.size() - kNot.size() - 1);
  }
  atoms.push_back(where);
  return atoms;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

feisu::EngineConfig MakeEngineConfig(const WorkloadSpec& spec, uint64_t seed) {
  feisu::EngineConfig config;
  config.num_leaf_nodes = kLeafNodes;
  config.rows_per_block = spec.rows_per_block;
  config.leaf.index_cache.capacity_bytes = spec.index_cache_bytes;
  config.master.max_concurrent_jobs = kMaxConcurrentJobs;
  config.master.leaf_parallelism = kLeafParallelism;
  // Identical query texts recur in the trace; reusing task results would
  // turn them into cache lookups and hide the SmartIndex path.
  config.master.enable_task_result_reuse = false;
  config.master.seed = seed;
  return config;
}

std::unique_ptr<feisu::FeisuEngine> MakeQueryEngine(const WorkloadSpec& spec,
                                                    uint64_t seed) {
  auto engine =
      std::make_unique<feisu::FeisuEngine>(MakeEngineConfig(spec, seed));
  engine->AddStorage("/hdfs", feisu::MakeHdfs(), /*is_default=*/true);
  engine->GrantAllDomains(kQueryUser);
  engine->GrantAllDomains(kReferenceUser);
  engine->GrantAllDomains(kWarmUser);
  if (!engine->CreateTable("t1", feisu::MakeLogSchema(spec.num_fields),
                           "/hdfs/t1")
           .ok()) {
    return nullptr;
  }
  return engine;
}

std::vector<RecordBatch> GenerateTable(const WorkloadSpec& spec,
                                       uint64_t seed) {
  Schema schema = feisu::MakeLogSchema(spec.num_fields);
  Rng rng(seed);
  std::vector<RecordBatch> blocks;
  blocks.reserve(spec.num_blocks);
  for (size_t b = 0; b < spec.num_blocks; ++b) {
    blocks.push_back(feisu::GenerateRows(schema, spec.rows_per_block, &rng));
  }
  return blocks;
}

std::vector<Item> GenerateStream(const WorkloadSpec& spec, uint64_t seed) {
  const size_t n = spec.warm_items + spec.stream_items;
  // The Fig. 9a query-log model: Zipf-hot columns, heavy predicate reuse
  // over a small value domain, point-heavy predicates.
  feisu::TraceConfig config;
  config.table = "t1";
  config.num_queries = n;
  config.seed = seed;
  config.predicate_reuse_prob = 0.75;
  config.value_domain = 20;
  config.eq_prob = 0.5;
  config.aggregate_prob = 0.55;
  config.join_prob = 0;
  std::vector<Item> items;
  items.reserve(n);
  for (auto& q :
       feisu::GenerateTrace(config, feisu::MakeLogSchema(spec.num_fields))) {
    const SimTime at = static_cast<SimTime>(items.size() + 1) * kItemStep;
    items.push_back({std::move(q.sql), at});
  }
  return items;
}

std::vector<Item> WarmupQueries(const std::vector<Item>& items) {
  std::vector<Item> warm;
  std::set<std::string> seen;
  for (const Item& item : items) {
    for (std::string& atom : PredicateAtoms(item.sql)) {
      if (seen.insert(atom).second) {
        warm.push_back({"SELECT COUNT(*) FROM t1 WHERE " + atom,
                        items.front().at});
      }
    }
  }
  return warm;
}

IngestCycle GenerateIngestCycle(const WorkloadSpec& spec, uint64_t seed) {
  IngestCycle cycle;
  Rng rng(seed);
  RecordBatch rows = feisu::GenerateRows(
      feisu::MakeLogSchema(spec.num_fields), spec.cycle_lines, &rng);
  cycle.lines.reserve(spec.cycle_lines);
  for (size_t i = 0; i < spec.cycle_lines; ++i) {
    cycle.lines.push_back(RenderLine(rows, i));
    cycle.line_at.push_back(static_cast<SimTime>(i + 1) * kLineStep);
    cycle.input_bytes += cycle.lines.back().size() + 1;  // plus newline
  }
  Rng query_rng(seed ^ 0x10610610ULL);
  for (size_t q = 0; q < spec.cycle_lines / spec.query_every; ++q) {
    cycle.queries.push_back(FreshQuery(q, &query_rng));
  }
  return cycle;
}

feisu::LogMonitorConfig MakeLogMonitorConfig(const WorkloadSpec& spec) {
  feisu::LogMonitorConfig config;
  config.rows_per_block = spec.rows_per_block;
  config.max_buffer_age = kMaxBufferAge;
  return config;
}

std::unique_ptr<feisu::FeisuEngine> MakeIngestEngine(
    const WorkloadSpec& spec, uint64_t seed, feisu::StorageSystem** local) {
  auto engine =
      std::make_unique<feisu::FeisuEngine>(MakeEngineConfig(spec, seed));
  *local = engine->AddStorage("", feisu::MakeLocalFs(), /*is_default=*/true);
  engine->GrantAllDomains(kLogUser);
  if (!engine->CreateTable(kLogTable, feisu::MakeLogSchema(spec.num_fields),
                           kLogPrefix)
           .ok()) {
    return nullptr;
  }
  return engine;
}

}  // namespace perfbench
