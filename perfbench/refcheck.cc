// Checks the answers behind the benchmark's digests against the
// differential-testing oracle (tests/reference_executor.cc), a row-at-a-time
// interpreter that shares only the parser and Value type with the engine.
//
//   feisu_refcheck --workload <name> --seed <n> [--items <k>]
//
// Replays the same queries the traced run replays (--trace 1) through the
// engine, compares each answer with the oracle's on the rows visible at
// that point, and prints the engine's answer digest over all of them —
// equal to the traced run's "answer_digest" for the same seed. Checks the
// first <k> queries only when --items is given. Exits 1 on any mismatch.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "digest.h"
#include "tests/reference_executor.h"
#include "sql/parser.h"
#include "workload/datagen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using feisu::ColumnVector;
using feisu::DataType;
using feisu::RecordBatch;
using feisu::Result;

struct Tally {
  size_t checked = 0;
  size_t skipped = 0;  ///< shapes the oracle does not implement
  size_t mismatches = 0;
  uint64_t digest = 0;
};

/// Executor-neutral rendering of an answer: rows sorted, int-valued
/// doubles printed as integers and other doubles rounded to 9 significant
/// digits (SUM/AVG may add in a different order). With `rows_only` (an
/// unordered LIMIT picks an arbitrary subset) only the row count.
std::string CanonicalRows(const RecordBatch& batch, bool rows_only) {
  if (rows_only) return "rows=" + std::to_string(batch.num_rows()) + "\n";
  std::vector<std::string> rows;
  rows.reserve(batch.num_rows());
  char buf[64];
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      const ColumnVector& col = batch.column(c);
      if (col.IsNull(r)) {
        row += "NULL";
      } else if (col.type() == DataType::kDouble) {
        double v = col.GetDouble(r);
        if (std::isfinite(v) && v == std::trunc(v) && std::fabs(v) < 9e15) {
          std::snprintf(buf, sizeof(buf), "%" PRId64,
                        static_cast<int64_t>(v));
        } else {
          std::snprintf(buf, sizeof(buf), "%.9g", v);
        }
        row += buf;
      } else {
        row += col.GetValue(r).ToString();
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const auto& row : rows) out += row + "\n";
  return out;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "refcheck: %s\n", what.c_str());
  std::exit(1);
}

void Compare(const std::string& sql, const RecordBatch& answer,
             const feisu::ReferenceExecutor& oracle, Tally* tally) {
  Result<feisu::SelectStatement> stmt = feisu::ParseSql(sql);
  if (!stmt.ok()) Die("parse: " + sql);
  Result<RecordBatch> expected = oracle.Execute(*stmt);
  if (!expected.ok()) {
    ++tally->skipped;
    return;
  }
  const bool rows_only = stmt->limit >= 0 && stmt->order_by.empty();
  ++tally->checked;
  if (CanonicalRows(answer, rows_only) != CanonicalRows(*expected, rows_only)) {
    ++tally->mismatches;
    std::fprintf(stderr, "refcheck: mismatch: %s\n", sql.c_str());
  }
}

/// The first `n` rows of `rows`.
RecordBatch Prefix(const RecordBatch& rows, size_t n) {
  feisu::BitVector keep(rows.num_rows(), false);
  for (size_t i = 0; i < n; ++i) keep.Set(i, true);
  return rows.Filter(keep);
}

Tally CheckQueryWorkload(const WorkloadSpec& spec, uint64_t seed,
                         size_t limit) {
  Tally tally;
  auto engine = MakeQueryEngine(spec, seed);
  if (engine == nullptr) Die("cannot create table");
  RecordBatch all(feisu::MakeLogSchema(spec.num_fields));
  for (const RecordBatch& batch : GenerateTable(spec, seed)) {
    if (!engine->Ingest("t1", batch).ok() || !all.Append(batch).ok()) {
      Die("ingest");
    }
  }
  if (!engine->Flush("t1").ok()) Die("flush");
  feisu::ReferenceExecutor oracle;
  oracle.AddTable("t1", std::move(all));

  const std::vector<Item> items = GenerateStream(spec, seed);
  for (size_t k = 0; k < spec.traced_items; ++k) {
    const Item& item = items[spec.warm_items + k];
    auto r = engine->QueryAt(kQueryUser, item.sql, item.at);
    if (!r.ok()) Die("query: " + r.status().ToString());
    tally.digest += DigestTerm(k, AnswerHash(r->batch));
    if (k < limit) Compare(item.sql, r->batch, oracle, &tally);
  }
  return tally;
}

Tally CheckFreshIngest(const WorkloadSpec& spec, uint64_t seed,
                       size_t limit) {
  Tally tally;
  const IngestCycle cycle = GenerateIngestCycle(spec, seed);
  // The rows the lines were rendered from (GenerateIngestCycle draws
  // them from the same seed); queries see a prefix of them.
  feisu::Rng rng(seed);
  const RecordBatch source = feisu::GenerateRows(
      feisu::MakeLogSchema(spec.num_fields), spec.cycle_lines, &rng);
  feisu::StorageSystem* local = nullptr;
  auto engine = MakeIngestEngine(spec, seed, &local);
  if (engine == nullptr) Die("cannot create log table");
  feisu::LogMonitor monitor(kLogNode, local, &engine->catalog(), kLogTable,
                            kLogPrefix, MakeLogMonitorConfig(spec));
  for (size_t i = 0; i < cycle.lines.size(); ++i) {
    const feisu::SimTime at = cycle.line_at[i];
    if (!monitor.OnLogLine(cycle.lines[i], at).ok() ||
        !monitor.Tick(at).ok()) {
      Die("ingest");
    }
    const size_t seen = i + 1;
    if (seen % spec.query_every == 0) {
      const size_t q = seen / spec.query_every - 1;
      auto r = engine->QueryAt(kLogUser, cycle.queries[q], at);
      if (!r.ok()) Die("query: " + r.status().ToString());
      tally.digest += DigestTerm(q, AnswerHash(r->batch));
      if (q < limit) {
        feisu::ReferenceExecutor oracle;
        oracle.AddTable(kLogTable,
                        Prefix(source, engine->catalog()
                                           .Find(kLogTable)
                                           ->TotalRows()));
        Compare(cycle.queries[q], r->batch, oracle, &tally);
      }
    }
    if (seen % spec.compact_every == 0 &&
        !engine->CompactTable(kLogTable).ok()) {
      Die("compact");
    }
  }
  if (monitor.stats().lines_rejected != 0) Die("rejected log lines");
  return tally;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 1;
  size_t limit = static_cast<size_t>(-1);
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--items") {
      limit = std::strtoull(argv[i + 1], nullptr, 10);
    } else {
      Die("unknown flag " + flag);
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) Die("unknown workload '" + workload + "'");
  const Tally tally = spec->kind == WorkloadKind::kFreshIngest
                          ? CheckFreshIngest(*spec, seed, limit)
                          : CheckQueryWorkload(*spec, seed, limit);
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"checked\": %zu, "
              "\"skipped\": %zu, \"mismatches\": %zu, "
              "\"answer_digest\": \"%016llx\"}\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              tally.checked, tally.skipped, tally.mismatches,
              static_cast<unsigned long long>(tally.digest));
  return tally.mismatches == 0 ? 0 : 1;
}
