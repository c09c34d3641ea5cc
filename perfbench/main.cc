// Session benchmark of the Feisu engine: a closed-loop analyst session
// driving FeisuEngine through each workload, with every answer checked.
//
//   feisu_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>] [--git-sha <sha>]
//
// --trace 0 measures the end-to-end metrics with nothing traced. --trace 1
// replays a fixed prefix of the same stream single-threaded against a twin
// deployment built from the same seed, driving it layer by layer
// (layers.h), and reports per-layer metrics from the recorded spans; the
// spans are written as Chrome trace-event JSON into --out-dir. The last
// line of stdout is the result object; the line before it is the run's
// context. README.md explains the workloads and what each metric is for.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "digest.h"
#include "columnar/encoding.h"
#include "hostprobe.h"
#include "layers.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using feisu::FeisuEngine;
using feisu::QueryResult;
using feisu::RecordBatch;
using feisu::Result;
using feisu::Status;

// p99 is reported only from at least this many latencies, so that ten lie
// beyond it: a window runs past --seconds until it holds this many answers,
// for at most three times --seconds.
constexpr size_t kMinSamples = 1000;
// Passes of smartindex_trace's bulk load timed after each set-up for
// ingest_rows_per_s.
constexpr int kIngestPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// For a timing: the probe sampled while it was measured. ScaleTimings
  /// gives the timing at the probe's reference host speed.
  const HostProbe* probe = nullptr;
};

struct ProbeSummary {
  double median_ms = 0;
  size_t samples = 0;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Context reported beside the metrics.
  uint64_t digest = 0;
  std::string trace_file;
  ProbeSummary setup_probe, window_probe;
  std::vector<Metric> unscaled;  // timings as measured, before ScaleTimings
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct WindowStats {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

/// Timing metrics over the whole window: answers per second of it, and
/// percentiles over every answer's latency. `window_ns` excludes the host
/// probe's samples.
WindowStats Summarize(const std::vector<double>& latency_ms,
                      int64_t window_ns) {
  if (latency_ms.size() < kMinSamples) {
    Die("too few answered queries for p99: " +
        std::to_string(latency_ms.size()));
  }
  return {static_cast<double>(latency_ms.size()) / Seconds(window_ns),
          Median(latency_ms), Percentile(latency_ms, 0.99)};
}

/// Gives each timing that names a probe at the probe's reference host
/// speed (see HostProbe): durations are multiplied by the probe's Speed(),
/// rates divided by it. The measured values are kept for the context line.
void ScaleTimings(const HostProbe& setup, const HostProbe& window,
                  RunResult* out) {
  out->setup_probe = {setup.MedianMs(), setup.samples()};
  out->window_probe = {window.MedianMs(), window.samples()};
  out->unscaled.clear();
  for (Metric& m : out->metrics) {
    if (m.probe == nullptr) continue;
    out->unscaled.push_back(m);
    const double speed = m.probe->Speed();
    m.value = m.unit == "1/s" || m.unit == "rows/s" ? m.value / speed
                                                     : m.value * speed;
  }
}

/// Whether the window is over: --seconds have passed and it holds enough
/// answers for p99, or three times --seconds have passed.
bool WindowDone(int64_t start_ns, double seconds, size_t answers) {
  const double elapsed = Seconds(NowNs() - start_ns);
  return elapsed >= 3 * seconds ||
         (elapsed >= seconds && answers >= kMinSamples);
}

/// Peak resident set (VmHWM) of this process, in MiB. The runs read it once
/// the window holds kMinSamples answers: a window's memory grows with the
/// queries it runs (each new conjunction adds a SmartIndex entry), so a
/// reading at the end would grow with the host's speed.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// smartindex_trace, untraced: set-up, timed session, solo replay.
// ---------------------------------------------------------------------------

struct QueryDeployment {
  std::unique_ptr<FeisuEngine> engine;
  std::vector<Item> items;
  double setup_s = 0;
};

/// Ingests every block of the table, then flushes; returns the time taken
/// and stores the rows and input bytes.
int64_t IngestTable(FeisuEngine* engine,
                    const std::vector<RecordBatch>& blocks, uint64_t* rows,
                    uint64_t* input_bytes) {
  *rows = 0;
  *input_bytes = 0;
  const int64_t start = NowNs();
  for (const RecordBatch& batch : blocks) {
    Check(engine->Ingest("t1", batch), "ingest");
    *rows += batch.num_rows();
    *input_bytes += batch.ByteSize();
  }
  Check(engine->Flush("t1"), "flush");
  return NowNs() - start;
}

/// The bulk load of smartindex_trace's table on its own: kIngestPasses
/// passes, each into a fresh engine after a probe sample, appending each
/// pass's rows per second to `rates`; returns stored bytes per input byte.
/// A pass takes about 0.1 s, and the host's speed changes over seconds, so
/// the runs time passes after every set-up and report the median of all.
double TimeBulkIngest(const WorkloadSpec& spec, uint64_t seed,
                      HostProbe* probe, std::vector<double>* rates) {
  const std::vector<RecordBatch> blocks = GenerateTable(spec, seed);
  double stored_per_input = 0;
  for (int pass = 0; pass < kIngestPasses; ++pass) {
    std::unique_ptr<FeisuEngine> engine = MakeQueryEngine(spec, seed);
    if (engine == nullptr) Die("cannot create table");
    probe->Sample();
    uint64_t rows = 0, input_bytes = 0;
    const int64_t ns = IngestTable(engine.get(), blocks, &rows, &input_bytes);
    rates->push_back(static_cast<double>(rows) / Seconds(ns));
    stored_per_input = Ratio(
        static_cast<double>(engine->catalog().Find("t1")->TotalBytes()),
        static_cast<double>(input_bytes));
  }
  return stored_per_input;
}

/// Generates the table and stream, ingests, and warms the caches: one query
/// per predicate atom of the stream (WarmupQueries), then the stream's first
/// warm_items queries, one at a time. `probe` samples between queries; its
/// time is not part of setup_s.
QueryDeployment SetUpQueryWorkload(const WorkloadSpec& spec, uint64_t seed,
                                   HostProbe* probe) {
  QueryDeployment d;
  const int64_t start = NowNs();
  const int64_t probe_before = probe->spent_ns();  // shared by set-ups
  d.items = GenerateStream(spec, seed);
  std::vector<RecordBatch> blocks = GenerateTable(spec, seed);
  d.engine = MakeQueryEngine(spec, seed);
  if (d.engine == nullptr) Die("cannot create table");
  uint64_t rows = 0, input_bytes = 0;
  IngestTable(d.engine.get(), blocks, &rows, &input_bytes);
  for (const Item& item : WarmupQueries(d.items)) {
    Check(d.engine->QueryAt(kWarmUser, item.sql, item.at).status(),
          "warm atom");
    probe->MaybeSample();
  }
  for (size_t i = 0; i < spec.warm_items; ++i) {
    const Item& item = d.items[i];
    Check(d.engine->QueryAt(kQueryUser, item.sql, item.at).status(), "warm");
    probe->MaybeSample();
  }
  d.setup_s =
      Seconds(NowNs() - start - (probe->spent_ns() - probe_before));
  return d;
}

uint64_t IndexEvictions(const FeisuEngine& engine) {
  const feisu::IndexCacheStats stats = engine.AggregateIndexStats();
  return stats.lru_evictions + stats.ttl_evictions;
}

RunResult RunQueryWorkload(const WorkloadSpec& spec, uint64_t seed,
                           double seconds) {
  std::vector<double> setup_s, ingest_rate;
  double stored_per_input = 0;
  HostProbe setup_probe, window_probe;
  QueryDeployment d;
  for (int rep = 0; rep < spec.setup_repeats; ++rep) {
    d = QueryDeployment();  // release the previous deployment first
    setup_probe.Sample();
    d = SetUpQueryWorkload(spec, seed, &setup_probe);
    setup_s.push_back(d.setup_s);
    stored_per_input = TimeBulkIngest(spec, seed, &setup_probe, &ingest_rate);
  }
  FeisuEngine* engine = d.engine.get();
  const std::vector<Item>& items = d.items;

  // Closed loop: the session sends items warm_items, warm_items+1, ...,
  // each only after the previous answer arrived. Latency is submit to
  // result; the answer hash is taken after the clock stops.
  RunResult out;
  std::vector<double> latency_ms;
  std::vector<std::pair<size_t, uint64_t>> answers;  // (item, AnswerHash)
  double rss_mb = 0;
  const uint64_t evictions_before = IndexEvictions(*engine);
  const int64_t start = NowNs();
  for (size_t idx = spec.warm_items;
       idx < items.size() && !WindowDone(start, seconds, latency_ms.size());
       ++idx) {
    window_probe.MaybeSample();
    const Item& item = items[idx];
    ++out.attempted;
    const int64_t submit = NowNs();
    Result<QueryResult> result = engine->QueryAt(kQueryUser, item.sql, item.at);
    const int64_t done = NowNs();
    if (!result.ok()) {
      // Refusals (the daily quota included) count as failures; no retry.
      ++out.failed;
      std::fprintf(stderr, "perfbench: query failed: %s\n",
                   result.status().ToString().c_str());
      continue;
    }
    latency_ms.push_back(Millis(done - submit));
    answers.emplace_back(idx, AnswerHash(result->batch));
    if (latency_ms.size() == kMinSamples) rss_mb = PeakRssMb();
  }
  const int64_t end = NowNs();
  const int64_t window_ns = end - start - window_probe.spent_ns();
  // The index cache holds the working set and the stream stays inside the
  // TTL, so nothing may leave the cache while the window runs.
  const uint64_t evictions = IndexEvictions(*engine) - evictions_before;
  if (evictions != 0) {
    Die("the index cache evicted " + std::to_string(evictions) +
        " entries during the timed window");
  }
  const int64_t replay_start = NowNs();

  // Reference: a solo serial replay of the answered items, by a user of
  // its own so that it does not draw on the session's daily quota. The
  // table is static, so a repeated query text has one answer and runs once.
  std::map<std::string, uint64_t> solo;
  uint64_t digest = 0, expected = 0;
  uint64_t mismatched = 0;
  for (const auto& [idx, hash] : answers) {
    const Item& item = items[idx];
    auto it = solo.find(item.sql);
    if (it == solo.end()) {
      Result<QueryResult> r =
          engine->QueryAt(kReferenceUser, item.sql, item.at);
      Check(r.status(), "solo replay");
      it = solo.emplace(item.sql, AnswerHash(r->batch)).first;
    }
    digest += DigestTerm(idx, hash);
    expected += DigestTerm(idx, it->second);
    if (it->second != hash) {
      ++mismatched;
      std::fprintf(stderr, "perfbench: answer differs from solo run: %s\n",
                   item.sql.c_str());
    }
  }
  out.failed += mismatched;
  out.correct = digest == expected && mismatched == 0;
  std::fprintf(stderr,
               "perfbench: window %.1f s, %zu answers; solo replay of %zu "
               "distinct queries %.1f s\n",
               Seconds(end - start), answers.size(), solo.size(),
               Seconds(NowNs() - replay_start));
  out.digest = digest;

  const WindowStats window = Summarize(latency_ms, window_ns);
  const double ok = static_cast<double>(out.attempted - out.failed);
  out.metrics = {
      {"setup_s", Median(setup_s), "s", &setup_probe},
      {"qps", window.qps, "1/s", &window_probe},
      {"p50_ms", window.p50_ms, "ms", &window_probe},
      {"p99_ms", window.p99_ms, "ms", &window_probe},
      {"success_ratio", Ratio(ok, static_cast<double>(out.attempted)),
       "ratio"},
      {"ingest_rows_per_s", Median(ingest_rate), "rows/s", &setup_probe},
      {"stored_bytes_per_input_byte", stored_per_input, "ratio"},
      {"rss_mb", rss_mb, "MB"},
  };
  ScaleTimings(setup_probe, window_probe, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Fresh ingest, untraced: whole cycles of log lines, queries and compaction.
// ---------------------------------------------------------------------------

struct CycleLog {
  std::vector<double> latency_ms;
  std::vector<uint64_t> hashes;  // per query; 0 when the query failed
  std::vector<double> queue_wait_ms;
  uint64_t failed = 0;
  int64_t ingest_ns = 0;
  uint64_t rows = 0;
  uint64_t stored_bytes = 0;
};

/// One cycle on a fresh engine: every line goes through LogMonitor (with
/// an age tick), a query follows every query_every-th line and a
/// compaction every compact_every-th. Writes and reads alternate on this
/// one thread because the catalog is not synchronized against in-flight
/// queries. `probe` samples after queries, outside the timed intervals.
CycleLog RunIngestCycle(const WorkloadSpec& spec, uint64_t seed,
                        const IngestCycle& cycle, HostProbe* probe) {
  CycleLog log;
  feisu::StorageSystem* local = nullptr;
  std::unique_ptr<FeisuEngine> engine =
      MakeIngestEngine(spec, seed, &local);
  if (engine == nullptr) Die("cannot create log table");
  feisu::LogMonitor monitor(kLogNode, local, &engine->catalog(), kLogTable,
                            kLogPrefix, MakeLogMonitorConfig(spec));
  for (size_t i = 0; i < cycle.lines.size(); ++i) {
    const feisu::SimTime at = cycle.line_at[i];
    const int64_t t0 = NowNs();
    Check(monitor.OnLogLine(cycle.lines[i], at), "ingest line");
    Check(monitor.Tick(at), "ingest tick");
    log.ingest_ns += NowNs() - t0;
    const size_t seen = i + 1;
    if (seen % spec.query_every == 0) {
      const std::string& sql = cycle.queries[seen / spec.query_every - 1];
      const int64_t q0 = NowNs();
      Result<QueryResult> r = engine->QueryAt(kLogUser, sql, at);
      const int64_t q1 = NowNs();
      if (r.ok()) {
        log.latency_ms.push_back(Millis(q1 - q0));
        log.hashes.push_back(AnswerHash(r->batch));
        log.queue_wait_ms.push_back(r->stats.queue_wait_ms);
      } else {
        ++log.failed;
        log.hashes.push_back(0);
        std::fprintf(stderr, "perfbench: query failed: %s\n",
                     r.status().ToString().c_str());
      }
      probe->MaybeSample();
    }
    if (seen % spec.compact_every == 0) {
      Check(engine->CompactTable(kLogTable).status(), "compact");
    }
  }
  const int64_t t0 = NowNs();
  Check(monitor.Flush(cycle.line_at.back()), "ingest flush");
  log.ingest_ns += NowNs() - t0;
  log.rows = monitor.stats().rows_ingested;
  log.stored_bytes = engine->catalog().Find(kLogTable)->TotalBytes();
  return log;
}

RunResult RunFreshIngest(const WorkloadSpec& spec, uint64_t seed,
                         double seconds) {
  // Set-up generates the cycle's input and runs it once; that run's
  // answers are the reference every timed cycle must reproduce.
  std::vector<double> setup_s;
  HostProbe setup_probe, window_probe;
  IngestCycle cycle;
  std::vector<uint64_t> expected;
  for (int rep = 0; rep < spec.setup_repeats; ++rep) {
    setup_probe.Sample();
    const int64_t start = NowNs();
    const int64_t probe_before = setup_probe.spent_ns();
    cycle = GenerateIngestCycle(spec, seed);
    CycleLog reference = RunIngestCycle(spec, seed, cycle, &setup_probe);
    if (reference.failed > 0) Die("reference cycle had failed queries");
    expected = std::move(reference.hashes);
    setup_s.push_back(
        Seconds(NowNs() - start - (setup_probe.spent_ns() - probe_before)));
  }

  RunResult out;
  std::vector<double> latency_ms;
  std::vector<double> ingest_rate;
  double stored_per_input = 0;
  double rss_mb = 0;
  const int64_t start = NowNs();
  for (uint64_t c = 0; !WindowDone(start, seconds, latency_ms.size());
       ++c) {
    CycleLog log = RunIngestCycle(spec, seed, cycle, &window_probe);
    out.attempted += log.hashes.size();
    out.failed += log.failed;
    for (size_t q = 0; q < log.hashes.size(); ++q) {
      out.digest += DigestTerm(c * log.hashes.size() + q, log.hashes[q]);
      if (log.hashes[q] != 0 && log.hashes[q] != expected[q]) {
        ++out.failed;
        out.correct = false;
        std::fprintf(stderr, "perfbench: answer differs from reference: %s\n",
                     cycle.queries[q].c_str());
      }
    }
    latency_ms.insert(latency_ms.end(), log.latency_ms.begin(),
                      log.latency_ms.end());
    if (rss_mb == 0 && latency_ms.size() >= kMinSamples) rss_mb = PeakRssMb();
    ingest_rate.push_back(static_cast<double>(log.rows) /
                          Seconds(log.ingest_ns));
    stored_per_input = Ratio(static_cast<double>(log.stored_bytes),
                             static_cast<double>(cycle.input_bytes));
  }
  const WindowStats window = Summarize(
      latency_ms, NowNs() - start - window_probe.spent_ns());
  const double ok = static_cast<double>(out.attempted - out.failed);
  out.metrics = {
      {"setup_s", Median(setup_s), "s", &setup_probe},
      {"qps", window.qps, "1/s", &window_probe},
      {"p50_ms", window.p50_ms, "ms", &window_probe},
      {"p99_ms", window.p99_ms, "ms", &window_probe},
      {"success_ratio", Ratio(ok, static_cast<double>(out.attempted)),
       "ratio"},
      {"ingest_rows_per_s", Median(ingest_rate), "rows/s", &window_probe},
      {"stored_bytes_per_input_byte", stored_per_input, "ratio"},
      {"rss_mb", rss_mb, "MB"},
  };
  ScaleTimings(setup_probe, window_probe, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Traced replay: per-layer metrics from spans over a twin deployment.
// ---------------------------------------------------------------------------

/// What the untraced engine said and took for each replayed query.
struct EngineReplay {
  std::vector<uint64_t> hashes;
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;
};

void RecordEngineAnswer(const Result<QueryResult>& r, int64_t elapsed_ns,
                        EngineReplay* out) {
  Check(r.status(), "engine replay");
  out->hashes.push_back(AnswerHash(r->batch));
  out->latency_ms.push_back(Millis(elapsed_ns));
  out->queue_wait_ms.push_back(r->stats.queue_wait_ms);
}

/// Index and decode counters of the twin, for deltas over the replay.
struct CounterSnapshot {
  feisu::IndexCacheStats index;
  feisu::ResolverStats resolver;
  feisu::DecodeCounters decode;

  static CounterSnapshot Take(const FeisuEngine& engine) {
    return {engine.AggregateIndexStats(), engine.AggregateResolverStats(),
            feisu::GetDecodeCounters()};
  }
};

std::vector<double> SumsMs(const SpanRecorder& spans, const char* name,
                           const std::vector<int64_t>& queries) {
  std::map<int64_t, int64_t> sums = spans.SumByQuery(name);
  std::vector<double> out;
  for (int64_t q : queries) out.push_back(Millis(sums[q]));
  return out;
}

std::vector<double> DurationsUs(const SpanRecorder& spans, const char* name) {
  std::vector<double> out;
  for (int64_t ns : spans.Durations(name)) out.push_back(Micros(ns));
  return out;
}

std::vector<Metric> LayerMetrics(const SpanRecorder& spans,
                                 const LayerCounts& counts,
                                 const std::vector<int64_t>& queries,
                                 const EngineReplay& engine,
                                 const CounterSnapshot& before,
                                 const CounterSnapshot& after,
                                 FeisuEngine& twin,
                                 const std::string& table) {
  const std::vector<double> parse = SumsMs(spans, "sql.parse", queries);
  const std::vector<double> plan = SumsMs(spans, "plan.plan", queries);
  const std::vector<double> leaf = SumsMs(spans, "leaf.execute", queries);
  const std::vector<double> stem =
      SumsMs(spans, "cluster.stem_merge", queries);
  const std::vector<double> merge = SumsMs(spans, "exec.merge", queries);
  const std::vector<double> final_ms = SumsMs(spans, "exec.final", queries);
  const std::vector<double> traced = SumsMs(spans, "query", queries);
  std::vector<double> self_ms;
  for (size_t i = 0; i < queries.size(); ++i) {
    self_ms.push_back(engine.latency_ms[i] - parse[i] - plan[i] - leaf[i] -
                      stem[i] - merge[i] - final_ms[i]);
  }
  const double q = static_cast<double>(counts.queries);
  const double aq = static_cast<double>(counts.aggregate_queries);
  const double hits = static_cast<double>(after.resolver.TotalHits() -
                                          before.resolver.TotalHits());
  const double composed = static_cast<double>(after.resolver.composed_hits -
                                              before.resolver.composed_hits);
  const double misses = static_cast<double>(after.resolver.misses -
                                            before.resolver.misses);
  const double encoded = static_cast<double>(
      after.decode.predicates_encoded - before.decode.predicates_encoded);
  const double fallback = static_cast<double>(
      after.decode.predicates_fallback - before.decode.predicates_fallback);
  const double evictions = static_cast<double>(
      after.index.lru_evictions + after.index.ttl_evictions -
      before.index.lru_evictions - before.index.ttl_evictions);
  const double mib = 1024.0 * 1024.0;
  const double traced_p50 = Median(traced);
  const double untraced_p50 = Median(engine.latency_ms);
  return {
      {"sql.parse_us", 1e3 * Mean(parse), "us"},
      {"plan.plan_us", 1e3 * Mean(plan), "us"},
      {"leaf.execute_ms", Mean(leaf), "ms"},
      {"leaf.execute_us_p50", Median(DurationsUs(spans, "leaf.execute")),
       "us"},
      {"leaf.rows_scanned_per_query",
       Ratio(static_cast<double>(counts.rows_scanned), q), "rows"},
      {"leaf.values_decoded_per_query",
       Ratio(static_cast<double>(counts.values_decoded), q), "values"},
      {"columnar.decode_us_per_block",
       Mean(DurationsUs(spans, "columnar.decode")), "us"},
      {"expr.encoded_predicate_ratio", Ratio(encoded, encoded + fallback),
       "ratio"},
      {"index.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"index.composed_share", Ratio(composed, hits), "ratio"},
      {"index.evictions", evictions, "count"},
      {"index.memory_mb", static_cast<double>(twin.TotalIndexMemory()) / mib,
       "MB"},
      {"exec.partial_rows_per_query",
       Ratio(static_cast<double>(counts.partial_rows), aq), "rows"},
      {"exec.groups_per_query",
       Ratio(static_cast<double>(counts.groups), aq), "groups"},
      {"exec.merge_ms", Mean(merge), "ms"},
      {"exec.final_ms", Mean(final_ms), "ms"},
      {"cluster.stem_merge_ms", Mean(stem), "ms"},
      {"cluster.tasks_per_query",
       Ratio(static_cast<double>(counts.tasks), q), "tasks"},
      {"cluster.blocks_skipped_ratio",
       Ratio(static_cast<double>(counts.tasks_skipped),
             static_cast<double>(counts.tasks)),
       "ratio"},
      {"cluster.queue_wait_ms", Mean(engine.queue_wait_ms), "ms"},
      {"cluster.master_self_ms", Mean(self_ms), "ms"},
      {"ingest.parse_line_us", Mean(DurationsUs(spans, "ingest.parse_line")),
       "us"},
      {"ingest.rows_per_block",
       Ratio(static_cast<double>(counts.rows_written),
             static_cast<double>(counts.blocks_written)),
       "rows"},
      {"columnar.encode_us_per_block",
       Mean(DurationsUs(spans, "columnar.encode")), "us"},
      {"columnar.bytes_per_row",
       Ratio(static_cast<double>(counts.bytes_written),
             static_cast<double>(counts.rows_written)),
       "B/row"},
      {"storage.write_us_per_block",
       Mean(DurationsUs(spans, "storage.write")), "us"},
      {"storage.stored_mb",
       static_cast<double>(twin.catalog().Find(table)->TotalBytes()) / mib,
       "MB"},
      {"core.compact_ms", Mean(DurationsUs(spans, "core.compact")) / 1e3,
       "ms"},
      {"core.blocks_removed", static_cast<double>(counts.blocks_removed),
       "count"},
      {"trace.p50_ms", traced_p50, "ms"},
      {"trace.untraced_p50_ms", untraced_p50, "ms"},
      {"trace.overhead_ms", traced_p50 - untraced_p50, "ms"},
      {"trace.spans", static_cast<double>(spans.spans().size()), "count"},
  };
}

/// Compares the twin's answers with the engine's, query by query.
void CheckReplay(const std::vector<uint64_t>& engine_hashes,
                 const std::vector<uint64_t>& twin_hashes,
                 const std::vector<std::string>& sql, RunResult* out) {
  out->attempted = engine_hashes.size();
  for (size_t i = 0; i < engine_hashes.size(); ++i) {
    out->digest += DigestTerm(i, engine_hashes[i]);
    if (i >= twin_hashes.size() || twin_hashes[i] != engine_hashes[i]) {
      ++out->failed;
      out->correct = false;
      std::fprintf(stderr, "perfbench: traced answer differs: %s\n",
                   sql[i].c_str());
    }
  }
}

RunResult TraceQueryWorkload(const WorkloadSpec& spec, uint64_t seed,
                             SpanRecorder* spans) {
  RunResult out;
  const size_t first = spec.warm_items;
  const size_t last = first + spec.traced_items;

  // Untraced engine: the usual set-up, then the replayed items one at a
  // time.
  HostProbe probe;  // the traced run reports timings as measured
  QueryDeployment d = SetUpQueryWorkload(spec, seed, &probe);
  const std::vector<Item>& items = d.items;
  EngineReplay engine;
  std::vector<std::string> sql;
  for (size_t i = first; i < last; ++i) {
    const int64_t t0 = NowNs();
    Result<QueryResult> r =
        d.engine->QueryAt(kQueryUser, items[i].sql, items[i].at);
    RecordEngineAnswer(r, NowNs() - t0, &engine);
    sql.push_back(items[i].sql);
  }
  d.engine.reset();

  // Twin: same seed and config, built and warmed through the layers.
  std::unique_ptr<FeisuEngine> twin =
      MakeQueryEngine(spec, seed);
  if (twin == nullptr) Die("cannot create twin table");
  LayeredReplay layered(twin.get(), spans);
  int64_t step = 0;
  for (const RecordBatch& batch : GenerateTable(spec, seed)) {
    Check(layered.WriteBlock("t1", "/hdfs/t1", batch, --step), "twin write");
  }
  spans->set_enabled(false);
  for (const Item& item : WarmupQueries(items)) {
    Check(layered.Query(item.sql, item.at, -1).status(), "twin warm atom");
  }
  for (size_t i = 0; i < first; ++i) {
    Check(layered.Query(items[i].sql, items[i].at, -1).status(), "twin warm");
  }
  spans->set_enabled(true);
  const LayerCounts write_counts = layered.counts();
  layered.ResetCounts();
  const CounterSnapshot before = CounterSnapshot::Take(*twin);
  std::vector<uint64_t> twin_hashes;
  std::vector<int64_t> queries;
  for (size_t i = first; i < last; ++i) {
    const int64_t qid = static_cast<int64_t>(i);
    Result<RecordBatch> r = layered.Query(items[i].sql, items[i].at, qid);
    Check(r.status(), "twin replay");
    twin_hashes.push_back(AnswerHash(*r));
    queries.push_back(qid);
  }
  const CounterSnapshot after = CounterSnapshot::Take(*twin);
  LayerCounts counts = layered.counts();
  counts.blocks_written = write_counts.blocks_written;
  counts.rows_written = write_counts.rows_written;
  counts.bytes_written = write_counts.bytes_written;

  CheckReplay(engine.hashes, twin_hashes, sql, &out);
  out.metrics = LayerMetrics(*spans, counts, queries, engine, before, after,
                             *twin, "t1");
  return out;
}

RunResult TraceFreshIngest(const WorkloadSpec& spec, uint64_t seed,
                           SpanRecorder* spans) {
  RunResult out;
  const IngestCycle cycle = GenerateIngestCycle(spec, seed);

  // Untraced engine: the cycle as the timed run drives it.
  HostProbe probe;  // the traced run reports timings as measured
  CycleLog cycle_log = RunIngestCycle(spec, seed, cycle, &probe);
  if (cycle_log.failed > 0) Die("engine replay had failed queries");
  EngineReplay engine;
  engine.hashes = std::move(cycle_log.hashes);
  engine.queue_wait_ms = std::move(cycle_log.queue_wait_ms);
  engine.latency_ms = std::move(cycle_log.latency_ms);

  // Twin: every line, block, query and compaction through the layers.
  feisu::StorageSystem* local = nullptr;
  std::unique_ptr<FeisuEngine> twin =
      MakeIngestEngine(spec, seed, &local);
  if (twin == nullptr) Die("cannot create twin log table");
  LayeredReplay layered(twin.get(), spans);
  layered.StartLogIngest(local, kLogNode, kLogTable, kLogPrefix,
                         MakeLogMonitorConfig(spec));
  const CounterSnapshot before = CounterSnapshot::Take(*twin);
  std::vector<uint64_t> twin_hashes;
  std::vector<int64_t> queries;
  for (size_t i = 0; i < cycle.lines.size(); ++i) {
    const feisu::SimTime at = cycle.line_at[i];
    const int64_t step = -1 - static_cast<int64_t>(i);
    Check(layered.OnLogLine(cycle.lines[i], at, step), "twin line");
    Check(layered.Tick(at, step), "twin tick");
    const size_t seen = i + 1;
    if (seen % spec.query_every == 0) {
      const int64_t qid = static_cast<int64_t>(seen / spec.query_every - 1);
      Result<RecordBatch> r =
          layered.Query(cycle.queries[static_cast<size_t>(qid)], at, qid);
      Check(r.status(), "twin query");
      twin_hashes.push_back(AnswerHash(*r));
      queries.push_back(qid);
    }
    if (seen % spec.compact_every == 0) {
      Check(layered.Compact(kLogTable, step), "twin compact");
    }
  }
  const CounterSnapshot after = CounterSnapshot::Take(*twin);
  CheckReplay(engine.hashes, twin_hashes, cycle.queries, &out);
  out.metrics = LayerMetrics(*spans, layered.counts(), queries, engine,
                             before, after, *twin, kLogTable);
  return out;
}

// ---------------------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Die("--trace must be 0 or 1");
  return args;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintContext(const Args& args, const WorkloadSpec& spec,
                  const RunResult& r) {
  const feisu::EngineConfig config = MakeEngineConfig(spec, args.seed);
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d, \"run_seconds\": %g, \"git_sha\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
      "\"loop\": \"closed\", \"sessions\": 1, \"leaf_nodes\": %zu, "
      "\"max_concurrent_jobs\": %zu, \"leaf_parallelism\": %zu, "
      "\"answer_digest\": \"%016llx\", \"trace_file\": \"%s\", "
      "\"host_probe\": {\"reference_ms\": %g, \"setup_median_ms\": %.6g, "
      "\"setup_samples\": %zu, \"window_median_ms\": %.6g, "
      "\"window_samples\": %zu}, \"unscaled\": {",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, args.seconds, args.git_sha.c_str(), PERFBENCH_BUILD_TYPE,
      __VERSION__, std::thread::hardware_concurrency(), config.num_leaf_nodes,
      config.master.max_concurrent_jobs, config.master.leaf_parallelism,
      static_cast<unsigned long long>(r.digest), r.trace_file.c_str(),
      HostProbe::kReferenceMs, r.setup_probe.median_ms, r.setup_probe.samples,
      r.window_probe.median_ms, r.window_probe.samples);
  PrintMetrics(r.unscaled);
  std::printf("}}}\n");
}

void PrintResult(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  PrintMetrics(r.metrics);
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");

  RunResult result;
  if (args.trace == 0) {
    result = spec->kind == WorkloadKind::kFreshIngest
                 ? RunFreshIngest(*spec, args.seed, args.seconds)
                 : RunQueryWorkload(*spec, args.seed, args.seconds);
  } else {
    SpanRecorder spans(/*enabled=*/true);
    result = spec->kind == WorkloadKind::kFreshIngest
                 ? TraceFreshIngest(*spec, args.seed, &spans)
                 : TraceQueryWorkload(*spec, args.seed, &spans);
    result.trace_file = args.out_dir + "/trace_" + spec->name + "_seed" +
                        std::to_string(args.seed) + ".json";
    if (!spans.WriteChromeTrace(result.trace_file)) {
      Die("cannot write " + result.trace_file);
    }
  }
  PrintContext(args, *spec, result);
  PrintResult(result);
  return 0;
}
