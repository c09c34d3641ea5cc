// Design-choice ablation: how much of Feisu's query latency comes from
// each execution-side optimization? The paper motivates predicate pushdown
// (leaf-side filtering is what SmartIndex accelerates), zone maps (block
// statistics), SmartIndex itself, and the tree execution's shuffle
// discipline (here: distributed LIMIT / local top-k). We disable one
// feature at a time and replay the same warmed workload.

#include <cstdio>

#include "bench/bench_util.h"

using namespace feisu;
using namespace feisu::bench;

namespace {

struct Variant {
  const char* name;
  bool smart_index = true;
  bool zone_maps = true;
  bool predicate_pushdown = true;
  bool limit_pushdown = true;
};

double RunVariant(const Variant& variant,
                  const std::vector<TraceQuery>& trace) {
  DeploymentSpec spec;
  EngineConfig config;
  config.num_leaf_nodes = spec.num_leaf_nodes;
  config.rows_per_block = spec.rows_per_block;
  config.leaf.enable_smart_index = variant.smart_index;
  config.leaf.enable_zone_maps = variant.zone_maps;
  config.leaf.sim_data_scale = spec.sim_data_scale;
  config.master.enable_task_result_reuse = false;
  config.master.enable_predicate_pushdown = variant.predicate_pushdown;
  config.master.enable_limit_pushdown = variant.limit_pushdown;
  auto engine = std::make_unique<FeisuEngine>(config);
  engine->AddStorage("/hdfs", MakeHdfs(), true);
  engine->GrantAllDomains("bench");
  Schema schema = MakeLogSchema(spec.num_fields);
  if (!engine->CreateTable("t1", schema, "/hdfs/t1").ok()) std::abort();
  Rng rng(spec.seed);
  for (size_t b = 0; b < spec.num_blocks; ++b) {
    if (!engine->Ingest("t1", GenerateRows(schema, spec.rows_per_block,
                                           &rng))
             .ok()) {
      std::abort();
    }
  }
  (void)engine->Flush("t1");
  std::vector<double> response_ms = ReplayTrace(engine.get(), trace);
  // Warmed steady state: ignore the first quarter.
  return Mean(response_ms, response_ms.size() / 4, response_ms.size());
}

}  // namespace

int main() {
  Schema schema = MakeLogSchema(24);
  TraceConfig trace_config;
  trace_config.table = "t1";
  trace_config.num_queries = 1200;
  trace_config.predicate_reuse_prob = 0.7;
  trace_config.value_domain = 25;
  trace_config.eq_prob = 0.4;
  std::vector<TraceQuery> trace = GenerateTrace(trace_config, schema);

  std::printf(
      "=== Design-choice ablation: one optimization disabled at a time "
      "===\n\n");
  const Variant variants[] = {
      {"full system"},
      {"- SmartIndex", false, true, true, true},
      {"- zone maps", true, false, true, true},
      {"- predicate pushdown", true, true, false, true},
      {"- limit pushdown", true, true, true, false},
      {"nothing enabled", false, false, false, false},
  };
  double full = 0;
  std::printf("%-24s %-20s %-12s\n", "Variant", "Warm avg (ms)",
              "vs full");
  for (const auto& variant : variants) {
    double ms = RunVariant(variant, trace);
    if (full == 0) full = ms;
    std::printf("%-24s %-20.2f %.2fx\n", variant.name, ms, ms / full);
  }
  std::printf(
      "\nNote: disabling predicate pushdown moves filtering to the master, "
      "which also starves SmartIndex (it lives in the leaf scan path) — "
      "the paper's design couples the two deliberately.\n");
  return 0;
}
