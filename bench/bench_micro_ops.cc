// Google-benchmark microbenchmarks for Feisu's hot primitives: SmartIndex
// bitmap algebra, RLE (de)compression, column encodings, B+-tree probes and
// SQL parsing. These are the operations whose costs the cluster simulator
// charges; the microbenches document their real magnitudes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "columnar/block.h"
#include "columnar/encoding.h"
#include "exec/aggregate.h"
#include "exec/operators.h"
#include "expr/evaluator.h"
#include "expr/normalize.h"
#include "index/btree.h"
#include "index/index_cache.h"
#include "index/index_resolver.h"
#include "sql/parser.h"

namespace feisu {
namespace {

BitVector RandomBits(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  BitVector bits(n, false);
  for (size_t i = 0; i < n; ++i) bits.Set(i, rng.NextBool(density));
  return bits;
}

void BM_BitVectorAnd(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  BitVector a = RandomBits(n, 0.3, 1);
  BitVector b = RandomBits(n, 0.3, 2);
  for (auto _ : state) {
    BitVector c = BitVector::And(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BitVectorAnd)->Arg(4096)->Arg(65536);

void BM_BitVectorRleRoundTrip(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  BitVector bits = RandomBits(n, 0.05, 3);
  for (auto _ : state) {
    std::string payload = bits.SerializeRle();
    BitVector decoded;
    BitVector::DeserializeRle(payload, &decoded);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_BitVectorRleRoundTrip)->Arg(4096)->Arg(65536);

void BM_EncodeInt64Column(benchmark::State& state) {
  Rng rng(4);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 4096; ++i) {
    col.AppendInt64(static_cast<int64_t>(rng.NextZipf(4, 2.0)));
  }
  for (auto _ : state) {
    EncodedColumn encoded = EncodeColumn(col);
    benchmark::DoNotOptimize(encoded);
  }
}
BENCHMARK(BM_EncodeInt64Column);

void BM_DecodeInt64Column(benchmark::State& state) {
  Rng rng(5);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 4096; ++i) {
    col.AppendInt64(rng.NextInt64(0, 100));
  }
  EncodedColumn encoded = EncodeColumn(col);
  for (auto _ : state) {
    auto decoded = DecodeColumn(DataType::kInt64, encoded);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeInt64Column);

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    BPlusTree<double> tree;
    for (uint32_t i = 0; i < 4096; ++i) {
      tree.Insert(static_cast<double>(rng.NextInt64(0, 1000)), i);
    }
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeRangeScan(benchmark::State& state) {
  Rng rng(7);
  BPlusTree<double> tree;
  for (uint32_t i = 0; i < 65536; ++i) {
    tree.Insert(static_cast<double>(rng.NextInt64(0, 1000)), i);
  }
  for (auto _ : state) {
    size_t count = 0;
    tree.ScanRange(100.0, true, 200.0, true,
                   [&count](uint32_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_BTreeRangeScan);

RecordBatch MakeWideBatch(size_t n) {
  Schema schema({{"k", DataType::kInt64, true}});
  RecordBatch batch(schema);
  Rng rng(8);
  for (size_t i = 0; i < n; ++i) {
    batch.AppendRow({Value::Int64(rng.NextInt64(0, 1 << 20))}).ok();
  }
  return batch;
}

void BM_SortPlusLimit(benchmark::State& state) {
  RecordBatch batch = MakeWideBatch(static_cast<size_t>(state.range(0)));
  OrderByItem item{Expr::ColumnRef("k"), false};
  for (auto _ : state) {
    auto sorted = SortBatch(batch, {item});
    RecordBatch out = LimitBatch(*sorted, 10);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SortPlusLimit)->Arg(4096)->Arg(65536);

void BM_TopN(benchmark::State& state) {
  RecordBatch batch = MakeWideBatch(static_cast<size_t>(state.range(0)));
  OrderByItem item{Expr::ColumnRef("k"), false};
  for (auto _ : state) {
    auto out = TopNBatch(batch, {item}, 10);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_TopN)->Arg(4096)->Arg(65536);

// --- Late materialization: selective decode vs decode-then-Filter. ---

// Runs of 32 repeated values: the shape RLE exploits and selective decode
// skips.
ColumnVector MakeRunnyColumn(size_t n) {
  Rng rng(9);
  ColumnVector col(DataType::kInt64);
  size_t i = 0;
  while (i < n) {
    int64_t v = rng.NextInt64(0, 50);
    for (size_t k = 0; k < 32 && i < n; ++k, ++i) col.AppendInt64(v);
  }
  return col;
}

// ~1% selectivity, the SmartIndex-hit regime the paper optimizes for.
BitVector SparseSelection(size_t n, uint64_t seed) {
  Rng rng(seed);
  BitVector bits(n, false);
  for (size_t i = 0; i < n; ++i) bits.Set(i, rng.NextBool(0.01));
  return bits;
}

void ReportDecodeCounters(benchmark::State& state) {
  DecodeCounters counters = GetDecodeCounters();
  double iters = static_cast<double>(state.iterations());
  state.counters["values_decoded_per_iter"] =
      static_cast<double>(counters.values_materialized) / iters;
  state.counters["values_skipped_per_iter"] =
      static_cast<double>(counters.values_skipped) / iters;
  state.counters["runs_skipped_per_iter"] =
      static_cast<double>(counters.runs_skipped) / iters;
}

void BM_FullDecodeThenFilter(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  EncodedColumn encoded = EncodeColumn(MakeRunnyColumn(n));
  BitVector selection = SparseSelection(n, 10);
  ResetDecodeCounters();
  for (auto _ : state) {
    auto full = DecodeColumn(DataType::kInt64, encoded);
    ColumnVector out = full->Filter(selection);
    benchmark::DoNotOptimize(out);
  }
  ReportDecodeCounters(state);
}
BENCHMARK(BM_FullDecodeThenFilter)->Arg(4096)->Arg(65536);

void BM_SelectiveDecode(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  EncodedColumn encoded = EncodeColumn(MakeRunnyColumn(n));
  BitVector selection = SparseSelection(n, 10);
  ResetDecodeCounters();
  for (auto _ : state) {
    auto out = DecodeColumn(DataType::kInt64, encoded, &selection);
    benchmark::DoNotOptimize(out);
  }
  ReportDecodeCounters(state);
}
BENCHMARK(BM_SelectiveDecode)->Arg(4096)->Arg(65536);

// --- SmartIndex combine: RLE domain vs inflate-combine-reserialize. ---

// Whole-word runs of zeros/ones with mixed literal stretches: the shape
// cached SmartIndex bitmaps actually have.
BitVector BlockyBits(size_t n, uint64_t seed) {
  Rng rng(seed);
  BitVector bits(n, false);
  size_t i = 0;
  while (i < n) {
    uint64_t shape = rng.NextUint64(5);
    size_t span = (1 + rng.NextUint64(4)) * 64;
    for (size_t k = 0; k < span && i < n; ++k, ++i) {
      bits.Set(i, shape < 2 ? false : (shape < 4 ? true : rng.NextBool(0.5)));
    }
  }
  return bits;
}

void BM_RleDomainAnd(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const std::string a = BlockyBits(n, 11).SerializeRle();
  const std::string b = BlockyBits(n, 12).SerializeRle();
  for (auto _ : state) {
    std::string out;
    BitVector::RleAnd(a, b, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RleDomainAnd)->Arg(65536)->Arg(1 << 20);

void BM_InflateAndReserialize(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const std::string a = BlockyBits(n, 11).SerializeRle();
  const std::string b = BlockyBits(n, 12).SerializeRle();
  for (auto _ : state) {
    BitVector da;
    BitVector db;
    BitVector::DeserializeRle(a, &da);
    BitVector::DeserializeRle(b, &db);
    da.And(db);
    std::string out = da.SerializeRle();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_InflateAndReserialize)->Arg(65536)->Arg(1 << 20);

// --- SmartIndex probe: one warm query, the engine's hit path. ---

// Per iteration: key the query's conjuncts once, then AND each of them
// into a 2048-row selection on each of 32 blocks (probe, RLE combine,
// IndexResolver::ResolveAnd), as LeafServer::Execute does. First
// argument 0: two atoms, both direct hits; 1: an atom (direct hit) and a
// disjunction composed from its two cached operands. Second argument: the
// cached blocks, four atoms each. With 32 every iteration probes the same
// 128 entries; with 3500 (~14 k resident entries, one leaf's share of
// smartindex_trace's ~110 k over 8 leaves) each iteration moves on to
// the next 32 blocks, so the probe's cache misses show.
constexpr size_t kProbeRows = 2048;

/// The cache of `cached_blocks` blocks, built once per process and kept:
/// building and tearing down ~14 k entries on every call of the benchmark
/// left the heap in a state that slowed the benchmarks registered after it
/// (BM_AggConsumeDictCodes/64 by about half).
IndexCache* ProbeCache(int64_t cached_blocks) {
  static std::map<int64_t, std::unique_ptr<IndexCache>> caches;
  std::unique_ptr<IndexCache>& cache = caches[cached_blocks];
  if (cache != nullptr) return cache.get();
  cache = std::make_unique<IndexCache>();
  uint64_t seed = 1;
  for (const char* atom : {"c2 > 5", "c3 <= 7", "c3 = 1", "c4 = 2"}) {
    auto atom_stmt = ParseSql(std::string("SELECT a FROM t WHERE ") + atom);
    for (const KeyedPredicate& keyed : KeyConjuncts(atom_stmt->where)) {
      for (int64_t block = 0; block < cached_blocks; ++block) {
        cache->Insert({block, keyed.key}, BlockyBits(kProbeRows, seed++), 0);
      }
    }
  }
  return cache.get();
}

void BM_SmartIndexProbe(benchmark::State& state) {
  constexpr int64_t kBlocksPerQuery = 32;
  const int64_t cached_blocks = state.range(1);
  const std::string where = state.range(0) == 0
                                ? "c2 > 5 AND c3 <= 7"
                                : "c2 > 5 AND (c3 = 1 OR c4 = 2)";
  auto stmt = ParseSql("SELECT COUNT(*) FROM t WHERE " + where);
  if (!stmt.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  IndexCache* cache = ProbeCache(cached_blocks);
  int64_t first_block = 0;
  for (auto _ : state) {
    IndexResolver resolver(cache);
    const std::vector<KeyedPredicate> conjuncts = KeyConjuncts(stmt->where);
    for (int64_t i = 0; i < kBlocksPerQuery; ++i) {
      const int64_t block = (first_block + i) % cached_blocks;
      BitVector selection(kProbeRows, true);
      for (const KeyedPredicate& conjunct : conjuncts) {
        resolver.ResolveAnd(block, conjunct, 1, &selection);
      }
      benchmark::DoNotOptimize(selection);
    }
    first_block = (first_block + kBlocksPerQuery) % cached_blocks;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kBlocksPerQuery);
}
BENCHMARK(BM_SmartIndexProbe)->ArgsProduct({{0, 1}, {32, 3500}});

// --- Typed hash join (word keys + gather output, no per-cell boxing). ---

void BM_HashJoinEqui(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Schema left_schema({{"k", DataType::kInt64, true},
                      {"lv", DataType::kDouble, true}});
  Schema right_schema({{"rk", DataType::kInt64, true},
                       {"rv", DataType::kString, true}});
  RecordBatch left(left_schema);
  RecordBatch right(right_schema);
  Rng rng(13);
  for (size_t i = 0; i < n; ++i) {
    left.AppendRow({Value::Int64(rng.NextInt64(0, 1024)),
                    Value::Double(rng.NextDouble())})
        .ok();
  }
  for (size_t i = 0; i < 1024; ++i) {
    std::string payload = "r";
    payload += std::to_string(i);
    right
        .AppendRow({Value::Int64(static_cast<int64_t>(i)),
                    Value::String(payload)})
        .ok();
  }
  HashJoinOptions options;
  options.condition = Expr::Compare(CompareOp::kEq, Expr::ColumnRef("k"),
                                    Expr::ColumnRef("rk"));
  for (auto _ : state) {
    auto out = HashJoinBatches(left, right, options);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_HashJoinEqui)->Arg(4096)->Arg(65536);

// --- Hash aggregation: vectorized Aggregator vs the seed ordered map. ---

// The ordered-map aggregator this repo's Aggregator replaced: boxed Values,
// one serialized-key std::map lookup per row. Kept here (bench-only) as the
// comparison baseline that BENCH_micro_ops.json tracks the speedup against.
class SeedMapAggregator {
 public:
  SeedMapAggregator(std::vector<ExprPtr> group_by, std::vector<AggSpec> specs)
      : group_by_(std::move(group_by)), specs_(std::move(specs)) {}

  Status Consume(const RecordBatch& batch) {
    size_t n = batch.num_rows();
    if (n == 0) return Status::OK();
    std::vector<ColumnVector> key_cols;
    for (const auto& g : group_by_) {
      FEISU_ASSIGN_OR_RETURN(ColumnVector col, EvaluateExpr(*g, batch));
      key_cols.push_back(std::move(col));
    }
    std::vector<ColumnVector> arg_cols;
    std::vector<bool> has_arg(specs_.size(), false);
    for (size_t s = 0; s < specs_.size(); ++s) {
      if (specs_[s].arg != nullptr) {
        FEISU_ASSIGN_OR_RETURN(ColumnVector col,
                               EvaluateExpr(*specs_[s].arg, batch));
        arg_cols.push_back(std::move(col));
        has_arg[s] = true;
      } else {
        arg_cols.emplace_back(DataType::kInt64);
      }
    }
    std::vector<Value> keys(group_by_.size());
    for (size_t row = 0; row < n; ++row) {
      for (size_t k = 0; k < key_cols.size(); ++k) {
        keys[k] = key_cols[k].GetValue(row);
      }
      Group& group = GroupFor(keys);
      for (size_t s = 0; s < specs_.size(); ++s) {
        AggState& agg = group.states[s];
        if (!has_arg[s]) {
          ++agg.count;
          continue;
        }
        Value v = arg_cols[s].GetValue(row);
        if (v.is_null()) continue;
        ++agg.count;
        if (specs_[s].func == AggFunc::kSum ||
            specs_[s].func == AggFunc::kAvg) {
          agg.sum += v.AsDouble();
        }
        if (specs_[s].func == AggFunc::kMin ||
            specs_[s].func == AggFunc::kMax) {
          if (agg.min.is_null() || v.Compare(agg.min) < 0) agg.min = v;
          if (agg.max.is_null() || v.Compare(agg.max) > 0) agg.max = v;
        }
      }
    }
    return Status::OK();
  }

  size_t num_groups() const { return groups_.size(); }

 private:
  struct AggState {
    int64_t count = 0;
    double sum = 0;
    Value min;
    Value max;
  };
  struct Group {
    std::vector<Value> keys;
    std::vector<AggState> states;
  };

  Group& GroupFor(const std::vector<Value>& keys) {
    std::string serialized;
    for (const Value& key : keys) SerializeValue(&serialized, key);
    auto it = groups_.find(serialized);
    if (it == groups_.end()) {
      Group group;
      group.keys = keys;
      group.states.resize(specs_.size());
      it = groups_.emplace(std::move(serialized), std::move(group)).first;
    }
    return it->second;
  }

  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> specs_;
  std::map<std::string, Group> groups_;
};

// 64k rows of (int64 key, double value); key cardinality is the bench arg.
RecordBatch MakeAggInput(size_t rows, int64_t cardinality,
                         double null_density) {
  Schema schema({{"k", DataType::kInt64, true},
                 {"v", DataType::kDouble, true}});
  RecordBatch batch(schema);
  batch.Reserve(rows);
  Rng rng(14);
  for (size_t i = 0; i < rows; ++i) {
    Value v = rng.NextBool(null_density) ? Value::Null()
                                         : Value::Double(rng.NextDouble());
    batch.AppendRow({Value::Int64(rng.NextInt64(0, cardinality)), v}).ok();
  }
  return batch;
}

std::vector<AggSpec> AggBenchSpecs() {
  std::vector<AggSpec> specs(4);
  specs[0].func = AggFunc::kCount;
  specs[0].output_name = "cnt";
  specs[1].func = AggFunc::kSum;
  specs[1].arg = Expr::ColumnRef("v");
  specs[1].output_name = "sum_v";
  specs[2].func = AggFunc::kMin;
  specs[2].arg = Expr::ColumnRef("v");
  specs[2].output_name = "min_v";
  specs[3].func = AggFunc::kMax;
  specs[3].arg = Expr::ColumnRef("v");
  specs[3].output_name = "max_v";
  return specs;
}

constexpr size_t kAggRows = 65536;

void BM_AggConsume(benchmark::State& state) {
  RecordBatch batch = MakeAggInput(kAggRows, state.range(0), 0.0);
  std::vector<ExprPtr> group_by = {Expr::ColumnRef("k")};
  std::vector<AggSpec> specs = AggBenchSpecs();
  size_t groups = 0;
  for (auto _ : state) {
    auto agg = Aggregator::Make(group_by, specs, batch.schema());
    agg->Consume(batch).ok();
    groups = agg->num_groups();
    benchmark::DoNotOptimize(groups);
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_AggConsume)->Arg(64)->Arg(32768);

void BM_AggConsumeMapBaseline(benchmark::State& state) {
  RecordBatch batch = MakeAggInput(kAggRows, state.range(0), 0.0);
  std::vector<ExprPtr> group_by = {Expr::ColumnRef("k")};
  std::vector<AggSpec> specs = AggBenchSpecs();
  size_t groups = 0;
  for (auto _ : state) {
    SeedMapAggregator agg(group_by, specs);
    agg.Consume(batch).ok();
    groups = agg.num_groups();
    benchmark::DoNotOptimize(groups);
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_AggConsumeMapBaseline)->Arg(64)->Arg(32768);

// 30% null arguments: exercises the per-row validity branch of the kernels
// (the null-free fast path is off for every batch).
void BM_AggConsumeNullArgs(benchmark::State& state) {
  RecordBatch batch = MakeAggInput(kAggRows, state.range(0), 0.3);
  std::vector<ExprPtr> group_by = {Expr::ColumnRef("k")};
  std::vector<AggSpec> specs = AggBenchSpecs();
  for (auto _ : state) {
    auto agg = Aggregator::Make(group_by, specs, batch.schema());
    agg->Consume(batch).ok();
    benchmark::DoNotOptimize(agg->num_groups());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_AggConsumeNullArgs)->Arg(64)->Arg(32768);

// Ungrouped global aggregation: single group, pure accumulation kernels.
void BM_AggConsumeUngrouped(benchmark::State& state) {
  RecordBatch batch = MakeAggInput(kAggRows, 1024, 0.0);
  std::vector<AggSpec> specs = AggBenchSpecs();
  for (auto _ : state) {
    auto agg = Aggregator::Make({}, specs, batch.schema());
    agg->Consume(batch).ok();
    benchmark::DoNotOptimize(agg->num_groups());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_AggConsumeUngrouped);

// Stem-side merge: one high-cardinality partial batch re-grouped per
// iteration, the hot loop of multi-level partial exchange.
void BM_AggConsumePartial(benchmark::State& state) {
  RecordBatch batch = MakeAggInput(kAggRows, state.range(0), 0.0);
  std::vector<ExprPtr> group_by = {Expr::ColumnRef("k")};
  std::vector<AggSpec> specs = AggBenchSpecs();
  auto leaf = Aggregator::Make(group_by, specs, batch.schema());
  leaf->Consume(batch).ok();
  RecordBatch partial = *leaf->PartialResult();
  for (auto _ : state) {
    auto stem = Aggregator::Make(group_by, specs, batch.schema());
    stem->ConsumePartial(partial).ok();
    benchmark::DoNotOptimize(stem->num_groups());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(partial.num_rows()));
}
BENCHMARK(BM_AggConsumePartial)->Arg(64)->Arg(32768);

// Master-side finalize of 65 536 groups: per-spec finalization, then the
// one sort of the groups into typed key order. Arg 0 groups by an int64
// key, arg 1 by a string key; keys arrive in shuffled order.
void BM_AggFinalResult(benchmark::State& state) {
  constexpr size_t kGroups = 65536;
  const bool string_key = state.range(0) != 0;
  Schema schema({{"k", string_key ? DataType::kString : DataType::kInt64,
                  true},
                 {"v", DataType::kDouble, true}});
  std::vector<uint32_t> ids(kGroups);
  for (size_t i = 0; i < kGroups; ++i) ids[i] = static_cast<uint32_t>(i);
  Rng rng(17);
  for (size_t i = kGroups - 1; i > 0; --i) {
    std::swap(ids[i], ids[static_cast<size_t>(
                          rng.NextInt64(0, static_cast<int64_t>(i)))]);
  }
  RecordBatch batch(schema);
  batch.Reserve(kGroups);
  for (uint32_t id : ids) {
    std::string name = "key_";
    name += std::to_string(id);
    Value key = string_key ? Value::String(std::move(name))
                           : Value::Int64(static_cast<int64_t>(id) * 7919);
    batch.AppendRow({key, Value::Double(rng.NextDouble())}).ok();
  }
  auto agg =
      Aggregator::Make({Expr::ColumnRef("k")}, AggBenchSpecs(), schema);
  agg->Consume(batch).ok();
  for (auto _ : state) {
    auto result = agg->FinalResult();
    benchmark::DoNotOptimize(result);
  }
  state.counters["groups"] = static_cast<double>(agg->num_groups());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kGroups));
}
BENCHMARK(BM_AggFinalResult)->Arg(0)->Arg(1);

// --- Compressed-domain execution: predicate kernels + group-by on codes.
// Each encoded bench has two comparisons over the same data: the engine's
// own decode-then-evaluate path (BM_*Decode, BM_AggConsumeStringKeys), and
// a frozen reference (BM_*Reference below) that decodes the payload one
// value at a time in bench-local code and compares or groups with a plain
// per-row loop. tools/run_bench.py records encoded-vs-reference ratios as
// compressed_eval_speedup: the reference never changes, so the gated ratio
// moves only with the encoded kernels, while a faster engine decode path
// (which the engine-path pairs show) cannot fail the gate. Results are
// byte-identical between the engine pairs (tests/materialize_test.cc pins
// the grid); only the work differs.

// ---- Frozen payload readers (the kDict / kRle layouts of encoding.cc:
// u32 row count, length-prefixed BitVector::SerializeRle validity, then
// the codec body). Deliberately per-value and independent of the engine's
// decoders.

template <typename T>
T ReadAt(const std::string& in, size_t* pos) {
  T v{};
  std::memcpy(&v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return v;
}

bool ReadReferenceHeader(const std::string& in, size_t* pos, uint32_t* rows,
                         BitVector* validity) {
  *rows = ReadAt<uint32_t>(in, pos);
  uint32_t len = ReadAt<uint32_t>(in, pos);
  bool ok = BitVector::DeserializeRle(in.substr(*pos, len), validity);
  *pos += len;
  return ok && validity->size() == *rows;
}

// The reference benches keep their output vectors across iterations, so
// a timed iteration reuses capacity and measures decode and compare, not
// the allocator.

/// Frozen dict decode: every row's string (NULL rows empty).
bool ReferenceDecodeDict(const std::string& in, BitVector* validity,
                         std::vector<std::string>* values) {
  size_t pos = 0;
  uint32_t rows = 0;
  if (!ReadReferenceHeader(in, &pos, &rows, validity)) return false;
  uint32_t dict_size = ReadAt<uint32_t>(in, &pos);
  std::vector<std::string> entries;
  for (uint32_t e = 0; e < dict_size; ++e) {
    uint32_t len = ReadAt<uint32_t>(in, &pos);
    entries.push_back(in.substr(pos, len));
    pos += len;
  }
  values->clear();
  for (uint32_t i = 0; i < rows; ++i) {
    uint32_t code = ReadAt<uint32_t>(in, &pos);
    if (code >= entries.size()) return false;
    values->push_back(validity->Get(i) ? entries[code] : std::string());
  }
  return true;
}

/// Frozen RLE int64 decode: every row's value (NULL rows 0).
bool ReferenceDecodeRle(const std::string& in, BitVector* validity,
                        std::vector<int64_t>* values) {
  size_t pos = 0;
  uint32_t rows = 0;
  if (!ReadReferenceHeader(in, &pos, &rows, validity)) return false;
  values->clear();
  while (values->size() < rows) {
    int64_t value = ReadAt<int64_t>(in, &pos);
    uint32_t run = ReadAt<uint32_t>(in, &pos);
    if (run == 0 || values->size() + run > rows) return false;
    for (uint32_t k = 0; k < run; ++k) {
      values->push_back(validity->Get(values->size()) ? value : 0);
    }
  }
  return true;
}

/// Frozen Kleene finish: TRUE/FALSE bits of `match(i)` over valid rows.
template <typename Match>
TriStateVector ReferenceTriState(const BitVector& validity,
                                 const Match& match) {
  const size_t n = validity.size();
  std::vector<uint64_t> is_true((n + 63) / 64, 0);
  std::vector<uint64_t> is_false((n + 63) / 64, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!validity.Get(i)) continue;
    (match(i) ? is_true : is_false)[i >> 6] |= 1ULL << (i & 63);
  }
  TriStateVector out;
  out.is_true = BitVector::FromWords(std::move(is_true), n);
  out.is_false = BitVector::FromWords(std::move(is_false), n);
  return out;
}

// Low-cardinality string column — the shape the encoder dictionary-codes.
ColumnVector MakeDictStringColumn(size_t n, int64_t cardinality) {
  Rng rng(15);
  ColumnVector col(DataType::kString);
  for (size_t i = 0; i < n; ++i) {
    col.AppendString("s_" + std::to_string(rng.NextInt64(0, cardinality)));
  }
  return col;
}

void BM_DictPredicateEncoded(benchmark::State& state) {
  EncodedColumn encoded =
      EncodeColumnAs(MakeDictStringColumn(kAggRows, state.range(0)),
                     Encoding::kDict);
  Value lit = Value::String("s_7");
  for (auto _ : state) {
    TriStateVector bits;
    auto handled = TryEvaluateEncodedCompare(
        DataType::kString, encoded, CompareOp::kEq, lit, &bits);
    benchmark::DoNotOptimize(handled);
    benchmark::DoNotOptimize(bits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_DictPredicateEncoded)->Arg(64)->Arg(4096);

void BM_DictPredicateDecode(benchmark::State& state) {
  EncodedColumn encoded =
      EncodeColumnAs(MakeDictStringColumn(kAggRows, state.range(0)),
                     Encoding::kDict);
  Schema schema({{"c", DataType::kString, true}});
  ExprPtr pred = Expr::Compare(CompareOp::kEq, Expr::ColumnRef("c"),
                               Expr::Literal(Value::String("s_7")));
  for (auto _ : state) {
    auto col = DecodeColumn(DataType::kString, encoded);
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(*col));
    RecordBatch batch(schema, std::move(cols));
    auto tri = EvaluatePredicate3VL(*pred, batch);
    benchmark::DoNotOptimize(tri);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_DictPredicateDecode)->Arg(64)->Arg(4096);

void BM_DictPredicateReference(benchmark::State& state) {
  EncodedColumn encoded =
      EncodeColumnAs(MakeDictStringColumn(kAggRows, state.range(0)),
                     Encoding::kDict);
  const std::string lit = "s_7";
  std::vector<std::string> values;
  for (auto _ : state) {
    BitVector validity;
    if (!ReferenceDecodeDict(encoded.payload, &validity, &values)) {
      state.SkipWithError("bad dict payload");
      break;
    }
    TriStateVector tri = ReferenceTriState(
        validity, [&](size_t i) { return values[i] == lit; });
    benchmark::DoNotOptimize(tri);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_DictPredicateReference)->Arg(64)->Arg(4096);

void BM_RlePredicateEncoded(benchmark::State& state) {
  EncodedColumn encoded =
      EncodeColumnAs(MakeRunnyColumn(kAggRows), Encoding::kRle);
  Value lit = Value::Int64(25);
  for (auto _ : state) {
    TriStateVector bits;
    auto handled = TryEvaluateEncodedCompare(
        DataType::kInt64, encoded, CompareOp::kLt, lit, &bits);
    benchmark::DoNotOptimize(handled);
    benchmark::DoNotOptimize(bits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_RlePredicateEncoded);

void BM_RlePredicateDecode(benchmark::State& state) {
  EncodedColumn encoded =
      EncodeColumnAs(MakeRunnyColumn(kAggRows), Encoding::kRle);
  Schema schema({{"c", DataType::kInt64, true}});
  ExprPtr pred = Expr::Compare(CompareOp::kLt, Expr::ColumnRef("c"),
                               Expr::Literal(Value::Int64(25)));
  for (auto _ : state) {
    auto col = DecodeColumn(DataType::kInt64, encoded);
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(*col));
    RecordBatch batch(schema, std::move(cols));
    auto tri = EvaluatePredicate3VL(*pred, batch);
    benchmark::DoNotOptimize(tri);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_RlePredicateDecode);

void BM_RlePredicateReference(benchmark::State& state) {
  EncodedColumn encoded =
      EncodeColumnAs(MakeRunnyColumn(kAggRows), Encoding::kRle);
  std::vector<int64_t> values;
  for (auto _ : state) {
    BitVector validity;
    if (!ReferenceDecodeRle(encoded.payload, &validity, &values)) {
      state.SkipWithError("bad RLE payload");
      break;
    }
    TriStateVector tri = ReferenceTriState(validity, [&](size_t i) {
      return static_cast<double>(values[i]) < 25.0;
    });
    benchmark::DoNotOptimize(tri);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_RlePredicateReference);

// (string key, double value) input for the dict-keyed group-by pair; the
// key column's encoded form rides along for code extraction.
RecordBatch MakeDictAggInput(size_t rows, int64_t cardinality,
                             EncodedColumn* encoded_key) {
  Schema schema({{"k", DataType::kString, true},
                 {"v", DataType::kDouble, true}});
  RecordBatch batch(schema);
  batch.Reserve(rows);
  Rng rng(16);
  for (size_t i = 0; i < rows; ++i) {
    batch
        .AppendRow({Value::String("s_" +
                                  std::to_string(rng.NextInt64(
                                      0, cardinality))),
                    Value::Double(rng.NextDouble())})
        .ok();
  }
  *encoded_key = EncodeColumnAs(batch.column(0), Encoding::kDict);
  return batch;
}

// Group-by on dict codes, including per-batch code extraction (the work
// the leaf path actually does): key strings hash once per distinct code,
// repeats resolve through the code -> group memo.
void BM_AggConsumeDictCodes(benchmark::State& state) {
  EncodedColumn encoded_key;
  RecordBatch batch =
      MakeDictAggInput(kAggRows, state.range(0), &encoded_key);
  std::vector<ExprPtr> group_by = {Expr::ColumnRef("k")};
  std::vector<AggSpec> specs = AggBenchSpecs();
  size_t groups = 0;
  for (auto _ : state) {
    auto agg = Aggregator::Make(group_by, specs, batch.schema());
    DictColumnCodes codes;
    TryExtractDictCodes(encoded_key, nullptr, &codes).ok();
    agg->ConsumeDictKeyed(batch, codes).ok();
    groups = agg->num_groups();
    benchmark::DoNotOptimize(groups);
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_AggConsumeDictCodes)->Arg(64)->Arg(4096);

// Decode-side baseline: same input, same Aggregator, keys hashed from
// string bytes row by row.
void BM_AggConsumeStringKeys(benchmark::State& state) {
  EncodedColumn encoded_key;
  RecordBatch batch =
      MakeDictAggInput(kAggRows, state.range(0), &encoded_key);
  std::vector<ExprPtr> group_by = {Expr::ColumnRef("k")};
  std::vector<AggSpec> specs = AggBenchSpecs();
  size_t groups = 0;
  for (auto _ : state) {
    auto agg = Aggregator::Make(group_by, specs, batch.schema());
    agg->Consume(batch).ok();
    groups = agg->num_groups();
    benchmark::DoNotOptimize(groups);
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_AggConsumeStringKeys)->Arg(64)->Arg(4096);

// Frozen reference for the dict-keyed group-by: decode the key column one
// string at a time, then group through a string-keyed hash map and fold
// COUNT(*), SUM, MIN and MAX of the argument per row.
void BM_AggGroupByStringReference(benchmark::State& state) {
  EncodedColumn encoded_key;
  RecordBatch batch =
      MakeDictAggInput(kAggRows, state.range(0), &encoded_key);
  const std::vector<double>& arg = batch.column(1).doubles();
  size_t groups = 0;
  std::vector<std::string> keys;
  for (auto _ : state) {
    BitVector validity;
    if (!ReferenceDecodeDict(encoded_key.payload, &validity, &keys)) {
      state.SkipWithError("bad dict payload");
      break;
    }
    std::unordered_map<std::string, uint32_t> group_of;
    std::vector<int64_t> counts;
    std::vector<double> sums;
    std::vector<double> mins;
    std::vector<double> maxs;
    for (size_t i = 0; i < keys.size(); ++i) {
      auto [it, inserted] = group_of.try_emplace(
          validity.Get(i) ? keys[i] : std::string("\0null", 5),
          static_cast<uint32_t>(counts.size()));
      if (inserted) {
        counts.push_back(0);
        sums.push_back(0.0);
        mins.push_back(arg[i]);
        maxs.push_back(arg[i]);
      }
      uint32_t g = it->second;
      ++counts[g];
      sums[g] += arg[i];
      mins[g] = std::min(mins[g], arg[i]);
      maxs[g] = std::max(maxs[g], arg[i]);
    }
    groups = counts.size();
    benchmark::DoNotOptimize(sums);
    benchmark::DoNotOptimize(mins);
    benchmark::DoNotOptimize(maxs);
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAggRows));
}
BENCHMARK(BM_AggGroupByStringReference)->Arg(64)->Arg(4096);

void BM_ParseSql(benchmark::State& state) {
  const std::string sql =
      "SELECT c0, COUNT(*) AS n FROM t1 WHERE c2 > 0 AND (c2 <= 5 OR "
      "c7 CONTAINS 'kw_1') GROUP BY c0 HAVING COUNT(*) > 10 "
      "ORDER BY n DESC LIMIT 100";
  for (auto _ : state) {
    auto stmt = ParseSql(sql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseSql);

}  // namespace
}  // namespace feisu

BENCHMARK_MAIN();
