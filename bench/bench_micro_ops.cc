// Google-benchmark microbenchmarks for Feisu's hot primitives: SmartIndex
// bitmap algebra, RLE (de)compression, column encodings, B+-tree probes and
// SQL parsing. These are the operations whose costs the cluster simulator
// charges; the microbenches document their real magnitudes.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "columnar/block.h"
#include "columnar/encoding.h"
#include "exec/aggregate.h"
#include "exec/operators.h"
#include "expr/evaluator.h"
#include "index/btree.h"
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

// --- Compressed-domain execution: predicate kernels + group-by on codes.
// Each encoded bench pairs with a decode-then-evaluate baseline over the
// same data; tools/run_bench.py records the ratios as
// compressed_eval_speedup. Results are byte-identical between the pairs
// (tests/materialize_test.cc pins the grid); only the work differs.

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
