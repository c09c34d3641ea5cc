// Differential tests for the vectorized hash Aggregator against the
// ordered-map implementation it replaced (OracleAggregator below is a
// faithful copy of that seed code, except that it emits final groups in the
// typed key order of the final-result contract). Final batches must be
// byte-identical to the oracle's. Partial batches list groups in
// first-insertion order (the oracle's are key-sorted), so they must hold
// the same bytes once both are sorted by serialized group key. Both are
// asserted on serialized block bytes, not on logical equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "columnar/block.h"
#include "columnar/encoding.h"
#include "common/rng.h"
#include "exec/aggregate.h"
#include "expr/evaluator.h"

namespace feisu {
namespace {

// ---------- Oracle: the seed std::map aggregator, verbatim semantics ----

std::string SerializeKeys(const std::vector<Value>& keys) {
  std::string out;
  for (const Value& key : keys) SerializeValue(&out, key);
  return out;
}

bool OracleNeedsSum(AggFunc func) {
  return func == AggFunc::kSum || func == AggFunc::kAvg;
}
bool OracleNeedsMinMax(AggFunc func) {
  return func == AggFunc::kMin || func == AggFunc::kMax;
}

class OracleAggregator {
 public:
  static Result<OracleAggregator> Make(std::vector<ExprPtr> group_by,
                                       std::vector<AggSpec> specs,
                                       const Schema& input_schema) {
    // Schemas come from the production Make (they are pinned by dedicated
    // schema tests in exec_test); the oracle only re-implements execution.
    FEISU_ASSIGN_OR_RETURN(Aggregator shape,
                           Aggregator::Make(group_by, specs, input_schema));
    OracleAggregator agg;
    agg.group_by_ = std::move(group_by);
    agg.specs_ = std::move(specs);
    agg.partial_schema_ = shape.partial_schema();
    agg.final_schema_ = shape.final_schema();
    for (const auto& spec : agg.specs_) {
      DataType arg_type = DataType::kInt64;
      if (spec.arg != nullptr) {
        FEISU_ASSIGN_OR_RETURN(arg_type,
                               InferType(*spec.arg, input_schema));
      }
      agg.arg_types_.push_back(arg_type);
    }
    return agg;
  }

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
        AggState& state = group.states[s];
        if (!has_arg[s]) {
          ++state.count;
          continue;
        }
        Value v = arg_cols[s].GetValue(row);
        if (v.is_null()) continue;
        ++state.count;
        if (OracleNeedsSum(specs_[s].func)) state.sum += v.AsDouble();
        if (OracleNeedsMinMax(specs_[s].func)) {
          if (state.min.is_null() || v.Compare(state.min) < 0) state.min = v;
          if (state.max.is_null() || v.Compare(state.max) > 0) state.max = v;
        }
      }
    }
    return Status::OK();
  }

  Status ConsumeCount(size_t rows) {
    Group& group = GroupFor({});
    for (AggState& state : group.states) {
      state.count += static_cast<int64_t>(rows);
    }
    return Status::OK();
  }

  Status ConsumePartial(const RecordBatch& batch) {
    if (!(batch.schema() == partial_schema_)) {
      return Status::InvalidArgument("partial batch schema mismatch");
    }
    size_t n = batch.num_rows();
    std::vector<Value> keys(group_by_.size());
    for (size_t row = 0; row < n; ++row) {
      for (size_t k = 0; k < group_by_.size(); ++k) {
        keys[k] = batch.column(k).GetValue(row);
      }
      Group& group = GroupFor(keys);
      size_t col = group_by_.size();
      for (size_t s = 0; s < specs_.size(); ++s) {
        AggState& state = group.states[s];
        Value count = batch.column(col++).GetValue(row);
        state.count += count.is_null() ? 0 : count.int64_value();
        if (OracleNeedsSum(specs_[s].func)) {
          Value sum = batch.column(col++).GetValue(row);
          state.sum += sum.is_null() ? 0 : sum.AsDouble();
        }
        if (OracleNeedsMinMax(specs_[s].func)) {
          Value vmin = batch.column(col++).GetValue(row);
          Value vmax = batch.column(col++).GetValue(row);
          if (!vmin.is_null() &&
              (state.min.is_null() || vmin.Compare(state.min) < 0)) {
            state.min = vmin;
          }
          if (!vmax.is_null() &&
              (state.max.is_null() || vmax.Compare(state.max) > 0)) {
            state.max = vmax;
          }
        }
      }
    }
    return Status::OK();
  }

  Result<RecordBatch> PartialResult() const {
    RecordBatch out(partial_schema_);
    for (const auto& [key, group] : groups_) {
      std::vector<Value> row;
      for (const Value& v : group.keys) row.push_back(v);
      for (size_t s = 0; s < specs_.size(); ++s) {
        const AggState& state = group.states[s];
        row.push_back(Value::Int64(state.count));
        if (OracleNeedsSum(specs_[s].func)) {
          row.push_back(Value::Double(state.sum));
        }
        if (OracleNeedsMinMax(specs_[s].func)) {
          row.push_back(state.min);
          row.push_back(state.max);
        }
      }
      FEISU_RETURN_IF_ERROR(out.AppendRow(row));
    }
    return out;
  }

  Result<RecordBatch> FinalResult() const {
    RecordBatch out(final_schema_);
    if (groups_.empty() && group_by_.empty()) {
      std::vector<Value> row;
      for (size_t s = 0; s < specs_.size(); ++s) {
        row.push_back(specs_[s].func == AggFunc::kCount ? Value::Int64(0)
                                                        : Value::Null());
      }
      FEISU_RETURN_IF_ERROR(out.AppendRow(row));
      return out;
    }
    std::vector<const Group*> ordered;
    for (const auto& [key, group] : groups_) ordered.push_back(&group);
    std::sort(ordered.begin(), ordered.end(),
              [](const Group* a, const Group* b) {
                return TypedKeyLess(a->keys, b->keys);
              });
    for (const Group* group_ptr : ordered) {
      const Group& group = *group_ptr;
      std::vector<Value> row;
      for (const Value& v : group.keys) row.push_back(v);
      for (size_t s = 0; s < specs_.size(); ++s) {
        const AggState& state = group.states[s];
        switch (specs_[s].func) {
          case AggFunc::kCount:
            row.push_back(Value::Int64(state.count));
            break;
          case AggFunc::kSum:
            if (state.count == 0) {
              row.push_back(Value::Null());
            } else if (arg_types_[s] == DataType::kDouble) {
              row.push_back(Value::Double(state.sum));
            } else {
              row.push_back(Value::Int64(static_cast<int64_t>(state.sum)));
            }
            break;
          case AggFunc::kAvg:
            row.push_back(state.count == 0
                              ? Value::Null()
                              : Value::Double(
                                    state.sum /
                                    static_cast<double>(state.count)));
            break;
          case AggFunc::kMin:
            row.push_back(state.min);
            break;
          case AggFunc::kMax:
            row.push_back(state.max);
            break;
        }
      }
      FEISU_RETURN_IF_ERROR(out.AppendRow(row));
    }
    return out;
  }

  const Schema& partial_schema() const { return partial_schema_; }

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

  // The final-result order: keys compare one by one under
  // Value::Compare (NULL first); distinct keys that tie there (int64 above
  // 2^53, -0.0 and +0.0, NaN payloads) then order by exact value, signed
  // int64 or double bit pattern.
  static bool TypedKeyLess(const std::vector<Value>& a,
                           const std::vector<Value>& b) {
    for (size_t k = 0; k < a.size(); ++k) {
      int cmp = a[k].Compare(b[k]);
      if (cmp != 0) return cmp < 0;
    }
    for (size_t k = 0; k < a.size(); ++k) {
      if (a[k].is_null()) continue;
      if (a[k].type() == DataType::kInt64 &&
          a[k].int64_value() != b[k].int64_value()) {
        return a[k].int64_value() < b[k].int64_value();
      }
      if (a[k].type() == DataType::kDouble) {
        uint64_t x = std::bit_cast<uint64_t>(a[k].double_value());
        uint64_t y = std::bit_cast<uint64_t>(b[k].double_value());
        if (x != y) return x < y;
      }
    }
    return false;
  }

  Group& GroupFor(const std::vector<Value>& keys) {
    std::string serialized = SerializeKeys(keys);
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
  std::vector<DataType> arg_types_;
  Schema partial_schema_;
  Schema final_schema_;
  std::map<std::string, Group> groups_;
};

// ---------- Differential harness ----------

std::string Fingerprint(const RecordBatch& batch) {
  return ColumnarBlock::FromBatch(0, batch).Serialize();
}

// Serialized group key of every row of `batch`, over its first `num_keys`
// columns.
std::vector<std::string> KeysPerRow(const RecordBatch& batch,
                                    size_t num_keys) {
  std::vector<std::string> keys(batch.num_rows());
  for (size_t r = 0; r < keys.size(); ++r) {
    for (size_t k = 0; k < num_keys; ++k) {
      SerializeValue(&keys[r], batch.column(k).GetValue(r));
    }
  }
  return keys;
}

// The partial's content independent of its row order: its bytes once the
// rows are sorted by serialized group key.
std::string SortedFingerprint(const RecordBatch& partial, size_t num_keys) {
  std::vector<std::string> keys = KeysPerRow(partial, num_keys);
  std::vector<uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  return Fingerprint(partial.Take(order));
}

// Distinct keys in order of first occurrence.
std::vector<std::string> FirstOccurrences(
    const std::vector<std::string>& keys) {
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const std::string& key : keys) {
    if (seen.insert(key).second) out.push_back(key);
  }
  return out;
}

// Serialized group key of every input row of `batch`.
std::vector<std::string> InputKeys(const std::vector<ExprPtr>& group_by,
                                   const RecordBatch& batch) {
  std::vector<std::string> keys(batch.num_rows());
  for (const auto& g : group_by) {
    auto col = EvaluateExpr(*g, batch);
    EXPECT_TRUE(col.ok());
    for (size_t r = 0; r < keys.size(); ++r) {
      SerializeValue(&keys[r], col->GetValue(r));
    }
  }
  return keys;
}

struct PipelineOutput {
  std::vector<RecordBatch> leaf_partials;  ///< per-leaf PartialResult
  RecordBatch stem_partial;                ///< merged stem PartialResult
  std::string final_result;                ///< master FinalResult bytes
};

// Runs the distributed topology both implementations share: one aggregator
// per leaf batch, a stem merging all leaf partials, and a master finalizing
// the stem partial. Identical consume order on both sides keeps
// floating-point sums comparable bit for bit.
template <typename A>
PipelineOutput RunPipeline(const std::vector<ExprPtr>& group_by,
                           const std::vector<AggSpec>& specs,
                           const Schema& schema,
                           const std::vector<RecordBatch>& batches) {
  PipelineOutput out;
  std::vector<RecordBatch> partials;
  for (const auto& batch : batches) {
    auto leaf = A::Make(group_by, specs, schema);
    EXPECT_TRUE(leaf.ok()) << leaf.status().ToString();
    EXPECT_TRUE(leaf->Consume(batch).ok());
    auto partial = leaf->PartialResult();
    EXPECT_TRUE(partial.ok()) << partial.status().ToString();
    partials.push_back(std::move(*partial));
  }
  auto stem = A::Make(group_by, specs, schema);
  EXPECT_TRUE(stem.ok());
  for (const auto& partial : partials) {
    EXPECT_TRUE(stem->ConsumePartial(partial).ok());
  }
  auto stem_partial = stem->PartialResult();
  EXPECT_TRUE(stem_partial.ok()) << stem_partial.status().ToString();
  out.leaf_partials = std::move(partials);
  out.stem_partial = *stem_partial;
  auto master = A::Make(group_by, specs, schema);
  EXPECT_TRUE(master.ok());
  EXPECT_TRUE(master->ConsumePartial(*stem_partial).ok());
  auto final_batch = master->FinalResult();
  EXPECT_TRUE(final_batch.ok()) << final_batch.status().ToString();
  out.final_result = Fingerprint(*final_batch);
  return out;
}

// The leaf's code-domain group-by: with the single string key `key`
// dictionary-encoded, ConsumeDictKeyed over the key's codes must emit the
// same partial bytes as Consume over the same rows — with every row, a
// random half and no row selected.
void ExpectDictKeyedMatchesConsume(const std::vector<ExprPtr>& group_by,
                                   const std::vector<AggSpec>& specs,
                                   const Schema& schema,
                                   const RecordBatch& batch, size_t key,
                                   const std::string& label) {
  EncodedColumn encoded = EncodeColumnAs(batch.column(key), Encoding::kDict);
  ASSERT_EQ(encoded.encoding, Encoding::kDict) << label;
  Rng rng(batch.num_rows() + 3);
  BitVector half(batch.num_rows(), false);
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    half.Set(i, rng.NextBool(0.5));
  }
  BitVector none(batch.num_rows(), false);
  const BitVector* const selections[] = {nullptr, &half, &none};
  for (const BitVector* selection : selections) {
    const std::string cell =
        label + (selection == nullptr ? " all rows"
                 : selection == &half ? " half selected"
                                      : " none selected");
    RecordBatch rows = selection == nullptr ? batch : batch.Filter(*selection);
    DictColumnCodes codes;
    auto extracted = TryExtractDictCodes(encoded, selection, &codes);
    ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
    ASSERT_TRUE(*extracted) << cell;
    ASSERT_EQ(codes.codes.size(), rows.num_rows()) << cell;
    auto dict_keyed = Aggregator::Make(group_by, specs, schema);
    auto decoded = Aggregator::Make(group_by, specs, schema);
    ASSERT_TRUE(dict_keyed.ok() && decoded.ok()) << cell;
    ASSERT_TRUE(dict_keyed->ConsumeDictKeyed(rows, codes).ok()) << cell;
    ASSERT_TRUE(decoded->Consume(rows).ok()) << cell;
    auto dict_partial = dict_keyed->PartialResult();
    auto decoded_partial = decoded->PartialResult();
    ASSERT_TRUE(dict_partial.ok() && decoded_partial.ok()) << cell;
    EXPECT_EQ(Fingerprint(*dict_partial), Fingerprint(*decoded_partial))
        << cell;
    EXPECT_EQ(dict_keyed->stats().code_domain_groups,
              decoded_partial->num_rows())
        << cell;
  }
}

void ExpectPipelinesIdentical(const std::vector<ExprPtr>& group_by,
                              const std::vector<AggSpec>& specs,
                              const Schema& schema,
                              const std::vector<RecordBatch>& batches,
                              const std::string& label) {
  PipelineOutput vec =
      RunPipeline<Aggregator>(group_by, specs, schema, batches);
  PipelineOutput oracle =
      RunPipeline<OracleAggregator>(group_by, specs, schema, batches);
  const size_t num_keys = group_by.size();
  ASSERT_EQ(vec.leaf_partials.size(), oracle.leaf_partials.size()) << label;
  std::vector<std::string> leaf_keys;  // every leaf partial row, in order
  for (size_t i = 0; i < vec.leaf_partials.size(); ++i) {
    const RecordBatch& partial = vec.leaf_partials[i];
    EXPECT_EQ(SortedFingerprint(partial, num_keys),
              SortedFingerprint(oracle.leaf_partials[i], num_keys))
        << label << " leaf " << i;
    // A partial lists its groups in first-insertion order.
    std::vector<std::string> keys = KeysPerRow(partial, num_keys);
    EXPECT_EQ(keys, FirstOccurrences(InputKeys(group_by, batches[i])))
        << label << " leaf " << i << " order";
    leaf_keys.insert(leaf_keys.end(), keys.begin(), keys.end());
  }
  EXPECT_EQ(SortedFingerprint(vec.stem_partial, num_keys),
            SortedFingerprint(oracle.stem_partial, num_keys))
      << label << " stem";
  EXPECT_EQ(KeysPerRow(vec.stem_partial, num_keys),
            FirstOccurrences(leaf_keys))
      << label << " stem order";
  EXPECT_EQ(vec.final_result, oracle.final_result) << label << " final";
  if (group_by.size() == 1 && group_by[0]->kind() == ExprKind::kColumnRef) {
    int key = schema.FieldIndex(group_by[0]->column());
    if (key >= 0 && schema.field(key).type == DataType::kString) {
      for (size_t i = 0; i < batches.size(); ++i) {
        ExpectDictKeyedMatchesConsume(group_by, specs, schema, batches[i],
                                      static_cast<size_t>(key),
                                      label + " dict-keyed leaf " +
                                          std::to_string(i));
      }
    }
  }
}

std::vector<AggSpec> Specs(
    std::initializer_list<std::pair<AggFunc, const char*>> list) {
  std::vector<AggSpec> specs;
  int i = 0;
  for (const auto& [func, col] : list) {
    AggSpec spec;
    spec.func = func;
    spec.arg = col == nullptr ? nullptr : Expr::ColumnRef(col);
    spec.output_name = "out" + std::to_string(i++);
    specs.push_back(spec);
  }
  return specs;
}

// "<prefix><n>", built by appending: GCC 12 at -O3 reports a false
// -Wrestrict overlap in `"literal" + std::to_string(n)`.
std::string Numbered(const char* prefix, uint64_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

Value RandomKey(DataType type, uint64_t cardinality, Rng* rng) {
  uint64_t pick = rng->NextUint64(cardinality);
  switch (type) {
    case DataType::kBool:
      return Value::Bool(pick % 2 == 0);
    case DataType::kInt64:
      return Value::Int64(static_cast<int64_t>(pick) - 7);
    case DataType::kDouble:
      return Value::Double(static_cast<double>(pick) * 0.75 - 3.0);
    case DataType::kString:
      return Value::String(Numbered("key_", pick));
  }
  return Value::Null();
}

Value RandomArg(DataType type, Rng* rng) {
  switch (type) {
    case DataType::kBool:
      return Value::Bool(rng->NextBool(0.5));
    case DataType::kInt64:
      return Value::Int64(rng->NextInt64(-1000, 1000));
    case DataType::kDouble:
      return Value::Double(rng->NextDouble() * 200.0 - 100.0);
    case DataType::kString:
      return Value::String(Numbered("v", rng->NextUint64(1000)));
  }
  return Value::Null();
}

// Arguments at the edges of Value::Compare: int64 values around +-2^60,
// where 256 neighbours share one double and so tie; doubles drawn from NaN,
// -0.0, +0.0 and two ordinary values; bools.
Value EdgeArg(DataType type, Rng* rng) {
  switch (type) {
    case DataType::kInt64: {
      int64_t v = (int64_t{1} << 60) + rng->NextInt64(0, 511);
      return Value::Int64(rng->NextBool(0.5) ? v : -v);
    }
    case DataType::kDouble: {
      const double kEdges[] = {std::numeric_limits<double>::quiet_NaN(),
                               -0.0, 0.0, 1.5, -1.5};
      return Value::Double(kEdges[rng->NextUint64(5)]);
    }
    case DataType::kBool:
    case DataType::kString:
      break;
  }
  return RandomArg(type, rng);
}

// Batches over schema {k: key_type, a: arg_type} with the given group-key
// cardinality and NULL density on both columns.
std::vector<RecordBatch> MakeGrid(DataType key_type, DataType arg_type,
                                  uint64_t cardinality, double null_density,
                                  size_t num_batches, size_t rows_per_batch,
                                  uint64_t seed,
                                  Value (*arg_gen)(DataType, Rng*) =
                                      RandomArg) {
  Schema schema({{"k", key_type, true}, {"a", arg_type, true}});
  Rng rng(seed);
  std::vector<RecordBatch> batches;
  for (size_t b = 0; b < num_batches; ++b) {
    RecordBatch batch(schema);
    for (size_t i = 0; i < rows_per_batch; ++i) {
      Value key = rng.NextBool(null_density)
                      ? Value::Null()
                      : RandomKey(key_type, cardinality, &rng);
      Value arg = rng.NextBool(null_density) ? Value::Null()
                                             : arg_gen(arg_type, &rng);
      EXPECT_TRUE(batch.AppendRow({key, arg}).ok());
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

// ---------- The grid: func x type x null-density x cardinality ----------

TEST(AggregateDifferentialTest, GridNumericArgs) {
  const std::vector<ExprPtr> group_by = {Expr::ColumnRef("k")};
  uint64_t seed = 1;
  for (DataType key_type : {DataType::kInt64, DataType::kDouble,
                            DataType::kString, DataType::kBool}) {
    for (DataType arg_type : {DataType::kInt64, DataType::kDouble}) {
      for (double null_density : {0.0, 0.3}) {
        for (uint64_t cardinality : {4ull, 500ull}) {
          auto batches = MakeGrid(key_type, arg_type, cardinality,
                                  null_density, 4, 257, seed++);
          ExpectPipelinesIdentical(
              group_by,
              Specs({{AggFunc::kCount, nullptr},
                     {AggFunc::kCount, "a"},
                     {AggFunc::kSum, "a"},
                     {AggFunc::kAvg, "a"},
                     {AggFunc::kMin, "a"},
                     {AggFunc::kMax, "a"}}),
              batches[0].schema(), batches,
              "key=" + std::to_string(static_cast<int>(key_type)) +
                  " arg=" + std::to_string(static_cast<int>(arg_type)) +
                  " nulls=" + std::to_string(null_density) +
                  " card=" + std::to_string(cardinality));
        }
      }
    }
  }
}

TEST(AggregateDifferentialTest, GridStringArgs) {
  const std::vector<ExprPtr> group_by = {Expr::ColumnRef("k")};
  uint64_t seed = 100;
  for (double null_density : {0.0, 0.3}) {
    for (uint64_t cardinality : {4ull, 500ull}) {
      auto batches = MakeGrid(DataType::kInt64, DataType::kString,
                              cardinality, null_density, 4, 257, seed++);
      ExpectPipelinesIdentical(group_by,
                               Specs({{AggFunc::kCount, "a"},
                                      {AggFunc::kMin, "a"},
                                      {AggFunc::kMax, "a"}}),
                               batches[0].schema(), batches,
                               "string-arg nulls=" +
                                   std::to_string(null_density) +
                                   " card=" + std::to_string(cardinality));
    }
  }
}

// MIN/MAX keep Value::Compare's semantics exactly: int64 arguments compare
// as doubles, so values above 2^53 can tie and the first one seen is kept;
// NaN equals NaN and sorts after every number (CompareNumbers), so MAX of
// a group holding a NaN is NaN and MIN is NaN only for an all-NaN group;
// -0.0 and +0.0 tie; bools order FALSE < TRUE. SUM is left out: sums of
// +-2^60 overflow the int64 the final SUM is cast to.
TEST(AggregateDifferentialTest, GridMinMaxEdgeArgs) {
  const std::vector<ExprPtr> group_by = {Expr::ColumnRef("k")};
  uint64_t seed = 200;
  for (DataType key_type : {DataType::kInt64, DataType::kString}) {
    for (DataType arg_type :
         {DataType::kInt64, DataType::kDouble, DataType::kBool}) {
      for (double null_density : {0.0, 0.3}) {
        for (uint64_t cardinality : {4ull, 500ull}) {
          auto batches = MakeGrid(key_type, arg_type, cardinality,
                                  null_density, 4, 257, seed++, EdgeArg);
          ExpectPipelinesIdentical(
              group_by,
              Specs({{AggFunc::kCount, "a"},
                     {AggFunc::kMin, "a"},
                     {AggFunc::kMax, "a"}}),
              batches[0].schema(), batches,
              "edge key=" + std::to_string(static_cast<int>(key_type)) +
                  " arg=" + std::to_string(static_cast<int>(arg_type)) +
                  " nulls=" + std::to_string(null_density) +
                  " card=" + std::to_string(cardinality));
        }
      }
    }
  }
}

TEST(AggregateDifferentialTest, MultiColumnKeysAndUngrouped) {
  Schema schema({{"k1", DataType::kString, true},
                 {"k2", DataType::kInt64, true},
                 {"a", DataType::kDouble, true}});
  Rng rng(7);
  std::vector<RecordBatch> batches;
  for (size_t b = 0; b < 3; ++b) {
    RecordBatch batch(schema);
    for (size_t i = 0; i < 200; ++i) {
      Value k1 = rng.NextBool(0.1)
                     ? Value::Null()
                     : Value::String(Numbered("g", rng.NextUint64(5)));
      Value k2 = rng.NextBool(0.1)
                     ? Value::Null()
                     : Value::Int64(rng.NextInt64(0, 9));
      Value a = rng.NextBool(0.2) ? Value::Null()
                                  : Value::Double(rng.NextDouble() * 10);
      EXPECT_TRUE(batch.AppendRow({k1, k2, a}).ok());
    }
    batches.push_back(std::move(batch));
  }
  auto specs = Specs({{AggFunc::kCount, nullptr},
                      {AggFunc::kSum, "a"},
                      {AggFunc::kMin, "a"},
                      {AggFunc::kMax, "a"}});
  ExpectPipelinesIdentical({Expr::ColumnRef("k1"), Expr::ColumnRef("k2")},
                           specs, schema, batches, "two keys");
  ExpectPipelinesIdentical({}, specs, schema, batches, "ungrouped");
}

// The serialized group key is byte-exact over double bit patterns: -0.0
// and +0.0 are distinct groups, and NaN keys group with themselves. The
// flat table's typed key words must reproduce that, not IEEE equality.
TEST(AggregateDifferentialTest, DoubleKeyBitPatterns) {
  Schema schema({{"k", DataType::kDouble, true},
                 {"a", DataType::kInt64, true}});
  RecordBatch batch(schema);
  double nan = std::numeric_limits<double>::quiet_NaN();
  for (double k : {0.0, -0.0, nan, 1.0, nan, -0.0, 0.0}) {
    ASSERT_TRUE(batch.AppendRow({Value::Double(k), Value::Int64(1)}).ok());
  }
  ExpectPipelinesIdentical({Expr::ColumnRef("k")},
                           Specs({{AggFunc::kCount, nullptr},
                                  {AggFunc::kSum, "a"}}),
                           schema, {batch}, "double bit patterns");
}

// Distinct keys that Value::Compare ties — int64 above 2^53, -0.0 and
// +0.0, two NaN payloads — still have exactly one final order: rows fed
// forward or reversed, and merged through either stem tree, finalize to
// the same bytes, and ties on every key break by exact value.
TEST(AggregateOrderTest, ComparisonTiesBreakByExactValue) {
  const int64_t big = int64_t{1} << 60;
  const double nan_a = std::bit_cast<double>(0x7FF8000000000001ULL);
  const double nan_b = std::bit_cast<double>(0x7FF8000000000002ULL);
  Schema schema({{"i", DataType::kInt64, true},
                 {"d", DataType::kDouble, true},
                 {"a", DataType::kInt64, true}});
  const std::vector<std::pair<Value, Value>> keys = {
      {Value::Int64(big + 1), Value::Double(0.0)},
      {Value::Int64(big), Value::Double(0.0)},
      {Value::Int64(1), Value::Double(nan_b)},
      {Value::Int64(big), Value::Double(-0.0)},
      {Value::Null(), Value::Double(-0.0)},
      {Value::Int64(1), Value::Double(nan_a)},
      {Value::Int64(big + 1), Value::Double(-1.0)},
      {Value::Null(), Value::Double(0.0)},
      {Value::Int64(1), Value::Double(2.0)}};
  // One single-row batch per key, in list order or reversed.
  auto batches = [&](bool reversed) {
    std::vector<RecordBatch> out;
    for (size_t n = 0; n < keys.size(); ++n) {
      size_t r = reversed ? keys.size() - 1 - n : n;
      RecordBatch batch(schema);
      EXPECT_TRUE(batch
                      .AppendRow({keys[r].first, keys[r].second,
                                  Value::Int64(static_cast<int64_t>(r))})
                      .ok());
      out.push_back(std::move(batch));
    }
    return out;
  };
  const std::vector<ExprPtr> group_by = {Expr::ColumnRef("i"),
                                         Expr::ColumnRef("d")};
  const auto specs = Specs({{AggFunc::kSum, "a"}});
  auto make = [&] {
    auto agg = Aggregator::Make(group_by, specs, schema);
    EXPECT_TRUE(agg.ok());
    return std::move(*agg);
  };
  auto partial_of = [&](const std::vector<RecordBatch>& input, size_t begin,
                        size_t end) {
    Aggregator agg = make();
    for (size_t b = begin; b < end; ++b) {
      Aggregator leaf = make();
      EXPECT_TRUE(leaf.Consume(input[b]).ok());
      EXPECT_TRUE(agg.ConsumePartial(*leaf.PartialResult()).ok());
    }
    return *agg.PartialResult();
  };
  std::vector<std::string> finals;
  for (bool reversed : {false, true}) {
    std::vector<RecordBatch> input = batches(reversed);
    // Raw rows straight into one aggregator.
    Aggregator direct = make();
    for (const RecordBatch& batch : input) {
      ASSERT_TRUE(direct.Consume(batch).ok());
    }
    finals.push_back(Fingerprint(*direct.FinalResult()));
    // One stem over every leaf, and two stems over halves merged at the
    // master in the opposite order.
    Aggregator one_stem = make();
    ASSERT_TRUE(one_stem.ConsumePartial(partial_of(input, 0, input.size()))
                    .ok());
    finals.push_back(Fingerprint(*one_stem.FinalResult()));
    Aggregator two_stems = make();
    ASSERT_TRUE(two_stems.ConsumePartial(partial_of(input, 4, input.size()))
                    .ok());
    ASSERT_TRUE(two_stems.ConsumePartial(partial_of(input, 0, 4)).ok());
    finals.push_back(Fingerprint(*two_stems.FinalResult()));
    ExpectPipelinesIdentical(group_by, specs, schema, input,
                             reversed ? "ties reversed" : "ties forward");
  }
  for (const std::string& bytes : finals) EXPECT_EQ(bytes, finals[0]);

  // The order itself: NULL first; 2.0 before the NaNs, NaN payloads by bit
  // pattern; the 2^60 keys tie as doubles, so `d` orders them first and
  // then the exact int64 and the bit pattern (+0.0 before -0.0).
  Aggregator agg = make();
  for (const RecordBatch& batch : batches(false)) {
    ASSERT_TRUE(agg.Consume(batch).ok());
  }
  auto final_batch = agg.FinalResult();
  ASSERT_TRUE(final_batch.ok());
  std::vector<int64_t> row_ids;  // SUM(a) is the key's input row
  for (size_t r = 0; r < final_batch->num_rows(); ++r) {
    row_ids.push_back(final_batch->column(2).GetInt64(r));
  }
  EXPECT_EQ(row_ids, (std::vector<int64_t>{7, 4, 8, 5, 2, 6, 1, 3, 0}));
}

TEST(AggregateDifferentialTest, EmptyInputGroupedAndUngrouped) {
  Schema schema({{"k", DataType::kString, true},
                 {"a", DataType::kInt64, true}});
  RecordBatch empty(schema);
  auto specs = Specs({{AggFunc::kCount, nullptr},
                      {AggFunc::kSum, "a"},
                      {AggFunc::kMin, "a"},
                      {AggFunc::kMax, "a"},
                      {AggFunc::kAvg, "a"}});
  // Grouped over zero rows: zero groups everywhere.
  ExpectPipelinesIdentical({Expr::ColumnRef("k")}, specs, schema, {empty},
                           "empty grouped");
  // Ungrouped over zero rows: the one-row COUNT=0 / NULL special case.
  ExpectPipelinesIdentical({}, specs, schema, {empty}, "empty ungrouped");
}

TEST(AggregateDifferentialTest, ConsumeCountFastPath) {
  Schema schema({{"a", DataType::kInt64, true}});
  auto specs = Specs({{AggFunc::kCount, nullptr}, {AggFunc::kCount, nullptr}});
  auto vec = Aggregator::Make({}, specs, schema);
  auto oracle = OracleAggregator::Make({}, specs, schema);
  ASSERT_TRUE(vec.ok() && oracle.ok());
  for (size_t rows : {0u, 17u, 4096u}) {
    ASSERT_TRUE(vec->ConsumeCount(rows).ok());
    ASSERT_TRUE(oracle->ConsumeCount(rows).ok());
  }
  auto vp = vec->PartialResult();
  auto op = oracle->PartialResult();
  ASSERT_TRUE(vp.ok() && op.ok());
  EXPECT_EQ(Fingerprint(*vp), Fingerprint(*op));
  auto vf = vec->FinalResult();
  auto of = oracle->FinalResult();
  ASSERT_TRUE(vf.ok() && of.ok());
  EXPECT_EQ(Fingerprint(*vf), Fingerprint(*of));
}

// A key-less aggregate maps every row to the one global group without a
// per-row probe, and its partial and final state equal a grouped run over
// a key that is the same on every row, minus that key column.
TEST(AggregateStatsTest, KeylessConsumeProbesOncePerBatchAtMost) {
  auto batches = MakeGrid(DataType::kInt64, DataType::kDouble, 1, 0.2, 4,
                          300, 45);
  const Schema& schema = batches[0].schema();
  auto specs = Specs({{AggFunc::kCount, nullptr},
                      {AggFunc::kCount, "a"},
                      {AggFunc::kSum, "a"},
                      {AggFunc::kAvg, "a"},
                      {AggFunc::kMin, "a"},
                      {AggFunc::kMax, "a"}});
  // The grouped twin groups by a column that holds 7 on every row.
  Schema keyed_schema({{"one", DataType::kInt64, false},
                       {"k", schema.field(0).type, true},
                       {"a", schema.field(1).type, true}});
  auto keyless = Aggregator::Make({}, specs, schema);
  auto grouped = Aggregator::Make({Expr::ColumnRef("one")}, specs,
                                  keyed_schema);
  ASSERT_TRUE(keyless.ok() && grouped.ok());
  for (const RecordBatch& batch : batches) {
    const uint64_t before = keyless->stats().hash_probes;
    ASSERT_TRUE(keyless->Consume(batch).ok());
    EXPECT_LE(keyless->stats().hash_probes - before, 1u);
    std::vector<ColumnVector> cols;
    ColumnVector one(DataType::kInt64);
    for (size_t i = 0; i < batch.num_rows(); ++i) one.AppendInt64(7);
    cols.push_back(std::move(one));
    cols.push_back(batch.column(0));
    cols.push_back(batch.column(1));
    ASSERT_TRUE(grouped->Consume(RecordBatch(keyed_schema, cols)).ok());
  }
  EXPECT_EQ(keyless->stats().hash_probes, 1u);
  EXPECT_EQ(keyless->num_groups(), 1u);
  // Drops the key column of the grouped twin's batch.
  auto without_key = [](const RecordBatch& batch, const Schema& schema) {
    std::vector<ColumnVector> cols;
    for (size_t c = 1; c < batch.num_columns(); ++c) {
      cols.push_back(batch.column(c));
    }
    return RecordBatch(schema, std::move(cols));
  };
  auto kp = keyless->PartialResult();
  auto gp = grouped->PartialResult();
  ASSERT_TRUE(kp.ok() && gp.ok());
  EXPECT_EQ(Fingerprint(*kp),
            Fingerprint(without_key(*gp, keyless->partial_schema())));
  auto kf = keyless->FinalResult();
  auto gf = grouped->FinalResult();
  ASSERT_TRUE(kf.ok() && gf.ok());
  EXPECT_EQ(Fingerprint(*kf),
            Fingerprint(without_key(*gf, keyless->final_schema())));
}

// ---------- Hash-table behavior and stats counters ----------

TEST(AggregateStatsTest, CountersTrackTableActivity) {
  auto batches = MakeGrid(DataType::kInt64, DataType::kInt64, 500, 0.0, 4,
                          500, 42);
  auto agg = Aggregator::Make({Expr::ColumnRef("k")},
                              Specs({{AggFunc::kSum, "a"}}),
                              batches[0].schema());
  ASSERT_TRUE(agg.ok());
  for (const auto& batch : batches) ASSERT_TRUE(agg->Consume(batch).ok());
  const AggStats& stats = agg->stats();
  EXPECT_EQ(stats.groups_created, agg->num_groups());
  EXPECT_GE(agg->num_groups(), 400u);
  // 500 groups do not fit the initial 16-slot table at 0.7 load.
  EXPECT_GT(stats.rehashes, 0u);
  // Every row probes at least one slot.
  EXPECT_GE(stats.hash_probes, 4u * 500u);
  // All four batches were null-free on key and argument.
  EXPECT_EQ(stats.null_fast_path_batches, 4u);
}

TEST(AggregateStatsTest, NullBatchesSkipFastPath) {
  auto batches = MakeGrid(DataType::kInt64, DataType::kInt64, 10, 0.5, 3,
                          100, 43);
  auto agg = Aggregator::Make({Expr::ColumnRef("k")},
                              Specs({{AggFunc::kSum, "a"}}),
                              batches[0].schema());
  ASSERT_TRUE(agg.ok());
  for (const auto& batch : batches) ASSERT_TRUE(agg->Consume(batch).ok());
  EXPECT_EQ(agg->stats().null_fast_path_batches, 0u);
}

// The final result's order is the serialized-key order regardless of
// insertion or hash order: consuming the same rows in reversed batch order
// yields byte-identical COUNT/MIN/MAX output (sums are kept out: their
// float accumulation order legitimately differs).
TEST(AggregateStatsTest, EmissionOrderInsensitiveToInsertionOrder) {
  auto batches = MakeGrid(DataType::kString, DataType::kInt64, 50, 0.1, 4,
                          200, 44);
  auto specs = Specs({{AggFunc::kCount, nullptr},
                      {AggFunc::kMin, "a"},
                      {AggFunc::kMax, "a"}});
  auto forward = Aggregator::Make({Expr::ColumnRef("k")}, specs,
                                  batches[0].schema());
  auto backward = Aggregator::Make({Expr::ColumnRef("k")}, specs,
                                   batches[0].schema());
  ASSERT_TRUE(forward.ok() && backward.ok());
  for (const auto& batch : batches) {
    ASSERT_TRUE(forward->Consume(batch).ok());
  }
  for (auto it = batches.rbegin(); it != batches.rend(); ++it) {
    ASSERT_TRUE(backward->Consume(*it).ok());
  }
  auto f = forward->FinalResult();
  auto b = backward->FinalResult();
  ASSERT_TRUE(f.ok() && b.ok());
  EXPECT_EQ(Fingerprint(*f), Fingerprint(*b));
}

// Consume rejects a batch whose group key or argument evaluates to a type
// other than the one Make inferred, as ConsumePartial rejects a foreign
// partial schema: the per-spec state is typed by that inference.
TEST(AggregateStatsTest, ConsumeRejectsMistypedInput) {
  Schema declared({{"k", DataType::kInt64, true},
                   {"a", DataType::kInt64, true}});
  auto agg = Aggregator::Make({Expr::ColumnRef("k")},
                              Specs({{AggFunc::kMin, "a"}}), declared);
  ASSERT_TRUE(agg.ok());
  Schema double_key({{"k", DataType::kDouble, true},
                     {"a", DataType::kInt64, true}});
  Schema double_arg({{"k", DataType::kInt64, true},
                     {"a", DataType::kDouble, true}});
  for (const Schema& schema : {double_key, double_arg}) {
    RecordBatch batch(schema);
    Value k = schema.field(0).type == DataType::kDouble ? Value::Double(1.0)
                                                        : Value::Int64(1);
    Value a = schema.field(1).type == DataType::kDouble ? Value::Double(2.0)
                                                        : Value::Int64(2);
    ASSERT_TRUE(batch.AppendRow({k, a}).ok());
    EXPECT_TRUE(agg->Consume(batch).IsInvalidArgument())
        << schema.ToString();
  }
  EXPECT_EQ(agg->num_groups(), 0u);
  RecordBatch ok_batch(declared);
  ASSERT_TRUE(ok_batch.AppendRow({Value::Int64(1), Value::Int64(2)}).ok());
  EXPECT_TRUE(agg->Consume(ok_batch).ok());
  EXPECT_EQ(agg->num_groups(), 1u);

  // A partial whose schema matches but whose key column holds another
  // type is rejected too.
  auto partial = agg->PartialResult();
  ASSERT_TRUE(partial.ok());
  std::vector<ColumnVector> cols;
  cols.emplace_back(DataType::kDouble);
  cols.back().AppendDouble(1.0);
  for (size_t c = 1; c < partial->num_columns(); ++c) {
    cols.push_back(partial->column(c));
  }
  RecordBatch mistyped(partial->schema(), std::move(cols));
  EXPECT_TRUE(agg->ConsumePartial(mistyped).IsInvalidArgument());
  EXPECT_TRUE(agg->ConsumePartial(*partial).ok());
  EXPECT_EQ(agg->num_groups(), 1u);
}

}  // namespace
}  // namespace feisu
