#include "exec/aggregate.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/hash.h"
#include "columnar/block.h"
#include "expr/evaluator.h"

namespace feisu {

namespace {

constexpr uint64_t kKeyHashSeed = 0xCBF29CE484222325ULL;
constexpr size_t kInitialSlots = 16;

bool NeedsSum(AggFunc func) {
  return func == AggFunc::kSum || func == AggFunc::kAvg;
}
bool NeedsMinMax(AggFunc func) {
  return func == AggFunc::kMin || func == AggFunc::kMax;
}

DataType FinalType(AggFunc func, DataType arg_type) {
  switch (func) {
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kAvg:
      return DataType::kDouble;
    case AggFunc::kSum:
      return arg_type == DataType::kDouble ? DataType::kDouble
                                           : DataType::kInt64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg_type;
  }
  return DataType::kInt64;
}

/// One cell's numeric view, matching Value::AsDouble for the given type.
double NumericWord(DataType type, uint64_t word) {
  switch (type) {
    case DataType::kBool:
      return word != 0 ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(static_cast<int64_t>(word));
    case DataType::kDouble:
      return std::bit_cast<double>(word);
    case DataType::kString:
      break;
  }
  return 0.0;
}

/// Replicates RecordBatch::AppendRow's per-cell type check (NULL always
/// accepted, exact type match otherwise, numeric widened into a double
/// column) so typed emission errors exactly where the row path did. The
/// column name is `field_name` + `suffix`, built only for the error.
Status AppendCell(ColumnVector* col, const Value& v,
                  const std::string& field_name, const char* suffix = "") {
  if (!v.is_null() && v.type() != col->type() &&
      !(v.is_numeric() && col->type() == DataType::kDouble)) {
    std::string message = "type mismatch for column ";
    message.append(field_name).append(suffix);
    return Status::InvalidArgument(message);
  }
  col->AppendValue(v);
  return Status::OK();
}

}  // namespace

/// Typed per-row view of one batch's key columns: one word per cell plus
/// one combined hash per row. Hash input covers the null flag, the runtime
/// type tag and the word, mirroring what the serialized key bytes encode.
struct Aggregator::BatchKeys {
  std::vector<const ColumnVector*> cols;
  std::vector<std::vector<uint64_t>> words;  ///< [col][row]
  std::vector<uint64_t> hashes;              ///< [row]
};

Result<Aggregator> Aggregator::Make(std::vector<ExprPtr> group_by,
                                    std::vector<AggSpec> specs,
                                    const Schema& input_schema) {
  Aggregator agg;
  agg.group_by_ = std::move(group_by);
  agg.specs_ = std::move(specs);

  std::vector<Field> partial_fields;
  std::vector<Field> final_fields;
  for (const auto& g : agg.group_by_) {
    std::string name =
        g->kind() == ExprKind::kColumnRef ? g->column() : g->ToString();
    agg.group_names_.push_back(name);
    FEISU_ASSIGN_OR_RETURN(DataType type, InferType(*g, input_schema));
    partial_fields.push_back({name, type, true});
    final_fields.push_back({name, type, true});
  }
  for (const auto& spec : agg.specs_) {
    DataType arg_type = DataType::kInt64;
    if (spec.arg != nullptr) {
      FEISU_ASSIGN_OR_RETURN(arg_type, InferType(*spec.arg, input_schema));
      if (arg_type == DataType::kString && NeedsSum(spec.func)) {
        return Status::InvalidArgument("SUM/AVG over string column");
      }
    } else if (spec.func != AggFunc::kCount) {
      return Status::InvalidArgument("'*' argument requires COUNT");
    }
    agg.arg_types_.push_back(arg_type);
    partial_fields.push_back(
        {spec.output_name + "#count", DataType::kInt64, false});
    if (NeedsSum(spec.func)) {
      partial_fields.push_back(
          {spec.output_name + "#sum", DataType::kDouble, false});
    }
    if (NeedsMinMax(spec.func)) {
      partial_fields.push_back({spec.output_name + "#min", arg_type, true});
      partial_fields.push_back({spec.output_name + "#max", arg_type, true});
    }
    final_fields.push_back(
        {spec.output_name, FinalType(spec.func, arg_type), true});
  }
  agg.partial_schema_ = Schema(std::move(partial_fields));
  agg.final_schema_ = Schema(std::move(final_fields));
  agg.key_cols_.resize(agg.group_by_.size());
  agg.states_.resize(agg.specs_.size());
  return agg;
}

Aggregator::BatchKeys Aggregator::MakeBatchKeys(
    std::vector<const ColumnVector*> cols, size_t n) const {
  BatchKeys keys;
  keys.cols = std::move(cols);
  keys.words.resize(keys.cols.size());
  for (size_t c = 0; c < keys.cols.size(); ++c) {
    const ColumnVector& col = *keys.cols[c];
    std::vector<uint64_t>& w = keys.words[c];
    w.resize(n, 0);
    switch (col.type()) {
      case DataType::kBool:
        for (size_t i = 0; i < n; ++i) w[i] = col.bools()[i] != 0 ? 1 : 0;
        break;
      case DataType::kInt64:
        for (size_t i = 0; i < n; ++i) {
          w[i] = static_cast<uint64_t>(col.ints()[i]);
        }
        break;
      case DataType::kDouble:
        for (size_t i = 0; i < n; ++i) {
          w[i] = std::bit_cast<uint64_t>(col.doubles()[i]);
        }
        break;
      case DataType::kString:
        for (size_t i = 0; i < n; ++i) {
          if (!col.IsNull(i)) w[i] = HashString(col.strings()[i]);
        }
        break;
    }
  }
  keys.hashes.assign(n, kKeyHashSeed);
  for (size_t c = 0; c < keys.cols.size(); ++c) {
    const ColumnVector& col = *keys.cols[c];
    uint64_t type_tag = static_cast<uint64_t>(col.type()) + 1;
    for (size_t i = 0; i < n; ++i) {
      if (col.IsNull(i)) {
        keys.hashes[i] = HashCombine(keys.hashes[i], 0);
      } else {
        keys.hashes[i] = HashCombine(keys.hashes[i], type_tag);
        keys.hashes[i] = HashCombine(keys.hashes[i], keys.words[c][i]);
      }
    }
  }
  return keys;
}

bool Aggregator::GroupEquals(uint32_t group, const BatchKeys& keys,
                             size_t row) const {
  for (size_t c = 0; c < keys.cols.size(); ++c) {
    const ColumnVector& col = *keys.cols[c];
    const KeyColumn& stored = key_cols_[c];
    bool row_null = col.IsNull(row);
    if (row_null != (stored.nulls[group] != 0)) return false;
    if (row_null) continue;
    if (col.type() != stored.types[group]) return false;
    if (keys.words[c][row] != stored.words[group]) return false;
    if (col.type() == DataType::kString &&
        col.strings()[row] != stored.strings[group]) {
      return false;
    }
  }
  return true;
}

void Aggregator::AppendGroupKeys(const BatchKeys& keys, size_t row) {
  std::string serialized;
  for (size_t c = 0; c < keys.cols.size(); ++c) {
    const ColumnVector& col = *keys.cols[c];
    KeyColumn& stored = key_cols_[c];
    bool row_null = col.IsNull(row);
    stored.nulls.push_back(row_null ? 1 : 0);
    stored.types.push_back(col.type());
    stored.words.push_back(row_null ? 0 : keys.words[c][row]);
    stored.strings.emplace_back(
        !row_null && col.type() == DataType::kString ? col.strings()[row]
                                                     : std::string());
    // Runs once per *group* insert, not per row, and serialization needs
    // the boxed value anyway. feisu-lint: allow(per-row-getvalue)
    SerializeValue(&serialized, col.GetValue(row));
  }
  serialized_keys_.push_back(std::move(serialized));
}

void Aggregator::AppendStateSlots() {
  for (size_t s = 0; s < specs_.size(); ++s) {
    SpecState& st = states_[s];
    st.counts.push_back(0);
    if (NeedsSum(specs_[s].func)) st.sums.push_back(0.0);
    if (NeedsMinMax(specs_[s].func)) {
      st.min_boxed.emplace_back();
      st.max_boxed.emplace_back();
      st.min_num.push_back(0.0);
      st.max_num.push_back(0.0);
    }
  }
}

void Aggregator::Grow(size_t capacity) {
  if (!slots_.empty()) ++stats_.rehashes;
  slots_.assign(capacity, 0);
  slot_hashes_.assign(capacity, 0);
  slot_mask_ = capacity - 1;
  for (size_t g = 0; g < num_groups_; ++g) {
    size_t idx = group_hashes_[g] & slot_mask_;
    while (slots_[idx] != 0) idx = (idx + 1) & slot_mask_;
    slots_[idx] = static_cast<uint32_t>(g) + 1;
    slot_hashes_[idx] = group_hashes_[g];
  }
}

uint32_t Aggregator::FindOrInsert(const BatchKeys& keys, size_t row) {
  if (slots_.empty()) Grow(kInitialSlots);
  uint64_t h = keys.hashes[row];
  size_t idx = h & slot_mask_;
  while (true) {
    ++stats_.hash_probes;
    uint32_t slot = slots_[idx];
    if (slot == 0) break;
    if (slot_hashes_[idx] == h && GroupEquals(slot - 1, keys, row)) {
      return slot - 1;
    }
    idx = (idx + 1) & slot_mask_;
  }
  uint32_t group = static_cast<uint32_t>(num_groups_++);
  ++stats_.groups_created;
  slots_[idx] = group + 1;
  slot_hashes_[idx] = h;
  group_hashes_.push_back(h);
  AppendGroupKeys(keys, row);
  AppendStateSlots();
  // Keep the load factor under 0.7 so probe chains stay short.
  if ((num_groups_ + 1) * 10 > slots_.size() * 7) Grow(slots_.size() * 2);
  return group;
}

uint32_t Aggregator::EnsureGlobalGroup() {
  if (num_groups_ == 0) {
    if (slots_.empty()) Grow(kInitialSlots);
    size_t idx = kKeyHashSeed & slot_mask_;
    ++stats_.hash_probes;
    slots_[idx] = 1;
    slot_hashes_[idx] = kKeyHashSeed;
    group_hashes_.push_back(kKeyHashSeed);
    serialized_keys_.emplace_back();
    AppendStateSlots();
    num_groups_ = 1;
    ++stats_.groups_created;
  }
  return 0;
}

namespace {

/// min/max update: replicates `if (state.min.is_null() ||
/// v.Compare(state.min) < 0) state.min = v;` with the Compare hoisted into
/// a double comparison whenever the stored value is numeric. `dir` is -1
/// for MIN, +1 for MAX.
template <int dir>
inline void UpdateMinMaxNumeric(std::vector<Value>& boxed,
                                std::vector<double>& num, uint32_t g,
                                double v_num, const Value& v_boxed) {
  if (boxed[g].is_null()) {
    boxed[g] = v_boxed;
    num[g] = v_num;
    return;
  }
  if (boxed[g].is_numeric()) {
    if (dir < 0 ? v_num < num[g] : v_num > num[g]) {
      boxed[g] = v_boxed;
      num[g] = v_num;
    }
    return;
  }
  // Stored value is a string (mixed runtime types): defer to Value::Compare
  // so the cross-type ordering matches the boxed path exactly.
  int cmp = v_boxed.Compare(boxed[g]);
  if (dir < 0 ? cmp < 0 : cmp > 0) {
    boxed[g] = v_boxed;
    num[g] = v_num;
  }
}

template <int dir>
inline void UpdateMinMaxString(std::vector<Value>& boxed,
                               std::vector<double>& num, uint32_t g,
                               const std::string& v) {
  if (boxed[g].is_null()) {
    boxed[g] = Value::String(v);
    return;
  }
  if (boxed[g].type() == DataType::kString) {
    int cmp = v.compare(boxed[g].string_value());
    if (dir < 0 ? cmp < 0 : cmp > 0) boxed[g] = Value::String(v);
    return;
  }
  Value v_boxed = Value::String(v);
  int cmp = v_boxed.Compare(boxed[g]);
  if (dir < 0 ? cmp < 0 : cmp > 0) {
    boxed[g] = std::move(v_boxed);
    num[g] = 0.0;
  }
}

}  // namespace

void Aggregator::AccumulateSpec(size_t s, const ColumnVector* arg,
                                const std::vector<uint32_t>& gids) {
  SpecState& st = states_[s];
  size_t n = gids.size();
  if (arg == nullptr) {  // COUNT(*)
    for (size_t i = 0; i < n; ++i) ++st.counts[gids[i]];
    return;
  }
  const AggFunc func = specs_[s].func;
  const bool needs_sum = NeedsSum(func);
  const bool needs_minmax = NeedsMinMax(func);
  const bool null_free = arg->NullCount() == 0;

  // SQL semantics: NULL arguments don't aggregate (skip count/sum/minmax).
  auto for_each_valid = [&](auto&& fn) {
    if (null_free) {
      for (size_t i = 0; i < n; ++i) fn(i);
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (!arg->IsNull(i)) fn(i);
      }
    }
  };

  for_each_valid([&](size_t i) { ++st.counts[gids[i]]; });

  if (needs_sum) {
    switch (arg->type()) {
      case DataType::kBool: {
        const auto& v = arg->bools();
        for_each_valid(
            [&](size_t i) { st.sums[gids[i]] += v[i] != 0 ? 1.0 : 0.0; });
        break;
      }
      case DataType::kInt64: {
        const auto& v = arg->ints();
        for_each_valid(
            [&](size_t i) { st.sums[gids[i]] += static_cast<double>(v[i]); });
        break;
      }
      case DataType::kDouble: {
        const auto& v = arg->doubles();
        for_each_valid([&](size_t i) { st.sums[gids[i]] += v[i]; });
        break;
      }
      case DataType::kString:
        break;  // rejected at Make time
    }
  }

  if (needs_minmax) {
    switch (arg->type()) {
      case DataType::kBool: {
        const auto& v = arg->bools();
        for_each_valid([&](size_t i) {
          bool b = v[i] != 0;
          double d = b ? 1.0 : 0.0;
          UpdateMinMaxNumeric<-1>(st.min_boxed, st.min_num, gids[i], d,
                                  Value::Bool(b));
          UpdateMinMaxNumeric<+1>(st.max_boxed, st.max_num, gids[i], d,
                                  Value::Bool(b));
        });
        break;
      }
      case DataType::kInt64: {
        const auto& v = arg->ints();
        for_each_valid([&](size_t i) {
          double d = static_cast<double>(v[i]);
          UpdateMinMaxNumeric<-1>(st.min_boxed, st.min_num, gids[i], d,
                                  Value::Int64(v[i]));
          UpdateMinMaxNumeric<+1>(st.max_boxed, st.max_num, gids[i], d,
                                  Value::Int64(v[i]));
        });
        break;
      }
      case DataType::kDouble: {
        const auto& v = arg->doubles();
        for_each_valid([&](size_t i) {
          UpdateMinMaxNumeric<-1>(st.min_boxed, st.min_num, gids[i], v[i],
                                  Value::Double(v[i]));
          UpdateMinMaxNumeric<+1>(st.max_boxed, st.max_num, gids[i], v[i],
                                  Value::Double(v[i]));
        });
        break;
      }
      case DataType::kString: {
        const auto& v = arg->strings();
        for_each_valid([&](size_t i) {
          UpdateMinMaxString<-1>(st.min_boxed, st.min_num, gids[i], v[i]);
          UpdateMinMaxString<+1>(st.max_boxed, st.max_num, gids[i], v[i]);
        });
        break;
      }
    }
  }
}

Status Aggregator::Consume(const RecordBatch& batch) {
  size_t n = batch.num_rows();
  if (n == 0) return Status::OK();
  // Evaluate group keys and aggregate arguments once per batch.
  std::vector<ColumnVector> key_cols;
  key_cols.reserve(group_by_.size());
  for (const auto& g : group_by_) {
    FEISU_ASSIGN_OR_RETURN(ColumnVector col, EvaluateExpr(*g, batch));
    key_cols.push_back(std::move(col));
  }
  std::vector<ColumnVector> arg_cols;
  arg_cols.reserve(specs_.size());
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

  bool batch_null_free = true;
  for (const auto& col : key_cols) {
    if (col.NullCount() != 0) batch_null_free = false;
  }
  for (size_t s = 0; s < specs_.size(); ++s) {
    if (has_arg[s] && arg_cols[s].NullCount() != 0) batch_null_free = false;
  }
  if (batch_null_free) ++stats_.null_fast_path_batches;

  // Vectorized grouping: typed key words + hashes, then one table probe
  // per row producing the row -> group mapping.
  std::vector<const ColumnVector*> key_ptrs;
  key_ptrs.reserve(key_cols.size());
  for (const auto& col : key_cols) key_ptrs.push_back(&col);
  BatchKeys keys = MakeBatchKeys(std::move(key_ptrs), n);
  std::vector<uint32_t> gids(n);
  for (size_t i = 0; i < n; ++i) gids[i] = FindOrInsert(keys, i);

  for (size_t s = 0; s < specs_.size(); ++s) {
    AccumulateSpec(s, has_arg[s] ? &arg_cols[s] : nullptr, gids);
  }
  return Status::OK();
}

uint32_t Aggregator::FindOrInsertDictKey(const std::string* key) {
  if (slots_.empty()) Grow(kInitialSlots);
  uint64_t word = 0;
  uint64_t h = kKeyHashSeed;
  if (key == nullptr) {
    h = HashCombine(h, 0);
  } else {
    word = HashString(*key);
    h = HashCombine(h, static_cast<uint64_t>(DataType::kString) + 1);
    h = HashCombine(h, word);
  }
  size_t idx = h & slot_mask_;
  while (true) {
    ++stats_.hash_probes;
    uint32_t slot = slots_[idx];
    if (slot == 0) break;
    if (slot_hashes_[idx] == h) {
      uint32_t g = slot - 1;
      const KeyColumn& stored = key_cols_[0];
      bool stored_null = stored.nulls[g] != 0;
      if (key == nullptr) {
        if (stored_null) return g;
      } else if (!stored_null && stored.types[g] == DataType::kString &&
                 stored.words[g] == word && stored.strings[g] == *key) {
        return g;
      }
    }
    idx = (idx + 1) & slot_mask_;
  }
  uint32_t group = static_cast<uint32_t>(num_groups_++);
  ++stats_.groups_created;
  ++stats_.code_domain_groups;
  slots_[idx] = group + 1;
  slot_hashes_[idx] = h;
  group_hashes_.push_back(h);
  KeyColumn& stored = key_cols_[0];
  stored.nulls.push_back(key == nullptr ? 1 : 0);
  stored.types.push_back(DataType::kString);
  stored.words.push_back(word);
  stored.strings.emplace_back(key == nullptr ? std::string() : *key);
  std::string serialized;
  SerializeValue(&serialized,
                 key == nullptr ? Value::Null() : Value::String(*key));
  serialized_keys_.push_back(std::move(serialized));
  AppendStateSlots();
  // Keep the load factor under 0.7 so probe chains stay short.
  if ((num_groups_ + 1) * 10 > slots_.size() * 7) Grow(slots_.size() * 2);
  return group;
}

Status Aggregator::ConsumeDictKeyed(const RecordBatch& batch,
                                    const DictColumnCodes& codes) {
  if (group_by_.size() != 1) {
    return Status::InvalidArgument(
        "ConsumeDictKeyed requires exactly one group key");
  }
  size_t n = batch.num_rows();
  if (codes.codes.size() != n) {
    return Status::InvalidArgument("dict code count != batch rows");
  }
  if (n == 0) return Status::OK();

  std::vector<ColumnVector> arg_cols;
  arg_cols.reserve(specs_.size());
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

  bool batch_null_free = true;
  for (size_t s = 0; s < specs_.size(); ++s) {
    if (has_arg[s] && arg_cols[s].NullCount() != 0) batch_null_free = false;
  }

  // Row -> group through the code domain: each distinct code resolves the
  // hash table once per batch, every repeat is a memo hit that never reads
  // the key string.
  std::vector<int64_t> memo(codes.entries.size(), -1);
  int64_t null_gid = -1;
  std::vector<uint32_t> gids(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t code = codes.codes[i];
    if (code == DictColumnCodes::kNullCode) {
      batch_null_free = false;
      if (null_gid < 0) null_gid = FindOrInsertDictKey(nullptr);
      gids[i] = static_cast<uint32_t>(null_gid);
      continue;
    }
    if (code >= codes.entries.size()) {
      return Status::Corruption("dict code out of range");
    }
    int64_t g = memo[code];
    if (g < 0) {
      g = FindOrInsertDictKey(&codes.entries[code]);
      memo[code] = g;
    }
    gids[i] = static_cast<uint32_t>(g);
  }
  if (batch_null_free) ++stats_.null_fast_path_batches;

  for (size_t s = 0; s < specs_.size(); ++s) {
    AccumulateSpec(s, has_arg[s] ? &arg_cols[s] : nullptr, gids);
  }
  return Status::OK();
}

Status Aggregator::ConsumeCount(size_t rows) {
  if (!group_by_.empty()) {
    return Status::InvalidArgument("ConsumeCount requires no GROUP BY");
  }
  for (const auto& spec : specs_) {
    if (spec.func != AggFunc::kCount || spec.arg != nullptr) {
      return Status::InvalidArgument("ConsumeCount requires COUNT(*) only");
    }
  }
  uint32_t group = EnsureGlobalGroup();
  for (auto& st : states_) {
    st.counts[group] += static_cast<int64_t>(rows);
  }
  return Status::OK();
}

void Aggregator::MergePartialSpec(size_t s, const RecordBatch& batch,
                                  size_t* col,
                                  const std::vector<uint32_t>& gids) {
  SpecState& st = states_[s];
  size_t n = gids.size();
  {
    const ColumnVector& counts = batch.column((*col)++);
    const auto& v = counts.ints();
    if (counts.NullCount() == 0) {
      for (size_t i = 0; i < n; ++i) st.counts[gids[i]] += v[i];
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (!counts.IsNull(i)) st.counts[gids[i]] += v[i];
      }
    }
  }
  if (NeedsSum(specs_[s].func)) {
    const ColumnVector& sums = batch.column((*col)++);
    const auto& v = sums.doubles();
    if (sums.NullCount() == 0) {
      for (size_t i = 0; i < n; ++i) st.sums[gids[i]] += v[i];
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (!sums.IsNull(i)) st.sums[gids[i]] += v[i];
      }
    }
  }
  if (NeedsMinMax(specs_[s].func)) {
    const ColumnVector& mins = batch.column((*col)++);
    const ColumnVector& maxs = batch.column((*col)++);
    // The partial min/max columns go through the same typed kernels as raw
    // arguments: merging partials is aggregation over the partials.
    auto merge = [&](const ColumnVector& arg, bool is_min) {
      size_t rows = arg.size();
      switch (arg.type()) {
        case DataType::kBool: {
          const auto& v = arg.bools();
          for (size_t i = 0; i < rows; ++i) {
            if (arg.IsNull(i)) continue;
            bool b = v[i] != 0;
            double d = b ? 1.0 : 0.0;
            if (is_min) {
              UpdateMinMaxNumeric<-1>(st.min_boxed, st.min_num, gids[i], d,
                                      Value::Bool(b));
            } else {
              UpdateMinMaxNumeric<+1>(st.max_boxed, st.max_num, gids[i], d,
                                      Value::Bool(b));
            }
          }
          break;
        }
        case DataType::kInt64: {
          const auto& v = arg.ints();
          for (size_t i = 0; i < rows; ++i) {
            if (arg.IsNull(i)) continue;
            double d = static_cast<double>(v[i]);
            if (is_min) {
              UpdateMinMaxNumeric<-1>(st.min_boxed, st.min_num, gids[i], d,
                                      Value::Int64(v[i]));
            } else {
              UpdateMinMaxNumeric<+1>(st.max_boxed, st.max_num, gids[i], d,
                                      Value::Int64(v[i]));
            }
          }
          break;
        }
        case DataType::kDouble: {
          const auto& v = arg.doubles();
          for (size_t i = 0; i < rows; ++i) {
            if (arg.IsNull(i)) continue;
            if (is_min) {
              UpdateMinMaxNumeric<-1>(st.min_boxed, st.min_num, gids[i],
                                      v[i], Value::Double(v[i]));
            } else {
              UpdateMinMaxNumeric<+1>(st.max_boxed, st.max_num, gids[i],
                                      v[i], Value::Double(v[i]));
            }
          }
          break;
        }
        case DataType::kString: {
          const auto& v = arg.strings();
          for (size_t i = 0; i < rows; ++i) {
            if (arg.IsNull(i)) continue;
            if (is_min) {
              UpdateMinMaxString<-1>(st.min_boxed, st.min_num, gids[i],
                                     v[i]);
            } else {
              UpdateMinMaxString<+1>(st.max_boxed, st.max_num, gids[i],
                                     v[i]);
            }
          }
          break;
        }
      }
    };
    merge(mins, /*is_min=*/true);
    merge(maxs, /*is_min=*/false);
  }
}

Status Aggregator::ConsumePartial(const RecordBatch& batch) {
  if (!(batch.schema() == partial_schema_)) {
    return Status::InvalidArgument("partial batch schema mismatch");
  }
  size_t n = batch.num_rows();
  if (n == 0) return Status::OK();

  bool batch_null_free = true;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    if (batch.column(c).NullCount() != 0) batch_null_free = false;
  }
  if (batch_null_free) ++stats_.null_fast_path_batches;

  std::vector<const ColumnVector*> key_ptrs;
  key_ptrs.reserve(group_by_.size());
  for (size_t k = 0; k < group_by_.size(); ++k) {
    key_ptrs.push_back(&batch.column(k));
  }
  BatchKeys keys = MakeBatchKeys(std::move(key_ptrs), n);
  std::vector<uint32_t> gids(n);
  for (size_t i = 0; i < n; ++i) gids[i] = FindOrInsert(keys, i);

  size_t col = group_by_.size();
  for (size_t s = 0; s < specs_.size(); ++s) {
    MergePartialSpec(s, batch, &col, gids);
  }
  return Status::OK();
}

std::vector<uint32_t> Aggregator::EmissionOrder() const {
  std::vector<uint32_t> order(num_groups_);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return serialized_keys_[a] < serialized_keys_[b];
  });
  return order;
}

Status Aggregator::EmitKeyColumns(const std::vector<uint32_t>& order,
                                  RecordBatch* out) const {
  for (size_t k = 0; k < group_by_.size(); ++k) {
    const KeyColumn& stored = key_cols_[k];
    ColumnVector* col = out->mutable_column(k);
    col->Reserve(order.size());
    DataType col_type = col->type();
    for (uint32_t g : order) {
      if (stored.nulls[g] != 0) {
        col->AppendNull();
        continue;
      }
      DataType t = stored.types[g];
      if (t == col_type) {
        switch (t) {
          case DataType::kBool:
            col->AppendBool(stored.words[g] != 0);
            break;
          case DataType::kInt64:
            col->AppendInt64(static_cast<int64_t>(stored.words[g]));
            break;
          case DataType::kDouble:
            col->AppendDouble(std::bit_cast<double>(stored.words[g]));
            break;
          case DataType::kString:
            col->AppendString(stored.strings[g]);
            break;
        }
        continue;
      }
      if (t != DataType::kString && col_type == DataType::kDouble) {
        col->AppendDouble(NumericWord(t, stored.words[g]));
        continue;
      }
      return Status::InvalidArgument("type mismatch for column " +
                                     group_names_[k]);
    }
  }
  return Status::OK();
}

Result<RecordBatch> Aggregator::PartialResult() const {
  RecordBatch out(partial_schema_);
  std::vector<uint32_t> order = EmissionOrder();
  FEISU_RETURN_IF_ERROR(EmitKeyColumns(order, &out));
  size_t col_idx = group_by_.size();
  for (size_t s = 0; s < specs_.size(); ++s) {
    const SpecState& st = states_[s];
    {
      ColumnVector* col = out.mutable_column(col_idx++);
      col->Reserve(order.size());
      for (uint32_t g : order) col->AppendInt64(st.counts[g]);
    }
    if (NeedsSum(specs_[s].func)) {
      ColumnVector* col = out.mutable_column(col_idx++);
      col->Reserve(order.size());
      for (uint32_t g : order) col->AppendDouble(st.sums[g]);
    }
    if (NeedsMinMax(specs_[s].func)) {
      ColumnVector* min_col = out.mutable_column(col_idx++);
      ColumnVector* max_col = out.mutable_column(col_idx++);
      min_col->Reserve(order.size());
      max_col->Reserve(order.size());
      const std::string& name = specs_[s].output_name;
      for (uint32_t g : order) {
        FEISU_RETURN_IF_ERROR(
            AppendCell(min_col, st.min_boxed[g], name, "#min"));
        FEISU_RETURN_IF_ERROR(
            AppendCell(max_col, st.max_boxed[g], name, "#max"));
      }
    }
  }
  return out;
}

Result<RecordBatch> Aggregator::FinalResult() const {
  RecordBatch out(final_schema_);
  // A global aggregation (no GROUP BY) over zero rows still yields one row.
  if (num_groups_ == 0 && group_by_.empty()) {
    std::vector<Value> row;
    for (size_t s = 0; s < specs_.size(); ++s) {
      row.push_back(specs_[s].func == AggFunc::kCount ? Value::Int64(0)
                                                      : Value::Null());
    }
    FEISU_RETURN_IF_ERROR(out.AppendRow(row));
    return out;
  }
  std::vector<uint32_t> order = EmissionOrder();
  FEISU_RETURN_IF_ERROR(EmitKeyColumns(order, &out));
  size_t col_idx = group_by_.size();
  for (size_t s = 0; s < specs_.size(); ++s) {
    const SpecState& st = states_[s];
    ColumnVector* col = out.mutable_column(col_idx++);
    col->Reserve(order.size());
    switch (specs_[s].func) {
      case AggFunc::kCount:
        for (uint32_t g : order) col->AppendInt64(st.counts[g]);
        break;
      case AggFunc::kSum:
        for (uint32_t g : order) {
          if (st.counts[g] == 0) {
            col->AppendNull();
          } else if (arg_types_[s] == DataType::kDouble) {
            col->AppendDouble(st.sums[g]);
          } else {
            col->AppendInt64(static_cast<int64_t>(st.sums[g]));
          }
        }
        break;
      case AggFunc::kAvg:
        for (uint32_t g : order) {
          if (st.counts[g] == 0) {
            col->AppendNull();
          } else {
            col->AppendDouble(st.sums[g] /
                              static_cast<double>(st.counts[g]));
          }
        }
        break;
      case AggFunc::kMin:
        for (uint32_t g : order) {
          FEISU_RETURN_IF_ERROR(
              AppendCell(col, st.min_boxed[g], specs_[s].output_name));
        }
        break;
      case AggFunc::kMax:
        for (uint32_t g : order) {
          FEISU_RETURN_IF_ERROR(
              AppendCell(col, st.max_boxed[g], specs_[s].output_name));
        }
        break;
    }
  }
  return out;
}

}  // namespace feisu
