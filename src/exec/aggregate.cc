#include "exec/aggregate.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <type_traits>

#include "columnar/block.h"
#include "exec/keys.h"
#include "expr/evaluator.h"

namespace feisu {

namespace {

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

/// Calls fn(i) for every non-NULL row i < n of `col`, skipping the
/// per-row validity check when the column is null-free.
template <typename Fn>
void ForEachValid(const ColumnVector& col, size_t n, const Fn& fn) {
  if (col.NullCount() == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (!col.IsNull(i)) fn(i);
    }
  }
}

/// True when no column holds a NULL (a COUNT(*) placeholder is nullptr).
bool NullFree(const std::vector<const ColumnVector*>& cols) {
  return std::all_of(cols.begin(), cols.end(), [](const ColumnVector* c) {
    return c == nullptr || c->NullCount() == 0;
  });
}

/// Evaluates `expr` over `batch` (a column reference is borrowed, not
/// copied), rejecting a result whose type is not the `type` Make inferred:
/// the typed state holds exactly that type.
Result<ExprColumn> EvaluateTyped(const Expr& expr, const RecordBatch& batch,
                                 DataType type, const std::string& name) {
  FEISU_ASSIGN_OR_RETURN(ExprColumn col, EvaluateColumn(expr, batch));
  if (col.get().type() != type) {
    std::string message = "type mismatch for aggregate input ";
    message.append(name);
    return Status::InvalidArgument(message);
  }
  return col;
}

/// Appends cell `row` of `src` to `dst`, a column of the same type.
void AppendKeyCell(ColumnVector* dst, const ColumnVector& src, size_t row) {
  if (src.IsNull(row)) {
    dst->AppendNull();
    return;
  }
  switch (src.type()) {
    case DataType::kBool:
      dst->AppendBool(src.bools()[row] != 0);
      break;
    case DataType::kInt64:
      dst->AppendInt64(src.ints()[row]);
      break;
    case DataType::kDouble:
      dst->AppendDouble(src.doubles()[row]);
      break;
    case DataType::kString:
      dst->AppendString(src.strings()[row]);
      break;
  }
}

/// Adds the valid cells of `in`, as doubles, into the per-group `sums`.
void AddSums(const ColumnVector& in, const std::vector<uint32_t>& gids,
             std::vector<double>& sums) {
  const size_t n = gids.size();
  switch (in.type()) {
    case DataType::kBool: {
      const auto& v = in.bools();
      ForEachValid(in, n,
                   [&](size_t i) { sums[gids[i]] += v[i] != 0 ? 1.0 : 0.0; });
      break;
    }
    case DataType::kInt64: {
      const auto& v = in.ints();
      ForEachValid(in, n, [&](size_t i) {
        sums[gids[i]] += static_cast<double>(v[i]);
      });
      break;
    }
    case DataType::kDouble: {
      const auto& v = in.doubles();
      ForEachValid(in, n, [&](size_t i) { sums[gids[i]] += v[i]; });
      break;
    }
    case DataType::kString:
      break;  // rejected at Make time
  }
}

/// Value::Compare's `a < b` for two non-NULL cells of one type: int64
/// compares as double, so values above 2^53 can tie; doubles follow
/// CompareNumbers, so NaN sorts after every number.
template <typename T>
bool Less(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, std::string>) {
    return a < b;
  } else {
    return CompareNumbers(static_cast<double>(a), static_cast<double>(b)) < 0;
  }
}

/// Folds the valid cells of `in` (values `v`) into the per-group MIN
/// (`is_min`) or MAX column `extreme` (values `out`), whose validity bit is
/// the has-value bit. Only a strictly smaller (larger) value replaces the
/// stored one, so a tie keeps the value seen first.
template <typename T>
void FoldExtreme(const ColumnVector& in, const std::vector<T>& v,
                 bool is_min, const std::vector<uint32_t>& gids,
                 ColumnVector* extreme, std::vector<T>& out) {
  ForEachValid(in, gids.size(), [&](size_t i) {
    uint32_t g = gids[i];
    if (extreme->IsNull(g)) {
      out[g] = v[i];
      extreme->SetValid(g);
    } else if (is_min ? Less(v[i], out[g]) : Less(out[g], v[i])) {
      out[g] = v[i];
    }
  });
}

/// The MIN/MAX kernel for raw arguments and partial `#min`/`#max` columns
/// alike: merging partials is aggregation over the partials.
void FoldExtreme(const ColumnVector& in, bool is_min,
                 const std::vector<uint32_t>& gids, ColumnVector* extreme) {
  VisitStorageType(in.type(), [&]<typename T>(std::type_identity<T>) {
    FoldExtreme(in, in.storage<T>(), is_min, gids, extreme,
                extreme->storage<T>());
  });
}

/// Orders two cells of `col` that SortKey ties (both NULL, or equal under
/// Value::Compare) by exact stored value: int64 by value, since Compare
/// reads it as a double, and doubles by bit pattern (-0.0 and +0.0, NaN
/// payloads). Tied bools and strings are equal.
int CompareExact(const ColumnVector& col, uint32_t a, uint32_t b) {
  if (col.IsNull(a)) return 0;
  if (col.type() == DataType::kInt64) {
    int64_t x = col.ints()[a];
    int64_t y = col.ints()[b];
    return (x > y) - (x < y);
  }
  if (col.type() == DataType::kDouble) {
    uint64_t x = std::bit_cast<uint64_t>(col.doubles()[a]);
    uint64_t y = std::bit_cast<uint64_t>(col.doubles()[b]);
    return (x > y) - (x < y);
  }
  return 0;
}

}  // namespace

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
    agg.count_cols_.push_back(partial_fields.size());
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
  for (const Field& field : partial_fields) agg.state_.emplace_back(field.type);
  agg.partial_schema_ = Schema(std::move(partial_fields));
  agg.final_schema_ = Schema(std::move(final_fields));
  return agg;
}

bool Aggregator::GroupEquals(uint32_t group, const KeyWords& keys,
                             size_t row) const {
  for (size_t c = 0; c < keys.cols.size(); ++c) {
    const ColumnVector& col = *keys.cols[c];
    const ColumnVector& stored = state_[c];
    bool row_null = col.IsNull(row);
    if (row_null != stored.IsNull(group)) return false;
    if (row_null) continue;
    bool same = false;
    switch (col.type()) {
      case DataType::kBool:
        same = (col.bools()[row] != 0) == (stored.bools()[group] != 0);
        break;
      case DataType::kInt64:
        same = col.ints()[row] == stored.ints()[group];
        break;
      case DataType::kDouble:  // bit patterns: -0.0 != +0.0, NaN == NaN
        same = keys.words[c][row] ==
               std::bit_cast<uint64_t>(stored.doubles()[group]);
        break;
      case DataType::kString:
        same = col.strings()[row] == stored.strings()[group];
        break;
    }
    if (!same) return false;
  }
  return true;
}

void Aggregator::Grow(size_t capacity) {
  if (!slots_.empty()) ++stats_.rehashes;
  slots_.assign(capacity, 0);
  slot_hashes_.assign(capacity, 0);
  slot_mask_ = capacity - 1;
  for (size_t g = 0; g < num_groups(); ++g) {
    size_t idx = group_hashes_[g] & slot_mask_;
    while (slots_[idx] != 0) idx = (idx + 1) & slot_mask_;
    slots_[idx] = static_cast<uint32_t>(g) + 1;
    slot_hashes_[idx] = group_hashes_[g];
  }
}

template <typename Equals, typename AppendKeys>
uint32_t Aggregator::FindOrAppend(uint64_t h, const Equals& equals,
                                  const AppendKeys& append_keys) {
  if (slots_.empty()) Grow(kInitialSlots);
  size_t idx = h & slot_mask_;
  while (true) {
    ++stats_.hash_probes;
    uint32_t slot = slots_[idx];
    if (slot == 0) break;
    if (slot_hashes_[idx] == h && equals(slot - 1)) return slot - 1;
    idx = (idx + 1) & slot_mask_;
  }
  uint32_t group = static_cast<uint32_t>(group_hashes_.size());
  ++stats_.groups_created;
  slots_[idx] = group + 1;
  slot_hashes_[idx] = h;
  group_hashes_.push_back(h);
  append_keys();
  // A new group's state slots: #count and #sum start at zero, #min/#max
  // (the nullable state fields) start without a value.
  for (size_t c = group_by_.size(); c < state_.size(); ++c) {
    ColumnVector& col = state_[c];
    if (partial_schema_.field(c).nullable) {
      col.AppendNull();
    } else if (col.type() == DataType::kInt64) {
      col.AppendInt64(0);
    } else {
      col.AppendDouble(0.0);
    }
  }
  // Keep the load factor under 0.7 so probe chains stay short.
  if ((num_groups() + 1) * 10 > slots_.size() * 7) Grow(slots_.size() * 2);
  return group;
}

uint32_t Aggregator::FindOrInsert(const KeyWords& keys, size_t row) {
  return FindOrAppend(
      keys.hashes[row],
      [&](uint32_t g) { return GroupEquals(g, keys, row); },
      [&] {
        for (size_t c = 0; c < keys.cols.size(); ++c) {
          AppendKeyCell(&state_[c], *keys.cols[c], row);
        }
      });
}

uint32_t Aggregator::FindOrInsertDictKey(const std::string* key) {
  uint64_t h = FoldKeyCell(kKeyHashSeed, key == nullptr, DataType::kString,
                           key == nullptr ? 0 : HashString(*key));
  ColumnVector& stored = state_[0];
  size_t before = num_groups();
  uint32_t group = FindOrAppend(
      h,
      [&](uint32_t g) {
        if (key == nullptr) return stored.IsNull(g);
        return !stored.IsNull(g) && stored.strings()[g] == *key;
      },
      [&] {
        if (key == nullptr) {
          stored.AppendNull();
        } else {
          stored.AppendString(*key);
        }
      });
  if (num_groups() > before) ++stats_.code_domain_groups;
  return group;
}

uint32_t Aggregator::EnsureGlobalGroup() {
  if (num_groups() == 0) {
    FindOrAppend(kKeyHashSeed, [](uint32_t) { return true; }, [] {});
  }
  return 0;
}

Status Aggregator::EvaluateArgs(const RecordBatch& batch,
                                BatchArgs* args) const {
  args->cols.assign(specs_.size(), nullptr);
  args->computed.reserve(specs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    if (specs_[s].arg == nullptr) continue;  // COUNT(*)
    FEISU_ASSIGN_OR_RETURN(ExprColumn col,
                           EvaluateTyped(*specs_[s].arg, batch, arg_types_[s],
                                         specs_[s].output_name));
    // `computed` never reallocates (reserved above), so pointers into it
    // stay valid.
    args->computed.push_back(std::move(col));
    args->cols[s] = &args->computed.back().get();
  }
  return Status::OK();
}

void Aggregator::Accumulate(const std::vector<const ColumnVector*>& args,
                            const std::vector<uint32_t>& gids) {
  const size_t n = gids.size();
  for (size_t s = 0; s < specs_.size(); ++s) {
    const size_t c = count_cols_[s];
    std::vector<int64_t>& counts = state_[c].storage<int64_t>();
    if (specs_[s].arg == nullptr) {  // COUNT(*)
      for (size_t i = 0; i < n; ++i) ++counts[gids[i]];
      continue;
    }
    // SQL semantics: NULL arguments don't aggregate (skip count/sum/minmax).
    const ColumnVector& arg = *args[s];
    ForEachValid(arg, n, [&](size_t i) { ++counts[gids[i]]; });
    if (NeedsSum(specs_[s].func)) {
      AddSums(arg, gids, state_[c + 1].storage<double>());
    }
    if (NeedsMinMax(specs_[s].func)) {
      FoldExtreme(arg, /*is_min=*/true, gids, &state_[c + 1]);
      FoldExtreme(arg, /*is_min=*/false, gids, &state_[c + 2]);
    }
  }
}

Status Aggregator::Consume(const RecordBatch& batch) {
  size_t n = batch.num_rows();
  if (n == 0) return Status::OK();
  // Evaluate group keys and aggregate arguments once per batch; column
  // references are read in place.
  std::vector<ExprColumn> key_cols;
  key_cols.reserve(group_by_.size());
  std::vector<const ColumnVector*> key_ptrs;
  key_ptrs.reserve(group_by_.size());
  for (size_t k = 0; k < group_by_.size(); ++k) {
    const Field& field = partial_schema_.field(k);
    FEISU_ASSIGN_OR_RETURN(
        ExprColumn col,
        EvaluateTyped(*group_by_[k], batch, field.type, field.name));
    key_cols.push_back(std::move(col));
    key_ptrs.push_back(&key_cols.back().get());
  }
  BatchArgs args;
  FEISU_RETURN_IF_ERROR(EvaluateArgs(batch, &args));
  if (NullFree(key_ptrs) && NullFree(args.cols)) {
    ++stats_.null_fast_path_batches;
  }

  std::vector<uint32_t> gids(n);
  if (key_ptrs.empty()) {
    // A key-less aggregate: every row belongs to the one global group,
    // found (or created) with a single probe.
    std::fill(gids.begin(), gids.end(), EnsureGlobalGroup());
  } else {
    // Vectorized grouping: typed key words + hashes, then one table probe
    // per row producing the row -> group mapping.
    KeyWords keys = MakeKeyWords(std::move(key_ptrs), n);
    for (size_t i = 0; i < n; ++i) gids[i] = FindOrInsert(keys, i);
  }
  Accumulate(args.cols, gids);
  return Status::OK();
}

Status Aggregator::ConsumeDictKeyed(const RecordBatch& batch,
                                    const DictColumnCodes& codes) {
  if (group_by_.size() != 1 ||
      partial_schema_.field(0).type != DataType::kString) {
    return Status::InvalidArgument(
        "ConsumeDictKeyed requires exactly one string group key");
  }
  size_t n = batch.num_rows();
  if (codes.codes.size() != n) {
    return Status::InvalidArgument("dict code count != batch rows");
  }
  if (n == 0) return Status::OK();
  BatchArgs args;
  FEISU_RETURN_IF_ERROR(EvaluateArgs(batch, &args));
  bool batch_null_free = NullFree(args.cols);

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
  Accumulate(args.cols, gids);
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
  for (size_t c : count_cols_) {
    state_[c].storage<int64_t>()[group] += static_cast<int64_t>(rows);
  }
  return Status::OK();
}

void Aggregator::MergePartialSpec(size_t s, const RecordBatch& batch,
                                  const std::vector<uint32_t>& gids) {
  // A partial batch has the state's layout: spec columns sit at the same
  // indices in both.
  const size_t c = count_cols_[s];
  const ColumnVector& counts_in = batch.column(c);
  const auto& v = counts_in.ints();
  std::vector<int64_t>& counts = state_[c].storage<int64_t>();
  ForEachValid(counts_in, gids.size(),
               [&](size_t i) { counts[gids[i]] += v[i]; });
  if (NeedsSum(specs_[s].func)) {
    AddSums(batch.column(c + 1), gids, state_[c + 1].storage<double>());
  }
  if (NeedsMinMax(specs_[s].func)) {
    FoldExtreme(batch.column(c + 1), /*is_min=*/true, gids, &state_[c + 1]);
    FoldExtreme(batch.column(c + 2), /*is_min=*/false, gids, &state_[c + 2]);
  }
}

Status Aggregator::ConsumePartial(const RecordBatch& batch) {
  // The typed kernels index state and input storage by the schema's
  // types, so every column must really hold its field's type.
  bool typed = batch.schema() == partial_schema_ &&
               batch.num_columns() == partial_schema_.num_fields();
  bool batch_null_free = true;
  for (size_t c = 0; typed && c < batch.num_columns(); ++c) {
    typed = batch.column(c).type() == partial_schema_.field(c).type;
    if (batch.column(c).NullCount() != 0) batch_null_free = false;
  }
  if (!typed) return Status::InvalidArgument("partial batch schema mismatch");
  size_t n = batch.num_rows();
  if (n == 0) return Status::OK();
  if (batch_null_free) ++stats_.null_fast_path_batches;

  std::vector<const ColumnVector*> key_ptrs;
  key_ptrs.reserve(group_by_.size());
  for (size_t k = 0; k < group_by_.size(); ++k) {
    key_ptrs.push_back(&batch.column(k));
  }
  KeyWords keys = MakeKeyWords(std::move(key_ptrs), n);
  std::vector<uint32_t> gids(n);
  for (size_t i = 0; i < n; ++i) gids[i] = FindOrInsert(keys, i);

  for (size_t s = 0; s < specs_.size(); ++s) MergePartialSpec(s, batch, gids);
  return Status::OK();
}

Result<RecordBatch> Aggregator::PartialResult() const {
  return RecordBatch(partial_schema_, state_);
}

Result<RecordBatch> Aggregator::FinalResult() const {
  const size_t num_keys = group_by_.size();
  // A global aggregation (no GROUP BY) over zero rows still yields one row.
  if (num_groups() == 0 && num_keys == 0) {
    RecordBatch out(final_schema_);
    std::vector<Value> row;
    for (size_t s = 0; s < specs_.size(); ++s) {
      row.push_back(specs_[s].func == AggFunc::kCount ? Value::Int64(0)
                                                      : Value::Null());
    }
    FEISU_RETURN_IF_ERROR(out.AppendRow(row));
    return out;
  }
  // Finalize in group-id order first.
  std::vector<ColumnVector> cols(state_.begin(), state_.begin() + num_keys);
  for (size_t s = 0; s < specs_.size(); ++s) {
    const size_t c = count_cols_[s];
    const std::vector<int64_t>& counts = state_[c].ints();
    const AggFunc func = specs_[s].func;
    if (func == AggFunc::kCount) {
      cols.push_back(state_[c]);
      continue;
    }
    if (NeedsMinMax(func)) {  // the #min or #max state column as is
      cols.push_back(state_[func == AggFunc::kMin ? c + 1 : c + 2]);
      continue;
    }
    const std::vector<double>& sums = state_[c + 1].doubles();
    ColumnVector& col = cols.emplace_back(FinalType(func, arg_types_[s]));
    col.Reserve(counts.size());
    for (size_t g = 0; g < counts.size(); ++g) {
      if (counts[g] == 0) {
        col.AppendNull();
      } else if (func == AggFunc::kAvg) {
        col.AppendDouble(sums[g] / static_cast<double>(counts[g]));
      } else if (arg_types_[s] == DataType::kDouble) {
        col.AppendDouble(sums[g]);
      } else {
        col.AppendInt64(static_cast<int64_t>(sums[g]));
      }
    }
  }
  // Then gather once into the canonical order: groups sorted by their
  // keys, each NULL first and then in Value::Compare order. Distinct keys
  // that Compare ties (int64 above 2^53, -0.0 and +0.0, NaN payloads)
  // order by their exact stored value, so the order is total.
  std::vector<SortKey> keys;
  keys.reserve(num_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    keys.emplace_back(ExprColumn{&state_[k], std::nullopt}, false);
  }
  std::vector<uint32_t> order(num_groups());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    int cmp = CompareRows(keys, a, b);
    for (size_t k = 0; cmp == 0 && k < num_keys; ++k) {
      cmp = CompareExact(state_[k], a, b);
    }
    return cmp < 0;
  });
  return RecordBatch(final_schema_, std::move(cols)).Take(order);
}

}  // namespace feisu
