#include "exec/operators.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <type_traits>
#include <unordered_map>

#include "common/hash.h"
#include "expr/evaluator.h"

namespace feisu {

namespace {

/// Precomputed, type-specialized key for one ORDER BY expression. Ordering
/// matches Value::Compare exactly — NULLs sort before everything, numeric
/// columns (bool/int64/double) convert to double and compare through
/// CompareNumbers (a strict weak order: NaN sorts last), strings
/// lexicographically — without constructing a Value per comparison.
class SortKey {
 public:
  explicit SortKey(ExprColumn key) : key_(std::move(key)) {
    const ColumnVector& col = key_.get();
    if (col.type() == DataType::kString) return;
    // NULL slots hold 0, so they convert to 0.0 like before; Compare
    // checks validity first anyway.
    nums_.resize(col.size());
    VisitStorageType(col.type(), [&]<typename T>(std::type_identity<T>) {
      if constexpr (std::is_same_v<T, uint8_t>) {
        const std::vector<T>& v = col.storage<T>();
        for (size_t i = 0; i < v.size(); ++i) nums_[i] = v[i] != 0 ? 1.0 : 0.0;
      } else if constexpr (!std::is_same_v<T, std::string>) {
        const std::vector<T>& v = col.storage<T>();
        for (size_t i = 0; i < v.size(); ++i) {
          nums_[i] = static_cast<double>(v[i]);
        }
      }
    });
  }

  int Compare(uint32_t a, uint32_t b) const {
    const ColumnVector& col = key_.get();
    bool a_null = col.IsNull(a);
    bool b_null = col.IsNull(b);
    if (a_null || b_null) {
      if (a_null && b_null) return 0;
      return a_null ? -1 : 1;
    }
    if (col.type() == DataType::kString) {
      int cmp = col.GetString(a).compare(col.GetString(b));
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    return CompareNumbers(nums_[a], nums_[b]);
  }

 private:
  ExprColumn key_;  ///< borrowed from the input batch for a column ref
  std::vector<double> nums_;  ///< unused for string columns
};

Result<std::vector<SortKey>> MakeSortKeys(
    const RecordBatch& input, const std::vector<OrderByItem>& order_by) {
  std::vector<SortKey> keys;
  keys.reserve(order_by.size());
  for (const auto& item : order_by) {
    FEISU_ASSIGN_OR_RETURN(ExprColumn col, EvaluateColumn(*item.expr, input));
    keys.emplace_back(std::move(col));
  }
  return keys;
}

/// Index in `batch` of one of its columns.
size_t ColumnIndex(const RecordBatch& batch, const ColumnVector* col) {
  return static_cast<size_t>(col - &batch.column(0));
}

/// Counts the references every expression of `expr` makes to each column
/// of `batch` (by column index; unknown names are left to evaluation).
void CountColumnRefs(const Expr& expr, const RecordBatch& batch,
                     std::vector<int>* uses) {
  if (expr.kind() == ExprKind::kColumnRef) {
    const ColumnVector* col = LookupColumn(expr, batch);
    if (col != nullptr) ++(*uses)[ColumnIndex(batch, col)];
    return;
  }
  for (const ExprPtr& child : expr.children()) {
    if (child != nullptr) CountColumnRefs(*child, batch, uses);
  }
}

/// ProjectBatch over `input`; when `consumable` is non-null (it is
/// `&input`), a bare column reference that no other item reads is moved
/// out of it instead of copied.
Result<RecordBatch> Project(const RecordBatch& input,
                            const std::vector<SelectItem>& items,
                            RecordBatch* consumable) {
  std::vector<int> uses(input.num_columns(), 0);
  if (consumable != nullptr) {
    for (const auto& item : items) CountColumnRefs(*item.expr, input, &uses);
  }
  auto movable = [&](const SelectItem& item) -> const ColumnVector* {
    if (consumable == nullptr || item.expr->kind() != ExprKind::kColumnRef) {
      return nullptr;
    }
    const ColumnVector* col = LookupColumn(*item.expr, input);
    if (col == nullptr || uses[ColumnIndex(input, col)] != 1) return nullptr;
    return col;
  };
  // Every other item is evaluated before any column moves out, so no
  // expression reads a moved-out column.
  std::vector<Field> fields;
  fields.reserve(items.size());
  std::vector<ColumnVector> columns(items.size(),
                                    ColumnVector(DataType::kInt64));
  for (size_t i = 0; i < items.size(); ++i) {
    if (movable(items[i]) != nullptr) continue;
    FEISU_ASSIGN_OR_RETURN(columns[i], EvaluateExpr(*items[i].expr, input));
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (const ColumnVector* col = movable(items[i])) {
      columns[i] =
          std::move(*consumable->mutable_column(ColumnIndex(input, col)));
    }
    fields.push_back({items[i].OutputName(), columns[i].type(), true});
  }
  return RecordBatch(Schema(std::move(fields)), std::move(columns));
}

}  // namespace

Result<RecordBatch> FilterBatch(const RecordBatch& input,
                                const ExprPtr& predicate) {
  if (predicate == nullptr) return input;
  FEISU_ASSIGN_OR_RETURN(BitVector selection,
                         EvaluatePredicate(*predicate, input));
  return input.Filter(selection);
}

Result<RecordBatch> ProjectBatch(const RecordBatch& input,
                                 const std::vector<SelectItem>& items) {
  return Project(input, items, nullptr);
}

Result<RecordBatch> ProjectBatch(RecordBatch&& input,
                                 const std::vector<SelectItem>& items) {
  return Project(input, items, &input);
}

Result<RecordBatch> SortBatch(const RecordBatch& input,
                              const std::vector<OrderByItem>& order_by) {
  if (order_by.empty()) return input;
  FEISU_ASSIGN_OR_RETURN(std::vector<SortKey> keys,
                         MakeSortKeys(input, order_by));
  std::vector<uint32_t> indices(input.num_rows());
  std::iota(indices.begin(), indices.end(), 0);
  std::stable_sort(indices.begin(), indices.end(),
                   [&](uint32_t a, uint32_t b) {
                     for (size_t k = 0; k < keys.size(); ++k) {
                       int cmp = keys[k].Compare(a, b);
                       if (cmp == 0) continue;
                       return order_by[k].descending ? cmp > 0 : cmp < 0;
                     }
                     return false;
                   });
  return input.Take(indices);
}

RecordBatch LimitBatch(const RecordBatch& input, int64_t limit) {
  if (limit < 0 || static_cast<uint64_t>(limit) >= input.num_rows()) {
    return input;
  }
  std::vector<uint32_t> indices(static_cast<size_t>(limit));
  std::iota(indices.begin(), indices.end(), 0);
  return input.Take(indices);
}

Result<RecordBatch> TopNBatch(const RecordBatch& input,
                              const std::vector<OrderByItem>& order_by,
                              int64_t limit) {
  if (limit < 0 || order_by.empty()) {
    FEISU_ASSIGN_OR_RETURN(RecordBatch sorted, SortBatch(input, order_by));
    return LimitBatch(sorted, limit);
  }
  if (limit == 0) return input.Filter(BitVector(input.num_rows(), false));
  FEISU_ASSIGN_OR_RETURN(std::vector<SortKey> keys,
                         MakeSortKeys(input, order_by));
  // less(a, b): a orders strictly before b; ties break on input position
  // for stability.
  auto less = [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      int cmp = keys[k].Compare(a, b);
      if (cmp == 0) continue;
      return order_by[k].descending ? cmp > 0 : cmp < 0;
    }
    return a < b;
  };
  // Max-heap of the current best `limit` rows (heap top = worst kept row).
  std::vector<uint32_t> heap;
  heap.reserve(static_cast<size_t>(limit));
  for (uint32_t row = 0; row < input.num_rows(); ++row) {
    if (heap.size() < static_cast<size_t>(limit)) {
      heap.push_back(row);
      std::push_heap(heap.begin(), heap.end(), less);
    } else if (less(row, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), less);
      heap.back() = row;
      std::push_heap(heap.begin(), heap.end(), less);
    }
  }
  std::sort(heap.begin(), heap.end(), less);
  return input.Take(heap);
}

namespace {

/// Splits a condition into conjuncts.
void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == ExprKind::kLogical &&
      expr->logical_op() == LogicalOp::kAnd) {
    SplitConjuncts(expr->child(0), out);
    SplitConjuncts(expr->child(1), out);
    return;
  }
  out->push_back(expr);
}

/// Builds the join output schema, qualifying collided names with prefixes,
/// and returns per-side output field names.
Schema JoinOutputSchema(const RecordBatch& left, const RecordBatch& right,
                        const std::string& left_prefix,
                        const std::string& right_prefix,
                        std::vector<std::string>* left_names,
                        std::vector<std::string>* right_names) {
  std::vector<Field> fields;
  auto collides = [&](const std::string& name, const Schema& other) {
    return other.HasField(name);
  };
  for (const auto& f : left.schema().fields()) {
    Field out = f;
    if (collides(f.name, right.schema()) && !left_prefix.empty()) {
      out.name = left_prefix + "." + f.name;
    }
    out.nullable = true;
    left_names->push_back(out.name);
    fields.push_back(out);
  }
  for (const auto& f : right.schema().fields()) {
    Field out = f;
    if (collides(f.name, left.schema()) && !right_prefix.empty()) {
      out.name = right_prefix + "." + f.name;
    }
    out.nullable = true;
    right_names->push_back(out.name);
    fields.push_back(out);
  }
  return Schema(std::move(fields));
}

struct EquiKey {
  ExprPtr left_expr;   // evaluated against the left batch
  ExprPtr right_expr;  // evaluated against the right batch
};

/// Classifies condition conjuncts into equi-join keys and residuals.
void ClassifyConjuncts(const std::vector<ExprPtr>& conjuncts,
                       const RecordBatch& left, const RecordBatch& right,
                       std::vector<EquiKey>* keys,
                       std::vector<ExprPtr>* residual) {
  for (const auto& c : conjuncts) {
    if (c->kind() == ExprKind::kComparison &&
        c->compare_op() == CompareOp::kEq &&
        c->child(0)->kind() == ExprKind::kColumnRef &&
        c->child(1)->kind() == ExprKind::kColumnRef) {
      const ExprPtr& a = c->child(0);
      const ExprPtr& b = c->child(1);
      bool a_left = LookupColumn(*a, left) != nullptr;
      bool a_right = LookupColumn(*a, right) != nullptr;
      bool b_left = LookupColumn(*b, left) != nullptr;
      bool b_right = LookupColumn(*b, right) != nullptr;
      // Qualified refs bind unambiguously; prefer (left, right) pairing.
      if (a_left && b_right && !(a_right && b_left)) {
        keys->push_back({a, b});
        continue;
      }
      if (a_right && b_left && !(a_left && b_right)) {
        keys->push_back({b, a});
        continue;
      }
      if (a_left && b_right) {  // ambiguous both ways: pick (a,b)
        keys->push_back({a, b});
        continue;
      }
    }
    residual->push_back(c);
  }
}

/// Type-specialized equi-join key columns for one side of a hash join.
/// Each cell collapses to one 64-bit word (type switch hoisted out of the
/// row loop); equality keeps the old serialized-Value byte-key semantics:
/// the column type participates (an int64 key never matches a double key,
/// even at the same numeric value), doubles compare bitwise, strings by
/// content, and a NULL in any key column disqualifies the row.
class JoinKeys {
 public:
  explicit JoinKeys(std::vector<ExprColumn> cols) : cols_(std::move(cols)) {
    num_rows_ = cols_.empty() ? 0 : col(0).size();
    words_.resize(cols_.size());
    interned_.assign(cols_.size(), 0);
    for (size_t c = 0; c < cols_.size(); ++c) {
      const ColumnVector& key = col(c);
      std::vector<uint64_t>& w = words_[c];
      w.reserve(num_rows_);
      switch (key.type()) {
        case DataType::kBool:
          for (size_t i = 0; i < num_rows_; ++i) {
            w.push_back(key.GetBool(i) ? 1 : 0);
          }
          break;
        case DataType::kInt64:
          for (size_t i = 0; i < num_rows_; ++i) {
            w.push_back(static_cast<uint64_t>(key.GetInt64(i)));
          }
          break;
        case DataType::kDouble:
          for (size_t i = 0; i < num_rows_; ++i) {
            w.push_back(std::bit_cast<uint64_t>(key.GetDouble(i)));
          }
          break;
        case DataType::kString:
          for (size_t i = 0; i < num_rows_; ++i) {
            w.push_back(HashString(key.GetString(i)));
          }
          break;
      }
    }
    hashes_.reserve(num_rows_);
    has_null_.reserve(num_rows_);
    for (size_t i = 0; i < num_rows_; ++i) {
      bool has_null = false;
      uint64_t h = 0x9E3779B97F4A7C15ULL;
      for (size_t c = 0; c < cols_.size(); ++c) {
        if (col(c).IsNull(i)) {
          has_null = true;
          break;
        }
        h = HashCombine(h, static_cast<uint64_t>(col(c).type()));
        h = HashCombine(h, words_[c][i]);
      }
      has_null_.push_back(has_null ? 1 : 0);
      hashes_.push_back(has_null ? 0 : h);
    }
  }

  bool HasNull(size_t row) const { return has_null_[row] != 0; }
  uint64_t Hash(size_t row) const { return hashes_[row]; }

  /// Dictionary-style interning of string key columns shared by both
  /// sides: every distinct build-side string gets a code (the build row of
  /// its first occurrence), assigned with one content comparison per
  /// distinct value; probe-side strings resolve to the matching code or a
  /// never-matching sentinel. RowsEqual then compares codes and skips the
  /// per-candidate byte comparison entirely — the same code-domain trick
  /// the dict predicate kernels use. Bucket hashes are computed before the
  /// rewrite and left untouched, so candidate visit order — and therefore
  /// output row order — is byte-identical to the uninterned path.
  static void InternStringColumns(JoinKeys* build, JoinKeys* probe) {
    constexpr uint64_t kMiss = ~0ULL;
    for (size_t c = 0; c < build->cols_.size(); ++c) {
      if (build->col(c).type() != DataType::kString ||
          probe->col(c).type() != DataType::kString) {
        continue;
      }
      size_t cap = 16;
      while (cap < build->num_rows_ * 2) cap <<= 1;
      std::vector<uint32_t> slot_row(cap, UINT32_MAX);
      const ColumnVector& bcol = build->col(c);
      const std::vector<uint64_t>& bw = build->words_[c];
      // Linear probe over the precomputed content-hash words; `insert`
      // claims the first empty slot for the build row, lookups return the
      // owning row's code (its row id) or kMiss.
      auto intern = [&](uint64_t word, const std::string& s, bool insert,
                        uint32_t row) -> uint64_t {
        size_t idx = word & (cap - 1);
        while (true) {
          uint32_t owner = slot_row[idx];
          if (owner == UINT32_MAX) {
            if (!insert) return kMiss;
            slot_row[idx] = row;
            return row;
          }
          if (bw[owner] == word && bcol.GetString(owner) == s) return owner;
          idx = (idx + 1) & (cap - 1);
        }
      };
      std::vector<uint64_t> new_bw(build->num_rows_);
      for (size_t i = 0; i < build->num_rows_; ++i) {
        new_bw[i] =
            intern(bw[i], bcol.GetString(i), true, static_cast<uint32_t>(i));
      }
      const ColumnVector& pcol = probe->col(c);
      std::vector<uint64_t>& pw = probe->words_[c];
      for (size_t i = 0; i < probe->num_rows_; ++i) {
        pw[i] = intern(pw[i], pcol.GetString(i), false, 0);
      }
      build->words_[c] = std::move(new_bw);
      build->interned_[c] = 1;
      probe->interned_[c] = 1;
    }
  }

  /// True iff the old byte keys would have been equal. The hash is only a
  /// bucket address; candidates verify here (strings by actual content —
  /// their word is just a content hash).
  static bool RowsEqual(const JoinKeys& a, size_t ar, const JoinKeys& b,
                        size_t br) {
    for (size_t c = 0; c < a.cols_.size(); ++c) {
      const ColumnVector& ac = a.col(c);
      const ColumnVector& bc = b.col(c);
      if (ac.type() != bc.type()) return false;
      if (a.words_[c][ar] != b.words_[c][br]) return false;
      // Interned string cells carry a code as their word: equal codes mean
      // equal content, no byte comparison needed.
      if (ac.type() == DataType::kString &&
          !(a.interned_[c] != 0 && b.interned_[c] != 0) &&
          ac.GetString(ar) != bc.GetString(br)) {
        return false;
      }
    }
    return true;
  }

 private:
  const ColumnVector& col(size_t c) const { return cols_[c].get(); }

  std::vector<ExprColumn> cols_;  ///< borrowed for column-ref keys
  std::vector<std::vector<uint64_t>> words_;  ///< one word per cell
  std::vector<uint64_t> hashes_;              ///< 0 for NULL-key rows
  std::vector<uint8_t> has_null_;
  std::vector<uint8_t> interned_;  ///< per column: words are dict codes
  size_t num_rows_ = 0;
};

}  // namespace

Result<RecordBatch> HashJoinBatches(const RecordBatch& left,
                                    const RecordBatch& right,
                                    const HashJoinOptions& options) {
  std::vector<std::string> left_names;
  std::vector<std::string> right_names;
  Schema out_schema =
      JoinOutputSchema(left, right, options.left_prefix, options.right_prefix,
                       &left_names, &right_names);

  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(options.condition, &conjuncts);
  std::vector<EquiKey> keys;
  std::vector<ExprPtr> residual;
  ClassifyConjuncts(conjuncts, left, right, &keys, &residual);

  // Evaluate key expressions and collapse them into typed per-row words.
  std::vector<ExprColumn> left_key_cols;
  std::vector<ExprColumn> right_key_cols;
  for (const auto& key : keys) {
    FEISU_ASSIGN_OR_RETURN(ExprColumn lcol,
                           EvaluateColumn(*key.left_expr, left));
    FEISU_ASSIGN_OR_RETURN(ExprColumn rcol,
                           EvaluateColumn(*key.right_expr, right));
    left_key_cols.push_back(std::move(lcol));
    right_key_cols.push_back(std::move(rcol));
  }
  JoinKeys left_keys(std::move(left_key_cols));
  JoinKeys right_keys(std::move(right_key_cols));
  if (!keys.empty()) {
    // Right is the build side, left probes it.
    JoinKeys::InternStringColumns(&right_keys, &left_keys);
  }

  // Build side: right, bucketed by key hash (candidates verify with
  // RowsEqual at probe time).
  std::unordered_map<uint64_t, std::vector<uint32_t>> build;
  if (!keys.empty()) {
    build.reserve(right.num_rows());
    for (size_t row = 0; row < right.num_rows(); ++row) {
      if (right_keys.HasNull(row)) continue;  // NULL keys never match
      build[right_keys.Hash(row)].push_back(static_cast<uint32_t>(row));
    }
  }

  // Matches accumulate as row-id pairs (-1 = outer-join NULL padding);
  // output columns materialize once at the end with a typed gather instead
  // of boxing every cell through AppendRow.
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  auto emit = [&](int64_t lrow, int64_t rrow) {
    left_rows.push_back(lrow);
    right_rows.push_back(rrow);
  };
  auto materialize = [&]() -> RecordBatch {
    std::vector<ColumnVector> out_cols;
    out_cols.reserve(left.num_columns() + right.num_columns());
    for (size_t c = 0; c < left.num_columns(); ++c) {
      out_cols.push_back(left.column(c).GatherOrNull(left_rows));
    }
    for (size_t c = 0; c < right.num_columns(); ++c) {
      out_cols.push_back(right.column(c).GatherOrNull(right_rows));
    }
    return RecordBatch(out_schema, std::move(out_cols));
  };

  // Residual evaluation happens on a single combined row; build a one-row
  // batch lazily only when residuals exist.
  auto residual_ok = [&](size_t lrow, size_t rrow) -> Result<bool> {
    if (residual.empty()) return true;
    RecordBatch pair(out_schema);
    std::vector<Value> row;
    for (size_t c = 0; c < left.num_columns(); ++c) {
      // Builds one single-row batch for residual evaluation, not a
      // per-row input scan. feisu-lint: allow(per-row-getvalue)
      row.push_back(left.column(c).GetValue(lrow));
    }
    for (size_t c = 0; c < right.num_columns(); ++c) {
      // feisu-lint: allow(per-row-getvalue): single-row residual batch.
      row.push_back(right.column(c).GetValue(rrow));
    }
    FEISU_RETURN_IF_ERROR(pair.AppendRow(row));
    for (const auto& r : residual) {
      FEISU_ASSIGN_OR_RETURN(BitVector bits, EvaluatePredicate(*r, pair));
      if (!bits.Get(0)) return false;
    }
    return true;
  };

  std::vector<bool> right_matched(right.num_rows(), false);

  if (options.type == JoinType::kCross ||
      (keys.empty() && options.type == JoinType::kInner)) {
    for (size_t l = 0; l < left.num_rows(); ++l) {
      for (size_t r = 0; r < right.num_rows(); ++r) {
        FEISU_ASSIGN_OR_RETURN(bool ok, residual_ok(l, r));
        if (ok) emit(static_cast<int64_t>(l), static_cast<int64_t>(r));
      }
    }
    return materialize();
  }

  for (size_t l = 0; l < left.num_rows(); ++l) {
    bool matched = false;
    if (!keys.empty()) {
      if (!left_keys.HasNull(l)) {
        auto it = build.find(left_keys.Hash(l));
        if (it != build.end()) {
          for (uint32_t r : it->second) {
            if (!JoinKeys::RowsEqual(left_keys, l, right_keys, r)) continue;
            FEISU_ASSIGN_OR_RETURN(bool ok, residual_ok(l, r));
            if (!ok) continue;
            matched = true;
            right_matched[r] = true;
            emit(static_cast<int64_t>(l), r);
          }
        }
      }
    } else {
      // No equi keys (e.g. pure range condition): nested loop.
      for (size_t r = 0; r < right.num_rows(); ++r) {
        FEISU_ASSIGN_OR_RETURN(bool ok, residual_ok(l, r));
        if (!ok) continue;
        matched = true;
        right_matched[r] = true;
        emit(static_cast<int64_t>(l), static_cast<int64_t>(r));
      }
    }
    if (!matched && options.type == JoinType::kLeftOuter) {
      emit(static_cast<int64_t>(l), -1);
    }
  }
  if (options.type == JoinType::kRightOuter) {
    for (size_t r = 0; r < right.num_rows(); ++r) {
      if (!right_matched[r]) {
        emit(-1, static_cast<int64_t>(r));
      }
    }
  }
  return materialize();
}

}  // namespace feisu
