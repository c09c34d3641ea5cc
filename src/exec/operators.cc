#include "exec/operators.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "exec/keys.h"
#include "expr/evaluator.h"

namespace feisu {

namespace {

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
                     return CompareRows(keys, a, b) < 0;
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
    int cmp = CompareRows(keys, a, b);
    return cmp != 0 ? cmp < 0 : a < b;
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

/// Equi-join key columns for one side of a hash join, over the shared key
/// kernel's words and hashes. In key equality the column type participates
/// (an int64 key never matches a double key, even at the same numeric
/// value), doubles compare bitwise, strings by content, and a NULL in any
/// key column disqualifies the row.
class JoinKeys {
 public:
  explicit JoinKeys(std::vector<ExprColumn> cols) : cols_(std::move(cols)) {
    const size_t n = cols_.empty() ? 0 : cols_[0].get().size();
    std::vector<const ColumnVector*> ptrs;
    for (const ExprColumn& col : cols_) ptrs.push_back(&col.get());
    keys_ = MakeKeyWords(std::move(ptrs), n);
    has_null_.assign(n, 0);
    for (const ExprColumn& key : cols_) {
      const ColumnVector& col = key.get();
      if (col.NullCount() == 0) continue;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) has_null_[i] = 1;
      }
    }
    interned_.assign(cols_.size(), 0);
  }

  bool HasNull(size_t row) const { return has_null_[row] != 0; }
  uint64_t Hash(size_t row) const { return keys_.hashes[row]; }

  /// Dictionary-style interning of string key columns shared by both
  /// sides: every distinct build-side string gets a code (the build row of
  /// its first occurrence), assigned with one content comparison per
  /// distinct value; probe-side strings resolve to the matching code or a
  /// never-matching sentinel. RowsEqual then compares codes and skips the
  /// per-candidate byte comparison entirely — the same code-domain trick
  /// the dict predicate kernels use. Bucket hashes are computed before the
  /// rewrite and left untouched.
  static void InternStringColumns(JoinKeys* build, JoinKeys* probe) {
    constexpr uint64_t kMiss = ~0ULL;
    const size_t build_rows = build->has_null_.size();
    for (size_t c = 0; c < build->cols_.size(); ++c) {
      if (build->col(c).type() != DataType::kString ||
          probe->col(c).type() != DataType::kString) {
        continue;
      }
      size_t cap = 16;
      while (cap < build_rows * 2) cap <<= 1;
      std::vector<uint32_t> slot_row(cap, UINT32_MAX);
      const ColumnVector& bcol = build->col(c);
      const std::vector<uint64_t>& bw = build->keys_.words[c];
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
      std::vector<uint64_t> new_bw(build_rows);
      for (size_t i = 0; i < build_rows; ++i) {
        new_bw[i] =
            intern(bw[i], bcol.GetString(i), true, static_cast<uint32_t>(i));
      }
      const ColumnVector& pcol = probe->col(c);
      std::vector<uint64_t>& pw = probe->keys_.words[c];
      for (size_t i = 0; i < pw.size(); ++i) {
        pw[i] = intern(pw[i], pcol.GetString(i), false, 0);
      }
      build->keys_.words[c] = std::move(new_bw);
      build->interned_[c] = 1;
      probe->interned_[c] = 1;
    }
  }

  /// Key equality of row `ar` of `a` and row `br` of `b`. The hash is only
  /// a bucket address; candidates verify here (strings by actual content —
  /// their word is just a content hash).
  static bool RowsEqual(const JoinKeys& a, size_t ar, const JoinKeys& b,
                        size_t br) {
    for (size_t c = 0; c < a.cols_.size(); ++c) {
      const ColumnVector& ac = a.col(c);
      const ColumnVector& bc = b.col(c);
      if (ac.type() != bc.type()) return false;
      if (a.keys_.words[c][ar] != b.keys_.words[c][br]) return false;
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
  KeyWords keys_;
  std::vector<uint8_t> has_null_;
  std::vector<uint8_t> interned_;  ///< per column: words are dict codes
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

  // Rows travel as row-id pairs (-1 = outer-join NULL padding) and
  // materialize with a typed gather instead of boxing cells into Values.
  auto gather = [&](const std::vector<int64_t>& left_rows,
                    const std::vector<int64_t>& right_rows) {
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

  // Candidate pairs, left rows in order and each left row's candidates in
  // right row order: every right row without equi keys (a nested loop),
  // else the build rows whose keys equal the left row's.
  std::vector<int64_t> cand_left;
  std::vector<int64_t> cand_right;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    auto add = [&](size_t r) {
      cand_left.push_back(static_cast<int64_t>(l));
      cand_right.push_back(static_cast<int64_t>(r));
    };
    if (keys.empty()) {
      for (size_t r = 0; r < right.num_rows(); ++r) add(r);
      continue;
    }
    if (left_keys.HasNull(l)) continue;
    auto it = build.find(left_keys.Hash(l));
    if (it == build.end()) continue;
    for (uint32_t r : it->second) {
      if (JoinKeys::RowsEqual(left_keys, l, right_keys, r)) add(r);
    }
  }

  // Each residual conjunct is evaluated once, over all candidates.
  BitVector keep(cand_left.size(), true);
  if (!residual.empty() && !cand_left.empty()) {
    RecordBatch pairs = gather(cand_left, cand_right);
    for (const ExprPtr& r : residual) {
      FEISU_ASSIGN_OR_RETURN(BitVector bits, EvaluatePredicate(*r, pairs));
      keep.And(bits);
    }
  }

  // Surviving pairs in candidate order; a left row without one is padded
  // in place for LEFT OUTER, unmatched right rows at the end for RIGHT
  // OUTER.
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  std::vector<bool> right_matched(right.num_rows(), false);
  size_t next = 0;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    bool matched = false;
    for (; next < cand_left.size() &&
           cand_left[next] == static_cast<int64_t>(l);
         ++next) {
      if (!keep.Get(next)) continue;
      matched = true;
      right_matched[cand_right[next]] = true;
      left_rows.push_back(cand_left[next]);
      right_rows.push_back(cand_right[next]);
    }
    if (!matched && options.type == JoinType::kLeftOuter) {
      left_rows.push_back(static_cast<int64_t>(l));
      right_rows.push_back(-1);
    }
  }
  if (options.type == JoinType::kRightOuter) {
    for (size_t r = 0; r < right.num_rows(); ++r) {
      if (right_matched[r]) continue;
      left_rows.push_back(-1);
      right_rows.push_back(static_cast<int64_t>(r));
    }
  }
  return gather(left_rows, right_rows);
}

}  // namespace feisu
