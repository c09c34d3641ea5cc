#include "tests/reference_executor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "columnar/block.h"

namespace feisu {

namespace {

using Row = std::vector<Value>;

/// Column naming environment: one (qualified, plain) name pair per slot.
struct Env {
  std::vector<std::pair<std::string, std::string>> names;

  int Find(const Expr& ref) const {
    if (!ref.table().empty()) {
      std::string qualified = ref.table() + "." + ref.column();
      for (size_t i = 0; i < names.size(); ++i) {
        if (names[i].first == qualified) return static_cast<int>(i);
      }
      return -1;
    }
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i].second == ref.column()) return static_cast<int>(i);
    }
    return -1;
  }
};

/// 3VL boolean: Value::Bool or NULL.
Value TriNot(const Value& v) {
  if (v.is_null()) return Value::Null();
  return Value::Bool(!v.bool_value());
}

Value TriAnd(const Value& a, const Value& b) {
  if (!a.is_null() && !a.bool_value()) return Value::Bool(false);
  if (!b.is_null() && !b.bool_value()) return Value::Bool(false);
  if (a.is_null() || b.is_null()) return Value::Null();
  return Value::Bool(true);
}

Value TriOr(const Value& a, const Value& b) {
  if (!a.is_null() && a.bool_value()) return Value::Bool(true);
  if (!b.is_null() && b.bool_value()) return Value::Bool(true);
  if (a.is_null() || b.is_null()) return Value::Null();
  return Value::Bool(false);
}

Result<Value> Compare(CompareOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (op == CompareOp::kContains) {
    if (a.type() != DataType::kString || b.type() != DataType::kString) {
      return Value::Bool(false);
    }
    return Value::Bool(a.string_value().find(b.string_value()) !=
                       std::string::npos);
  }
  return Value::Bool(CompareOpHolds(op, a.Compare(b)));
}

Result<Value> Arith(ArithOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::InvalidArgument("arithmetic on non-numeric");
  }
  double x = a.AsDouble();
  double y = b.AsDouble();
  bool both_int =
      a.type() == DataType::kInt64 && b.type() == DataType::kInt64;
  switch (op) {
    case ArithOp::kAdd:
      return both_int ? Value::Int64(a.int64_value() + b.int64_value())
                      : Value::Double(x + y);
    case ArithOp::kSub:
      return both_int ? Value::Int64(a.int64_value() - b.int64_value())
                      : Value::Double(x - y);
    case ArithOp::kMul:
      return both_int ? Value::Int64(a.int64_value() * b.int64_value())
                      : Value::Double(x * y);
    case ArithOp::kDiv:
      if (y == 0) return Value::Null();
      return Value::Double(x / y);
    case ArithOp::kMod: {
      int64_t d = static_cast<int64_t>(y);
      if (d == 0) return Value::Null();
      return Value::Int64(static_cast<int64_t>(x) % d);
    }
  }
  return Status::Internal("unreachable");
}

/// Generic recursive evaluator. `leaf` resolves column references and
/// (optionally) whole subtrees — the group-context evaluator uses the
/// latter for GROUP BY expressions and aggregates.
using LeafResolver = std::function<Result<Value>(const Expr&, bool* done)>;

Result<Value> Eval(const Expr& expr, const LeafResolver& leaf) {
  bool done = false;
  FEISU_ASSIGN_OR_RETURN(Value resolved, leaf(expr, &done));
  if (done) return resolved;
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return expr.value();
    case ExprKind::kComparison: {
      FEISU_ASSIGN_OR_RETURN(Value a, Eval(*expr.child(0), leaf));
      FEISU_ASSIGN_OR_RETURN(Value b, Eval(*expr.child(1), leaf));
      return Compare(expr.compare_op(), a, b);
    }
    case ExprKind::kLogical: {
      if (expr.logical_op() == LogicalOp::kNot) {
        FEISU_ASSIGN_OR_RETURN(Value v, Eval(*expr.child(0), leaf));
        return TriNot(v);
      }
      FEISU_ASSIGN_OR_RETURN(Value a, Eval(*expr.child(0), leaf));
      FEISU_ASSIGN_OR_RETURN(Value b, Eval(*expr.child(1), leaf));
      return expr.logical_op() == LogicalOp::kAnd ? TriAnd(a, b)
                                                  : TriOr(a, b);
    }
    case ExprKind::kArithmetic: {
      FEISU_ASSIGN_OR_RETURN(Value a, Eval(*expr.child(0), leaf));
      FEISU_ASSIGN_OR_RETURN(Value b, Eval(*expr.child(1), leaf));
      return Arith(expr.arith_op(), a, b);
    }
    default:
      return Status::NotImplemented("reference: cannot evaluate " +
                                    expr.ToString());
  }
}

/// Plain row-context evaluation (no aggregates).
Result<Value> EvalRow(const Expr& expr, const Env& env, const Row& row) {
  return Eval(expr, [&](const Expr& e, bool* done) -> Result<Value> {
    if (e.kind() == ExprKind::kColumnRef) {
      int idx = env.Find(e);
      if (idx < 0) {
        return Status::NotFound("reference: column " + e.QualifiedName());
      }
      *done = true;
      return row[static_cast<size_t>(idx)];
    }
    if (e.kind() == ExprKind::kAggregate) {
      return Status::InvalidArgument("aggregate outside GROUP context");
    }
    return Value::Null();  // not a leaf; recurse
  });
}

bool IsTrue(const Value& v) {
  return !v.is_null() && v.type() == DataType::kBool && v.bool_value();
}

/// Aggregate computation over a set of rows.
Result<Value> EvalAggregate(const Expr& agg, const Env& env,
                            const std::vector<const Row*>& rows) {
  int64_t count = 0;
  double sum = 0;
  Value min;
  Value max;
  bool star = agg.children().empty();
  for (const Row* row : rows) {
    Value v;
    if (star) {
      v = Value::Int64(1);
    } else {
      FEISU_ASSIGN_OR_RETURN(v, EvalRow(*agg.child(0), env, *row));
      if (v.is_null()) continue;
    }
    ++count;
    if (v.is_numeric()) sum += v.AsDouble();
    if (min.is_null() || v.Compare(min) < 0) min = v;
    if (max.is_null() || v.Compare(max) > 0) max = v;
  }
  switch (agg.agg_func()) {
    case AggFunc::kCount:
      return Value::Int64(count);
    case AggFunc::kSum:
      if (count == 0) return Value::Null();
      if (!min.is_null() && min.type() == DataType::kInt64) {
        return Value::Int64(static_cast<int64_t>(sum));
      }
      return Value::Double(sum);
    case AggFunc::kAvg:
      return count == 0 ? Value::Null()
                        : Value::Double(sum / static_cast<double>(count));
    case AggFunc::kMin:
      return min;
    case AggFunc::kMax:
      return max;
  }
  return Status::Internal("unreachable");
}

/// Group-context evaluation: group-key expressions resolve to the group's
/// key value; aggregates compute over the group's rows.
Result<Value> EvalGroup(const Expr& expr, const Env& env,
                        const std::vector<ExprPtr>& group_by,
                        const Row& group_key,
                        const std::vector<const Row*>& rows) {
  return Eval(expr, [&](const Expr& e, bool* done) -> Result<Value> {
    for (size_t g = 0; g < group_by.size(); ++g) {
      if (e.Equals(*group_by[g])) {
        *done = true;
        return group_key[g];
      }
    }
    if (e.kind() == ExprKind::kAggregate) {
      *done = true;
      return EvalAggregate(e, env, rows);
    }
    if (e.kind() == ExprKind::kColumnRef) {
      return Status::InvalidArgument("reference: column " +
                                     e.QualifiedName() +
                                     " not grouped or aggregated");
    }
    return Value::Null();
  });
}

bool HasAggregate(const ExprPtr& e) {
  return e != nullptr && e->ContainsAggregate();
}

std::string KeyOf(const Row& row) {
  std::string out;
  for (const Value& v : row) SerializeValue(&out, v);
  return out;
}

RecordBatch RowsToBatch(const std::vector<std::string>& names,
                        const std::vector<Row>& rows) {
  std::vector<Field> fields;
  for (size_t c = 0; c < names.size(); ++c) {
    DataType type = DataType::kInt64;
    for (const Row& row : rows) {
      if (!row[c].is_null()) {
        type = row[c].type();
        break;
      }
    }
    fields.push_back({names[c], type, true});
  }
  RecordBatch batch((Schema(std::move(fields))));
  for (const Row& row : rows) {
    Status status = batch.AppendRow(row);
    (void)status;
  }
  return batch;
}

}  // namespace

Result<RecordBatch> ReferenceExecutor::Execute(
    const SelectStatement& stmt) const {
  // --- FROM / JOIN: materialize the working row set. ---
  Env env;
  std::vector<Row> rows;
  bool first_table = true;

  auto add_table = [&](const TableRef& ref, JoinType type,
                       const ExprPtr& condition) -> Status {
    auto it = tables_.find(ref.name);
    if (it == tables_.end()) return Status::NotFound("table " + ref.name);
    const RecordBatch& table = it->second;
    // Extend the environment.
    Env right_env;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const std::string& col = table.schema().field(c).name;
      right_env.names.emplace_back(ref.EffectiveName() + "." + col, col);
    }
    std::vector<Row> right_rows;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      Row row;
      for (size_t c = 0; c < table.num_columns(); ++c) {
        row.push_back(table.column(c).GetValue(r));
      }
      right_rows.push_back(std::move(row));
    }
    if (first_table) {
      env = right_env;
      rows = std::move(right_rows);
      first_table = false;
      return Status::OK();
    }
    Env joined_env = env;
    joined_env.names.insert(joined_env.names.end(),
                            right_env.names.begin(), right_env.names.end());
    std::vector<Row> joined;
    std::vector<bool> right_matched(right_rows.size(), false);
    for (const Row& left : rows) {
      bool matched = false;
      for (size_t rr = 0; rr < right_rows.size(); ++rr) {
        Row combined = left;
        combined.insert(combined.end(), right_rows[rr].begin(),
                        right_rows[rr].end());
        bool keep = true;
        if (condition != nullptr) {
          FEISU_ASSIGN_OR_RETURN(Value v,
                                 EvalRow(*condition, joined_env, combined));
          keep = IsTrue(v);
        }
        if (keep) {
          matched = true;
          right_matched[rr] = true;
          joined.push_back(std::move(combined));
        }
      }
      if (!matched && type == JoinType::kLeftOuter) {
        Row combined = left;
        combined.resize(joined_env.names.size());
        joined.push_back(std::move(combined));
      }
    }
    if (type == JoinType::kRightOuter) {
      for (size_t rr = 0; rr < right_rows.size(); ++rr) {
        if (right_matched[rr]) continue;
        Row combined(env.names.size());
        combined.insert(combined.end(), right_rows[rr].begin(),
                        right_rows[rr].end());
        joined.push_back(std::move(combined));
      }
    }
    env = std::move(joined_env);
    rows = std::move(joined);
    return Status::OK();
  };

  if (stmt.from.empty()) return Status::InvalidArgument("no FROM");
  for (const auto& ref : stmt.from) {
    FEISU_RETURN_IF_ERROR(add_table(ref, JoinType::kCross, nullptr));
  }
  for (const auto& join : stmt.joins) {
    FEISU_RETURN_IF_ERROR(add_table(join.table, join.type, join.condition));
  }

  // --- WHERE. ---
  if (stmt.where != nullptr) {
    std::vector<Row> kept;
    for (Row& row : rows) {
      FEISU_ASSIGN_OR_RETURN(Value v, EvalRow(*stmt.where, env, row));
      if (IsTrue(v)) kept.push_back(std::move(row));
    }
    rows = std::move(kept);
  }

  // --- SELECT list (expand '*'). ---
  std::vector<SelectItem> items;
  if (stmt.select_star) {
    for (const auto& [qualified, plain] : env.names) {
      SelectItem item;
      item.expr = Expr::ColumnRef(plain);
      item.alias = plain;
      // Qualified form disambiguates duplicates deterministically.
      if (std::count_if(env.names.begin(), env.names.end(),
                        [&](const auto& n) { return n.second == plain; }) >
          1) {
        size_t dot = qualified.find('.');
        item.expr = Expr::ColumnRef(qualified.substr(0, dot),
                                    qualified.substr(dot + 1));
        item.alias = qualified;
      }
      items.push_back(std::move(item));
    }
  } else {
    items = stmt.items;
  }

  bool has_aggregate =
      !stmt.group_by.empty() || HasAggregate(stmt.having) ||
      std::any_of(items.begin(), items.end(),
                  [](const SelectItem& i) { return HasAggregate(i.expr); });

  std::vector<std::string> out_names;
  for (const auto& item : items) out_names.push_back(item.OutputName());
  std::vector<Row> out_rows;

  if (has_aggregate) {
    // Group rows by the GROUP BY key tuple.
    std::map<std::string, std::pair<Row, std::vector<const Row*>>> groups;
    for (const Row& row : rows) {
      Row key;
      for (const auto& g : stmt.group_by) {
        FEISU_ASSIGN_OR_RETURN(Value v, EvalRow(*g, env, row));
        key.push_back(std::move(v));
      }
      auto& slot = groups[KeyOf(key)];
      slot.first = key;
      slot.second.push_back(&row);
    }
    if (groups.empty() && stmt.group_by.empty()) {
      groups[""] = {Row{}, {}};  // global aggregate over zero rows
    }
    for (const auto& [serialized, group] : groups) {
      if (stmt.having != nullptr) {
        FEISU_ASSIGN_OR_RETURN(
            Value keep, EvalGroup(*stmt.having, env, stmt.group_by,
                                  group.first, group.second));
        if (!IsTrue(keep)) continue;
      }
      Row out;
      for (const auto& item : items) {
        FEISU_ASSIGN_OR_RETURN(
            Value v, EvalGroup(*item.expr, env, stmt.group_by, group.first,
                               group.second));
        out.push_back(std::move(v));
      }
      out_rows.push_back(std::move(out));
    }
  } else {
    if (stmt.having != nullptr) {
      return Status::InvalidArgument("HAVING without aggregation");
    }
    for (const Row& row : rows) {
      Row out;
      for (const auto& item : items) {
        FEISU_ASSIGN_OR_RETURN(Value v, EvalRow(*item.expr, env, row));
        out.push_back(std::move(v));
      }
      out_rows.push_back(std::move(out));
    }
  }

  // --- ORDER BY over the projected rows (alias environment). ---
  if (!stmt.order_by.empty()) {
    Env out_env;
    for (const auto& name : out_names) out_env.names.emplace_back(name, name);
    // Precompute keys; any evaluation error aborts.
    std::vector<std::pair<Row, size_t>> keyed;
    for (size_t r = 0; r < out_rows.size(); ++r) {
      Row key;
      for (const auto& item : stmt.order_by) {
        FEISU_ASSIGN_OR_RETURN(Value v,
                               EvalRow(*item.expr, out_env, out_rows[r]));
        key.push_back(std::move(v));
      }
      keyed.emplace_back(std::move(key), r);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const auto& a, const auto& b) {
                       for (size_t k = 0; k < stmt.order_by.size(); ++k) {
                         int cmp = a.first[k].Compare(b.first[k]);
                         if (cmp == 0) continue;
                         return stmt.order_by[k].descending ? cmp > 0
                                                            : cmp < 0;
                       }
                       return false;
                     });
    std::vector<Row> sorted;
    for (const auto& [key, idx] : keyed) sorted.push_back(out_rows[idx]);
    out_rows = std::move(sorted);
  }

  // --- LIMIT. ---
  if (stmt.limit >= 0 &&
      out_rows.size() > static_cast<size_t>(stmt.limit)) {
    out_rows.resize(static_cast<size_t>(stmt.limit));
  }
  return RowsToBatch(out_names, out_rows);
}

}  // namespace feisu
