#include "plan/optimizer.h"

#include <algorithm>
#include <set>

#include "expr/normalize.h"

namespace feisu {

namespace {

/// Applies a binary arithmetic/comparison op to literal values; returns
/// nullptr when not foldable.
ExprPtr TryFoldBinary(const Expr& expr, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Expr::Literal(Value::Null());
  if (expr.kind() == ExprKind::kArithmetic) {
    if (!lhs.is_numeric() || !rhs.is_numeric()) return nullptr;
    double a = lhs.AsDouble();
    double b = rhs.AsDouble();
    bool both_int = lhs.type() == DataType::kInt64 &&
                    rhs.type() == DataType::kInt64 &&
                    expr.arith_op() != ArithOp::kDiv;
    double v = 0;
    switch (expr.arith_op()) {
      case ArithOp::kAdd:
        v = a + b;
        break;
      case ArithOp::kSub:
        v = a - b;
        break;
      case ArithOp::kMul:
        v = a * b;
        break;
      case ArithOp::kDiv:
        if (b == 0) return Expr::Literal(Value::Null());
        v = a / b;
        break;
      case ArithOp::kMod:
        if (static_cast<int64_t>(b) == 0) return Expr::Literal(Value::Null());
        v = static_cast<double>(static_cast<int64_t>(a) %
                                static_cast<int64_t>(b));
        break;
    }
    return both_int ? Expr::Literal(Value::Int64(static_cast<int64_t>(v)))
                    : Expr::Literal(Value::Double(v));
  }
  if (expr.kind() == ExprKind::kComparison) {
    if (expr.compare_op() == CompareOp::kContains) {
      if (lhs.type() != DataType::kString || rhs.type() != DataType::kString) {
        return nullptr;
      }
      return Expr::Literal(Value::Bool(
          lhs.string_value().find(rhs.string_value()) != std::string::npos));
    }
    return Expr::Literal(
        Value::Bool(CompareOpHolds(expr.compare_op(), lhs.Compare(rhs))));
  }
  return nullptr;
}

/// Column refs used by an expression, with qualification.
void CollectQualifiedRefs(const ExprPtr& expr,
                          std::vector<const Expr*>* refs) {
  if (expr == nullptr) return;
  if (expr->kind() == ExprKind::kColumnRef) {
    refs->push_back(expr.get());
    return;
  }
  for (const auto& child : expr->children()) {
    CollectQualifiedRefs(child, refs);
  }
  if (expr->within() != nullptr) CollectQualifiedRefs(expr->within(), refs);
}

/// Collects all scan nodes under `plan`.
void CollectScans(const PlanPtr& plan, std::vector<PlanNode*>* scans) {
  if (plan->kind == PlanKind::kScan) {
    scans->push_back(plan.get());
    return;
  }
  for (const auto& child : plan->children) CollectScans(child, scans);
}

bool SubtreeHasAggregate(const PlanPtr& plan) {
  if (plan->kind == PlanKind::kAggregate) return true;
  for (const auto& child : plan->children) {
    if (SubtreeHasAggregate(child)) return true;
  }
  return false;
}

void CollectExprColumns(const ExprPtr& expr, std::set<std::string>* out) {
  if (expr == nullptr) return;
  std::vector<std::string> cols;
  expr->CollectColumns(&cols);
  out->insert(cols.begin(), cols.end());
}

/// Gathers every column name any node above the scans needs.
void CollectNeededColumns(const PlanPtr& plan, std::set<std::string>* out) {
  switch (plan->kind) {
    case PlanKind::kScan:
      CollectExprColumns(plan->scan_predicate, out);
      break;
    case PlanKind::kFilter:
      CollectExprColumns(plan->predicate, out);
      break;
    case PlanKind::kProject:
      for (const auto& item : plan->projections) {
        CollectExprColumns(item.expr, out);
      }
      break;
    case PlanKind::kAggregate:
      for (const auto& g : plan->group_by) CollectExprColumns(g, out);
      for (const auto& spec : plan->aggregates) {
        CollectExprColumns(spec.arg, out);
        CollectExprColumns(spec.within, out);
      }
      break;
    case PlanKind::kJoin:
      CollectExprColumns(plan->join_condition, out);
      break;
    case PlanKind::kSort:
      for (const auto& item : plan->order_by) {
        CollectExprColumns(item.expr, out);
      }
      break;
    case PlanKind::kLimit:
      break;
  }
  for (const auto& child : plan->children) CollectNeededColumns(child, out);
}

uint64_t EstimateRows(const PlanPtr& plan, const Catalog& catalog) {
  switch (plan->kind) {
    case PlanKind::kScan: {
      const TableMeta* meta = catalog.Find(plan->table);
      uint64_t rows = meta == nullptr ? 1000 : meta->TotalRows();
      // Crude selectivity for a pushed predicate.
      if (plan->scan_predicate != nullptr) rows /= 3;
      return rows;
    }
    case PlanKind::kFilter:
      return EstimateRows(plan->children[0], catalog) / 3;
    case PlanKind::kJoin:
      return EstimateRows(plan->children[0], catalog) +
             EstimateRows(plan->children[1], catalog);
    case PlanKind::kLimit: {
      uint64_t child = EstimateRows(plan->children[0], catalog);
      return std::min<uint64_t>(child, static_cast<uint64_t>(plan->limit));
    }
    default:
      return plan->children.empty()
                 ? 1000
                 : EstimateRows(plan->children[0], catalog);
  }
}

}  // namespace

ExprPtr FoldConstantExpr(const ExprPtr& expr) {
  if (expr == nullptr) return nullptr;
  std::vector<ExprPtr> kids;
  kids.reserve(expr->children().size());
  for (const auto& child : expr->children()) {
    kids.push_back(FoldConstantExpr(child));
  }
  bool all_literal =
      std::all_of(kids.begin(), kids.end(), [](const ExprPtr& e) {
        return e->kind() == ExprKind::kLiteral;
      });
  if (all_literal && kids.size() == 2 &&
      (expr->kind() == ExprKind::kArithmetic ||
       expr->kind() == ExprKind::kComparison)) {
    ExprPtr folded = TryFoldBinary(*expr, kids[0]->value(), kids[1]->value());
    if (folded != nullptr) return folded;
  }
  return WithChildren(expr, kids);
}

PlanPtr FoldConstants(PlanPtr plan) {
  for (auto& child : plan->children) child = FoldConstants(child);
  if (plan->predicate != nullptr) {
    plan->predicate = FoldConstantExpr(plan->predicate);
  }
  if (plan->scan_predicate != nullptr) {
    plan->scan_predicate = FoldConstantExpr(plan->scan_predicate);
  }
  if (plan->join_condition != nullptr) {
    plan->join_condition = FoldConstantExpr(plan->join_condition);
  }
  for (auto& item : plan->projections) {
    item.expr = FoldConstantExpr(item.expr);
  }
  return plan;
}

PlanPtr PushDownPredicates(PlanPtr plan) {
  for (auto& child : plan->children) child = PushDownPredicates(child);
  if (plan->kind != PlanKind::kFilter) return plan;
  // A HAVING-style filter above an Aggregate references aggregate outputs
  // (and group keys); pushing it below the aggregation would change
  // semantics, so leave it in place.
  if (SubtreeHasAggregate(plan->children[0])) return plan;

  // Split the filter into conjuncts, sort each into the deepest scan it
  // fully references.
  std::vector<ExprPtr> conjuncts;
  std::vector<ExprPtr> stack = {plan->predicate};
  while (!stack.empty()) {
    ExprPtr e = stack.back();
    stack.pop_back();
    if (e->kind() == ExprKind::kLogical &&
        e->logical_op() == LogicalOp::kAnd) {
      stack.push_back(e->child(0));
      stack.push_back(e->child(1));
    } else {
      conjuncts.push_back(e);
    }
  }
  std::vector<PlanNode*> scans;
  CollectScans(plan->children[0], &scans);
  // The scan schema is unknown here without the catalog; rely on the
  // table's alias qualification plus an over-approximation: a conjunct is
  // pushable if it references exactly one scan's alias or, unqualified,
  // if there is exactly one scan (single-table query).
  std::vector<ExprPtr> remaining;
  for (const auto& conjunct : conjuncts) {
    if (conjunct->ContainsAggregate()) {
      remaining.push_back(conjunct);
      continue;
    }
    PlanNode* target = nullptr;
    if (scans.size() == 1) {
      target = scans[0];
    } else {
      std::vector<const Expr*> refs;
      CollectQualifiedRefs(conjunct, &refs);
      std::set<std::string> aliases;
      bool all_qualified = !refs.empty();
      for (const Expr* ref : refs) {
        if (ref->table().empty()) {
          all_qualified = false;
          break;
        }
        aliases.insert(ref->table());
      }
      if (all_qualified && aliases.size() == 1) {
        for (PlanNode* scan : scans) {
          if (scan->table_alias == *aliases.begin() ||
              scan->table == *aliases.begin()) {
            target = scan;
            break;
          }
        }
      }
    }
    if (target != nullptr) {
      target->scan_predicate =
          target->scan_predicate == nullptr
              ? conjunct
              : Expr::And(target->scan_predicate, conjunct);
    } else {
      remaining.push_back(conjunct);
    }
  }
  if (remaining.empty()) return plan->children[0];
  ExprPtr residual = remaining[0];
  for (size_t i = 1; i < remaining.size(); ++i) {
    residual = Expr::And(residual, remaining[i]);
  }
  plan->predicate = residual;
  return plan;
}

PlanPtr PruneColumns(PlanPtr plan, const Catalog& catalog) {
  std::set<std::string> needed;
  CollectNeededColumns(plan, &needed);
  std::vector<PlanNode*> scans;
  CollectScans(plan, &scans);
  for (PlanNode* scan : scans) {
    const TableMeta* meta = catalog.Find(scan->table);
    if (meta == nullptr) continue;
    scan->columns.clear();
    for (const auto& field : meta->schema().fields()) {
      if (needed.contains(field.name)) scan->columns.push_back(field.name);
    }
    // A scan that feeds COUNT(*) with no referenced columns still needs
    // row counts; an empty column list means "no data columns".
  }
  return plan;
}

PlanPtr PushDownLimits(PlanPtr plan, const Catalog& catalog) {
  for (auto& child : plan->children) child = PushDownLimits(child, catalog);
  if (plan->kind != PlanKind::kLimit || plan->limit < 0) return plan;
  // Walk down through row-preserving nodes. A Project neither reorders nor
  // filters rows, so a row cap stays valid; the scan_predicate is applied
  // BEFORE the cap at the leaf, so pushed filters are safe too.
  const PlanNode* node = plan->children[0].get();
  std::vector<OrderByItem> order;
  if (node->kind == PlanKind::kSort) {
    // Ordered limit: pushable as a per-leaf top-k iff every sort key is a
    // plain table column (alias-of-computed-projection keys must stay at
    // the master). The union of local top-ks contains the global top-k.
    order = node->order_by;
    node = node->children[0].get();
  }
  while (node->kind == PlanKind::kProject) node = node->children[0].get();
  if (node->kind != PlanKind::kScan) return plan;
  auto* scan = const_cast<PlanNode*>(node);
  if (!order.empty()) {
    // Every sort key must be a real column of the scanned table — aliases
    // of computed projections only exist above the Project.
    const TableMeta* meta = catalog.Find(scan->table);
    if (meta == nullptr) return plan;
    for (const auto& item : order) {
      if (item.expr->kind() != ExprKind::kColumnRef ||
          !meta->schema().HasField(item.expr->column())) {
        return plan;
      }
    }
  }
  scan->limit_hint = plan->limit;
  scan->order_hint = order;
  return plan;
}

PlanPtr ReorderJoins(PlanPtr plan, const Catalog& catalog) {
  for (auto& child : plan->children) child = ReorderJoins(child, catalog);
  if (plan->kind != PlanKind::kJoin) return plan;
  // Only commutative joins may swap.
  if (plan->join_type != JoinType::kInner &&
      plan->join_type != JoinType::kCross) {
    return plan;
  }
  uint64_t left = EstimateRows(plan->children[0], catalog);
  uint64_t right = EstimateRows(plan->children[1], catalog);
  // Hash join builds on the right input; put the smaller one there.
  if (right > left) std::swap(plan->children[0], plan->children[1]);
  return plan;
}

PlanPtr OptimizePlan(PlanPtr plan, const Catalog& catalog) {
  plan = FoldConstants(std::move(plan));
  plan = PushDownPredicates(std::move(plan));
  plan = PushDownLimits(std::move(plan), catalog);
  plan = ReorderJoins(std::move(plan), catalog);
  plan = PruneColumns(std::move(plan), catalog);
  return plan;
}

}  // namespace feisu
