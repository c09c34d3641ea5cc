#include "plan/planner.h"

#include <algorithm>
#include <set>

namespace feisu {

namespace {

/// Tracks the tables visible to name resolution, with aliases.
struct Scope {
  // (effective name, table meta)
  std::vector<std::pair<std::string, const TableMeta*>> tables;

  /// Resolves a column reference; errors on unknown or ambiguous names.
  Status ResolveColumn(const Expr& ref) const {
    if (!ref.table().empty()) {
      for (const auto& [alias, meta] : tables) {
        if (alias == ref.table()) {
          if (!meta->schema().HasField(ref.column())) {
            return Status::NotFound("column " + ref.QualifiedName() +
                                    " not found");
          }
          return Status::OK();
        }
      }
      return Status::NotFound("table alias " + ref.table() + " not found");
    }
    int matches = 0;
    for (const auto& [alias, meta] : tables) {
      if (meta->schema().HasField(ref.column())) ++matches;
    }
    if (matches == 0) {
      return Status::NotFound("column " + ref.column() + " not found");
    }
    if (matches > 1) {
      return Status::InvalidArgument("ambiguous column " + ref.column());
    }
    return Status::OK();
  }
};

/// Validates every column reference in an expression subtree.
Status ValidateColumns(const ExprPtr& expr, const Scope& scope) {
  if (expr == nullptr) return Status::OK();
  if (expr->kind() == ExprKind::kColumnRef) {
    return scope.ResolveColumn(*expr);
  }
  for (const auto& child : expr->children()) {
    FEISU_RETURN_IF_ERROR(ValidateColumns(child, scope));
  }
  if (expr->within() != nullptr) {
    FEISU_RETURN_IF_ERROR(ValidateColumns(expr->within(), scope));
  }
  return Status::OK();
}

/// Extracts aggregate calls out of `expr`, appending AggSpecs to `specs`
/// (reusing an existing equal spec), and returns the expression with each
/// aggregate replaced by a ColumnRef to its output column.
ExprPtr ExtractAggregates(const ExprPtr& expr, std::vector<AggSpec>* specs) {
  if (expr == nullptr) return nullptr;
  if (expr->kind() == ExprKind::kAggregate) {
    // Reuse an identical aggregate if present.
    for (const auto& spec : *specs) {
      ExprPtr existing = Expr::Aggregate(spec.func, spec.arg, spec.within);
      if (existing->Equals(*expr)) {
        return Expr::ColumnRef(spec.output_name);
      }
    }
    AggSpec spec;
    spec.func = expr->agg_func();
    spec.arg = expr->children().empty() ? nullptr : expr->child(0);
    spec.within = expr->within();
    spec.output_name = "__agg" + std::to_string(specs->size());
    specs->push_back(spec);
    return Expr::ColumnRef(specs->back().output_name);
  }
  std::vector<ExprPtr> kids;
  kids.reserve(expr->children().size());
  for (const auto& child : expr->children()) {
    kids.push_back(ExtractAggregates(child, specs));
  }
  return WithChildren(expr, kids);
}

/// Replaces any subtree structurally equal to a GROUP BY expression with a
/// reference to that group key's output column (named like the Aggregator
/// names it: the column itself, or the rendered expression). This is what
/// lets `SELECT day / 90 AS quarter ... GROUP BY day / 90` project the
/// aggregate's key column instead of re-evaluating `day` post-aggregation.
ExprPtr ReplaceGroupRefs(const ExprPtr& expr,
                         const std::vector<ExprPtr>& group_by) {
  if (expr == nullptr) return nullptr;
  for (const auto& g : group_by) {
    if (expr->Equals(*g)) {
      std::string name =
          g->kind() == ExprKind::kColumnRef ? g->column() : g->ToString();
      return Expr::ColumnRef(name);
    }
  }
  std::vector<ExprPtr> kids;
  kids.reserve(expr->children().size());
  for (const auto& child : expr->children()) {
    kids.push_back(ReplaceGroupRefs(child, group_by));
  }
  return WithChildren(expr, kids);
}

}  // namespace

Result<PlanPtr> PlanQuery(const SelectStatement& stmt,
                          const Catalog& catalog) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("query has no FROM clause");
  }

  // Resolve tables and build the scan/join tree. Comma-separated FROM
  // tables are cross joins; explicit JOIN clauses chain on the right.
  Scope scope;
  PlanPtr root;
  auto add_table = [&](const TableRef& ref, JoinType type,
                       const ExprPtr& condition) -> Status {
    FEISU_ASSIGN_OR_RETURN(const TableMeta* meta, catalog.Get(ref.name));
    for (const auto& [alias, existing] : scope.tables) {
      if (alias == ref.EffectiveName()) {
        return Status::InvalidArgument("duplicate table alias " + alias);
      }
    }
    scope.tables.emplace_back(ref.EffectiveName(), meta);
    PlanPtr scan = PlanNode::Scan(ref.name, ref.EffectiveName());
    if (root == nullptr) {
      root = std::move(scan);
    } else {
      root = PlanNode::Join(type, condition, root, std::move(scan));
    }
    return Status::OK();
  };

  FEISU_RETURN_IF_ERROR(add_table(stmt.from[0], JoinType::kCross, nullptr));
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    FEISU_RETURN_IF_ERROR(add_table(stmt.from[i], JoinType::kCross, nullptr));
  }
  for (const auto& join : stmt.joins) {
    FEISU_RETURN_IF_ERROR(
        add_table(join.table, join.type, join.condition));
    if (join.condition != nullptr) {
      FEISU_RETURN_IF_ERROR(ValidateColumns(join.condition, scope));
    }
  }

  // WHERE.
  if (stmt.where != nullptr) {
    if (stmt.where->ContainsAggregate()) {
      return Status::InvalidArgument("aggregate not allowed in WHERE");
    }
    FEISU_RETURN_IF_ERROR(ValidateColumns(stmt.where, scope));
    root = PlanNode::Filter(stmt.where, root);
  }

  // SELECT list. Expand '*' against the scope.
  std::vector<SelectItem> items;
  if (stmt.select_star) {
    for (const auto& [alias, meta] : scope.tables) {
      for (const auto& field : meta->schema().fields()) {
        SelectItem item;
        item.expr = scope.tables.size() > 1
                        ? Expr::ColumnRef(alias, field.name)
                        : Expr::ColumnRef(field.name);
        items.push_back(std::move(item));
      }
    }
  } else {
    items = stmt.items;
  }

  // Aggregate extraction across SELECT items and HAVING.
  std::vector<AggSpec> agg_specs;
  bool has_group_by = !stmt.group_by.empty();
  std::vector<SelectItem> final_items;
  for (const auto& item : items) {
    FEISU_RETURN_IF_ERROR(ValidateColumns(item.expr, scope));
    SelectItem rewritten;
    rewritten.alias = item.alias.empty() ? item.OutputName() : item.alias;
    rewritten.expr = ExtractAggregates(item.expr, &agg_specs);
    final_items.push_back(std::move(rewritten));
  }
  ExprPtr having = stmt.having;
  if (having != nullptr) {
    FEISU_RETURN_IF_ERROR(ValidateColumns(having, scope));
    having = ExtractAggregates(having, &agg_specs);
  }

  bool has_aggregate = !agg_specs.empty() || has_group_by;
  if (has_aggregate) {
    for (const auto& g : stmt.group_by) {
      FEISU_RETURN_IF_ERROR(ValidateColumns(g, scope));
    }
    // Expression-valued group keys: select items that repeat the group
    // expression project the aggregate's key column.
    for (auto& item : final_items) {
      item.expr = ReplaceGroupRefs(item.expr, stmt.group_by);
    }
    if (having != nullptr) having = ReplaceGroupRefs(having, stmt.group_by);
    // Non-aggregate select expressions must be functions of group keys.
    for (size_t i = 0; i < final_items.size(); ++i) {
      const ExprPtr& e = final_items[i].expr;
      if (e->kind() == ExprKind::kColumnRef &&
          e->column().rfind("__agg", 0) == 0) {
        continue;  // rewritten aggregate
      }
      std::vector<std::string> used;
      e->CollectColumns(&used);
      for (const auto& col : used) {
        if (col.rfind("__agg", 0) == 0) continue;
        bool in_group = std::any_of(
            stmt.group_by.begin(), stmt.group_by.end(),
            [&col](const ExprPtr& g) {
              if (g->kind() == ExprKind::kColumnRef) {
                return g->column() == col;
              }
              // Expression group key: its output column is its rendering.
              return g->ToString() == col;
            });
        if (!in_group) {
          return Status::InvalidArgument(
              "column " + col + " must appear in GROUP BY or an aggregate");
        }
      }
    }
    root = PlanNode::Aggregate(stmt.group_by, agg_specs, root);
    if (having != nullptr) root = PlanNode::Filter(having, root);
  } else if (stmt.having != nullptr) {
    return Status::InvalidArgument("HAVING without aggregation");
  }

  // Rename group-key outputs: aggregate output schema uses the group
  // expressions' rendered names; the projection refers to them directly.
  root = PlanNode::Project(final_items, root);

  if (!stmt.order_by.empty()) {
    // ORDER BY runs over the projected schema; alias references resolve
    // naturally. Column references not in the projection are rejected at
    // execution time.
    root = PlanNode::Sort(stmt.order_by, root);
  }
  if (stmt.limit >= 0) {
    root = PlanNode::Limit(stmt.limit, root);
  }
  return root;
}

}  // namespace feisu
