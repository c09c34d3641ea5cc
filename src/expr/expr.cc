#include "expr/expr.h"

#include <algorithm>

namespace feisu {

namespace {

/// "(lhs op rhs)". Built by appending: GCC 12 at -O3 reports a false
/// -Wrestrict overlap inside `"(" + std::string` concatenation chains.
std::string Parenthesize(const std::string& lhs, const char* op,
                         const std::string& rhs) {
  std::string out = "(";
  out += lhs;
  out += ' ';
  out += op;
  out += ' ';
  out += rhs;
  out += ')';
  return out;
}

}  // namespace

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kContains:
      return "CONTAINS";
  }
  return "?";
}

const char* LogicalOpName(LogicalOp op) {
  switch (op) {
    case LogicalOp::kAnd:
      return "AND";
    case LogicalOp::kOr:
      return "OR";
    case LogicalOp::kNot:
      return "NOT";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  return "?";
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

bool NegateCompareOp(CompareOp op, CompareOp* out) {
  switch (op) {
    case CompareOp::kEq:
      *out = CompareOp::kNe;
      return true;
    case CompareOp::kNe:
      *out = CompareOp::kEq;
      return true;
    case CompareOp::kLt:
      *out = CompareOp::kGe;
      return true;
    case CompareOp::kLe:
      *out = CompareOp::kGt;
      return true;
    case CompareOp::kGt:
      *out = CompareOp::kLe;
      return true;
    case CompareOp::kGe:
      *out = CompareOp::kLt;
      return true;
    case CompareOp::kContains:
      return false;
  }
  return false;
}

CompareOp MirrorCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and != are symmetric; CONTAINS never mirrors
  }
}

ExprPtr Expr::Make(ExprKind kind) {
  // The constructor is private so callers cannot bypass the factories;
  // make_shared has no access, leaving explicit new as the only option.
  // feisu-lint: allow(naked-new): private ctor, make_shared cannot reach it
  return std::shared_ptr<Expr>(new Expr(kind));
}

ExprPtr Expr::ColumnRef(std::string table, std::string column) {
  auto e = Make(ExprKind::kColumnRef);
  e->table_ = std::move(table);
  e->column_ = std::move(column);
  return e;
}

ExprPtr Expr::Literal(Value value) {
  auto e = Make(ExprKind::kLiteral);
  e->value_ = std::move(value);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(ExprKind::kComparison);
  e->compare_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(ExprKind::kLogical);
  e->logical_op_ = LogicalOp::kAnd;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(ExprKind::kLogical);
  e->logical_op_ = LogicalOp::kOr;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Not(ExprPtr child) {
  auto e = Make(ExprKind::kLogical);
  e->logical_op_ = LogicalOp::kNot;
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(ExprKind::kArithmetic);
  e->arith_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Aggregate(AggFunc func, ExprPtr arg, ExprPtr within) {
  auto e = Make(ExprKind::kAggregate);
  e->agg_func_ = func;
  if (arg != nullptr) e->children_ = {std::move(arg)};
  e->within_ = std::move(within);
  return e;
}

ExprPtr WithChildren(const ExprPtr& node,
                     const std::vector<ExprPtr>& children) {
  if (children == node->children()) return node;
  switch (node->kind()) {
    case ExprKind::kComparison:
      return Expr::Compare(node->compare_op(), children[0], children[1]);
    case ExprKind::kLogical:
      if (node->logical_op() == LogicalOp::kNot) return Expr::Not(children[0]);
      return node->logical_op() == LogicalOp::kAnd
                 ? Expr::And(children[0], children[1])
                 : Expr::Or(children[0], children[1]);
    case ExprKind::kArithmetic:
      return Expr::Arith(node->arith_op(), children[0], children[1]);
    default:
      return node;
  }
}

std::string Expr::QualifiedName() const {
  if (table_.empty()) return column_;
  return table_ + "." + column_;
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ExprKind::kColumnRef:
      if (table_ != other.table_ || column_ != other.column_) return false;
      break;
    case ExprKind::kLiteral:
      if (!(value_ == other.value_)) return false;
      if (value_.is_null() != other.value_.is_null()) return false;
      break;
    case ExprKind::kComparison:
      if (compare_op_ != other.compare_op_) return false;
      break;
    case ExprKind::kLogical:
      if (logical_op_ != other.logical_op_) return false;
      break;
    case ExprKind::kArithmetic:
      if (arith_op_ != other.arith_op_) return false;
      break;
    case ExprKind::kAggregate:
      if (agg_func_ != other.agg_func_) return false;
      if ((within_ == nullptr) != (other.within_ == nullptr)) return false;
      if (within_ != nullptr && !within_->Equals(*other.within_)) return false;
      break;
    case ExprKind::kStar:
      break;
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kColumnRef:
      return QualifiedName();
    case ExprKind::kLiteral:
      return value_.ToString();
    case ExprKind::kComparison:
      return Parenthesize(children_[0]->ToString(),
                          CompareOpName(compare_op_),
                          children_[1]->ToString());
    case ExprKind::kLogical:
      if (logical_op_ == LogicalOp::kNot) {
        std::string out = "(NOT ";
        out += children_[0]->ToString();
        out += ')';
        return out;
      }
      return Parenthesize(children_[0]->ToString(),
                          LogicalOpName(logical_op_),
                          children_[1]->ToString());
    case ExprKind::kArithmetic:
      return Parenthesize(children_[0]->ToString(), ArithOpName(arith_op_),
                          children_[1]->ToString());
    case ExprKind::kAggregate: {
      std::string arg = children_.empty() ? "*" : children_[0]->ToString();
      std::string out =
          std::string(AggFuncName(agg_func_)) + "(" + arg + ")";
      if (within_ != nullptr) out += " WITHIN " + within_->ToString();
      return out;
    }
    case ExprKind::kStar:
      return "*";
  }
  return "?";
}

bool Expr::ContainsAggregate() const {
  if (kind_ == ExprKind::kAggregate) return true;
  return std::any_of(children_.begin(), children_.end(),
                     [](const ExprPtr& c) { return c->ContainsAggregate(); });
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  if (kind_ == ExprKind::kColumnRef) {
    if (std::find(out->begin(), out->end(), column_) == out->end()) {
      out->push_back(column_);
    }
  }
  for (const auto& c : children_) c->CollectColumns(out);
  if (within_ != nullptr) within_->CollectColumns(out);
}

}  // namespace feisu
