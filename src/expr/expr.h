#ifndef FEISU_EXPR_EXPR_H_
#define FEISU_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/value.h"

namespace feisu {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Expression node kinds.
enum class ExprKind {
  kColumnRef,   ///< [table.]column
  kLiteral,     ///< constant Value
  kComparison,  ///< = != < <= > >= CONTAINS
  kLogical,     ///< AND OR NOT
  kArithmetic,  ///< + - * / %
  kAggregate,   ///< COUNT/SUM/MIN/MAX/AVG, optionally WITHIN
  kStar,        ///< '*' (only inside COUNT(*) or SELECT *)
};

enum class LogicalOp { kAnd, kOr, kNot };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

const char* CompareOpName(CompareOp op);
const char* LogicalOpName(LogicalOp op);
const char* ArithOpName(ArithOp op);
const char* AggFuncName(AggFunc func);

/// Negation of a comparison: !(a < b) == (a >= b). CONTAINS has no dual and
/// returns false through `ok`.
bool NegateCompareOp(CompareOp op, CompareOp* out);

/// Mirror of a comparison when operands swap sides: (a < b) == (b > a).
CompareOp MirrorCompareOp(CompareOp op);

/// An immutable expression tree node. Construct via the static factories;
/// share subtrees freely (nodes are never mutated after construction).
class Expr {
 public:
  static ExprPtr ColumnRef(std::string table, std::string column);
  static ExprPtr ColumnRef(std::string column) {
    return ColumnRef("", std::move(column));
  }
  static ExprPtr Literal(Value value);
  static ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr child);
  static ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Aggregate(AggFunc func, ExprPtr arg, ExprPtr within = nullptr);

  ExprKind kind() const { return kind_; }

  // kColumnRef
  const std::string& table() const { return table_; }
  const std::string& column() const { return column_; }
  /// "t.c" or "c".
  std::string QualifiedName() const;

  // kLiteral
  const Value& value() const { return value_; }

  // operators
  CompareOp compare_op() const { return compare_op_; }
  LogicalOp logical_op() const { return logical_op_; }
  ArithOp arith_op() const { return arith_op_; }
  AggFunc agg_func() const { return agg_func_; }

  /// Children; layout depends on kind (binary ops: [lhs, rhs]; NOT: [child];
  /// aggregate: [arg] or [] for COUNT(*), plus within() separately).
  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(size_t i) const { return children_[i]; }
  const ExprPtr& within() const { return within_; }

  /// Structural equality.
  bool Equals(const Expr& other) const;

  /// Canonical SQL-ish rendering; two structurally equal expressions render
  /// identically, so this string doubles as the SmartIndex cache key.
  std::string ToString() const;

  /// True if the subtree contains an aggregate call.
  bool ContainsAggregate() const;

  /// Collects the distinct column names referenced by the subtree.
  void CollectColumns(std::vector<std::string>* out) const;

 private:
  explicit Expr(ExprKind kind) : kind_(kind) {}

  /// Sole allocation point for Expr nodes; the constructor is private, so
  /// std::make_shared cannot reach it and the factories funnel through here.
  static ExprPtr Make(ExprKind kind);

  ExprKind kind_;
  std::string table_;
  std::string column_;
  Value value_;
  CompareOp compare_op_ = CompareOp::kEq;
  LogicalOp logical_op_ = LogicalOp::kAnd;
  ArithOp arith_op_ = ArithOp::kAdd;
  AggFunc agg_func_ = AggFunc::kCount;
  std::vector<ExprPtr> children_;
  ExprPtr within_;
};

/// The same node with `children` in place of its own: a comparison,
/// logical or arithmetic node is rebuilt around them. Any other node
/// (column, literal, `*`, aggregate) comes back as is, and so does a node
/// whose children are unchanged.
ExprPtr WithChildren(const ExprPtr& node, const std::vector<ExprPtr>& children);

}  // namespace feisu

#endif  // FEISU_EXPR_EXPR_H_
