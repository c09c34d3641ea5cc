#include "expr/normalize.h"

#include <algorithm>

#include "common/hash.h"

namespace feisu {

namespace {

bool IsLogical(const ExprPtr& e, LogicalOp op) {
  return e->kind() == ExprKind::kLogical && e->logical_op() == op;
}

ExprPtr PushDownNotImpl(const ExprPtr& expr, bool negated) {
  if (expr->kind() == ExprKind::kLogical) {
    switch (expr->logical_op()) {
      case LogicalOp::kNot:
        return PushDownNotImpl(expr->child(0), !negated);
      case LogicalOp::kAnd: {
        ExprPtr l = PushDownNotImpl(expr->child(0), negated);
        ExprPtr r = PushDownNotImpl(expr->child(1), negated);
        return negated ? Expr::Or(l, r) : Expr::And(l, r);
      }
      case LogicalOp::kOr: {
        ExprPtr l = PushDownNotImpl(expr->child(0), negated);
        ExprPtr r = PushDownNotImpl(expr->child(1), negated);
        return negated ? Expr::And(l, r) : Expr::Or(l, r);
      }
    }
  }
  if (expr->kind() == ExprKind::kComparison && negated) {
    CompareOp flipped;
    if (NegateCompareOp(expr->compare_op(), &flipped)) {
      return Expr::Compare(flipped, expr->child(0), expr->child(1));
    }
    return Expr::Not(expr);  // CONTAINS: keep the NOT wrapper
  }
  return negated ? Expr::Not(expr) : expr;
}

KeyedPredicate KeyPredicate(const ExprPtr& expr) {
  KeyedPredicate keyed;
  keyed.expr = expr;
  keyed.key = PredicateKey(expr);
  keyed.key_hash = HashString(keyed.key);
  if (IsLogical(expr, LogicalOp::kAnd) || IsLogical(expr, LogicalOp::kOr)) {
    keyed.children.push_back(KeyPredicate(expr->child(0)));
    keyed.children.push_back(KeyPredicate(expr->child(1)));
  }
  return keyed;
}

}  // namespace

ExprPtr PushDownNot(const ExprPtr& expr) {
  return PushDownNotImpl(expr, false);
}

ExprPtr CanonicalizeAtoms(const ExprPtr& expr) {
  switch (expr->kind()) {
    case ExprKind::kLogical: {
      if (expr->logical_op() == LogicalOp::kNot) {
        return Expr::Not(CanonicalizeAtoms(expr->child(0)));
      }
      ExprPtr l = CanonicalizeAtoms(expr->child(0));
      ExprPtr r = CanonicalizeAtoms(expr->child(1));
      // Order commutative boolean operands deterministically so that
      // `a AND b` and `b AND a` share one key.
      if (l->ToString() > r->ToString()) std::swap(l, r);
      return expr->logical_op() == LogicalOp::kAnd ? Expr::And(l, r)
                                                   : Expr::Or(l, r);
    }
    case ExprKind::kComparison: {
      ExprPtr l = expr->child(0);
      ExprPtr r = expr->child(1);
      // Mirror literal-on-left so the column lands on the left.
      if (l->kind() == ExprKind::kLiteral &&
          r->kind() != ExprKind::kLiteral) {
        return Expr::Compare(MirrorCompareOp(expr->compare_op()), r, l);
      }
      return expr;
    }
    default:
      return expr;
  }
}

std::vector<ExprPtr> ToCnf(const ExprPtr& expr, size_t max_terms) {
  // AND: union of the children's conjunct lists.
  if (IsLogical(expr, LogicalOp::kAnd)) {
    std::vector<ExprPtr> out = ToCnf(expr->child(0), max_terms);
    std::vector<ExprPtr> rhs = ToCnf(expr->child(1), max_terms);
    out.insert(out.end(), rhs.begin(), rhs.end());
    if (out.size() > max_terms) return {expr};
    return out;
  }
  // OR: distribute over the children's CNF.
  if (IsLogical(expr, LogicalOp::kOr)) {
    std::vector<ExprPtr> left = ToCnf(expr->child(0), max_terms);
    std::vector<ExprPtr> right = ToCnf(expr->child(1), max_terms);
    if (left.size() * right.size() > max_terms) return {expr};
    std::vector<ExprPtr> out;
    out.reserve(left.size() * right.size());
    for (const auto& l : left) {
      for (const auto& r : right) {
        ExprPtr l2 = l;
        ExprPtr r2 = r;
        if (l2->ToString() > r2->ToString()) std::swap(l2, r2);
        out.push_back(Expr::Or(l2, r2));
      }
    }
    return out;
  }
  return {expr};
}

std::vector<ExprPtr> NormalizePredicate(const ExprPtr& expr) {
  if (expr == nullptr) return {};
  return ToCnf(CanonicalizeAtoms(PushDownNot(expr)));
}

std::string PredicateKey(const ExprPtr& conjunct) {
  return conjunct->ToString();
}

std::vector<KeyedPredicate> KeyConjuncts(const ExprPtr& predicate) {
  std::vector<KeyedPredicate> out;
  for (const ExprPtr& conjunct : NormalizePredicate(predicate)) {
    KeyedPredicate keyed = KeyPredicate(conjunct);
    if (conjunct->kind() == ExprKind::kComparison ||
        IsLogical(conjunct, LogicalOp::kNot)) {
      keyed.dual_key = PredicateKey(
          CanonicalizeAtoms(PushDownNot(Expr::Not(conjunct))));
    }
    out.push_back(std::move(keyed));
  }
  return out;
}

}  // namespace feisu
