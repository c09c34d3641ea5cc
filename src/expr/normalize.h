#ifndef FEISU_EXPR_NORMALIZE_H_
#define FEISU_EXPR_NORMALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "expr/expr.h"

namespace feisu {

/// Rewrites a boolean expression so that NOT only remains around atoms with
/// no negation dual (CONTAINS): NOT over AND/OR applies De Morgan, NOT over
/// a comparison flips the operator — this is what makes
/// `c2 > 0 AND !(c2 > 5)` reuse the SmartIndex built for `c2 <= 5`
/// (paper Fig. 7, Q10-Q12).
ExprPtr PushDownNot(const ExprPtr& expr);

/// Canonicalizes atoms: literal-on-left comparisons are mirrored so the
/// column ref is on the left; operands of symmetric operators (= and !=)
/// are ordered deterministically. Applies recursively.
ExprPtr CanonicalizeAtoms(const ExprPtr& expr);

/// Converts a (NOT-pushed, canonicalized) boolean expression to conjunctive
/// normal form and returns the list of conjuncts. Each conjunct is an atom
/// or a disjunction of atoms. `max_terms` guards against exponential
/// blow-up; when exceeded, the expression is returned as a single conjunct.
std::vector<ExprPtr> ToCnf(const ExprPtr& expr, size_t max_terms = 64);

/// Full normalization pipeline: PushDownNot + CanonicalizeAtoms + ToCnf.
std::vector<ExprPtr> NormalizePredicate(const ExprPtr& expr);

/// Canonical cache key of one conjunct; equal predicates (after
/// normalization) produce equal keys. This is the SmartIndex lookup key.
std::string PredicateKey(const ExprPtr& conjunct);

/// A normalized predicate with its SmartIndex key rendered and hashed: the
/// per-query half of a SmartIndex probe, so a per-block probe only has to
/// fold the block id into `key_hash`.
struct KeyedPredicate {
  ExprPtr expr;
  std::string key;        ///< PredicateKey(expr)
  uint64_t key_hash = 0;  ///< HashString(key)
  /// For a conjunct that is an atom or a NOT atom: the key of its
  /// materialized dual, PredicateKey(CanonicalizeAtoms(PushDownNot(
  /// Expr::Not(expr)))). Empty otherwise.
  std::string dual_key;
  /// For AND/OR nodes: both operands, keyed the same way (the resolver's
  /// compositional probes). Empty for atoms and NOT.
  std::vector<KeyedPredicate> children;
};

/// NormalizePredicate(predicate) with every conjunct keyed. The master
/// builds this once per query and every block task of the query shares it.
std::vector<KeyedPredicate> KeyConjuncts(const ExprPtr& predicate);

}  // namespace feisu

#endif  // FEISU_EXPR_NORMALIZE_H_
