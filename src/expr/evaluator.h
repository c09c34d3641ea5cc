#ifndef FEISU_EXPR_EVALUATOR_H_
#define FEISU_EXPR_EVALUATOR_H_

#include <optional>

#include "common/result.h"
#include "columnar/block.h"
#include "columnar/record_batch.h"
#include "expr/expr.h"

namespace feisu {

/// Vectorized expression evaluation over RecordBatches. Aggregates are NOT
/// handled here (the HashAggregate operator owns them); passing an
/// expression containing one returns InvalidArgument.

/// Full three-valued evaluation of a boolean predicate (TriStateVector,
/// columnar/encoding.h). Every comparison leaf runs one typed kernel: each
/// operand is a column or a broadcast literal, the kernel produces a raw
/// match bitmap in the CompareNumbers order (value.h), and the shared
/// FinishPredicateBits applies the Kleene mask.
Result<TriStateVector> EvaluatePredicate3VL(const Expr& expr,
                                            const RecordBatch& batch);

/// Compressed-domain predicate evaluation: walks a normalized predicate
/// (comparisons, AND/OR/NOT) against a block's *encoded* columns and
/// answers it without decoding a single value, via the columnar kernels
/// (TryEvaluateEncodedCompare). Returns true with `out` filled — then
/// `out` is byte-identical to EvaluatePredicate3VL over the decoded batch
/// — or false when any leaf of the expression has no kernel (unsupported
/// op/type/encoding combination, non-literal comparand, unknown column):
/// the caller falls back to decode-then-evaluate, and the miss is counted
/// in DecodeCounters::predicates_fallback.
Result<bool> TryEvaluatePredicateEncoded(const Expr& expr,
                                         const ColumnarBlock& block,
                                         TriStateVector* out);

/// Evaluates a boolean predicate; row i is selected iff the predicate is
/// TRUE (SQL three-valued logic: UNKNOWN rows are not selected).
Result<BitVector> EvaluatePredicate(const Expr& expr,
                                    const RecordBatch& batch);

/// Evaluates a scalar (projection) expression into a column. A comparison
/// or logical expression yields a BOOL column that is NULL where the
/// predicate is UNKNOWN.
Result<ColumnVector> EvaluateExpr(const Expr& expr, const RecordBatch& batch);

/// The column a scalar expression yields over a batch, without copying a
/// column reference: a reference is borrowed from the batch (so it lives
/// only as long as the batch), anything else is computed and owned.
struct ExprColumn {
  const ColumnVector* borrowed = nullptr;
  std::optional<ColumnVector> computed;

  const ColumnVector& get() const { return computed ? *computed : *borrowed; }
};

/// EvaluateExpr that borrows column references instead of copying them.
Result<ExprColumn> EvaluateColumn(const Expr& expr, const RecordBatch& batch);

/// Resolves a column reference against a batch, preferring the qualified
/// name ("t.c", produced by joins on name collisions) over the bare name.
const ColumnVector* LookupColumn(const Expr& ref, const RecordBatch& batch);

/// Infers the output type of a scalar expression against a schema.
Result<DataType> InferType(const Expr& expr, const Schema& schema);

/// Block-skipping test: can any row of a block with the given [min,max]
/// column stats satisfy `cmp_op` against `literal`? Conservative (returns
/// true when unsure). Used for zone-map pruning before SmartIndex lookup.
bool StatsMayMatch(CompareOp op, const ColumnStats& stats,
                   const Value& literal);

}  // namespace feisu

#endif  // FEISU_EXPR_EVALUATOR_H_
