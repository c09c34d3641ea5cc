#ifndef FEISU_EXEC_OPERATORS_H_
#define FEISU_EXEC_OPERATORS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "columnar/record_batch.h"
#include "sql/ast.h"

namespace feisu {

/// Vectorized single-batch operators used above the leaf level (the leaf's
/// scan path lives in cluster/leaf_server; joins/sorts/limits execute at
/// the master after stem aggregation).

/// Keeps rows satisfying `predicate`.
Result<RecordBatch> FilterBatch(const RecordBatch& input,
                                const ExprPtr& predicate);

/// Evaluates the projection list into a new batch; output columns take the
/// items' output names.
Result<RecordBatch> ProjectBatch(const RecordBatch& input,
                                 const std::vector<SelectItem>& items);

/// ProjectBatch that consumes `input`: a column that the projection list
/// references exactly once, as a bare column item, is moved into the
/// output instead of copied.
Result<RecordBatch> ProjectBatch(RecordBatch&& input,
                                 const std::vector<SelectItem>& items);

/// Stable multi-key sort honoring ASC/DESC; NULLs sort first.
Result<RecordBatch> SortBatch(const RecordBatch& input,
                              const std::vector<OrderByItem>& order_by);

/// First `limit` rows (whole batch if limit < 0).
RecordBatch LimitBatch(const RecordBatch& input, int64_t limit);

/// Fused ORDER BY + LIMIT: selects the `limit` smallest rows under the
/// ordering with a bounded heap (O(n log k)) instead of sorting everything
/// (O(n log n)). Equivalent to SortBatch followed by LimitBatch, including
/// stability (ties keep input order).
Result<RecordBatch> TopNBatch(const RecordBatch& input,
                              const std::vector<OrderByItem>& order_by,
                              int64_t limit);

struct HashJoinOptions {
  JoinType type = JoinType::kInner;
  ExprPtr condition;           ///< null only for CROSS
  std::string left_prefix;     ///< alias used to qualify colliding names
  std::string right_prefix;
};

/// Hash join of two materialized batches. Equi-conjuncts (left.col =
/// right.col) drive the hash table; remaining condition conjuncts are
/// applied as a residual filter. Name collisions between the two sides are
/// disambiguated as "<prefix>.<column>".
Result<RecordBatch> HashJoinBatches(const RecordBatch& left,
                                    const RecordBatch& right,
                                    const HashJoinOptions& options);

}  // namespace feisu

#endif  // FEISU_EXEC_OPERATORS_H_
