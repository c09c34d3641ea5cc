#ifndef FEISU_CLUSTER_TASK_H_
#define FEISU_CLUSTER_TASK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "columnar/record_batch.h"
#include "columnar/table.h"
#include "common/sim_clock.h"
#include "expr/normalize.h"
#include "plan/logical_plan.h"

namespace feisu {

struct AggStats;  // exec/aggregate.h

/// The unit of work a leaf server executes: one block of one table, with
/// the pushed-down predicate, the pruned column set and (optionally) a
/// partial-aggregation spec. Sub-plans are dissected into these by the
/// master (paper Fig. 3, steps 1-2).
struct LeafTask {
  int64_t job_id = 0;
  int64_t task_id = 0;
  std::string table;
  TableBlockMeta block;
  std::vector<std::string> columns;  ///< data columns the output needs
  ExprPtr predicate;                 ///< pushed filter; may be null
  /// KeyConjuncts(predicate), built once per query by the master and
  /// shared by all of its block tasks. Null: the leaf keys `predicate`
  /// itself.
  std::shared_ptr<const std::vector<KeyedPredicate>> conjuncts;
  bool has_aggregate = false;
  std::vector<ExprPtr> group_by;
  std::vector<AggSpec> aggregates;
  /// Per-leaf row cap for LIMIT queries (-1 = none). With `order_by` set,
  /// the leaf returns its local top-`limit` under that ordering.
  int64_t limit = -1;
  std::vector<OrderByItem> order_by;

  /// Stable identity of the computation (independent of job), used by the
  /// job manager to reuse results across identical concurrent tasks.
  std::string Signature() const;
};

/// Per-task accounting; aggregated into QueryStats.
struct TaskStats {
  uint64_t bytes_read = 0;
  uint64_t rows_scanned = 0;           ///< rows whose predicate was evaluated
  uint64_t rows_matched = 0;
  /// Charged materialization count: selected rows × output columns. An
  /// unordered LIMIT leaf decodes only its first `limit` selected rows but
  /// is still charged for all of them. The ratio to rows_scanned × columns
  /// shows the late-materialization win.
  uint64_t values_decoded = 0;
  /// Values whose predicate was answered in the compressed domain (dict
  /// codes / RLE runs / bit-packed words) and therefore never decoded for
  /// filtering: rows × conjuncts served by an encoded kernel.
  uint64_t values_skipped_encoded = 0;
  uint64_t index_direct_hits = 0;
  uint64_t index_composed_hits = 0;
  uint64_t index_misses = 0;
  uint64_t btree_probes = 0;
  uint64_t btree_builds = 0;
  // Hash-aggregation counters (leaf Consume plus stem/master partial
  // merges): distinct groups created, hash-table slot inspections, growth
  // events, and batches that took the null-free kernel fast path.
  uint64_t agg_groups = 0;
  uint64_t agg_hash_probes = 0;
  uint64_t agg_rehashes = 0;
  uint64_t agg_null_fast_batches = 0;
  /// Groups created via the dictionary-code group-by path (key string
  /// hashed once per distinct code per batch instead of once per row).
  uint64_t agg_code_domain_groups = 0;
  bool block_skipped = false;          ///< zone-map pruned
  SimTime io_time = 0;
  SimTime cpu_time = 0;

  SimTime TotalTime() const { return io_time + cpu_time; }
  void Accumulate(const TaskStats& other);
  /// Folds one Aggregator's hot-path counters into this task's stats.
  void AccumulateAgg(const AggStats& agg);
};

struct TaskResult {
  RecordBatch batch;  ///< partial-aggregate state or filtered projection
  TaskStats stats;
};

}  // namespace feisu

#endif  // FEISU_CLUSTER_TASK_H_
