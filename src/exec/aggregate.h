#ifndef FEISU_EXEC_AGGREGATE_H_
#define FEISU_EXEC_AGGREGATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "columnar/encoding.h"
#include "columnar/record_batch.h"
#include "exec/keys.h"
#include "expr/evaluator.h"
#include "plan/logical_plan.h"

namespace feisu {

/// Hot-path counters for one Aggregator instance; folded into
/// TaskStats/QueryStats so FormatQueryStats can report them alongside the
/// decode counters.
struct AggStats {
  uint64_t groups_created = 0;
  /// Slot inspections during find-or-insert (collisions show up as
  /// probes > rows consumed). A key-less aggregate (no GROUP BY) does not
  /// probe per row: Consume maps every row to the one global group, so it
  /// probes once, when that group is created — one probe per leaf task.
  /// ConsumePartial still probes once per partial row.
  uint64_t hash_probes = 0;
  /// Table growth events that re-slotted existing groups.
  uint64_t rehashes = 0;
  /// Batches whose key and argument columns were all null-free, so every
  /// kernel ran without per-row validity checks.
  uint64_t null_fast_path_batches = 0;
  /// Groups created through the dictionary-code path (ConsumeDictKeyed):
  /// their key string was touched once, at insertion, instead of once per
  /// input row.
  uint64_t code_domain_groups = 0;
};

/// Distributed-friendly hash aggregation. Leaf servers Consume() raw rows
/// and emit PartialResult() batches; stem servers ConsumePartial() those
/// batches to merge them (possibly over several tree levels); the master
/// calls FinalResult() to finalize values (AVG = sum/count etc.).
///
/// Partial exchange schema: one column per group key (named by the group
/// expression), then per aggregate spec `<name>#count` (INT64),
/// `<name>#sum` (DOUBLE, numeric aggs only) and `<name>#min` / `<name>#max`
/// (arg type, MIN/MAX only).
///
/// The aggregation state is the partial batch: groups are numbered in
/// first-insertion order, and every partial column is held as one
/// ColumnVector indexed by group id. Key columns have the type Make
/// inferred, `#count`/`#sum` are the accumulators, and `#min`/`#max` have
/// the argument's type with validity as the has-value bit. A flat
/// open-addressing hash table maps typed per-row key words to group ids;
/// batch-at-a-time typed kernels accumulate into the columns. PartialResult
/// is a copy of the state in insertion order. Only FinalResult sorts: once,
/// in typed key order (each key NULL first, then Value::Compare order,
/// ties between distinct keys broken by the exact stored value), so final
/// output never depends on insertion or hash-table order.
///
/// Merging partials is aggregation over the partial columns. A stem
/// consumes its children's partials in a fixed order and sees each group
/// at most once per partial, so per-group sums and MIN/MAX ties never
/// depend on the row order inside a partial.
///
/// The parsed WITHIN scope of an aggregate is accepted and carried but — as
/// ingested data is already flattened to columns — aggregation within a
/// record collapses to ordinary per-group aggregation here.
class Aggregator {
 public:
  /// `input_schema` is the schema of raw batches fed to Consume (used to
  /// type the group keys and the MIN/MAX/SUM outputs). Group expressions
  /// must be scalar.
  static Result<Aggregator> Make(std::vector<ExprPtr> group_by,
                                 std::vector<AggSpec> specs,
                                 const Schema& input_schema);

  /// Accumulates raw input rows. Fails with InvalidArgument if a group key
  /// or argument evaluates to a type other than the one Make inferred.
  Status Consume(const RecordBatch& batch);

  /// Compressed-domain variant of Consume for a single dictionary-encoded
  /// string group key: `codes` carries the row's dict code per row of
  /// `batch` (kNullCode for NULL rows) plus the dictionary itself, as
  /// extracted by TryExtractDictCodes. Each distinct code hashes its key
  /// string into the group table once per batch; every repeat resolves
  /// through a code -> group memo without touching string bytes. Aggregate
  /// arguments are still evaluated from `batch`. Groups, their order and
  /// result bytes are identical to Consume over the decoded key column.
  Status ConsumeDictKeyed(const RecordBatch& batch,
                          const DictColumnCodes& codes);

  /// Accumulates `rows` matched rows without materializing any column —
  /// only valid for an ungrouped aggregation whose specs are all COUNT(*).
  /// This is the paper's Fig. 7 fast path: a fully index-served COUNT(*)
  /// never touches the data.
  Status ConsumeCount(size_t rows);

  /// Accumulates a partial-state batch produced by another Aggregator.
  Status ConsumePartial(const RecordBatch& batch);

  /// Emits the current groups as partial state, in first-insertion order.
  Result<RecordBatch> PartialResult() const;

  /// Emits finalized per-group values: group keys then one column per spec
  /// named spec.output_name, sorted in typed group-key order.
  Result<RecordBatch> FinalResult() const;

  /// Schema of PartialResult batches.
  const Schema& partial_schema() const { return partial_schema_; }
  /// Schema of FinalResult batches.
  const Schema& final_schema() const { return final_schema_; }

  size_t num_groups() const { return group_hashes_.size(); }

  const AggStats& stats() const { return stats_; }

 private:
  Aggregator() = default;

  /// Every spec's argument over one batch: `cols[s]` is spec `s`'s input
  /// (nullptr for COUNT(*)), borrowed from the batch for a column
  /// reference and pointing into `computed` otherwise.
  struct BatchArgs {
    std::vector<const ColumnVector*> cols;
    std::vector<ExprColumn> computed;
  };

  /// Evaluates every spec's argument over `batch`, type-checked against
  /// Make's inference.
  Status EvaluateArgs(const RecordBatch& batch, BatchArgs* args) const;

  /// The one probe-and-append routine: probes the flat table for hash `h`,
  /// `equals(g)` deciding whether group `g` holds the key. On a miss it
  /// appends a new group: `append_keys()` writes its key cells, then every
  /// state column gets an empty slot.
  template <typename Equals, typename AppendKeys>
  uint32_t FindOrAppend(uint64_t h, const Equals& equals,
                        const AppendKeys& append_keys);

  /// Find-or-insert for one row of a batch's key columns.
  uint32_t FindOrInsert(const KeyWords& keys, size_t row);

  /// Single-string-key find-or-insert for the dictionary-code path
  /// (`key == nullptr` is the NULL key). Its hash equals FindOrInsert's
  /// over a string column, so groups are shared freely between the paths.
  uint32_t FindOrInsertDictKey(const std::string* key);

  bool GroupEquals(uint32_t group, const KeyWords& keys, size_t row) const;

  /// Creates (if needed) the single key-less group of a global aggregation.
  uint32_t EnsureGlobalGroup();

  /// Re-slots every group into a table of `capacity` slots (a power of 2).
  void Grow(size_t capacity);

  /// Accumulates every spec over raw rows; `args` comes from EvaluateArgs
  /// and `gids` maps batch row -> group id.
  void Accumulate(const std::vector<const ColumnVector*>& args,
                  const std::vector<uint32_t>& gids);

  /// Merges spec `s`'s state columns of one partial batch.
  void MergePartialSpec(size_t s, const RecordBatch& batch,
                        const std::vector<uint32_t>& gids);

  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> specs_;
  std::vector<DataType> arg_types_;  // per spec (kInt64 for COUNT(*))
  std::vector<size_t> count_cols_;   // per spec: its `#count` column
  Schema partial_schema_;
  Schema final_schema_;

  // Flat open-addressing table (linear probing, power-of-two capacity).
  // slots_[i] holds group_id + 1; 0 means empty.
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> slot_hashes_;
  size_t slot_mask_ = 0;
  std::vector<uint64_t> group_hashes_;  // per group, for re-slotting

  // One column per partial_schema_ field, one row per group.
  std::vector<ColumnVector> state_;

  AggStats stats_;
};

}  // namespace feisu

#endif  // FEISU_EXEC_AGGREGATE_H_
