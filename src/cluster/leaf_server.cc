#include "cluster/leaf_server.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "exec/aggregate.h"
#include "exec/operators.h"
#include "expr/evaluator.h"
#include "expr/normalize.h"
#include "storage/storage_factory.h"

namespace feisu {

namespace {

/// Floor on the fraction of a data column charged after bitmap filtering
/// (late materialization reads whole pages, not single rows).
constexpr double kMinReadFraction = 1.0 / 64.0;

/// True for an atom of the form <column> OP <literal> (the shape zone maps
/// and B-tree probes can serve); extracts the pieces.
bool MatchColumnOpLiteral(const Expr& expr, std::string* column,
                          CompareOp* op, const Value** literal) {
  if (expr.kind() != ExprKind::kComparison) return false;
  const ExprPtr& l = expr.child(0);
  const ExprPtr& r = expr.child(1);
  if (l->kind() != ExprKind::kColumnRef || r->kind() != ExprKind::kLiteral) {
    return false;
  }
  *column = l->column();
  *op = expr.compare_op();
  *literal = &r->value();
  return true;
}

std::vector<std::string> ExprColumns(const ExprPtr& expr) {
  std::vector<std::string> cols;
  if (expr != nullptr) expr->CollectColumns(&cols);
  return cols;
}

/// The synthetic row-id column a task with no data columns outputs (e.g.
/// `SELECT 1 FROM t WHERE ...`): it keeps the row count flowing through
/// downstream operators.
Schema RowIdSchema() {
  return Schema({{"__rowid", DataType::kInt64, false}});
}

/// Decodes the task's data columns, pushing `selection` (may be null: all
/// rows) down into the column decoders. With no data columns the row-id
/// column is built only for the selected rows, not all num_rows of the
/// block.
Result<RecordBatch> DecodeDataBatch(const ColumnarBlock& block,
                                    const std::vector<std::string>& columns,
                                    const BitVector* selection) {
  if (!columns.empty()) return block.DecodeBatch(columns, selection);
  ColumnVector rowid(DataType::kInt64);
  const size_t rows =
      selection != nullptr ? selection->CountOnes() : block.num_rows();
  rowid.AppendBulk<int64_t>(BitVector(rows, true), [&](int64_t* ids) {
    if (selection == nullptr) {
      std::iota(ids, ids + rows, int64_t{0});
      return;
    }
    size_t k = 0;
    selection->ForEachSetBit(
        [&](size_t i) { ids[k++] = static_cast<int64_t>(i); });
  });
  std::vector<ColumnVector> cols;
  cols.push_back(std::move(rowid));
  return RecordBatch(RowIdSchema(), std::move(cols));
}

/// The zero-row batch of the task's data columns, straight from the block
/// schema: what DecodeDataBatch returns for an empty selection, without
/// running a decoder.
Result<RecordBatch> EmptyDataBatch(const Schema& schema,
                                   const std::vector<std::string>& columns) {
  if (columns.empty()) return RecordBatch(RowIdSchema());
  std::vector<Field> fields;
  fields.reserve(columns.size());
  for (const auto& name : columns) {
    int idx = schema.FieldIndex(name);
    if (idx < 0) {
      std::string message = "no such column: ";
      message += name;
      return Status::NotFound(message);
    }
    fields.push_back(schema.field(static_cast<size_t>(idx)));
  }
  return RecordBatch(Schema(std::move(fields)));
}

}  // namespace

LeafServer::LeafServer(uint32_t node_id, PathRouter* router,
                       LeafServerConfig config)
    : node_id_(node_id),
      router_(router),
      config_(config),
      index_cache_(config.index_cache) {
  if (config_.ssd_capacity_bytes > 0) {
    ssd_cache_ = std::make_unique<SsdCache>(config_.ssd_capacity_bytes,
                                            config_.ssd_policy,
                                            SsdCostModel());
  }
}

uint32_t LeafServer::PickSourceReplica(const std::string& path) const {
  std::vector<uint32_t> replicas = router_->ReplicaNodes(path);
  if (replicas.empty()) return node_id_;
  for (uint32_t r : replicas) {
    if (r == node_id_) return node_id_;  // local read: our own copy
  }
  // Remote read: fetch from the first replica whose copy is intact, the
  // way a real DFS client falls through its replica list.
  FaultInjector* faults = router_->fault_injector();
  if (faults != nullptr && faults->enabled()) {
    for (uint32_t r : replicas) {
      if (!faults->IsReplicaCorrupted(path, r)) return r;
    }
  }
  return replicas[0];
}

ResolverStats LeafServer::resolver_stats() const {
  MutexLock lock(resolver_stats_mutex_);
  return resolver_stats_;
}

void LeafServer::MergeResolverStats(const ResolverStats& stats) {
  MutexLock lock(resolver_stats_mutex_);
  resolver_stats_ += stats;
}

Result<const ColumnarBlock*> LeafServer::LoadBlock(
    const TableBlockMeta& meta) {
  {
    MutexLock lock(decoded_mutex_);
    auto it = decoded_blocks_.find(meta.path);
    if (it != decoded_blocks_.end()) return &it->second;
  }
  FEISU_ASSIGN_OR_RETURN(const std::string* payload, router_->Get(meta.path));
  FaultInjector* faults = router_->fault_injector();
  if (faults != nullptr && faults->enabled()) {
    switch (faults->OnBlockRead(meta.path, PickSourceReplica(meta.path))) {
      case FaultKind::kNone:
        break;
      case FaultKind::kIoError:
        return Status::Unavailable("injected I/O error reading " + meta.path);
      case FaultKind::kCorruption: {
        // Damage one byte of a copy and run the real deserializer so the
        // block checksum — not a simulated shortcut — detects the fault.
        std::string damaged = *payload;
        if (!damaged.empty()) damaged[damaged.size() / 2] ^= 0x40;
        Result<ColumnarBlock> bad = ColumnarBlock::Deserialize(damaged);
        if (bad.ok()) {
          return Status::Corruption("injected corruption escaped checksum: " +
                                    meta.path);
        }
        // Cached column reads of this path came from the damaged replica;
        // drop them so a later retry re-reads from storage.
        if (ssd_cache_ != nullptr) {
          ssd_cache_->InvalidatePrefix(meta.path + "#");
        }
        return bad.status();
      }
    }
  }
  FEISU_ASSIGN_OR_RETURN(ColumnarBlock block,
                         ColumnarBlock::Deserialize(*payload));
  // Decode happened outside the lock; if a concurrent task decoded the same
  // path first, emplace keeps the winner and our copy is dropped.
  MutexLock lock(decoded_mutex_);
  auto [inserted, ok] = decoded_blocks_.emplace(meta.path, std::move(block));
  return &inserted->second;
}

SimTime LeafServer::ChargeColumnRead(const ColumnarBlock& block,
                                     const TableBlockMeta& meta,
                                     const std::vector<std::string>& columns,
                                     double fraction, TaskStats* stats) {
  fraction = std::clamp(fraction, kMinReadFraction, 1.0);
  SimTime io = 0;
  auto storage = router_->Resolve(meta.path);
  for (const auto& column : columns) {
    int idx = block.schema().FieldIndex(column);
    if (idx < 0) continue;
    uint64_t bytes = static_cast<uint64_t>(
        static_cast<double>(block.ColumnByteSize(static_cast<size_t>(idx))) *
        config_.sim_data_scale * fraction);
    stats->bytes_read += bytes;
    std::string ssd_key = meta.path + "#" + column;
    if (ssd_cache_ != nullptr && ssd_cache_->Lookup(ssd_key)) {
      io += ssd_cache_->ReadCost(bytes);
      continue;
    }
    io += storage.ok() ? (*storage)->ReadCost(bytes)
                       : kSimMillisecond;  // unroutable: nominal charge
    if (ssd_cache_ != nullptr) ssd_cache_->Admit(ssd_key, bytes);
  }
  return io;
}

Result<TaskResult> LeafServer::Execute(const LeafTask& task, SimTime now) {
  // Each task resolves through its own IndexResolver (the cache behind it
  // is shared and thread-safe); the per-task stats fold into the leaf-wide
  // aggregate on every exit path via this scope guard.
  IndexResolver resolver(&index_cache_);
  struct StatsMerger {
    LeafServer* leaf;
    IndexResolver* resolver;
    ~StatsMerger() { leaf->MergeResolverStats(resolver->stats()); }
  } stats_merger{this, &resolver};

  TaskResult result;
  TaskStats& stats = result.stats;
  // Every task pays a fixed dispatch/metadata overhead regardless of how
  // much it ends up reading.
  stats.cpu_time += config_.cpu_task_fixed;
  const uint32_t num_rows = task.block.num_rows;

  std::vector<KeyedPredicate> own_conjuncts;
  if (task.conjuncts == nullptr) own_conjuncts = KeyConjuncts(task.predicate);
  const std::vector<KeyedPredicate>& conjuncts =
      task.conjuncts != nullptr ? *task.conjuncts : own_conjuncts;

  // --- 1. Zone-map pruning over catalog block statistics. A conjunct of
  // the form <column> OP <literal> whose min/max excludes any match lets
  // the whole block be skipped without touching data. ---
  bool zone_prunable = false;
  if (config_.enable_zone_maps && !task.block.stats.empty() &&
      !conjuncts.empty()) {
    for (const auto& conjunct : conjuncts) {
      std::string column;
      CompareOp op;
      const Value* literal = nullptr;
      if (!MatchColumnOpLiteral(*conjunct.expr, &column, &op, &literal)) {
        continue;
      }
      int idx = -1;
      for (size_t i = 0; i < task.block.stats_columns.size(); ++i) {
        if (task.block.stats_columns[i] == column) {
          idx = static_cast<int>(i);
          break;
        }
      }
      if (idx < 0 || static_cast<size_t>(idx) >= task.block.stats.size()) {
        continue;
      }
      stats.cpu_time += config_.cpu_per_bitmap_word;
      if (!StatsMayMatch(op, task.block.stats[idx], *literal)) {
        zone_prunable = true;
        break;
      }
    }
  }

  auto empty_output = [&]() -> Result<TaskResult> {
    FEISU_ASSIGN_OR_RETURN(const ColumnarBlock* block, LoadBlock(task.block));
    if (task.has_aggregate) {
      // Empty partial state: an Aggregator with no consumed rows.
      FEISU_ASSIGN_OR_RETURN(
          Aggregator agg,
          Aggregator::Make(task.group_by, task.aggregates, block->schema()));
      FEISU_ASSIGN_OR_RETURN(result.batch, agg.PartialResult());
      stats.AccumulateAgg(agg.stats());
      return result;
    }
    FEISU_ASSIGN_OR_RETURN(result.batch,
                           EmptyDataBatch(block->schema(), task.columns));
    return result;
  };

  if (zone_prunable) {
    stats.block_skipped = true;
    return empty_output();
  }

  // --- 2. Resolve conjuncts: SmartIndex -> B-tree -> evaluation. ---
  std::vector<BitVector> bitmaps;
  std::vector<const KeyedPredicate*> missing;
  std::set<std::string> charged_columns;

  for (const auto& conjunct : conjuncts) {
    if (config_.enable_smart_index) {
      ResolverStats before = resolver.stats();
      std::optional<BitVector> bits =
          resolver.Resolve(task.block.block_id, conjunct, now);
      const ResolverStats& after = resolver.stats();
      stats.index_direct_hits += after.direct_hits - before.direct_hits;
      stats.index_composed_hits +=
          after.composed_hits - before.composed_hits;
      stats.index_misses += after.misses - before.misses;
      // RLE-domain combines charge per compressed token, word-array
      // inflation per word — the token charge is what makes conjunct
      // combination scale with run count instead of row count.
      stats.cpu_time += static_cast<SimTime>(
          static_cast<double>((after.bitmap_words - before.bitmap_words) +
                              (after.rle_tokens - before.rle_tokens)) *
          config_.sim_data_scale *
          static_cast<double>(config_.cpu_per_bitmap_word));
      if (bits.has_value()) {
        bitmaps.push_back(std::move(*bits));
        continue;
      }
    }
    if (config_.enable_btree_index) {
      std::string column;
      CompareOp op;
      const Value* literal = nullptr;
      if (MatchColumnOpLiteral(*conjunct.expr, &column, &op, &literal)) {
        const ColumnBTreeIndex* index =
            btree_manager_.Find(task.block.block_id, column);
        if (index == nullptr) {
          // Build once: read the column and insert all rows.
          FEISU_ASSIGN_OR_RETURN(const ColumnarBlock* block,
                                 LoadBlock(task.block));
          stats.io_time +=
              ChargeColumnRead(*block, task.block, {column}, 1.0, &stats);
          charged_columns.insert(column);
          FEISU_ASSIGN_OR_RETURN(ColumnVector values,
                                 block->DecodeColumnByName(column));
          stats.cpu_time += RowCost(values.size(),
                                    config_.cpu_per_row_btree_build);
          index = btree_manager_.BuildAndStore(task.block.block_id, column,
                                               values);
          ++stats.btree_builds;
        }
        std::optional<BitVector> bits = index->Query(op, *literal);
        if (bits.has_value()) {
          ++stats.btree_probes;
          stats.cpu_time += config_.cpu_per_btree_probe;
          stats.cpu_time += RowCost(bits->CountOnes(),
                                    config_.cpu_per_row_btree_emit);
          bitmaps.push_back(std::move(*bits));
          continue;
        }
      }
    }
    missing.push_back(&conjunct);
  }

  // --- 3. Evaluate unresolved conjuncts by scanning their columns. ---
  if (!missing.empty()) {
    std::set<std::string> needed;
    for (const KeyedPredicate* conjunct : missing) {
      for (const auto& col : ExprColumns(conjunct->expr)) needed.insert(col);
    }
    std::vector<std::string> to_charge;
    for (const auto& col : needed) {
      if (charged_columns.insert(col).second) to_charge.push_back(col);
    }
    FEISU_ASSIGN_OR_RETURN(const ColumnarBlock* block, LoadBlock(task.block));
    // The columnar-I/O charge covers every scanned conjunct's columns
    // whether the compressed-domain kernels answer them or not: the leaf
    // still reads those bytes off storage, it just evaluates them without
    // decoding. Simulated costs equal those of decoding by design — the
    // compressed-domain win is host wall-clock, and charging the same
    // whichever conjuncts a kernel answers keeps every seed-swept
    // chaos/straggler schedule stable.
    stats.io_time +=
        ChargeColumnRead(*block, task.block, to_charge, 1.0, &stats);
    std::vector<std::optional<TriStateVector>> encoded(missing.size());
    for (size_t m = 0; m < missing.size(); ++m) {
      TriStateVector tri;
      FEISU_ASSIGN_OR_RETURN(
          bool handled,
          TryEvaluatePredicateEncoded(*missing[m]->expr, *block, &tri));
      if (handled) encoded[m] = std::move(tri);
    }
    // Decode only what the fallback conjuncts actually reference; when
    // every conjunct was answered in the compressed domain, nothing
    // materializes at all.
    std::optional<RecordBatch> pred_batch;
    {
      std::set<std::string> decode_cols;
      bool any_fallback = false;
      for (size_t m = 0; m < missing.size(); ++m) {
        if (encoded[m].has_value()) continue;
        any_fallback = true;
        for (const auto& col : ExprColumns(missing[m]->expr)) {
          decode_cols.insert(col);
        }
      }
      if (any_fallback) {
        FEISU_ASSIGN_OR_RETURN(
            RecordBatch batch,
            block->DecodeBatch(std::vector<std::string>(decode_cols.begin(),
                                                        decode_cols.end())));
        pred_batch = std::move(batch);
      }
    }
    for (size_t m = 0; m < missing.size(); ++m) {
      const KeyedPredicate& conjunct = *missing[m];
      TriStateVector tri;
      if (encoded[m].has_value()) {
        tri = std::move(*encoded[m]);
        stats.values_skipped_encoded += num_rows;
      } else {
        FEISU_ASSIGN_OR_RETURN(
            tri, EvaluatePredicate3VL(*conjunct.expr, *pred_batch));
      }
      stats.rows_scanned += num_rows;
      stats.cpu_time += RowCost(num_rows, config_.cpu_per_row_predicate);
      if (config_.enable_smart_index) {
        index_cache_.Insert({task.block.block_id, conjunct.key}, tri.is_true,
                            now);
        // Materialize the negation's bitmap under the negated predicate's
        // key (paper Fig. 7: `!(c2 > 5)` reuses the work done for
        // `c2 <= 5`). Under three-valued logic the negation's TRUE set is
        // the original's FALSE set — NOT of the TRUE bitmap would wrongly
        // include rows with NULL operands. Only atoms have a dual key; a
        // disjunction's negation never matches a normalized lookup key.
        if (!conjunct.dual_key.empty()) {
          index_cache_.Insert({task.block.block_id, conjunct.dual_key},
                              tri.is_false, now);
        }
      }
      bitmaps.push_back(std::move(tri.is_true));
    }
  }

  // --- 4. Combine into the selection vector. ---
  BitVector selection(num_rows, true);
  for (const auto& bits : bitmaps) {
    selection.And(bits);
    stats.cpu_time += static_cast<SimTime>(
        static_cast<double>((num_rows + 63) / 64) * config_.sim_data_scale *
        static_cast<double>(config_.cpu_per_bitmap_word));
  }
  stats.rows_matched = selection.CountOnes();

  if (stats.rows_matched == 0 && !conjuncts.empty()) {
    return empty_output();
  }

  // --- 5. Produce output: partial aggregation or filtered projection. ---
  // Pure COUNT(*) with no grouping needs no data columns at all — the
  // paper's Fig. 7 case where everything happens in memory.
  bool pure_count_star =
      task.has_aggregate && task.group_by.empty() &&
      std::all_of(task.aggregates.begin(), task.aggregates.end(),
                  [](const AggSpec& s) {
                    return s.func == AggFunc::kCount && s.arg == nullptr;
                  });
  if (pure_count_star) {
    FEISU_ASSIGN_OR_RETURN(const ColumnarBlock* block, LoadBlock(task.block));
    FEISU_ASSIGN_OR_RETURN(
        Aggregator agg,
        Aggregator::Make(task.group_by, task.aggregates, block->schema()));
    FEISU_RETURN_IF_ERROR(agg.ConsumeCount(stats.rows_matched));
    FEISU_ASSIGN_OR_RETURN(result.batch, agg.PartialResult());
    stats.AccumulateAgg(agg.stats());
    return result;
  }

  std::vector<std::string> to_charge;
  for (const auto& col : task.columns) {
    if (charged_columns.insert(col).second) to_charge.push_back(col);
  }
  FEISU_ASSIGN_OR_RETURN(const ColumnarBlock* block, LoadBlock(task.block));
  // Late materialization: only the selected fraction of each data column
  // is actually fetched.
  double selectivity =
      conjuncts.empty()
          ? 1.0
          : static_cast<double>(stats.rows_matched) /
                static_cast<double>(num_rows == 0 ? 1 : num_rows);
  stats.io_time +=
      ChargeColumnRead(*block, task.block, to_charge, selectivity, &stats);
  // Selection pushdown: projection columns decode *through* the combined
  // predicate bitmap, so only matching rows ever materialize.
  const BitVector* decode_selection =
      conjuncts.empty() ? nullptr : &selection;
  const uint64_t selected =
      decode_selection != nullptr ? stats.rows_matched : block->num_rows();
  // Distributed LIMIT: this leaf's contribution is capped; the master trims
  // the union to the global limit. Without an order hint the cap is the
  // first `limit` selected rows, so only those decode.
  const bool capped = !task.has_aggregate && task.limit >= 0 &&
                      selected > static_cast<uint64_t>(task.limit);
  if (capped && task.order_by.empty()) {
    selection.KeepFirstSetBits(static_cast<size_t>(task.limit));
    decode_selection = &selection;
  }
  FEISU_ASSIGN_OR_RETURN(
      RecordBatch filtered,
      DecodeDataBatch(*block, task.columns, decode_selection));
  // Materialization is charged on every selected row, whether or not a
  // LIMIT cut it from the decode.
  stats.values_decoded += selected * filtered.num_columns();
  stats.cpu_time += RowCost(selected, config_.cpu_per_row_materialize);

  if (capped && !task.order_by.empty()) {
    // With an order hint the cap is the local top-k under that ordering
    // (bounded heap).
    FEISU_ASSIGN_OR_RETURN(filtered,
                           TopNBatch(filtered, task.order_by, task.limit));
    stats.cpu_time +=
        RowCost(filtered.num_rows(), config_.cpu_per_row_materialize);
  }

  if (task.has_aggregate) {
    FEISU_ASSIGN_OR_RETURN(
        Aggregator agg,
        Aggregator::Make(task.group_by, task.aggregates, block->schema()));
    // Code-domain group-by: a single dictionary-encoded group key feeds the
    // aggregator raw uint32 codes (through the same selection the batch
    // was filtered by), so no string is hashed or compared per row. Codes
    // stay leaf-local — the partial batch emitted below carries the
    // materialized strings, byte-identical to the decode path.
    bool dict_keyed = false;
    if (task.group_by.size() == 1 &&
        task.group_by[0]->kind() == ExprKind::kColumnRef) {
      const Expr& key = *task.group_by[0];
      int idx = -1;
      if (!key.table().empty()) {
        idx = block->schema().FieldIndex(key.QualifiedName());
      }
      if (idx < 0) idx = block->schema().FieldIndex(key.column());
      if (idx >= 0 && block->ColumnEncoding(static_cast<size_t>(idx)) ==
                          Encoding::kDict) {
        DictColumnCodes codes;
        FEISU_ASSIGN_OR_RETURN(
            bool ok,
            TryExtractDictCodes(
                block->encoded_column(static_cast<size_t>(idx)),
                decode_selection, &codes));
        if (ok && codes.codes.size() == filtered.num_rows()) {
          FEISU_RETURN_IF_ERROR(agg.ConsumeDictKeyed(filtered, codes));
          dict_keyed = true;
        }
      }
    }
    if (!dict_keyed) {
      FEISU_RETURN_IF_ERROR(agg.Consume(filtered));
    }
    stats.cpu_time +=
        RowCost(filtered.num_rows(), config_.cpu_per_row_aggregate);
    FEISU_ASSIGN_OR_RETURN(result.batch, agg.PartialResult());
    stats.AccumulateAgg(agg.stats());
  } else {
    result.batch = std::move(filtered);
  }
  return result;
}

}  // namespace feisu
