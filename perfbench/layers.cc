#include "layers.h"

#include <memory>
#include <set>

#include "cluster/stem_server.h"
#include "columnar/block.h"
#include "common/hash.h"
#include "exec/aggregate.h"
#include "exec/operators.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "sql/parser.h"

namespace perfbench {

using feisu::Aggregator;
using feisu::ColumnarBlock;
using feisu::PlanKind;
using feisu::PlanNode;
using feisu::PlanPtr;
using feisu::RecordBatch;
using feisu::Result;
using feisu::SimTime;
using feisu::Status;

Result<RecordBatch> LayeredReplay::Query(const std::string& sql, SimTime now,
                                         int64_t query_id) {
  probes_.clear();
  const int32_t root = spans_->Begin("query", -1, query_id);
  Result<RecordBatch> out = [&]() -> Result<RecordBatch> {
    feisu::SelectStatement stmt;
    {
      ScopedSpan span(spans_, "sql.parse", root, query_id);
      FEISU_ASSIGN_OR_RETURN(stmt, feisu::ParseSql(sql));
    }
    PlanPtr plan;
    {
      // The master's rule pipeline (MasterServer::RunPlannedQuery) with
      // every optimizer toggle at its default.
      ScopedSpan span(spans_, "plan.plan", root, query_id);
      const feisu::Catalog& catalog = engine_->catalog();
      FEISU_ASSIGN_OR_RETURN(plan, feisu::PlanQuery(stmt, catalog));
      plan = feisu::FoldConstants(std::move(plan));
      plan = feisu::PushDownPredicates(std::move(plan));
      plan = feisu::PushDownLimits(std::move(plan), catalog);
      plan = feisu::ReorderJoins(std::move(plan), catalog);
      plan = feisu::PruneColumns(std::move(plan), catalog);
    }
    return Execute(plan, now, root, query_id);
  }();
  spans_->End(root);
  ++counts_.queries;

  // Read-side columnar probe: what decoding each task's block costs when
  // the leaf's decoded-block memo does not serve it.
  for (const Probe& probe : probes_) {
    ScopedSpan span(spans_, "columnar.decode", -1, query_id);
    FEISU_ASSIGN_OR_RETURN(const std::string* payload,
                           engine_->router().Get(probe.path));
    FEISU_ASSIGN_OR_RETURN(ColumnarBlock block,
                           ColumnarBlock::Deserialize(*payload));
    if (!probe.columns.empty()) {
      FEISU_ASSIGN_OR_RETURN(RecordBatch rows,
                             block.DecodeBatch(probe.columns));
      (void)rows;
    }
  }
  return out;
}

Result<RecordBatch> LayeredReplay::Execute(const PlanPtr& node, SimTime now,
                                           int32_t root, int64_t query_id) {
  switch (node->kind) {
    case PlanKind::kScan:
      return RunScan(*node, nullptr, now, root, query_id);
    case PlanKind::kAggregate: {
      if (node->children[0]->kind == PlanKind::kScan) {
        return RunScan(*node->children[0], node.get(), now, root, query_id);
      }
      FEISU_ASSIGN_OR_RETURN(RecordBatch input,
                             Execute(node->children[0], now, root, query_id));
      ScopedSpan span(spans_, "exec.final", root, query_id);
      FEISU_ASSIGN_OR_RETURN(
          Aggregator agg,
          Aggregator::Make(node->group_by, node->aggregates, input.schema()));
      FEISU_RETURN_IF_ERROR(agg.Consume(input));
      return agg.FinalResult();
    }
    case PlanKind::kFilter: {
      FEISU_ASSIGN_OR_RETURN(RecordBatch input,
                             Execute(node->children[0], now, root, query_id));
      ScopedSpan span(spans_, "exec.final", root, query_id);
      return feisu::FilterBatch(input, node->predicate);
    }
    case PlanKind::kProject: {
      FEISU_ASSIGN_OR_RETURN(RecordBatch input,
                             Execute(node->children[0], now, root, query_id));
      ScopedSpan span(spans_, "exec.final", root, query_id);
      return feisu::ProjectBatch(input, node->projections);
    }
    case PlanKind::kSort: {
      FEISU_ASSIGN_OR_RETURN(RecordBatch input,
                             Execute(node->children[0], now, root, query_id));
      ScopedSpan span(spans_, "exec.final", root, query_id);
      return feisu::SortBatch(input, node->order_by);
    }
    case PlanKind::kLimit: {
      // The master fuses Limit(Sort(x)) into TopN.
      if (node->children[0]->kind == PlanKind::kSort && node->limit >= 0) {
        const PlanPtr& sort = node->children[0];
        FEISU_ASSIGN_OR_RETURN(
            RecordBatch input,
            Execute(sort->children[0], now, root, query_id));
        ScopedSpan span(spans_, "exec.final", root, query_id);
        return feisu::TopNBatch(input, sort->order_by, node->limit);
      }
      FEISU_ASSIGN_OR_RETURN(RecordBatch input,
                             Execute(node->children[0], now, root, query_id));
      ScopedSpan span(spans_, "exec.final", root, query_id);
      return feisu::LimitBatch(input, node->limit);
    }
    case PlanKind::kJoin:
      break;
  }
  return Status::NotImplemented("layered replay: unsupported plan node");
}

Result<RecordBatch> LayeredReplay::RunScan(const PlanNode& scan,
                                           const PlanNode* agg, SimTime now,
                                           int32_t root, int64_t query_id) {
  FEISU_ASSIGN_OR_RETURN(const feisu::TableMeta* meta,
                         engine_->catalog().Get(scan.table));
  // Column set as MasterServer::RunDistributedScan derives it.
  std::vector<std::string> columns = scan.columns;
  const bool has_aggregate = agg != nullptr;
  if (has_aggregate) {
    std::set<std::string> needed;
    for (const auto& g : agg->group_by) {
      std::vector<std::string> cols;
      g->CollectColumns(&cols);
      needed.insert(cols.begin(), cols.end());
    }
    for (const auto& spec : agg->aggregates) {
      if (spec.arg != nullptr) {
        std::vector<std::string> cols;
        spec.arg->CollectColumns(&cols);
        needed.insert(cols.begin(), cols.end());
      }
    }
    columns.assign(needed.begin(), needed.end());
  }
  std::set<std::string> probe_columns(columns.begin(), columns.end());
  if (scan.scan_predicate != nullptr) {
    std::vector<std::string> cols;
    scan.scan_predicate->CollectColumns(&cols);
    probe_columns.insert(cols.begin(), cols.end());
  }

  const int64_t job_id = next_job_id_++;
  std::vector<RecordBatch> partials;
  partials.reserve(meta->blocks().size());
  int64_t task_id = 0;
  for (const feisu::TableBlockMeta& block : meta->blocks()) {
    feisu::LeafTask task;
    task.job_id = job_id;
    task.task_id = task_id++;
    task.table = scan.table;
    task.block = block;
    task.columns = columns;
    task.predicate = scan.scan_predicate;
    task.has_aggregate = has_aggregate;
    if (has_aggregate) {
      task.group_by = agg->group_by;
      task.aggregates = agg->aggregates;
    } else {
      task.limit = scan.limit_hint;
      task.order_by = scan.order_hint;
    }
    std::vector<uint32_t> replicas = engine_->router().ReplicaNodes(block.path);
    size_t leaf = replicas.empty() || replicas[0] >= engine_->num_leaves()
                      ? 0
                      : replicas[0];
    feisu::TaskResult result;
    {
      ScopedSpan span(spans_, "leaf.execute", root, query_id);
      FEISU_ASSIGN_OR_RETURN(result, engine_->leaf(leaf).Execute(task, now));
    }
    ++counts_.tasks;
    if (result.stats.block_skipped) ++counts_.tasks_skipped;
    counts_.rows_scanned += result.stats.rows_scanned;
    counts_.values_decoded += result.stats.values_decoded;
    if (has_aggregate) counts_.partial_rows += result.batch.num_rows();
    partials.push_back(std::move(result.batch));
    probes_.push_back(Probe{block.path, std::vector<std::string>(
                                            probe_columns.begin(),
                                            probe_columns.end())});
  }

  // Every leaf sits under one stem; an empty table reaches no stem.
  std::unique_ptr<Aggregator> stem_agg;
  RecordBatch stem_out;
  const bool any_task = !partials.empty();
  if (any_task) {
    if (has_aggregate) {
      FEISU_ASSIGN_OR_RETURN(
          Aggregator a,
          Aggregator::Make(agg->group_by, agg->aggregates, meta->schema()));
      stem_agg = std::make_unique<Aggregator>(std::move(a));
    }
    ScopedSpan span(spans_, "cluster.stem_merge", root, query_id);
    feisu::StemServer stem(0, engine_->master().config().network);
    std::vector<SimTime> arrivals(partials.size(), now);
    FEISU_ASSIGN_OR_RETURN(feisu::StemResult merged,
                           stem.Merge(partials, arrivals, stem_agg.get()));
    stem_out = std::move(merged.batch);
  }

  if (has_aggregate) {
    ++counts_.aggregate_queries;
    FEISU_ASSIGN_OR_RETURN(
        Aggregator final_agg,
        Aggregator::Make(agg->group_by, agg->aggregates, meta->schema()));
    if (any_task) {
      ScopedSpan span(spans_, "exec.merge", root, query_id);
      FEISU_RETURN_IF_ERROR(final_agg.ConsumePartial(stem_out));
    }
    ScopedSpan span(spans_, "exec.final", root, query_id);
    FEISU_ASSIGN_OR_RETURN(RecordBatch out, final_agg.FinalResult());
    counts_.groups += final_agg.num_groups();
    return out;
  }
  if (!any_task) return RecordBatch(meta->schema().Select(columns));
  return stem_out;
}

Status LayeredReplay::WriteEncoded(const std::string& table, int64_t block_id,
                                   const std::string& path,
                                   const RecordBatch& rows, bool pinned,
                                   int64_t step_id) {
  feisu::TableMeta* meta = engine_->catalog().FindMutable(table);
  if (meta == nullptr) return Status::NotFound("table " + table);
  ScopedSpan step(spans_, "ingest.block", -1, step_id);
  ColumnarBlock block;
  std::string payload;
  {
    ScopedSpan span(spans_, "columnar.encode", step.id(), step_id);
    block = ColumnarBlock::FromBatch(block_id, rows);
    payload = block.Serialize();
  }
  feisu::TableBlockMeta block_meta;
  block_meta.block_id = block_id;
  block_meta.path = path;
  block_meta.num_rows = block.num_rows();
  block_meta.bytes = payload.size();
  for (size_t c = 0; c < block.schema().num_fields(); ++c) {
    block_meta.stats.push_back(block.stats(c));
    block_meta.stats_columns.push_back(block.schema().field(c).name);
  }
  ++counts_.blocks_written;
  counts_.rows_written += block.num_rows();
  counts_.bytes_written += payload.size();
  {
    ScopedSpan span(spans_, "storage.write", step.id(), step_id);
    FEISU_RETURN_IF_ERROR(
        pinned ? log_storage_->WriteToNode(path, std::move(payload), log_node_)
               : engine_->router().Write(path, std::move(payload)));
  }
  meta->AddBlock(std::move(block_meta));
  return Status::OK();
}

Status LayeredReplay::WriteBlock(const std::string& table,
                                 const std::string& prefix,
                                 const RecordBatch& rows, int64_t step_id) {
  return WriteEncoded(table, next_block_id_++,
                      prefix + "/blk_" + std::to_string(next_block_seq_++),
                      rows, /*pinned=*/false, step_id);
}

void LayeredReplay::StartLogIngest(feisu::StorageSystem* storage,
                                   uint32_t node_id, const std::string& table,
                                   const std::string& prefix,
                                   feisu::LogMonitorConfig config) {
  log_storage_ = storage;
  log_node_ = node_id;
  log_table_ = table;
  log_prefix_ = prefix;
  log_config_ = config;
  log_pending_ = RecordBatch(engine_->catalog().Find(table)->schema());
  log_block_seq_ = 0;
}

Status LayeredReplay::OnLogLine(const std::string& line, SimTime now,
                                int64_t step_id) {
  const feisu::TableMeta* meta = engine_->catalog().Find(log_table_);
  if (meta == nullptr) return Status::NotFound("table " + log_table_);
  Result<std::vector<feisu::Value>> row = [&]() {
    ScopedSpan span(spans_, "ingest.parse_line", -1, step_id);
    return feisu::ParseLogLine(line, meta->schema());
  }();
  if (!row.ok()) return Status::OK();  // LogMonitor skips dirty lines too
  if (log_pending_.num_rows() == 0) log_oldest_ = now;
  FEISU_RETURN_IF_ERROR(log_pending_.AppendRow(*row));
  if (log_pending_.num_rows() >= log_config_.rows_per_block) {
    return CutLogBlock(step_id);
  }
  return Status::OK();
}

Status LayeredReplay::Tick(SimTime now, int64_t step_id) {
  if (log_pending_.num_rows() > 0 &&
      now - log_oldest_ >= log_config_.max_buffer_age) {
    return CutLogBlock(step_id);
  }
  return Status::OK();
}

Status LayeredReplay::CutLogBlock(int64_t step_id) {
  // LogMonitor's naming: catalog-unique ids from a hash of the path.
  std::string path = log_prefix_ + "/node" + std::to_string(log_node_) +
                     "_blk_" + std::to_string(log_block_seq_++);
  const int64_t block_id =
      static_cast<int64_t>(feisu::HashString(path) >> 1);
  FEISU_RETURN_IF_ERROR(WriteEncoded(log_table_, block_id, path, log_pending_,
                                     /*pinned=*/true, step_id));
  log_pending_ = RecordBatch(log_pending_.schema());
  return Status::OK();
}

Status LayeredReplay::Compact(const std::string& table, int64_t step_id) {
  ScopedSpan span(spans_, "core.compact", -1, step_id);
  FEISU_ASSIGN_OR_RETURN(size_t removed, engine_->CompactTable(table));
  counts_.blocks_removed += removed;
  return Status::OK();
}

}  // namespace perfbench
