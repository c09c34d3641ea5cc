#include "core/engine.h"

#include <chrono>
#include <sstream>

#include "columnar/json_flatten.h"

namespace feisu {

FeisuEngine::FeisuEngine(EngineConfig config) : config_(config) {
  // Queue-wait observability needs a host wall clock (SimTime cannot see
  // host queueing); install a monotonic default unless the embedder
  // supplied one.
  if (!config_.master.host_clock_ns) {
    config_.master.host_clock_ns = []() {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    };
  }
  fault_injector_.Configure(config_.fault);
  router_.set_fault_injector(&fault_injector_);
  for (size_t i = 0; i < config_.num_leaf_nodes; ++i) {
    uint32_t node_id = cluster_.AddNode(/*is_stem=*/false);
    leaves_.push_back(
        std::make_unique<LeafServer>(node_id, &router_, config_.leaf));
  }
  master_ = std::make_unique<MasterServer>(&catalog_, &router_, &cluster_,
                                           &sso_, &leaves_, config_.master);
}

StorageSystem* FeisuEngine::AddStorage(const std::string& prefix,
                                       std::unique_ptr<StorageSystem> storage,
                                       bool is_default) {
  StorageSystem* raw = router_.Register(prefix, std::move(storage),
                                        is_default);
  for (const auto& leaf : leaves_) {
    raw->RegisterNode(leaf->node_id());
  }
  return raw;
}

void FeisuEngine::GrantAllDomains(const std::string& user) {
  sso_.RegisterUser(user);
  for (StorageSystem* storage : router_.systems()) {
    sso_.GrantDomain(user, storage->domain());
  }
}

Status FeisuEngine::CreateTable(const std::string& name, Schema schema,
                                const std::string& path_prefix) {
  FEISU_RETURN_IF_ERROR(
      catalog_.RegisterTable(TableMeta(name, std::move(schema))));
  IngestState state;
  state.path_prefix = path_prefix;
  state.pending = RecordBatch(catalog_.Find(name)->schema());
  ingest_.emplace(name, std::move(state));
  return Status::OK();
}

Status FeisuEngine::Ingest(const std::string& table,
                           const RecordBatch& batch) {
  auto it = ingest_.find(table);
  if (it == ingest_.end()) {
    return Status::NotFound("table " + table + " not created here");
  }
  IngestState& state = it->second;
  FEISU_RETURN_IF_ERROR(state.pending.Append(batch));
  while (state.pending.num_rows() >= config_.rows_per_block) {
    // Carve off one block worth of rows.
    BitVector head(state.pending.num_rows(), false);
    BitVector tail(state.pending.num_rows(), false);
    for (size_t i = 0; i < state.pending.num_rows(); ++i) {
      if (i < config_.rows_per_block) {
        head.Set(i, true);
      } else {
        tail.Set(i, true);
      }
    }
    RecordBatch block_rows = state.pending.Filter(head);
    RecordBatch rest = state.pending.Filter(tail);
    state.pending = std::move(block_rows);
    FEISU_RETURN_IF_ERROR(WriteBlock(table, &state));
    state.pending = std::move(rest);
  }
  return Status::OK();
}

Status FeisuEngine::Flush(const std::string& table) {
  auto it = ingest_.find(table);
  if (it == ingest_.end()) {
    return Status::NotFound("table " + table + " not created here");
  }
  if (it->second.pending.num_rows() == 0) return Status::OK();
  return WriteBlock(table, &it->second);
}

Status FeisuEngine::WriteBlock(const std::string& table, IngestState* state) {
  TableMeta* meta = catalog_.FindMutable(table);
  if (meta == nullptr) return Status::NotFound("table " + table);
  int64_t block_id = next_global_block_id_++;
  ColumnarBlock block = ColumnarBlock::FromBatch(block_id, state->pending);
  std::string payload = block.Serialize();

  TableBlockMeta block_meta;
  block_meta.block_id = block_id;
  block_meta.path = state->path_prefix + "/blk_" +
                    std::to_string(state->next_block++);
  block_meta.num_rows = block.num_rows();
  block_meta.bytes = payload.size();
  for (size_t c = 0; c < block.schema().num_fields(); ++c) {
    block_meta.stats.push_back(block.stats(c));
    block_meta.stats_columns.push_back(block.schema().field(c).name);
  }
  FEISU_RETURN_IF_ERROR(router_.Write(block_meta.path, std::move(payload)));
  meta->AddBlock(std::move(block_meta));
  state->pending = RecordBatch(meta->schema());
  return Status::OK();
}

Status FeisuEngine::IngestJsonLines(const std::string& table,
                                    const std::string& lines) {
  const TableMeta* meta = catalog_.Find(table);
  if (meta == nullptr) return Status::NotFound("table " + table);
  const Schema& schema = meta->schema();
  RecordBatch batch(schema);
  std::istringstream stream(lines);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    FEISU_ASSIGN_OR_RETURN(std::vector<FlatAttribute> attrs,
                           FlattenJson(line));
    std::vector<Value> row(schema.num_fields());
    for (const auto& attr : attrs) {
      int idx = schema.FieldIndex(attr.path);
      if (idx < 0) {
        return Status::InvalidArgument("attribute " + attr.path +
                                       " not in schema of " + table);
      }
      Value v = attr.value;
      // Widen int64 into double columns.
      if (!v.is_null() && schema.field(idx).type == DataType::kDouble &&
          v.type() == DataType::kInt64) {
        v = Value::Double(v.AsDouble());
      }
      row[static_cast<size_t>(idx)] = std::move(v);
    }
    FEISU_RETURN_IF_ERROR(batch.AppendRow(row));
  }
  return Ingest(table, batch);
}

Result<size_t> FeisuEngine::CompactTable(const std::string& table) {
  TableMeta* meta = catalog_.FindMutable(table);
  if (meta == nullptr) return Status::NotFound("table " + table);
  auto it = ingest_.find(table);
  if (it == ingest_.end()) {
    return Status::NotFound("table " + table + " not created here");
  }
  const uint32_t threshold = config_.rows_per_block / 2;

  std::vector<TableBlockMeta> keep;
  std::vector<TableBlockMeta> small;
  for (const auto& block : meta->blocks()) {
    (block.num_rows < threshold ? small : keep).push_back(block);
  }
  if (small.size() < 2) return static_cast<size_t>(0);

  // Read the small blocks back and concatenate their rows.
  RecordBatch merged(meta->schema());
  for (const auto& block : small) {
    FEISU_ASSIGN_OR_RETURN(const std::string* payload,
                           router_.Get(block.path));
    FEISU_ASSIGN_OR_RETURN(ColumnarBlock decoded,
                           ColumnarBlock::Deserialize(*payload));
    FEISU_ASSIGN_OR_RETURN(RecordBatch rows, decoded.DecodeBatch());
    FEISU_RETURN_IF_ERROR(merged.Append(rows));
  }

  // Rebuild the catalog with the surviving blocks, then re-ingest the
  // merged rows through the normal block writer.
  TableMeta rebuilt(meta->name(), meta->schema());
  for (auto& block : keep) rebuilt.AddBlock(std::move(block));
  *meta = std::move(rebuilt);
  size_t removed = small.size();
  for (const auto& block : small) {
    FEISU_ASSIGN_OR_RETURN(StorageSystem * storage,
                           router_.Resolve(block.path));
    FEISU_RETURN_IF_ERROR(storage->Delete(block.path));
  }
  FEISU_RETURN_IF_ERROR(merged.num_rows() > 0 ? Ingest(table, merged)
                                              : Status::OK());
  FEISU_RETURN_IF_ERROR(Flush(table));
  // Old block ids vanished: stale task-result cache entries must not serve.
  master_->job_manager().InvalidateReuseCache();
  return removed;
}

Result<QueryResult> FeisuEngine::Query(const std::string& user,
                                       const std::string& sql) {
  FEISU_ASSIGN_OR_RETURN(QueryResult result,
                         master_->ExecuteQuery(user, sql, clock_.Now()));
  clock_.Advance(result.stats.response_time);
  return result;
}

Result<QueryResult> FeisuEngine::QueryAt(const std::string& user,
                                         const std::string& sql,
                                         SimTime now) {
  clock_.AdvanceTo(now);
  return master_->ExecuteQuery(user, sql, now);
}

Result<int64_t> FeisuEngine::SubmitQueryAt(
    const std::string& user, const std::string& sql, SimTime now,
    const SubmitOptions& options) {
  // No clock advance: concurrent submissions share one simulated instant;
  // each job's simulated response time is measured from `now` on its own
  // ledger.
  return master_->SubmitQuery(user, sql, now, options);
}

Result<QueryResult> FeisuEngine::WaitQuery(int64_t job_id) {
  return master_->WaitQuery(job_id);
}

IndexCacheStats FeisuEngine::AggregateIndexStats() const {
  IndexCacheStats total;
  for (const auto& leaf : leaves_) {
    const IndexCacheStats& s = leaf->index_cache().stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.lru_evictions += s.lru_evictions;
    total.ttl_evictions += s.ttl_evictions;
  }
  return total;
}

ResolverStats FeisuEngine::AggregateResolverStats() const {
  ResolverStats total;
  for (const auto& leaf : leaves_) total += leaf->resolver_stats();
  return total;
}

uint64_t FeisuEngine::TotalIndexMemory() const {
  uint64_t total = 0;
  for (const auto& leaf : leaves_) {
    total += leaf->index_cache().memory_bytes();
  }
  return total;
}

void FeisuEngine::RunMaintenance(SimTime now) {
  clock_.AdvanceTo(now);
  // Apply the chaos schedule first: crashes/recoveries whose time has come
  // take effect before this round's heartbeats.
  for (const NodeFaultEvent& event : fault_injector_.TakeDueNodeEvents(now)) {
    if (event.crash) {
      cluster_.MarkDead(event.node_id);
      // The process is really gone now; a later partition heal must not
      // resurrect it (only a recovery event may).
      partition_suppressed_.erase(event.node_id);
    } else {
      cluster_.MarkAlive(event.node_id, now);
    }
  }
  for (const auto& leaf : leaves_) {
    const uint32_t id = leaf->node_id();
    const NodeInfo* node = cluster_.Node(id);
    // Crashed processes stop heartbeating; the sweep below notices. A
    // heartbeat lost in the control plane has the same effect for this
    // round. A partitioned node keeps running but its heartbeats never
    // arrive — a long enough partition gets it swept dead, and because
    // suppression (not a crash) caused that, the first heartbeat after
    // the heal revives it.
    if (node != nullptr) {
      if (fault_injector_.IsPartitioned(id, now)) {
        if (node->alive || partition_suppressed_.contains(id)) {
          partition_suppressed_.insert(id);
        }
      } else {
        const bool healed = partition_suppressed_.erase(id) > 0;
        if ((node->alive || healed) &&
            !fault_injector_.DropHeartbeat(id, now)) {
          cluster_.Heartbeat(id, now);
        }
      }
    }
    leaf->index_cache().EvictExpired(now);
  }
  cluster_.SweepLiveness(now);
}

void FeisuEngine::SetIndexCacheCapacity(uint64_t bytes) {
  for (const auto& leaf : leaves_) {
    leaf->index_cache().set_capacity_bytes(bytes);
  }
}

void FeisuEngine::ResetCaches() {
  for (const auto& leaf : leaves_) {
    leaf->index_cache().Clear();
    leaf->index_cache().ResetStats();
  }
  master_->scheduler().ResetLoad();
  master_->job_manager().InvalidateReuseCache();
}

}  // namespace feisu
