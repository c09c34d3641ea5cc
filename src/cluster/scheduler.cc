#include "cluster/scheduler.h"

#include <algorithm>

#include "common/fault_injector.h"

namespace feisu {

JobScheduler::JobScheduler(ClusterManager* cluster, PathRouter* router,
                           NetworkModel network, ScheduleConfig config,
                           uint64_t seed)
    : cluster_(cluster),
      router_(router),
      network_(network),
      config_(config),
      seed_(seed) {}

SlotLedger JobScheduler::MakeJobLedger(int64_t job_id) const {
  // Same splitmix-style derivation the fault injector uses for per-entity
  // streams: the job's straggler draws are independent of sibling jobs
  // and stable run-to-run.
  uint64_t mixed = seed_ ^ (0x9E3779B97F4A7C15ULL *
                            static_cast<uint64_t>(job_id + 1));
  return SlotLedger(mixed);
}

SimTime JobScheduler::EarliestSlot(
    const std::map<uint32_t, std::vector<SimTime>>& node_slots,
    uint32_t node_id, int slots, SimTime now) {
  auto it = node_slots.find(node_id);
  if (it == node_slots.end()) return now;
  const std::vector<SimTime>& booked = it->second;
  if (booked.size() < static_cast<size_t>(slots)) return now;
  // Occupancy at time t = number of bookings finishing after t. A new task
  // can start when occupancy < slots, i.e. after the (n - slots)-th finish;
  // BookSlot keeps `booked` sorted, so that is one index.
  return std::max(now, booked[booked.size() - static_cast<size_t>(slots)]);
}

void JobScheduler::BookSlot(
    std::map<uint32_t, std::vector<SimTime>>* node_slots, uint32_t node_id,
    SimTime finish) {
  std::vector<SimTime>& booked = (*node_slots)[node_id];
  booked.insert(std::upper_bound(booked.begin(), booked.end(), finish),
                finish);
  // Bound growth: drop bookings that can no longer constrain anything
  // (older than the 64 most recent).
  if (booked.size() > 256) booked.erase(booked.begin(), booked.end() - 64);
}

Placement JobScheduler::PlaceTask(const std::vector<uint32_t>& replicas,
                                  int max_tasks_per_node, SimTime now,
                                  SlotLedger* ledger,
                                  const std::set<uint32_t>* excluded) {
  const std::map<uint32_t, std::vector<SimTime>>& node_slots =
      ledger->node_slots;
  // A partitioned node is alive but cannot receive a dispatch right now,
  // so placement treats it exactly like an excluded one.
  Reachability reach(router_->fault_injector());
  auto is_excluded = [excluded, &reach, now](uint32_t node_id) {
    if (excluded != nullptr && excluded->count(node_id) > 0) return true;
    return !reach.Reachable(node_id, now);
  };
  Placement placement;
  // 1. Prefer the replica whose slots free up earliest.
  uint32_t best_node = 0;
  SimTime best_start = 0;
  bool found = false;
  for (uint32_t node_id : replicas) {
    if (is_excluded(node_id)) continue;
    const NodeInfo* node = cluster_->Node(node_id);
    if (node == nullptr || !node->alive) continue;
    int slots = std::min(node->task_slots, max_tasks_per_node);
    SimTime start = EarliestSlot(node_slots, node_id, slots, now);
    if (!found || start < best_start) {
      found = true;
      best_node = node_id;
      best_start = start;
    }
  }
  if (found) {
    placement.node_id = best_node;
    placement.local = true;
    placement.start_time = best_start;
    return placement;
  }
  // 2. Fall back: least-loaded alive leaf (remote read).
  for (uint32_t node_id : cluster_->AliveLeafNodes()) {
    if (is_excluded(node_id)) continue;
    const NodeInfo* node = cluster_->Node(node_id);
    int slots = std::min(node->task_slots, max_tasks_per_node);
    SimTime start = EarliestSlot(node_slots, node_id, slots, now);
    if (!found || start < best_start) {
      found = true;
      best_node = node_id;
      best_start = start;
    }
  }
  placement.node_id = found ? best_node : 0;
  placement.local = false;
  placement.start_time = best_start;
  return placement;
}

void JobScheduler::CommitTask(Placement* placement, SimTime duration,
                              SimTime now, SlotLedger* ledger) {
  const NodeInfo* node = cluster_->Node(placement->node_id);
  double factor = node != nullptr ? node->slowdown_factor : 1.0;
  if (config_.straggler_probability > 0 &&
      ledger->rng.NextBool(config_.straggler_probability)) {
    factor *= config_.straggler_slowdown;
    placement->straggled = true;
  }
  // Injected slow-node personality (contended host / sick disk): every
  // task committed to the node runs slower and pays a fixed stall.
  SimTime stall = 0;
  if (FaultInjector* faults = router_->fault_injector()) {
    SlowNodeProfile slow =
        faults->NodeSlowProfile(placement->node_id, /*count=*/true);
    if (slow.latency_multiplier > 1.0 || slow.stall > 0) {
      factor *= std::max(1.0, slow.latency_multiplier);
      stall = slow.stall;
      placement->straggled = true;
    }
  }
  SimTime effective =
      static_cast<SimTime>(static_cast<double>(duration) * factor) + stall;
  // Dispatch costs one control round trip.
  SimTime start =
      std::max(placement->start_time, now + network_.ControlRoundTrip());
  placement->start_time = start;
  placement->finish_time = start + effective;
  BookSlot(&ledger->node_slots, placement->node_id, placement->finish_time);
}

std::vector<StragglerVerdict> JobScheduler::DetectStragglers(
    const std::vector<Placement>& placements) const {
  std::vector<StragglerVerdict> verdicts;
  if (!config_.enable_backup_tasks || placements.size() < 2) return verdicts;
  // The typical runtime is the backup_quantile-quantile of the peers'
  // elapsed times; a straggler is anything beyond threshold x typical.
  std::vector<SimTime> elapsed;
  elapsed.reserve(placements.size());
  for (const Placement& p : placements) {
    elapsed.push_back(p.finish_time - p.start_time);
  }
  std::vector<SimTime> sorted = elapsed;
  std::sort(sorted.begin(), sorted.end());
  double q = std::clamp(config_.backup_quantile, 0.0, 1.0);
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  SimTime typical = sorted[idx];
  if (typical <= 0) return verdicts;
  SimTime horizon = static_cast<SimTime>(
      static_cast<double>(typical) * std::max(1.0, config_.backup_threshold));
  for (size_t i = 0; i < placements.size(); ++i) {
    if (elapsed[i] <= horizon) continue;
    verdicts.push_back(
        StragglerVerdict{i, placements[i].start_time + horizon});
  }
  return verdicts;
}

std::optional<uint32_t> JobScheduler::PickBackupNode(
    const std::vector<uint32_t>& replicas, uint32_t original,
    SimTime now) const {
  Reachability reach(router_->fault_injector());
  auto usable = [&](uint32_t node_id) {
    if (node_id == original) return false;
    const NodeInfo* node = cluster_->Node(node_id);
    return node != nullptr && node->alive && reach.Reachable(node_id, now);
  };
  // Prefer another replica holder (local read); otherwise any alive
  // reachable leaf pays a remote read.
  for (uint32_t node_id : replicas) {
    if (usable(node_id)) return node_id;
  }
  for (uint32_t node_id : cluster_->AliveLeafNodes()) {
    if (usable(node_id)) return node_id;
  }
  return std::nullopt;
}

void JobScheduler::ResetLoad() {
  MutexLock lock(share_mutex_);
  peak_in_flight_.clear();
  leaf_slot_waits_ = 0;
}

size_t JobScheduler::CapFor(const JobShare& share) const {
  if (leaf_pool_width_ == 0 || total_weight_ <= 0) return SIZE_MAX;
  size_t cap = leaf_pool_width_ * static_cast<size_t>(share.weight) /
               static_cast<size_t>(total_weight_);
  return std::max<size_t>(1, cap);
}

void JobScheduler::SetLeafPoolWidth(size_t width) {
  MutexLock lock(share_mutex_);
  leaf_pool_width_ = width;
}

void JobScheduler::RegisterJobShare(int64_t job_id, int weight) {
  MutexLock lock(share_mutex_);
  JobShare share;
  share.weight = std::max(1, weight);
  total_weight_ += share.weight;
  shares_[job_id] = share;
  // Existing waiters' caps just shrank — they re-check and keep waiting;
  // no wakeup needed for shrink, but one is harmless and keeps the gate
  // simple.
  share_cv_.NotifyAll();
}

void JobScheduler::UnregisterJobShare(int64_t job_id) {
  MutexLock lock(share_mutex_);
  auto it = shares_.find(job_id);
  if (it == shares_.end()) return;
  total_weight_ -= it->second.weight;
  shares_.erase(it);
  // Remaining jobs' caps grew: wake every waiter to re-check.
  share_cv_.NotifyAll();
}

void JobScheduler::AcquireLeafSlot(int64_t job_id) {
  MutexLock lock(share_mutex_);
  auto it = shares_.find(job_id);
  if (it == shares_.end()) return;  // unregistered job: no gating
  bool waited = false;
  while (it->second.in_flight >= CapFor(it->second)) {
    waited = true;
    share_cv_.Wait(lock);
    it = shares_.find(job_id);
    if (it == shares_.end()) return;
  }
  if (waited) ++leaf_slot_waits_;
  ++it->second.in_flight;
  size_t& peak = peak_in_flight_[job_id];
  peak = std::max(peak, it->second.in_flight);
}

void JobScheduler::ReleaseLeafSlot(int64_t job_id) {
  MutexLock lock(share_mutex_);
  auto it = shares_.find(job_id);
  if (it == shares_.end()) return;
  if (it->second.in_flight > 0) --it->second.in_flight;
  share_cv_.NotifyAll();
}

size_t JobScheduler::PeakLeafTasks(int64_t job_id) const {
  MutexLock lock(share_mutex_);
  auto it = peak_in_flight_.find(job_id);
  return it == peak_in_flight_.end() ? 0 : it->second;
}

uint64_t JobScheduler::leaf_slot_waits() const {
  MutexLock lock(share_mutex_);
  return leaf_slot_waits_;
}

}  // namespace feisu
