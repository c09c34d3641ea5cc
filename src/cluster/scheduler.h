#ifndef FEISU_CLUSTER_SCHEDULER_H_
#define FEISU_CLUSTER_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "cluster/cluster_manager.h"
#include "cluster/network.h"
#include "common/annotations.h"
#include "common/rng.h"
#include "storage/path_router.h"

namespace feisu {

/// Scheduling policy knobs.
struct ScheduleConfig {
  bool enable_backup_tasks = true;
  /// Straggler detection is quantile-based (paper: task runtime vs. peers):
  /// a task whose elapsed runtime exceeds `backup_threshold` x the
  /// `backup_quantile`-quantile of its peers' runtimes gets a speculative
  /// copy on another replica.
  double backup_threshold = 2.0;
  double backup_quantile = 0.5;
  /// Fault/performance injection: fraction of task executions hit by a
  /// transient slowdown of `straggler_slowdown`.
  double straggler_probability = 0.0;
  double straggler_slowdown = 5.0;
};

/// Where and when one task runs.
struct Placement {
  uint32_t node_id = 0;
  bool local = true;        ///< node holds a replica of the block
  SimTime start_time = 0;
  SimTime finish_time = 0;
  bool straggled = false;
  bool backup_launched = false;
};

/// One straggler identified by DetectStragglers: which placement, and the
/// simulated instant the master notices it (the moment the task's elapsed
/// runtime crosses the detection horizon).
struct StragglerVerdict {
  size_t index = 0;
  SimTime detect_time = 0;
};

/// Scheduling state for one job's placements: the slot-booking table and
/// the straggler-injection RNG. Every job books on its own fresh ledger
/// (MakeJobLedger), so a query's simulated placements — and therefore
/// its result bytes under early termination and stem grouping — are
/// identical to a solo run no matter what else is in flight or ran
/// before. A ledger is used by one thread at a time.
struct SlotLedger {
  explicit SlotLedger(uint64_t seed) : rng(seed) {}
  // node -> finish times of booked tasks, ascending (bounded per node).
  std::map<uint32_t, std::vector<SimTime>> node_slots;
  Rng rng;
};

/// Creates scheduling plans for candidate jobs (paper §III-C "Job
/// Scheduler"): always prefer a leaf holding the data; otherwise a replica
/// holder; otherwise the least-loaded alive server (paying a network
/// transfer). Tracks per-node slot availability so concurrent tasks queue,
/// honoring each storage system's resource agreement.
///
/// Concurrency: every PlaceTask/CommitTask books on the SlotLedger it is
/// given; the master passes the running job's own ledger (from
/// MakeJobLedger), so jobs may call in from any thread. The scheduler
/// itself keeps no booking state. The fair-share leaf gate
/// (RegisterJobShare/AcquireLeafSlot/...) is the one genuinely shared
/// piece of state and is guarded by the annotated `share_mutex_`; it is a
/// leaf of the master's lock order (nothing is acquired while it is held)
/// so job threads may block on its CondVar without deadlock risk.
class JobScheduler {
 public:
  JobScheduler(ClusterManager* cluster, PathRouter* router,
               NetworkModel network, ScheduleConfig config, uint64_t seed);

  const ScheduleConfig& config() const { return config_; }
  void set_config(const ScheduleConfig& config) { config_ = config; }

  /// A fresh per-job ledger whose straggler RNG is derived from the
  /// scheduler seed and the job id (deterministic per job).
  SlotLedger MakeJobLedger(int64_t job_id) const;

  /// Picks the booking node for a block's task through `ledger`: the
  /// alive, reachable replica whose slots free up earliest, else the
  /// least-loaded alive reachable leaf (a remote read). `replicas` are the
  /// nodes holding the block. Returns the chosen node and whether it is
  /// local. `excluded` (optional) lists nodes that must not be chosen —
  /// the master passes the hosts where the task failed or was orphaned.
  Placement PlaceTask(const std::vector<uint32_t>& replicas,
                      int max_tasks_per_node, SimTime now,
                      SlotLedger* ledger,
                      const std::set<uint32_t>* excluded = nullptr);

  /// Books `duration` of work on `placement`'s node in `ledger`, starting
  /// no earlier than `placement.start_time`; fills start/finish, applying
  /// the node's slowdown factor, the injector's slow-node profile (latency
  /// multiplier plus fixed stall) and probabilistic straggler injection
  /// drawn from the ledger's RNG.
  void CommitTask(Placement* placement, SimTime duration, SimTime now,
                  SlotLedger* ledger);

  /// Quantile-based straggler detection over one job's committed
  /// placements: a task whose elapsed runtime exceeds backup_threshold x
  /// the backup_quantile-quantile of peer runtimes is a straggler, noticed
  /// at start + horizon. Pure query — launching the backup copy (real
  /// execution, first-commit-wins) is the master's job. Verdicts come back
  /// in placement order, so replays are deterministic.
  std::vector<StragglerVerdict> DetectStragglers(
      const std::vector<Placement>& placements) const;

  /// Picks the host for a straggler's backup copy: an alive, reachable
  /// replica other than `original`, else any alive reachable leaf. Returns
  /// nullopt when the cluster has no candidate (backup not launched).
  std::optional<uint32_t> PickBackupNode(
      const std::vector<uint32_t>& replicas, uint32_t original,
      SimTime now) const;

  /// Clears the fair-share peaks and wait count between benchmark phases.
  void ResetLoad() FEISU_EXCLUDES(share_mutex_);

  /// --- Fair leaf sharing across in-flight jobs. ---
  /// Each registered job gets a cap of outstanding leaf tasks
  /// proportional to its weight (priority + 1): cap = max(1, width *
  /// weight / total_weight). A huge scan therefore cannot monopolize the
  /// leaf pool while a point query waits. Total pool width is set once by
  /// the master (its leaf pool's thread count).
  void SetLeafPoolWidth(size_t width) FEISU_EXCLUDES(share_mutex_);
  void RegisterJobShare(int64_t job_id, int weight)
      FEISU_EXCLUDES(share_mutex_);
  void UnregisterJobShare(int64_t job_id) FEISU_EXCLUDES(share_mutex_);
  /// Blocks until the job is under its outstanding-task cap, then takes a
  /// slot. Caps shrink and grow as jobs register/unregister; every
  /// release/unregister wakes all waiters so nobody sleeps through a cap
  /// increase.
  void AcquireLeafSlot(int64_t job_id) FEISU_EXCLUDES(share_mutex_);
  void ReleaseLeafSlot(int64_t job_id) FEISU_EXCLUDES(share_mutex_);
  /// Highest number of leaf tasks the job had in flight at once (retained
  /// after UnregisterJobShare; fairness tests assert against the cap).
  size_t PeakLeafTasks(int64_t job_id) const FEISU_EXCLUDES(share_mutex_);
  /// Times AcquireLeafSlot had to wait because a job sat at its cap.
  uint64_t leaf_slot_waits() const FEISU_EXCLUDES(share_mutex_);

 private:
  /// Earliest available slot time on a node with `slots` parallel slots:
  /// one lookup into the node's sorted bookings.
  static SimTime EarliestSlot(
      const std::map<uint32_t, std::vector<SimTime>>& node_slots,
      uint32_t node_id, int slots, SimTime now);
  /// Inserts `finish` in order and trims the node to its 64 latest
  /// bookings once it holds more than 256.
  static void BookSlot(std::map<uint32_t, std::vector<SimTime>>* node_slots,
                       uint32_t node_id, SimTime finish);

  struct JobShare {
    int weight = 1;
    size_t in_flight = 0;
  };
  size_t CapFor(const JobShare& share) const FEISU_REQUIRES(share_mutex_);

  ClusterManager* cluster_;
  PathRouter* router_;
  NetworkModel network_;
  ScheduleConfig config_;
  uint64_t seed_;

  mutable Mutex share_mutex_;
  CondVar share_cv_;
  size_t leaf_pool_width_ FEISU_GUARDED_BY(share_mutex_) = 0;
  int total_weight_ FEISU_GUARDED_BY(share_mutex_) = 0;
  std::map<int64_t, JobShare> shares_ FEISU_GUARDED_BY(share_mutex_);
  std::map<int64_t, size_t> peak_in_flight_ FEISU_GUARDED_BY(share_mutex_);
  uint64_t leaf_slot_waits_ FEISU_GUARDED_BY(share_mutex_) = 0;
};

}  // namespace feisu

#endif  // FEISU_CLUSTER_SCHEDULER_H_
