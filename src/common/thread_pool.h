#ifndef FEISU_COMMON_THREAD_POOL_H_
#define FEISU_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.h"

namespace feisu {

/// A fixed-size thread pool with one shared FIFO queue — deliberately
/// work-stealing-free so task start order is the submission order. The
/// master's pooled leaf path submits one task per block and waits on the
/// futures in block order; each task writes only its own ordered slot, so
/// results never depend on which worker ran them. The master's job
/// coordinators run on a second pool of the same kind.
///
/// Host-level concurrency only: pool workers burn wall-clock CPU, never
/// simulated time. SimTime accounting stays with the job coordinator
/// that consumes the workers' outputs (one coordinator thread per job,
/// each booking on its own scheduling ledger).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue: blocks until every submitted task has run, then
  /// joins the workers.
  ~ThreadPool();

  size_t num_threads() const { return workers_.size(); }

  /// Number of tasks submitted but not yet finished (queued + running).
  size_t pending() const;

  /// Schedules `fn` and returns a future for its result. An exception
  /// thrown by `fn` is captured and rethrown from future::get().
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  /// Blocks until the queue is empty and no task is running.
  void Drain() FEISU_EXCLUDES(mutex_);

 private:
  void Enqueue(std::function<void()> fn) FEISU_EXCLUDES(mutex_);
  void WorkerLoop() FEISU_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  CondVar wake_workers_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ FEISU_GUARDED_BY(mutex_);
  /// Written only by the constructor and joined by the destructor; never
  /// touched from worker threads, so it needs no guard.
  std::vector<std::thread> workers_;
  size_t in_flight_ FEISU_GUARDED_BY(mutex_) = 0;  ///< queued + executing
  bool stopping_ FEISU_GUARDED_BY(mutex_) = false;
};

}  // namespace feisu

#endif  // FEISU_COMMON_THREAD_POOL_H_
