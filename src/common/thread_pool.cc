#include "common/thread_pool.h"

#include <algorithm>

namespace feisu {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Drain();
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake_workers_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::pending() const {
  MutexLock lock(mutex_);
  return in_flight_;
}

void ThreadPool::Enqueue(std::function<void()> fn) {
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(fn));
    ++in_flight_;
  }
  wake_workers_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) wake_workers_.Wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) idle_.NotifyAll();
    }
  }
}

void ThreadPool::Drain() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) idle_.Wait(lock);
}

}  // namespace feisu
