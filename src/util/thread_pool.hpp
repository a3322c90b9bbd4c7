// Fixed-size worker thread pool.
//
// The campaign layer (core/campaign.hpp) fans N scenarios x M seeds out over
// a pool of workers; each task owns a shared-nothing simulator, so the pool
// needs no task-to-task synchronisation beyond the queue itself.  Tasks are
// dequeued in FIFO order; `wait_idle` gives the submit-then-barrier shape a
// deterministic merge step needs (all results present before any merging).
// The queue, the busy count and the shutdown flag share one mutex, held in
// a Guarded<State>, so every access to them takes the lock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/guarded.hpp"

namespace hpcem {

/// Fixed-size pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Spawn `workers` threads (at least one).
  explicit ThreadPool(std::size_t workers);

  /// Drains nothing: pending tasks that never ran are discarded, but tasks
  /// already executing are completed before the threads join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task.  Thread-safe; may be called from worker threads.
  /// Tasks must not throw — an exception escaping a task terminates the
  /// process; capture it inside the task (std::exception_ptr) instead.
  void submit(std::function<void()> task);

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  /// A sensible default worker count: hardware concurrency, at least one.
  [[nodiscard]] static std::size_t default_workers();

 private:
  void worker_loop();

  struct State {
    std::deque<std::function<void()>> queue;
    std::size_t active = 0;  ///< tasks currently executing
    bool stopping = false;
  };

  std::vector<std::thread> threads_;
  Guarded<State> state_;
  std::condition_variable work_cv_;   ///< signals workers: task or shutdown
  std::condition_variable idle_cv_;   ///< signals waiters: pool went idle
};

}  // namespace hpcem
