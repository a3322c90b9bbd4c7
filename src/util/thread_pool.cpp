#include "util/thread_pool.hpp"

#include <utility>

#include "util/error.hpp"

namespace hpcem {

ThreadPool::ThreadPool(std::size_t workers) {
  require(workers >= 1, "ThreadPool: need at least one worker");
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const auto state = state_.lock();
    state->stopping = true;
    state->queue.clear();
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  require(task != nullptr, "ThreadPool::submit: task must be callable");
  {
    const auto state = state_.lock();
    require_state(!state->stopping,
                  "ThreadPool::submit: pool is shutting down");
    state->queue.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  auto state = state_.lock();
  state.wait(idle_cv_,
             [&] { return state->queue.empty() && state->active == 0; });
}

std::size_t ThreadPool::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      auto state = state_.lock();
      state.wait(work_cv_,
                 [&] { return state->stopping || !state->queue.empty(); });
      if (state->stopping) return;
      task = std::move(state->queue.front());
      state->queue.pop_front();
      ++state->active;
    }
    task();
    {
      const auto state = state_.lock();
      --state->active;
      if (state->queue.empty() && state->active == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace hpcem
