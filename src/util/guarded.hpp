// Mutex-owning wrapper: state shared between threads lives inside a
// `Guarded<T>`, and the only way to reach it is `lock()`, which returns a
// handle holding the mutex for as long as the handle lives.  An access that
// forgets the lock does not compile, so lock discipline is checked by the
// compiler on every build rather than by a lint pass.
//
//   struct Queue { std::deque<Task> tasks; bool stopping = false; };
//   Guarded<Queue> queue_;
//   std::condition_variable cv_;
//
//   {
//     auto q = queue_.lock();          // critical section starts
//     q.wait(cv_, [&] { return q->stopping || !q->tasks.empty(); });
//     Task t = std::move(q->tasks.front());
//     q->tasks.pop_front();
//   }                                  // ... and ends with the handle
//
// The const overload of `lock()` yields `const T&`, so a const member
// function can read guarded state but not write it.  Fields that share one
// mutex belong in one state struct: the critical section is then exactly
// the handle's scope.
#pragma once

#include <condition_variable>
#include <mutex>
#include <utility>

namespace hpcem {

/// A `T` reachable only while its mutex is held.
template <typename T>
class Guarded {
 public:
  /// Scoped access to the guarded value; `V` is `T` or `const T`.
  template <typename V>
  class Handle {
   public:
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    Handle(Handle&&) = delete;
    Handle& operator=(Handle&&) = delete;

    [[nodiscard]] V& operator*() const { return *value_; }
    [[nodiscard]] V* operator->() const { return value_; }

    /// Block on `cv` until `pred()` holds, releasing the mutex while
    /// blocked and re-acquiring it before `pred` runs and before return.
    template <typename Pred>
    void wait(std::condition_variable& cv, Pred pred) {
      cv.wait(lock_, std::move(pred));
    }

   private:
    friend class Guarded;
    Handle(std::mutex& mu, V& value) : lock_(mu), value_(&value) {}

    std::unique_lock<std::mutex> lock_;
    V* value_;
  };

  /// Lock the mutex; the value is reachable through the handle until it
  /// goes out of scope.
  [[nodiscard]] Handle<T> lock() { return Handle<T>(mu_, value_); }
  [[nodiscard]] Handle<const T> lock() const {
    return Handle<const T>(mu_, value_);
  }

 private:
  mutable std::mutex mu_;
  T value_{};
};

}  // namespace hpcem
