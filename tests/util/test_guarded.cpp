#include "util/guarded.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/thread_pool.hpp"

namespace hpcem {
namespace {

TEST(Guarded, PoolTasksIncrementToExactlyN) {
  constexpr int kTasks = 2000;
  Guarded<int> counter;
  ThreadPool pool(4);
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&counter] { ++*counter.lock(); });
  }
  pool.wait_idle();
  EXPECT_EQ(*counter.lock(), kTasks);
}

TEST(Guarded, WaitWakesWhenTheProducerNotifies) {
  struct Mailbox {
    bool ready = false;
    int value = 0;
  };
  Guarded<Mailbox> box;
  std::condition_variable cv;
  std::thread producer([&] {
    {
      const auto b = box.lock();
      b->value = 42;
      b->ready = true;
    }
    cv.notify_one();
  });
  int seen = 0;
  {
    auto b = box.lock();
    b.wait(cv, [&] { return b->ready; });
    seen = b->value;
  }
  producer.join();
  EXPECT_EQ(seen, 42);
}

TEST(Guarded, ConstLockGivesConstAccess) {
  Guarded<std::vector<int>> g;
  g.lock()->push_back(7);
  const Guarded<std::vector<int>>& view = g;
  static_assert(std::is_same_v<decltype(*view.lock()),
                               const std::vector<int>&>);
  static_assert(std::is_same_v<decltype(view.lock().operator->()),
                               const std::vector<int>*>);
  static_assert(std::is_same_v<decltype(*g.lock()), std::vector<int>&>);
  EXPECT_EQ(view.lock()->size(), 1u);
  EXPECT_EQ(view.lock()->front(), 7);
}

}  // namespace
}  // namespace hpcem
