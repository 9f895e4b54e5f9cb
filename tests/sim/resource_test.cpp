// Tests for the FIFO counted resource: mutual exclusion, fairness,
// hand-off semantics, try_acquire and RAII guard behaviour.
#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim_test_util.hpp"

namespace ntbshmem::sim {
namespace {

using testing::numbered;

TEST(ResourceTest, MutexSerializesCriticalSections) {
  Engine engine;
  Resource mutex(engine, "mutex");
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 5; ++i) {
    engine.spawn(numbered("p", i), [&] {
      Resource::Guard guard(mutex);
      ++inside;
      max_inside = std::max(max_inside, inside);
      engine.wait_for(usec(10));
      --inside;
    });
  }
  engine.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(engine.now(), 50'000);  // fully serialized
}

TEST(ResourceTest, FifoOrderAmongWaiters) {
  Engine engine;
  Resource mutex(engine, "mutex");
  std::vector<int> order;
  engine.spawn("holder", [&] {
    Resource::Guard guard(mutex);
    engine.wait_for(usec(100));
  });
  for (int i = 0; i < 4; ++i) {
    engine.spawn(numbered("w", i), [&, i] {
      engine.wait_for(usec(static_cast<std::int64_t>(i) + 1));  // arrival order
      Resource::Guard guard(mutex);
      order.push_back(i);
    });
  }
  engine.run();
  const std::vector<int> want = {0, 1, 2, 3};
  EXPECT_EQ(order, want);
}

TEST(ResourceTest, CountedResourceAllowsConcurrency) {
  Engine engine;
  Resource slots(engine, "slots", 3);
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 9; ++i) {
    engine.spawn(numbered("p", i), [&] {
      Resource::Guard guard(slots);
      ++inside;
      max_inside = std::max(max_inside, inside);
      engine.wait_for(usec(10));
      --inside;
    });
  }
  engine.run();
  EXPECT_EQ(max_inside, 3);
  EXPECT_EQ(engine.now(), 30'000);  // 9 jobs / 3 slots * 10us
}

TEST(ResourceTest, TryAcquireFailsWhenHeldAndWhenQueued) {
  Engine engine;
  Resource mutex(engine, "mutex");
  bool first = false;
  bool second = true;
  engine.spawn("p", [&] {
    first = mutex.try_acquire();
    second = mutex.try_acquire();
    mutex.release();
  });
  engine.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_EQ(mutex.available(), 1u);
}

TEST(ResourceTest, ReleaseHandsOffWithoutBarging) {
  // A process that calls try_acquire at the same instant release() wakes a
  // queued waiter must not steal the unit.
  Engine engine;
  Resource mutex(engine, "mutex");
  bool waiter_got_it = false;
  bool barger_got_it = true;
  engine.spawn("holder", [&] {
    mutex.acquire();
    engine.wait_for(usec(10));
    mutex.release();
    // Same instant: barger tries right after release.
    barger_got_it = mutex.try_acquire();
  });
  engine.spawn("waiter", [&] {
    engine.wait_for(usec(1));
    mutex.acquire();
    waiter_got_it = true;
    mutex.release();
  });
  engine.run();
  EXPECT_TRUE(waiter_got_it);
  EXPECT_FALSE(barger_got_it);
}

TEST(ResourceTest, OverReleaseThrows) {
  Engine engine;
  Resource mutex(engine, "mutex");
  EXPECT_THROW(mutex.release(), std::logic_error);
}

}  // namespace
}  // namespace ntbshmem::sim
