// Tests for Event: notify/wait ordering, FIFO fairness, timeouts, and the
// interaction between a timeout and a same-instant notify.
#include "sim/event.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim_test_util.hpp"

namespace ntbshmem::sim {
namespace {

using testing::numbered;

TEST(EventTest, NotifyAllWakesEveryWaiter) {
  Engine engine;
  Event ev(engine, "ev");
  int woken = 0;
  for (int i = 0; i < 4; ++i) {
    engine.spawn(numbered("w", i), [&] {
      ev.wait();
      ++woken;
    });
  }
  engine.spawn("notifier", [&] {
    engine.wait_for(usec(3));
    ev.notify_all();
  });
  engine.run();
  EXPECT_EQ(woken, 4);
  EXPECT_EQ(engine.now(), 3'000);
}

TEST(EventTest, NotifyOneWakesInFifoOrder) {
  Engine engine;
  Event ev(engine, "ev");
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    engine.spawn(numbered("w", i), [&, i] {
      ev.wait();
      order.push_back(i);
    });
  }
  engine.spawn("notifier", [&] {
    for (int i = 0; i < 3; ++i) {
      engine.wait_for(usec(1));
      ev.notify_one();
    }
  });
  engine.run();
  const std::vector<int> want = {0, 1, 2};
  EXPECT_EQ(order, want);
}

TEST(EventTest, NotifyWithNoWaitersIsLost) {
  // Events are condition-variable style: no memory. The second process must
  // use a predicate, not rely on a missed notify.
  Engine engine;
  Event ev(engine, "ev");
  bool flag = false;
  engine.spawn("notifier", [&] {
    flag = true;
    ev.notify_all();
  });
  engine.spawn("waiter", [&] {
    engine.wait_for(usec(1));
    while (!flag) ev.wait();  // predicate loop: does not block
  });
  engine.run();
  EXPECT_TRUE(flag);
}

TEST(EventTest, WaitForTimesOut) {
  Engine engine;
  Event ev(engine, "ev");
  bool notified = true;
  engine.spawn("w", [&] { notified = ev.wait_for(usec(10)); });
  engine.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(engine.now(), 10'000);
  EXPECT_EQ(ev.waiter_count(), 0u) << "timed-out waiter must deregister";
}

TEST(EventTest, WaitForNotifiedBeforeTimeout) {
  Engine engine;
  Event ev(engine, "ev");
  bool notified = false;
  Time woke_at = -1;
  engine.spawn("w", [&] {
    notified = ev.wait_for(usec(10));
    woke_at = engine.now();
  });
  engine.spawn("n", [&] {
    engine.wait_for(usec(4));
    ev.notify_all();
  });
  engine.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(woke_at, 4'000);
}

TEST(EventTest, StaleTimeoutAfterNotifyDoesNotDoubleWake) {
  // After an early notify, the queued timeout entry must be ignored; the
  // process continues normally and can block again without a spurious wake.
  Engine engine;
  Event ev(engine, "ev");
  std::vector<Time> wakes;
  engine.spawn("w", [&] {
    EXPECT_TRUE(ev.wait_for(usec(10)));
    wakes.push_back(engine.now());
    engine.wait_for(usec(100));  // crosses the stale timeout at t=10us
    wakes.push_back(engine.now());
  });
  engine.spawn("n", [&] {
    engine.wait_for(usec(2));
    ev.notify_all();
  });
  engine.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], 2'000);
  EXPECT_EQ(wakes[1], 102'000);
}

TEST(EventTest, NotifyFromInlineCallback) {
  Engine engine;
  Event ev(engine, "ev");
  Time woke_at = -1;
  engine.spawn("w", [&] {
    ev.wait();
    woke_at = engine.now();
  });
  engine.call_after(usec(6), [&] { ev.notify_all(); });
  engine.run();
  EXPECT_EQ(woke_at, 6'000);
}

}  // namespace
}  // namespace ntbshmem::sim
