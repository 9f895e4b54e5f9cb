// Tests for Event: notify/wait ordering, lost notifies and notification
// from callback context. FIFO wake order is checked by
// StressTest.EventThunderingHerdIsFifo.
#include "sim/event.hpp"

#include <gtest/gtest.h>

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
