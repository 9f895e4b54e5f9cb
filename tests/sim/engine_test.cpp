// Unit tests for the discrete-event engine: clock behaviour, process
// scheduling order, callbacks, deadlock detection, error propagation and
// shutdown of daemon processes.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event.hpp"
#include "sim_test_util.hpp"

namespace ntbshmem::sim {
namespace {

using testing::numbered;

TEST(EngineTest, ClockStartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
}

TEST(EngineTest, WaitForAdvancesClock) {
  Engine engine;
  Time observed = -1;
  engine.spawn("p", [&] {
    engine.wait_for(usec(5));
    observed = engine.now();
  });
  engine.run();
  EXPECT_EQ(observed, 5'000);
}

TEST(EngineTest, WaitUntilPastTimeDoesNotGoBackwards) {
  Engine engine;
  Time observed = -1;
  engine.spawn("p", [&] {
    engine.wait_for(usec(10));
    engine.wait_until(usec(3));  // already in the past
    observed = engine.now();
  });
  engine.run();
  EXPECT_EQ(observed, 10'000);
}

TEST(EngineTest, ProcessesInterleaveInTimeOrder) {
  Engine engine;
  std::vector<std::string> order;
  engine.spawn("a", [&] {
    engine.wait_for(usec(2));
    order.push_back("a@2");
    engine.wait_for(usec(3));
    order.push_back("a@5");
  });
  engine.spawn("b", [&] {
    engine.wait_for(usec(1));
    order.push_back("b@1");
    engine.wait_for(usec(3));
    order.push_back("b@4");
  });
  engine.run();
  const std::vector<std::string> want = {"b@1", "a@2", "b@4", "a@5"};
  EXPECT_EQ(order, want);
}

TEST(EngineTest, EqualTimesResolveInSpawnOrderFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    engine.spawn(numbered("p", i), [&order, i] {
      order.push_back(i);
    });
  }
  engine.run();
  const std::vector<int> want = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(order, want);
}

TEST(EngineTest, YieldReordersBehindSameTimeWork) {
  Engine engine;
  std::vector<std::string> order;
  engine.spawn("a", [&] {
    order.push_back("a1");
    engine.yield();
    order.push_back("a2");
  });
  engine.spawn("b", [&] { order.push_back("b"); });
  engine.run();
  const std::vector<std::string> want = {"a1", "b", "a2"};
  EXPECT_EQ(order, want);
}

TEST(EngineTest, StaleSecondWakeupIsSkipped) {
  // The epoch guard: a process with two queued wake-ups resumes at the
  // earlier one, which makes the later entry stale. It must not cut the
  // process's next wait short.
  Engine engine;
  std::vector<Time> wakes;
  engine.spawn("w", [&] {
    Process* self = engine.current();
    engine.schedule_process(usec(2), self);
    engine.schedule_process(usec(10), self);
    engine.block_current(self);
    wakes.push_back(engine.now());
    engine.wait_for(usec(100));  // crosses the stale entry at t=10us
    wakes.push_back(engine.now());
  });
  engine.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], 2'000);
  EXPECT_EQ(wakes[1], 102'000);
}

TEST(EngineTest, CallAfterFiresAtRightTime) {
  Engine engine;
  Time fired_at = -1;
  engine.call_after(usec(7), [&] { fired_at = engine.now(); });
  engine.spawn("keepalive", [&] { engine.wait_for(usec(10)); });
  engine.run();
  EXPECT_EQ(fired_at, 7'000);
}

TEST(EngineTest, CancelledCallbackDoesNotFire) {
  Engine engine;
  bool fired = false;
  auto handle = engine.call_after(usec(1), [&] { fired = true; });
  handle.cancel();
  engine.spawn("keepalive", [&] { engine.wait_for(usec(10)); });
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, CallbacksDoNotKeepRunAlive) {
  // run() returns when all non-daemon processes finish even if callbacks
  // remain queued in the future.
  Engine engine;
  bool fired = false;
  engine.call_after(msec(100), [&] { fired = true; });
  engine.spawn("p", [&] { engine.wait_for(usec(1)); });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_LE(engine.now(), msec(100));
}

TEST(EngineTest, DaemonDoesNotKeepRunAlive) {
  Engine engine;
  int daemon_steps = 0;
  engine.spawn(
      "daemon",
      [&] {
        for (;;) {
          engine.wait_for(usec(1));
          ++daemon_steps;
        }
      },
      /*daemon=*/true);
  engine.spawn("worker", [&] { engine.wait_for(usec(5)); });
  engine.run();
  EXPECT_EQ(engine.now(), 5'000);
  EXPECT_LE(daemon_steps, 5);
}

TEST(EngineTest, RunCanBeCalledRepeatedly) {
  Engine engine;
  engine.spawn("one", [&] { engine.wait_for(usec(1)); });
  engine.run();
  EXPECT_EQ(engine.now(), 1'000);
  engine.spawn("two", [&] { engine.wait_for(usec(2)); });
  engine.run();
  EXPECT_EQ(engine.now(), 3'000);
}

TEST(EngineTest, ExceptionInProcessPropagatesToRun) {
  Engine engine;
  engine.spawn("boom", [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(EngineTest, DeadlockIsDetectedAndNamed) {
  Engine engine;
  Event never(engine, "never-signaled");
  engine.spawn("stuck", [&] { never.wait(); });
  try {
    engine.run();
    FAIL() << "expected SimDeadlock";
  } catch (const SimDeadlock& e) {
    EXPECT_NE(std::string(e.what()).find("stuck"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("never-signaled"), std::string::npos);
  }
}

TEST(EngineTest, WaitOutsideProcessThrows) {
  Engine engine;
  EXPECT_THROW(engine.wait_for(usec(1)), std::logic_error);
  EXPECT_THROW(engine.yield(), std::logic_error);
}

TEST(EngineTest, RunFromInsideOwnProcessThrows) {
  Engine engine;
  Process* inside = nullptr;
  bool threw = false;
  Process& p = engine.spawn("p", [&] {
    inside = engine.current();
    try {
      engine.run();
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  EXPECT_EQ(engine.current(), nullptr);
  engine.run();
  EXPECT_EQ(inside, &p);
  EXPECT_TRUE(threw);
  EXPECT_EQ(engine.current(), nullptr);
}

TEST(EngineTest, DestructorKillsBlockedProcessesCleanly) {
  // A daemon blocked forever must be unwound (RAII observed) when the
  // engine is destroyed.
  bool cleaned_up = false;
  {
    Engine engine;
    Event forever(engine, "forever");
    engine.spawn(
        "daemon",
        [&] {
          struct Cleanup {
            bool* flag;
            ~Cleanup() { *flag = true; }
          } cleanup{&cleaned_up};
          forever.wait();
        },
        /*daemon=*/true);
    engine.spawn("worker", [&] { engine.wait_for(usec(1)); });
    engine.run();
    EXPECT_FALSE(cleaned_up);  // daemon still parked
  }
  EXPECT_TRUE(cleaned_up);
}

TEST(EngineTest, LiveProcessCountTracksCompletion) {
  Engine engine;
  engine.spawn("a", [&] { engine.wait_for(usec(1)); });
  engine.spawn("b", [&] { engine.wait_for(usec(2)); });
  EXPECT_EQ(engine.live_processes(), 2u);
  engine.run();
  EXPECT_EQ(engine.live_processes(), 0u);
}

}  // namespace
}  // namespace ntbshmem::sim

// (appended) Scheduler ordering between inline callbacks and processes.
namespace ntbshmem::sim {
namespace {

TEST(EngineOrderingTest, QueueEntriesOrderByEnqueueTimeAtOneInstant) {
  Engine engine;
  std::vector<std::string> order;
  // All four land at t=5us. Tie-break is the sequence number at ENQUEUE
  // time: the callbacks enqueue immediately at registration, while the
  // processes enqueue only when their bodies call wait_for (at t=0, after
  // every registration below ran) — so both callbacks precede both
  // processes, and within each group creation order holds.
  engine.call_after(usec(5), [&] { order.push_back("cb1"); });
  engine.spawn("p1", [&] {
    engine.wait_for(usec(5));
    order.push_back("p1");
  });
  engine.call_after(usec(5), [&] { order.push_back("cb2"); });
  engine.spawn("p2", [&] {
    engine.wait_for(usec(5));
    order.push_back("p2");
  });
  engine.run();
  const std::vector<std::string> want = {"cb1", "cb2", "p1", "p2"};
  EXPECT_EQ(order, want);
}

TEST(EngineOrderingTest, CallbackScheduledInsideCallbackRunsSameInstant) {
  Engine engine;
  std::vector<int> order;
  engine.call_after(usec(1), [&] {
    order.push_back(1);
    engine.call_after(0, [&] { order.push_back(2); });
  });
  engine.spawn("keepalive", [&] { engine.wait_for(usec(10)); });
  engine.run();
  const std::vector<int> want = {1, 2};
  EXPECT_EQ(order, want);
}

}  // namespace
}  // namespace ntbshmem::sim
