// Engine stress: many processes contending on shared primitives, repeated
// runs on one engine, and determinism at scale.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/bandwidth.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/resource.hpp"
#include "sim_test_util.hpp"

namespace ntbshmem::sim {
namespace {

using testing::numbered;

TEST(StressTest, ManyProcessesOnSharedMutex) {
  Engine engine;
  Resource mutex(engine, "m");
  int counter = 0;
  constexpr int kProcs = 64;
  constexpr int kIters = 20;
  for (int p = 0; p < kProcs; ++p) {
    engine.spawn(numbered("p", p), [&] {
      for (int i = 0; i < kIters; ++i) {
        Resource::Guard guard(mutex);
        const int snapshot = counter;
        engine.wait_for(usec(1));
        counter = snapshot + 1;  // lost update unless mutual exclusion holds
      }
    });
  }
  engine.run();
  EXPECT_EQ(counter, kProcs * kIters);
  EXPECT_EQ(engine.now(), usec(kProcs * kIters));
}

TEST(StressTest, ManyFlowsShareBandwidthExactly) {
  Engine engine;
  BandwidthResource link(engine, "link", 1e9);
  constexpr int kFlows = 40;
  std::vector<Time> done(kFlows, 0);
  for (int f = 0; f < kFlows; ++f) {
    engine.spawn(numbered("f", f), [&, f] {
      link.transfer(1'000'000);
      done[static_cast<std::size_t>(f)] = engine.now();
    });
  }
  engine.run();
  // All equal flows finish together at kFlows * 1MB / 1GB/s.
  for (Time t : done) {
    EXPECT_NEAR(static_cast<double>(t), kFlows * 1e6, 50e3);
  }
}

TEST(StressTest, RepeatedRunsAccumulateTime) {
  Engine engine;
  for (int round = 1; round <= 50; ++round) {
    engine.spawn(numbered("r", round), [&] { engine.wait_for(usec(10)); });
    engine.run();
    EXPECT_EQ(engine.now(), usec(10) * round);
  }
}

TEST(StressTest, EventThunderingHerdIsFifo) {
  Engine engine;
  Event gate(engine, "gate");
  std::vector<int> order;
  constexpr int kWaiters = 100;
  for (int i = 0; i < kWaiters; ++i) {
    engine.spawn(numbered("w", i), [&, i] {
      gate.wait();
      order.push_back(i);
    });
  }
  engine.spawn("opener", [&] {
    engine.wait_for(usec(5));
    gate.notify_all();
  });
  engine.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kWaiters));
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(StressTest, LargeScheduleIsDeterministic) {
  auto run_once = [] {
    Engine engine;
    BandwidthResource link(engine, "link", 2e9);
    Resource slots(engine, "slots", 3);
    std::int64_t checksum = 0;
    for (int p = 0; p < 48; ++p) {
      engine.spawn(numbered("p", p), [&, p] {
        for (int i = 0; i < 6; ++i) {
          engine.wait_for(usec((p * 13 + i * 7) % 23 + 1));
          Resource::Guard guard(slots);
          link.transfer(10'000 + static_cast<std::uint64_t>((p + i) % 9) * 5'000);
          checksum += engine.now() % 1'000'003;
        }
      });
    }
    engine.run();
    return std::pair<Time, std::int64_t>(engine.now(), checksum);
  };
  const auto first = run_once();
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(run_once(), first);
  }
}

// 256-host spawn/wait/notify storm: every host relays a token to its right
// neighbour each round while timers churn the callback pool — the shape of
// the fabric sweeps the fiber backend exists for.
TEST(StressTest, HostStorm256SpawnWaitNotify) {
  constexpr int kHosts = 256;
  constexpr int kRounds = 8;
  Engine engine;
  std::vector<std::unique_ptr<Event>> ev;
  std::vector<std::uint64_t> inbox(kHosts, 0);
  for (int i = 0; i < kHosts; ++i) {
    ev.push_back(std::make_unique<Event>(engine, numbered("e", i)));
  }
  std::uint64_t timer_fires = 0;
  int finished = 0;
  for (int i = 0; i < kHosts; ++i) {
    engine.spawn(numbered("h", i), [&, i] {
      const auto ui = static_cast<std::size_t>(i);
      for (int r = 0; r < kRounds; ++r) {
        engine.call_after(nsec(5), [&timer_fires] { ++timer_fires; });
        engine.wait_for(nsec(10 + i % 3));
        const auto right = static_cast<std::size_t>((i + 1) % kHosts);
        ++inbox[right];
        ev[right]->notify_all();
        while (inbox[ui] < static_cast<std::uint64_t>(r + 1)) ev[ui]->wait();
      }
      engine.wait_for(usec(1));  // drain: let the final round's timers fire
      ++finished;
    });
  }
  EXPECT_EQ(engine.live_processes(), static_cast<std::size_t>(kHosts));
  engine.run();
  EXPECT_EQ(finished, kHosts);
  EXPECT_EQ(timer_fires, static_cast<std::uint64_t>(kHosts) * kRounds);
  EXPECT_EQ(engine.live_processes(), 0u);
  // The pooled callback slots recycle: far fewer slots than callbacks.
  EXPECT_EQ(engine.alloc_stats().callbacks_scheduled,
            static_cast<std::uint64_t>(kHosts) * kRounds);
  EXPECT_LT(engine.alloc_stats().callback_slots_created,
            engine.alloc_stats().callbacks_scheduled);
}

// live_processes() is maintained at spawn/finish, including daemons and
// processes killed by shutdown before ever running.
TEST(StressTest, LiveProcessCountTracksSpawnAndFinish) {
  Engine engine;
  EXPECT_EQ(engine.live_processes(), 0u);
  engine.spawn("worker", [&] { engine.wait_for(usec(1)); });
  engine.spawn("daemon", [&] {
    for (;;) engine.wait_for(usec(1));
  }, /*daemon=*/true);
  EXPECT_EQ(engine.live_processes(), 2u);
  engine.run();  // worker finishes; the daemon stays live
  EXPECT_EQ(engine.live_processes(), 1u);
  engine.shutdown();
  EXPECT_EQ(engine.live_processes(), 0u);
}

#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
// Runaway recursion must hit the guard page (clean fault), not silently
// corrupt a neighbouring allocation. Death tests fork, so they are kept
// out of sanitizer builds where fork + fake stacks are unreliable.
namespace {
volatile int g_sink = 0;
// O0 keeps every 512-byte frame real: at -O2 GCC's accumulator
// transformation would flatten this into a loop and nothing would recurse.
__attribute__((noinline, optimize("O0"))) int deep_recursion(int depth) {
  char pad[512];
  pad[0] = static_cast<char>(depth);
  g_sink = g_sink + pad[0];
  if (depth <= 0) return g_sink;
  return deep_recursion(depth - 1) + 1;
}
}  // namespace

TEST(StressTest, RunawayRecursionFaultsOnGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine;
        engine.spawn("deep", [] { deep_recursion(1 << 20); });
        engine.run();
      },
      "");  // SIGSEGV on the PROT_NONE page below the fiber stack
}

// The same recursion fits once NTBSHMEM_FIBER_STACK_KiB raises the stack:
// the knob is read at Engine construction.
TEST(StressTest, FiberStackSizeEnvFixesDeepRecursion) {
  setenv("NTBSHMEM_FIBER_STACK_KiB", "8192", 1);
  Engine engine;
  unsetenv("NTBSHMEM_FIBER_STACK_KiB");
  ASSERT_EQ(engine.fiber_stack_bytes(), 8192u * 1024u);
  int reached = 0;
  engine.spawn("deep", [&] {
    deep_recursion(10'000);  // ~5 MiB of frames: dies at 256 KiB, fits in 8 MiB
    reached = 1;
  });
  engine.run();
  EXPECT_EQ(reached, 1);
}
#endif  // death tests

// Re-running an engine whose daemons persist across run() calls must
// replay the identical dispatch stream as a fresh engine driven through
// the same two workloads back to back.
TEST(StressTest, RerunWithPersistentDaemonsKeepsDigest) {
  auto workload = [](Engine& engine, int round) {
    for (int p = 0; p < 8; ++p) {
      engine.spawn(numbered(numbered("w", round) + "_", p),
                   [&engine, p] {
                     for (int i = 0; i < 4; ++i) {
                       engine.wait_for(usec((p * 7 + i * 3) % 11 + 1));
                     }
                   });
    }
    engine.run();
  };
  auto drive = [&workload](Engine& engine) {
    engine.enable_schedule_digest();
    engine.spawn("ticker", [&engine] {
      for (;;) engine.wait_for(usec(5));
    }, /*daemon=*/true);
    workload(engine, 0);
    workload(engine, 1);  // re-run(): the daemon persists into this round
    return std::pair<std::uint64_t, std::uint64_t>(
        engine.schedule_digest().value(), engine.schedule_digest().count());
  };
  Engine a;
  Engine b;
  EXPECT_EQ(drive(a), drive(b));
  EXPECT_GT(a.schedule_digest().count(), 0u);
}

}  // namespace
}  // namespace ntbshmem::sim
