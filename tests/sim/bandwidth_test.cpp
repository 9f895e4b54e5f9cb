// Tests for the fluid-flow BandwidthResource against analytically computed
// schedules: solo transfers, equal sharing, caps, mid-flight arrivals and
// departures, multi-stage paths, shared completion timers and zero-byte
// edge cases.
#include "sim/bandwidth.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim_test_util.hpp"

namespace ntbshmem::sim {
namespace {

using testing::numbered;

constexpr double kBps = 1e9;  // 1 GB/s test capacity -> 1 byte/ns

// Allow 1us of rounding slack on analytic comparisons (integer-ns ceils).
void expect_near_time(Time got, double want_ns, double slack_ns = 1000) {
  EXPECT_NEAR(static_cast<double>(got), want_ns, slack_ns);
}

TEST(BandwidthTest, SoloTransferTakesBytesOverCapacity) {
  Engine engine;
  BandwidthResource link(engine, "link", kBps);
  Time done = -1;
  engine.spawn("p", [&] {
    link.transfer(1'000'000);  // 1 MB at 1 GB/s = 1 ms
    done = engine.now();
  });
  engine.run();
  expect_near_time(done, 1e6);
}

TEST(BandwidthTest, FlowCapLimitsSoloRate) {
  Engine engine;
  BandwidthResource link(engine, "link", kBps);
  Time done = -1;
  engine.spawn("p", [&] {
    link.transfer(1'000'000, kBps / 4);  // capped at 250 MB/s -> 4 ms
    done = engine.now();
  });
  engine.run();
  expect_near_time(done, 4e6);
}

TEST(BandwidthTest, TwoEqualFlowsShareFairly) {
  Engine engine;
  BandwidthResource link(engine, "link", kBps);
  Time done_a = -1;
  Time done_b = -1;
  engine.spawn("a", [&] {
    link.transfer(1'000'000);
    done_a = engine.now();
  });
  engine.spawn("b", [&] {
    link.transfer(1'000'000);
    done_b = engine.now();
  });
  engine.run();
  // Both at 500 MB/s -> 2 ms each.
  expect_near_time(done_a, 2e6);
  expect_near_time(done_b, 2e6);
}

TEST(BandwidthTest, DepartureSpeedsUpSurvivor) {
  Engine engine;
  BandwidthResource link(engine, "link", kBps);
  Time done_small = -1;
  Time done_big = -1;
  engine.spawn("small", [&] {
    link.transfer(500'000);  // shares 0.5 GB/s until done at t=1ms
    done_small = engine.now();
  });
  engine.spawn("big", [&] {
    link.transfer(1'500'000);
    done_big = engine.now();
  });
  engine.run();
  // small: 500KB at 0.5 GB/s -> 1 ms.
  // big: 500KB drained by t=1ms, remaining 1MB at full 1 GB/s -> t=2ms.
  expect_near_time(done_small, 1e6);
  expect_near_time(done_big, 2e6);
}

TEST(BandwidthTest, MidFlightArrivalSlowsExistingFlow) {
  Engine engine;
  BandwidthResource link(engine, "link", kBps);
  Time done_first = -1;
  engine.spawn("first", [&] {
    link.transfer(1'000'000);
    done_first = engine.now();
  });
  engine.spawn("second", [&] {
    engine.wait_for(msec(0) + 500'000);  // join at t=0.5ms
    link.transfer(2'000'000);
  });
  engine.run();
  // first: 500KB done solo by 0.5ms; remaining 500KB at 0.5 GB/s -> 1ms more.
  expect_near_time(done_first, 1.5e6);
}

TEST(BandwidthTest, CappedFlowSurplusGoesToUncappedFlow) {
  Engine engine;
  BandwidthResource link(engine, "link", kBps);
  Time done_uncapped = -1;
  engine.spawn("capped", [&] {
    link.transfer(10'000'000, kBps / 10);  // 100 MB/s, runs long
  });
  engine.spawn("uncapped", [&] {
    link.transfer(900'000);
    done_uncapped = engine.now();
  });
  engine.run();
  // Uncapped flow gets 900 MB/s -> 1 ms for 900KB.
  expect_near_time(done_uncapped, 1e6, 5000);
}

TEST(BandwidthTest, ZeroByteTransferCompletesImmediately) {
  Engine engine;
  BandwidthResource link(engine, "link", kBps);
  Time done = -1;
  engine.spawn("p", [&] {
    link.transfer(0);
    done = engine.now();
  });
  engine.run();
  EXPECT_EQ(done, 0);
}

TEST(BandwidthTest, PathFinishesWithItsSlowestStage) {
  Engine engine;
  BandwidthResource fast(engine, "fast", kBps);
  BandwidthResource slow(engine, "slow", kBps / 2);
  Time via_both = -1;
  Time twice_fast = -1;
  engine.spawn("p", [&] {
    BandwidthResource* const both[] = {&fast, &slow};
    transfer_path(both, 1'000'000);  // 1 ms on fast, 2 ms on slow
    via_both = engine.now();
    // Two stages on one resource are two flows sharing it: 2 ms for both.
    BandwidthResource* const twice[] = {&fast, &fast};
    transfer_path(twice, 1'000'000);
    twice_fast = engine.now() - via_both;
  });
  engine.run();
  expect_near_time(via_both, 2e6, 1);
  expect_near_time(twice_fast, 2e6, 1);
}

TEST(BandwidthTest, TimersArmedBackToBackForOneInstantShareOneCallback) {
  // Neither process takes an engine key between the two arms, so the second
  // resource joins the first one's timer: one callback finishes both.
  Engine engine;
  BandwidthResource a(engine, "a", kBps);
  BandwidthResource b(engine, "b", kBps);
  Time done_a = -1;
  Time done_b = -1;
  engine.spawn("pa", [&] {
    a.transfer(1'000);
    done_a = engine.now();
  });
  engine.spawn("pb", [&] {
    b.transfer(1'000);
    done_b = engine.now();
  });
  engine.run();
  EXPECT_EQ(done_a, 1'000);
  EXPECT_EQ(done_b, 1'000);
  EXPECT_EQ(engine.alloc_stats().callbacks_scheduled, 1u);
}

TEST(BandwidthTest, PushBetweenTimersKeepsThemSeparate) {
  // A callback pushed between the two arms sits between their keys, so the
  // second resource pushes a timer of its own.
  Engine engine;
  BandwidthResource a(engine, "a", kBps);
  BandwidthResource b(engine, "b", kBps);
  std::vector<std::string> order;
  engine.spawn("pa", [&] {
    a.transfer(1'000);
    order.push_back("a");
  });
  engine.spawn("pb", [&] {
    engine.call_after(1'000, [&] { order.push_back("between"); });
    b.transfer(1'000);
    order.push_back("b");
  });
  engine.run();
  EXPECT_EQ(engine.now(), 1'000);
  EXPECT_EQ(engine.alloc_stats().callbacks_scheduled, 3u);
  const std::vector<std::string> want = {"between", "a", "b"};
  EXPECT_EQ(order, want);
}

TEST(BandwidthTest, ThreeFlowsConvergeToFairThird) {
  Engine engine;
  BandwidthResource link(engine, "link", kBps);
  std::vector<Time> done(3, -1);
  for (int i = 0; i < 3; ++i) {
    engine.spawn(numbered("p", i), [&, i] {
      link.transfer(1'000'000);
      done[static_cast<std::size_t>(i)] = engine.now();
    });
  }
  engine.run();
  for (int i = 0; i < 3; ++i) {
    expect_near_time(done[static_cast<std::size_t>(i)], 3e6);
  }
}

TEST(BandwidthTest, InvalidCapacityOrCapThrows) {
  Engine engine;
  EXPECT_THROW(BandwidthResource(engine, "bad", 0.0), std::invalid_argument);
  BandwidthResource link(engine, "link", kBps);
  engine.spawn("p", [&] {
    EXPECT_THROW(link.transfer(100, 0.0), std::invalid_argument);
  });
  engine.run();
}

}  // namespace
}  // namespace ntbshmem::sim
