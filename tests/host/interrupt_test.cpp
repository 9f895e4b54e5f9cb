#include "host/interrupt.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ntbshmem::host {
namespace {

TEST(InterruptControllerTest, DeliversAfterLatency) {
  sim::Engine engine;
  InterruptController irq(engine, "irq", sim::usec(15), sim::usec(5));
  sim::Time fired = -1;
  int calls = 0;
  irq.register_handler(3, [&](int vector) {
    EXPECT_EQ(vector, 3);
    fired = engine.now();
    ++calls;
  });
  engine.spawn("raiser", [&] {
    engine.wait_for(sim::usec(10));
    irq.raise(3);
    engine.wait_for(sim::usec(100));  // keep sim alive past delivery
  });
  engine.run();
  EXPECT_EQ(fired, sim::usec(30));  // 10 + 15 + 5
  EXPECT_EQ(calls, 1);
}

TEST(InterruptControllerTest, MaskedVectorLatchesAndFiresOnUnmask) {
  sim::Engine engine;
  InterruptController irq(engine, "irq", sim::usec(1), 0);
  std::vector<sim::Time> fires;
  irq.register_handler(0, [&](int) { fires.push_back(engine.now()); });
  engine.spawn("driver", [&] {
    irq.mask(0);
    irq.raise(0);
    EXPECT_TRUE(irq.pending(0));
    engine.wait_for(sim::usec(50));
    EXPECT_TRUE(fires.empty());
    irq.unmask(0);
    EXPECT_FALSE(irq.pending(0));
    engine.wait_for(sim::usec(50));
  });
  engine.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], sim::usec(51));  // unmask at t=50, +1us latency
}

TEST(InterruptControllerTest, UnmaskedWithoutPendingDoesNothing) {
  sim::Engine engine;
  InterruptController irq(engine, "irq", 0, 0);
  int count = 0;
  irq.register_handler(1, [&](int) { ++count; });
  engine.spawn("driver", [&] {
    irq.mask(1);
    irq.unmask(1);
    engine.wait_for(sim::usec(1));
  });
  engine.run();
  EXPECT_EQ(count, 0);
}

TEST(InterruptControllerTest, UnregisteredVectorIsCountedButHarmless) {
  obs::Hub hub;
  sim::Engine engine;
  engine.attach_obs(&hub);
  InterruptController irq(engine, "irq", 0, 0);
  engine.spawn("driver", [&] {
    irq.raise(7);
    engine.wait_for(sim::usec(1));
  });
  engine.run();
  EXPECT_EQ(hub.metrics.counter("irq.delivered")->value(), 1u);
}

TEST(InterruptControllerTest, VectorRangeChecked) {
  sim::Engine engine;
  InterruptController irq(engine, "irq", 0, 0);
  EXPECT_THROW(irq.raise(-1), std::out_of_range);
  EXPECT_THROW(irq.raise(InterruptController::kNumVectors), std::out_of_range);
  EXPECT_THROW(irq.mask(99), std::out_of_range);
}

TEST(InterruptControllerTest, MultipleRaisesDeliverMultipleTimes) {
  sim::Engine engine;
  InterruptController irq(engine, "irq", sim::usec(1), 0);
  int count = 0;
  irq.register_handler(2, [&](int) { ++count; });
  engine.spawn("driver", [&] {
    irq.raise(2);
    irq.raise(2);
    engine.wait_for(sim::usec(10));
  });
  engine.run();
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace ntbshmem::host
