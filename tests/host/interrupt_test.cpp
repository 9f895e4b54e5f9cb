#include "host/interrupt.hpp"

#include <gtest/gtest.h>

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
  EXPECT_THROW(irq.register_handler(99, [](int) {}), std::out_of_range);
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
