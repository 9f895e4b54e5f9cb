// Transport bookkeeping and failure handling: statistics counters, link
// fault injection, and channel flow control.
#include <gtest/gtest.h>

#include <stdexcept>

#include "backend/backend.hpp"
#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using testing::pattern;
using testing::test_options;

TEST(TransportStatsTest, CountersTrackOperations) {
  Runtime rt(test_options(3));
  TransportStats s0;
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(4096));
    const auto data = pattern(1024, 1);
    if (shmem_my_pe() == 0) {
      shmem_putmem(buf, data.data(), data.size(), 1);
      shmem_putmem(buf, data.data(), data.size(), 2);
      std::vector<std::byte> sink(256);
      shmem_getmem(sink.data(), buf, sink.size(), 1);
      shmem_long_atomic_inc(reinterpret_cast<long*>(buf), 1);
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      s0 = Runtime::current()->transport().stats();
    }
    shmem_finalize();
  });
  EXPECT_EQ(s0.puts_issued, 2u);
  EXPECT_EQ(s0.gets_issued, 1u);
  EXPECT_EQ(s0.atomics_issued, 1u);
  EXPECT_GT(s0.frames_sent, 0u);
  EXPECT_GT(s0.barriers_completed, 0u);
}

TEST(TransportStatsTest, RejectedAtomicPostIsNotIssued) {
  Runtime rt(test_options(2));
  bool threw = false;
  sim::Dur took = -1;
  std::uint64_t issued = 1;
  rt.run([&] {
    shmem_init();
    auto* word = static_cast<long*>(shmem_calloc(1, sizeof(long)));
    if (shmem_my_pe() == 0) {
      Context& ctx = *Runtime::current();
      const sim::Time t0 = rt.engine().now();
      try {
        ctx.chan().atomic_post(AtomicOp::kFetchAdd, ctx.symmetric_offset(word),
                               1, 8, 1, ctx.default_domain());
      } catch (const std::invalid_argument&) {
        threw = true;
      }
      took = rt.engine().now() - t0;
      issued = ctx.transport().stats().atomics_issued;
    }
    shmem_barrier_all();
    shmem_free(word);
    shmem_finalize();
  });
  // A fetching op is misuse: rejected before it costs time or counts.
  EXPECT_TRUE(threw);
  EXPECT_EQ(took, 0);
  EXPECT_EQ(issued, 0u);
}

TEST(TransportStatsTest, DeliveryAcksFlowInFullMode) {
  Runtime rt(test_options(3, DataPath::kDma, fabric::RoutingMode::kRightOnly,
                          CompletionMode::kFullDelivery));
  std::uint64_t acks_by_pe2 = 0;
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(4096));
    const auto data = pattern(2048, 2);
    if (shmem_my_pe() == 0) {
      shmem_putmem(buf, data.data(), data.size(), 2);  // multi-hop
      shmem_quiet();  // must block until PE2 acknowledged delivery
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 2) {
      acks_by_pe2 = Runtime::current()->transport().stats().delivery_acks_sent;
    }
    shmem_finalize();
  });
  EXPECT_GE(acks_by_pe2, 1u);
}

TEST(TransportStatsTest, LinkFaultSurfacesAsError) {
  RuntimeOptions opts = test_options(3);
  Runtime rt(opts);
  rt.fabric().set_link_up(0, false);  // cable host0 -> host1 unplugged
  EXPECT_THROW(
      rt.run([&] {
        shmem_init();  // the init barrier must hit the dead cable
        shmem_finalize();
      }),
      pcie::LinkDownError);
}

TEST(TransportStatsTest, RecoversAfterLinkRestored) {
  RuntimeOptions opts = test_options(3);
  Runtime rt(opts);
  rt.fabric().set_link_up(0, false);
  EXPECT_THROW(rt.run([&] {
                 shmem_init();
                 shmem_finalize();
               }),
               pcie::LinkDownError);
  rt.fabric().set_link_up(0, true);
  // A fresh runtime on healthy links works (the aborted run may have left
  // transport state inconsistent, as a real crashed job would).
  Runtime rt2(test_options(3));
  int ok = 0;
  rt2.run([&] {
    shmem_init();
    ++ok;
    shmem_finalize();
  });
  EXPECT_EQ(ok, 3);
}

}  // namespace
}  // namespace ntbshmem::shmem
