// NTB port model through the surface the transport drives: window
// translation, DMA/PIO writes and their timing, posted register bursts,
// doorbell interrupts and the frame latch's bank snapshots.
#include "ntb/ntb_port.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "obs/hub.hpp"
#include "obs/trace.hpp"
#include "pcie/link.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/fault.hpp"

namespace ntbshmem::ntb {
namespace {

class NtbPairFixture : public ::testing::Test {
 protected:
  NtbPairFixture() {
    engine_.attach_obs(&hub_);
    host_a_ = std::make_unique<host::Host>(engine_, 0, timing_);
    host_b_ = std::make_unique<host::Host>(engine_, 1, timing_);
    link_ = std::make_unique<pcie::Link>(
        engine_, "link", pcie::gen_lanes(pcie::Gen::kGen3, 8));
    PortConfig pc;
    port_a_ = std::make_unique<NtbPort>(engine_, *host_a_, "a", timing_, pc);
    pc.vector_base = 16;
    port_b_ = std::make_unique<NtbPort>(engine_, *host_b_, "b", timing_, pc);
    NtbPort::connect(*port_a_, *port_b_, *link_);
  }

  std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::byte>((i * 131 + static_cast<std::size_t>(seed)) & 0xff);
    }
    return v;
  }

  obs::Hub hub_;  // outlives the engine that points at it
  sim::Engine engine_;
  const TimingParams timing_{};
  std::unique_ptr<host::Host> host_a_;
  std::unique_ptr<host::Host> host_b_;
  std::unique_ptr<pcie::Link> link_;
  std::unique_ptr<NtbPort> port_a_;
  std::unique_ptr<NtbPort> port_b_;
};

TEST_F(NtbPairFixture, ConnectWiresPeersAndSharedScratchpad) {
  EXPECT_EQ(&port_a_->peer(), port_b_.get());
  EXPECT_EQ(&port_b_->peer(), port_a_.get());
  port_a_->set_latch_bits(1u << 0);
  port_b_->set_latch_bits(1u << 0);
  const std::uint32_t to_b = 0xdeadbeef;
  const std::uint32_t to_a = 42;
  engine_.spawn("p", [&] {
    // Each side's write lands in its peer's bank, which the doorbell that
    // ends the burst snapshots.
    port_a_->post(0, std::span<const std::uint32_t>(&to_b, 1), 0);
    port_b_->post(0, std::span<const std::uint32_t>(&to_a, 1), 0);
  });
  engine_.run();
  EXPECT_EQ(port_b_->pop_latched_frame().regs[0], 0xdeadbeefu);
  EXPECT_EQ(port_a_->pop_latched_frame().regs[0], 42u);
}

TEST_F(NtbPairFixture, DmaWriteCopiesDataIntoPeerRegion) {
  const auto region = host_b_->memory().allocate(4096);
  port_a_->program_window(kRawWindow, region);
  const auto data = pattern(1024);
  engine_.spawn("p", [&] {
    port_a_->dma_write(kRawWindow, 256, data);
  });
  engine_.run();
  auto got = host_b_->memory().bytes(region, 256, data.size());
  EXPECT_EQ(std::memcmp(got.data(), data.data(), data.size()), 0);
  EXPECT_EQ(hub_.metrics.counter("a.dma_bytes")->value(), data.size());
}

TEST_F(NtbPairFixture, DmaWriteTimingMatchesRateAndSetup) {
  const auto region = host_b_->memory().allocate(1u << 20);
  port_a_->program_window(kRawWindow, region);
  const auto data = pattern(512 * 1024);
  sim::Time done = -1;
  engine_.spawn("p", [&] {
    port_a_->dma_write(kRawWindow, 0, data);
    done = engine_.now();
  });
  engine_.run();
  // 512KB at 3 GB/s = ~174.8us + 3us setup.
  const double want_ns = 3000.0 + 512.0 * 1024.0 / 3.0e9 * 1e9;
  EXPECT_NEAR(static_cast<double>(done), want_ns, 5000.0);
}

TEST_F(NtbPairFixture, UncontendedDmaWriteIsThreeDispatches) {
  // The descriptor setup, one completion timer for all three stages
  // (source bus, wire and destination bus drain at the DMA cap and end on
  // the same nanosecond), and the caller's wake-up.
  const auto region = host_b_->memory().allocate(4096);
  port_a_->program_window(kRawWindow, region);
  const auto data = pattern(4096);
  sim::Dur took = -1;
  std::uint64_t dispatches = 0;
  engine_.spawn("p", [&] {
    const sim::Time t0 = engine_.now();
    const std::uint64_t d0 = engine_.dispatch_count();
    EXPECT_TRUE(port_a_->dma_write(kRawWindow, 0, data));
    dispatches = engine_.dispatch_count() - d0;
    took = engine_.now() - t0;
  });
  engine_.run();
  // 3 us setup + ceil(4096 B at 3 GB/s) = 1,366 ns.
  EXPECT_EQ(took, 4'366);
  EXPECT_EQ(dispatches, 3u);
}

TEST_F(NtbPairFixture, PioWriteIsMuchSlowerThanDma) {
  const auto region = host_b_->memory().allocate(1u << 20);
  port_a_->program_window(kRawWindow, region);
  const auto data = pattern(64 * 1024);
  sim::Time dma_done = -1;
  sim::Time pio_done = -1;
  engine_.spawn("p", [&] {
    sim::Time start = engine_.now();
    port_a_->dma_write(kRawWindow, 0, data);
    dma_done = engine_.now() - start;
    start = engine_.now();
    port_a_->pio_write(kRawWindow, 0, data);
    pio_done = engine_.now() - start;
  });
  engine_.run();
  // 64KB: DMA ~25us, PIO at 125 MB/s ~524us.
  EXPECT_GT(pio_done, 10 * dma_done);
  EXPECT_NEAR(static_cast<double>(pio_done), 64.0 * 1024.0 / 125e6 * 1e9,
              10'000.0);
}

TEST_F(NtbPairFixture, UnmappedWindowThrows) {
  const auto data = pattern(64);
  engine_.spawn("p", [&] {
    EXPECT_THROW(port_a_->dma_write(kSpareWindow, 0, data),
                 std::runtime_error);
  });
  engine_.run();
}

TEST_F(NtbPairFixture, WindowBoundsViolationThrows) {
  const auto region = host_b_->memory().allocate(1024);
  port_a_->program_window(kRawWindow, region);
  const auto data = pattern(512);
  engine_.spawn("p", [&] {
    EXPECT_THROW(port_a_->dma_write(kRawWindow, 600, data),
                 std::out_of_range);
  });
  engine_.run();
}

TEST_F(NtbPairFixture, DoorbellRaisesPeerVectorWithBase) {
  sim::Time fired = -1;
  int fired_vector = -1;
  host_b_->interrupts().register_handler(16 + 5, [&](int vector) {
    fired = engine_.now();
    fired_vector = vector;
  });
  engine_.spawn("p", [&] {
    port_a_->ring_doorbell(5);
    engine_.wait_for(sim::usec(100));
  });
  engine_.run();
  // reg write 400ns + 15us delivery + 5us dispatch.
  EXPECT_EQ(fired, 400 + sim::usec(20));
  EXPECT_EQ(fired_vector, 21);
  EXPECT_EQ(hub_.metrics.counter("a.doorbells_rung")->value(), 1u);
  // Bit 5 is not a latch bit: the interrupt fires, nothing is snapshotted.
  EXPECT_THROW(port_b_->pop_latched_frame(), std::logic_error);
}

TEST_F(NtbPairFixture, LinkDownFailsTransfersAndRegisters) {
  const auto region = host_b_->memory().allocate(1024);
  port_a_->program_window(kRawWindow, region);
  const auto data = pattern(128);
  const std::uint32_t one = 1;
  link_->set_up(false);
  engine_.spawn("p", [&] {
    EXPECT_THROW(port_a_->dma_write(kRawWindow, 0, data), pcie::LinkDownError);
    EXPECT_THROW(port_a_->post(0, std::span<const std::uint32_t>(&one, 1)),
                 pcie::LinkDownError);
    EXPECT_THROW(port_a_->ring_doorbell(0), pcie::LinkDownError);
  });
  engine_.run();
}

// ---- Posted register burst (NtbPort::post) ----------------------------------

constexpr std::array<std::uint32_t, 7> kHeader = {
    0x11111111u, 0x22222222u, 0x33333333u, 0x44444444u,
    0x55555555u, 0x66666666u, 0x77777777u};

TEST_F(NtbPairFixture, PostedBurstIsOneWaitOfAllItsWrites) {
  port_b_->set_latch_bits(1u << 3);
  sim::Dur took = -1;
  std::uint64_t dispatches = 0;
  engine_.spawn("p", [&] {
    const sim::Time t0 = engine_.now();
    const std::uint64_t d0 = engine_.dispatch_count();
    port_a_->post(0, kHeader, 3);
    dispatches = engine_.dispatch_count() - d0;
    took = engine_.now() - t0;
  });
  engine_.run();
  // Seven register writes plus the doorbell, back to back, for one wake of
  // the caller.
  EXPECT_EQ(took, 8 * port_a_->reg_write());
  EXPECT_EQ(dispatches, 1u);
  // The one doorbell's latch snapshot holds all seven values.
  EXPECT_EQ(hub_.metrics.counter("a.doorbells_rung")->value(), 1u);
  const auto latched = port_b_->pop_latched_frame().regs;
  for (std::size_t i = 0; i < kHeader.size(); ++i) {
    EXPECT_EQ(latched[i], kHeader[i]) << "reg " << i;
  }
  EXPECT_THROW(port_b_->pop_latched_frame(), std::logic_error);
}

TEST_F(NtbPairFixture, PostedBurstWithoutDoorbellRingsNothing) {
  port_b_->set_latch_bits(1u << 3);
  const obs::Counter* rung = hub_.metrics.counter("a.doorbells_rung");
  sim::Dur took = -1;
  engine_.spawn("p", [&] {
    const sim::Time t0 = engine_.now();
    const std::span<const std::uint32_t> three(kHeader.data(), 3);
    port_a_->post(4, three);
    took = engine_.now() - t0;
    EXPECT_EQ(rung->value(), 0u);
    EXPECT_THROW(port_b_->pop_latched_frame(), std::logic_error);
    EXPECT_THROW(port_a_->post(6, three), std::out_of_range);  // regs 6..8
    // The registers did land: the next doorbell's snapshot carries them.
    port_a_->ring_doorbell(3);
  });
  engine_.run();
  EXPECT_EQ(took, 3 * port_a_->reg_write());
  EXPECT_EQ(rung->value(), 1u);
  const auto latched = port_b_->pop_latched_frame().regs;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(latched[4 + i], kHeader[i]) << "reg " << 4 + i;
  }
}

TEST_F(NtbPairFixture, PostedBurstDrawsFaultsPerRegisterAtTheirLandingTimes) {
  // The reference values come from the one-wait-per-register model: seven
  // single-register writes plus ring_doorbell under the same seeded plan.
  // The burst must store the same bank, count the same faults and stamp
  // each draw with its register's own landing time (400 ns per write).
  sim::FaultSpec spec;
  spec.scratchpad_corrupt = 0.5;
  sim::FaultPlan plan(2024, spec);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  plan.bind_tracer(&tracer);
  engine_.attach_faults(&plan);
  port_b_->set_latch_bits(1u << 3);
  engine_.spawn("p", [&] { port_a_->post(0, kHeader, 3); });
  engine_.run();
  const std::array<std::uint32_t, kNumScratchpads> want = {
      0xabf79af6u, 0xaa6c5bd1u, 0x33333333u, 0x345d8c95u,
      0x55555555u, 0xee639a35u, 0x77777777u, 0x00000000u};
  EXPECT_EQ(port_b_->pop_latched_frame().regs, want);
  EXPECT_EQ(plan.stats().scratchpads_corrupted, 4u);
  EXPECT_EQ(plan.stats().total(), 4u);
  ASSERT_EQ(tracer.tracks().size(), 1u);
  const auto& records = tracer.tracks()[0].records;
  ASSERT_EQ(records.size(), 4u);
  const std::array<sim::Time, 4> times = {400, 800, 1600, 2400};
  const std::array<const char*, 4> details = {
      "scratchpad corrupt a reg0", "scratchpad corrupt a reg1",
      "scratchpad corrupt a reg3", "scratchpad corrupt a reg5"};
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].t, times[i]);
    EXPECT_EQ(tracer.detail(records[i].detail), details[i]);
  }
}

TEST_F(NtbPairFixture, LinkDropInsideBurstFailsItAndLandsNothing) {
  port_b_->set_latch_bits(1u << 3);
  engine_.spawn("flap", [&] {
    engine_.wait_for(sim::usec(1));  // mid-burst (the burst takes 3.2us)
    link_->set_up(false);
  });
  engine_.spawn("p", [&] {
    EXPECT_THROW(port_a_->post(0, kHeader, 3), pcie::LinkDownError);
  });
  engine_.run();
  EXPECT_EQ(hub_.metrics.counter("a.doorbells_rung")->value(), 0u);
  EXPECT_THROW(port_b_->pop_latched_frame(), std::logic_error);
  // No register landed either: once the link is back, a bare doorbell
  // snapshots a bank that is still all zero.
  link_->set_up(true);
  engine_.spawn("check", [&] { port_a_->ring_doorbell(3); });
  engine_.run();
  const auto latched = port_b_->pop_latched_frame().regs;
  for (std::size_t i = 0; i < latched.size(); ++i) {
    EXPECT_EQ(latched[i], 0u) << "reg " << i;
  }
}

TEST_F(NtbPairFixture, LinkDropInsideBurstWaitsForRetrainingUnderRetry) {
  PortConfig pc;
  pc.retry_on_link_down = true;
  NtbPort a(engine_, *host_a_, "ra", timing_, pc);
  pc.vector_base = 16;
  NtbPort b(engine_, *host_b_, "rb", timing_, pc);
  pcie::Link link(engine_, "rlink", pcie::gen_lanes(pcie::Gen::kGen3, 8));
  NtbPort::connect(a, b, link);
  b.set_latch_bits(1u << 3);
  engine_.spawn("flap", [&] {
    engine_.wait_for(sim::usec(1));
    link.set_up(false);
    engine_.wait_for(sim::usec(49));
    link.set_up(true);
  });
  sim::Time done = -1;
  engine_.spawn("p", [&] {
    a.post(0, kHeader, 3);
    done = engine_.now();
  });
  engine_.run();
  // The burst ends at 3.2us inside the outage, polls once per retry
  // interval and lands at the first poll that finds the link retrained.
  EXPECT_EQ(done, 8 * a.reg_write() + kLinkRetryInterval);
  const auto latched = b.pop_latched_frame().regs;
  for (std::size_t i = 0; i < kHeader.size(); ++i) {
    EXPECT_EQ(latched[i], kHeader[i]) << "reg " << i;
  }
}

TEST_F(NtbPairFixture, ScratchpadIndexRangeChecked) {
  const std::uint32_t zero = 0;
  const std::span<const std::uint32_t> one_reg(&zero, 1);
  engine_.spawn("p", [&] {
    EXPECT_THROW(port_a_->post(kNumScratchpads, one_reg), std::out_of_range);
    EXPECT_THROW(port_a_->post(-1, one_reg), std::out_of_range);
    EXPECT_THROW(port_a_->ring_doorbell(kNumDoorbells), std::out_of_range);
    EXPECT_THROW(port_a_->post(0, one_reg, -2), std::out_of_range);
  });
  engine_.run();
  EXPECT_EQ(hub_.metrics.counter("a.scratchpad_writes")->value(), 0u);
}

TEST(NtbPortTest, UnconnectedPortRejectsUse) {
  sim::Engine engine;
  const TimingParams timing;
  host::Host h(engine, 0, timing);
  NtbPort port(engine, h, "solo", timing, PortConfig{});
  EXPECT_THROW(port.peer(), std::logic_error);
  EXPECT_THROW(port.program_window(0, host::Region{0, 64}), std::logic_error);
}

TEST(NtbPortTest, DoubleConnectRejected) {
  sim::Engine engine;
  const TimingParams timing;
  host::Host h0(engine, 0, timing);
  host::Host h1(engine, 1, timing);
  host::Host h2(engine, 2, timing);
  pcie::Link l0(engine, "l0", pcie::gen_lanes(pcie::Gen::kGen3, 8));
  pcie::Link l1(engine, "l1", pcie::gen_lanes(pcie::Gen::kGen3, 8));
  NtbPort a(engine, h0, "a", timing, PortConfig{});
  NtbPort b(engine, h1, "b", timing, PortConfig{});
  NtbPort c(engine, h2, "c", timing, PortConfig{});
  NtbPort::connect(a, b, l0);
  EXPECT_THROW(NtbPort::connect(a, c, l1), std::logic_error);
}

}  // namespace
}  // namespace ntbshmem::ntb

// (regression) Window translation must be latched when the descriptor is
// programmed: reprogramming mid-transfer (the other software context on
// the host re-targeting the shared bypass window) must not redirect an
// in-flight DMA.
namespace ntbshmem::ntb {
namespace {

TEST_F(NtbPairFixture, InFlightDmaKeepsLatchedTranslation) {
  const auto region_a = host_b_->memory().allocate(8192);
  const auto region_b = host_b_->memory().allocate(8192);
  port_a_->program_window(kRawWindow, region_a);
  const auto data = pattern(4096, 3);
  engine_.spawn("xfer", [&] {
    port_a_->dma_write(kRawWindow, 0, data);  // latches region_a
  });
  engine_.spawn("retarget", [&] {
    engine_.wait_for(sim::usec(1));  // mid-flight (descriptor setup is 3us)
    port_a_->program_window(kRawWindow, region_b);
  });
  engine_.run();
  auto got_a = host_b_->memory().bytes(region_a, 0, data.size());
  EXPECT_EQ(std::memcmp(got_a.data(), data.data(), data.size()), 0)
      << "transfer must land in the region latched at descriptor time";
  auto got_b = host_b_->memory().bytes(region_b, 0, data.size());
  EXPECT_NE(std::memcmp(got_b.data(), data.data(), data.size()), 0)
      << "reprogram must not redirect the in-flight transfer";
}

TEST_F(NtbPairFixture, PerLinkDmaRateOverrideAffectsTiming) {
  // A second pair between the same hosts whose adapters run at a
  // downgraded chipset rate, as FabricConfig::link_dma_rates_Bps sets it.
  PortConfig pc;
  pc.dma_rate_Bps = 1.0e9;
  NtbPort a(engine_, *host_a_, "slow_a", timing_, pc);
  pc.vector_base = 16;
  NtbPort b(engine_, *host_b_, "slow_b", timing_, pc);
  pcie::Link link(engine_, "slow_link", pcie::gen_lanes(pcie::Gen::kGen3, 8));
  NtbPort::connect(a, b, link);
  const auto region = host_b_->memory().allocate(1u << 20);
  port_a_->program_window(kRawWindow, region);
  a.program_window(kRawWindow, region);
  const auto data = pattern(512 * 1024);
  sim::Dur fast = 0;
  sim::Dur slow = 0;
  engine_.spawn("p", [&] {
    sim::Time t0 = engine_.now();
    port_a_->dma_write(kRawWindow, 0, data);
    fast = engine_.now() - t0;
    t0 = engine_.now();
    a.dma_write(kRawWindow, 0, data);
    slow = engine_.now() - t0;
  });
  engine_.run();
  EXPECT_GT(slow, 2 * fast);
}

}  // namespace
}  // namespace ntbshmem::ntb
