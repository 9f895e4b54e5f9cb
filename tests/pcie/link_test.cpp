// PCIe config math, full-duplex link behaviour and utilization windows.
#include "pcie/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "sim/engine.hpp"

namespace ntbshmem::pcie {
namespace {

TEST(LinkConfigTest, Gen3x8BandwidthMath) {
  LinkConfig cfg = gen_lanes(Gen::kGen3, 8);
  // 8 GT/s * 128/130 * 8 lanes / 8 bits = ~7.877 GB/s raw.
  EXPECT_NEAR(cfg.raw_Bps(), 7.877e9, 0.01e9);
  // 256B payload / 282B on the wire ≈ 0.908.
  EXPECT_NEAR(cfg.framing_efficiency(), 0.9078, 1e-3);
  EXPECT_NEAR(cfg.effective_Bps(), 7.15e9, 0.05e9);
}

TEST(LinkConfigTest, Gen1UsesEightTenEncoding) {
  LinkConfig cfg = gen_lanes(Gen::kGen1, 4);
  // 2.5 GT/s * 0.8 * 4 / 8 = 1.0 GB/s raw.
  EXPECT_NEAR(cfg.raw_Bps(), 1.0e9, 1e6);
}

TEST(LinkConfigTest, LargerPayloadImprovesEfficiency) {
  LinkConfig small = gen_lanes(Gen::kGen3, 8);
  small.max_payload = 128;
  LinkConfig big = gen_lanes(Gen::kGen3, 8);
  big.max_payload = 512;
  EXPECT_LT(small.framing_efficiency(), big.framing_efficiency());
}

TEST(LinkConfigTest, ValidationRejectsBadValues) {
  EXPECT_THROW(gen_lanes(Gen::kGen3, 3), std::invalid_argument);
  LinkConfig cfg = gen_lanes(Gen::kGen3, 8);
  cfg.max_payload = 100;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.max_payload = 8192;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(LinkTest, FullDuplexDirectionsDoNotContend) {
  sim::Engine engine;
  Link link(engine, "l", gen_lanes(Gen::kGen3, 8));
  const double bps = link.config().effective_Bps();
  sim::Time done_fwd = -1;
  sim::Time done_rev = -1;
  const std::uint64_t bytes = 1'000'000;
  engine.spawn("fwd", [&] {
    link.direction_from(End::kA).transfer(bytes);
    done_fwd = engine.now();
  });
  engine.spawn("rev", [&] {
    link.direction_from(End::kB).transfer(bytes);
    done_rev = engine.now();
  });
  engine.run();
  const double solo_ns = static_cast<double>(bytes) / bps * 1e9;
  EXPECT_NEAR(static_cast<double>(done_fwd), solo_ns, 2000);
  EXPECT_NEAR(static_cast<double>(done_rev), solo_ns, 2000);
}

TEST(LinkTest, SameDirectionFlowsShare) {
  sim::Engine engine;
  Link link(engine, "l", gen_lanes(Gen::kGen3, 8));
  const double bps = link.config().effective_Bps();
  sim::Time done = -1;
  const std::uint64_t bytes = 1'000'000;
  engine.spawn("a", [&] { link.direction_from(End::kA).transfer(bytes); });
  engine.spawn("b", [&] {
    link.direction_from(End::kA).transfer(bytes);
    done = engine.now();
  });
  engine.run();
  const double shared_ns = 2.0 * static_cast<double>(bytes) / bps * 1e9;
  EXPECT_NEAR(static_cast<double>(done), shared_ns, 4000);
}

TEST(LinkTest, DownLinkRejectsTraffic) {
  sim::Engine engine;
  Link link(engine, "l", gen_lanes(Gen::kGen3, 8));
  link.set_up(false);
  EXPECT_THROW(link.direction_from(End::kA), LinkDownError);
  link.set_up(true);
  EXPECT_NO_THROW(link.direction_from(End::kA));
}

TEST(LinkTest, OppositeEnd) {
  EXPECT_EQ(opposite(End::kA), End::kB);
  EXPECT_EQ(opposite(End::kB), End::kA);
}

// ---- Utilization windows ----------------------------------------------------
// A direction is busy while at least one noted transfer is in flight on it;
// the per-window samples are the trace artifact's busy-time series.

// One transfer from end A, bracketed by the hooks NtbPort calls around it.
void noted_transfer(Link& link, std::uint64_t bytes) {
  link.note_transfer_start(End::kA, bytes);
  link.direction_from(End::kA).transfer(bytes);
  link.note_transfer_end(End::kA, bytes);
}

// Per direction: samples ascend in time, none exceeds the window, and after
// flush_util they sum exactly to busy_ns.
void expect_samples_integrate(const Link& link) {
  for (const End dir : {End::kA, End::kB}) {
    std::uint64_t sum = 0;
    sim::Time prev = 0;
    for (const Link::UtilSample& u : link.util_samples(dir)) {
      EXPECT_GT(u.t, prev);
      EXPECT_LE(u.busy, static_cast<std::uint64_t>(link.util_window()));
      prev = u.t;
      sum += u.busy;
    }
    EXPECT_EQ(sum, link.busy_ns(dir));
  }
}

TEST(BandwidthUtilizationTest, BusyTimeTracksActivePeriods) {
  sim::Engine engine;
  Link link(engine, "l", gen_lanes(Gen::kGen3, 8));
  link.set_util_window(sim::usec(50));  // each transfer spans several windows
  sim::Time t[4] = {-1, -1, -1, -1};
  engine.spawn("p", [&] {
    t[0] = engine.now();
    noted_transfer(link, 1'000'000);
    t[1] = engine.now();
    engine.wait_for(sim::msec(3));  // idle gap
    t[2] = engine.now();
    noted_transfer(link, 2'000'000);
    t[3] = engine.now();
  });
  engine.run();
  link.flush_util(engine.now());
  // The idle gap is excluded: busy time is exactly the two transfers.
  EXPECT_EQ(link.busy_ns(End::kA),
            static_cast<std::uint64_t>((t[1] - t[0]) + (t[3] - t[2])));
  EXPECT_EQ(link.busy_ns(End::kB), 0u);
  EXPECT_EQ(link.transferred_bytes(End::kA), 3'000'000u);
  EXPECT_TRUE(link.util_samples(End::kB).empty());
  expect_samples_integrate(link);
}

TEST(BandwidthUtilizationTest, OverlappingFlowsCountBusyOnce) {
  sim::Engine engine;
  Link link(engine, "l", gen_lanes(Gen::kGen3, 8));
  link.set_util_window(sim::usec(50));
  sim::Time done_a = -1;
  sim::Time done_b = -1;
  engine.spawn("a", [&] {
    noted_transfer(link, 1'000'000);
    done_a = engine.now();
  });
  engine.spawn("b", [&] {
    noted_transfer(link, 1'000'000);
    done_b = engine.now();
  });
  engine.run();
  link.flush_util(engine.now());
  // Two flows share the direction from t=0: busy until the last one ends,
  // counted once rather than once per flow.
  const sim::Time last = std::max(done_a, done_b);
  EXPECT_EQ(link.busy_ns(End::kA), static_cast<std::uint64_t>(last));
  expect_samples_integrate(link);
}

TEST(BandwidthUtilizationTest, IdleResourceReportsZero) {
  sim::Engine engine;
  Link link(engine, "l", gen_lanes(Gen::kGen3, 8));
  link.set_util_window(sim::usec(50));
  link.flush_util(sim::usec(500));
  for (const End dir : {End::kA, End::kB}) {
    EXPECT_EQ(link.busy_ns(dir), 0u);
    EXPECT_TRUE(link.util_samples(dir).empty());
  }
}

}  // namespace
}  // namespace ntbshmem::pcie
