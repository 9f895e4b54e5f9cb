// Fabric construction on the default (ring) topology, ring routing tables
// and cross-host data movement.
#include "fabric/fabric.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace ntbshmem::fabric {
namespace {

FabricConfig small_config(int n) {
  FabricConfig cfg;
  cfg.num_hosts = n;
  return cfg;
}

TEST(FabricTest, BuildsRequestedSize) {
  for (int n : {2, 3, 4, 5, 8}) {
    sim::Engine engine;
    Fabric ring(engine, small_config(n));
    EXPECT_EQ(ring.size(), n);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(ring.host(i).id(), i);
      EXPECT_TRUE(ring.right_port(i).connected());
      EXPECT_TRUE(ring.left_port(i).connected());
    }
  }
}

TEST(FabricTest, RejectsDegenerateSize) {
  sim::Engine engine;
  EXPECT_THROW(Fabric(engine, small_config(1)), std::invalid_argument);
  EXPECT_THROW(Fabric(engine, small_config(0)), std::invalid_argument);
}

TEST(FabricTest, PortsAreWiredAsARing) {
  sim::Engine engine;
  Fabric ring(engine, small_config(4));
  for (int i = 0; i < 4; ++i) {
    const int j = (i + 1) % 4;
    // host i's right port peers with host j's left port.
    EXPECT_EQ(&ring.right_port(i).peer(), &ring.left_port(j));
    EXPECT_EQ(&ring.right_port(i).peer().local_host(), &ring.host(j));
  }
}

TEST(FabricTest, NeighborsAndDistances) {
  sim::Engine engine;
  Fabric ring(engine, small_config(5));
  EXPECT_EQ(ring.right_neighbor(4), 0);
  EXPECT_EQ(ring.left_neighbor(0), 4);
  const RoutingTable& right_only = ring.routing(RoutingMode::kRightOnly);
  EXPECT_EQ(right_only.hops(0, 3), 3);           // rightward: 0 -> 1 -> 2 -> 3
  EXPECT_EQ(right_only.response_hops(0, 3), 2);  // leftward: 0 -> 4 -> 3
  EXPECT_EQ(ring.routing(RoutingMode::kShortest).hops(0, 3), 2);
}

TEST(FabricTest, RightOnlyRoutingAlwaysGoesRight) {
  sim::Engine engine;
  Fabric ring(engine, small_config(5));
  // Even when left would be shorter.
  const RoutingTable& table = ring.routing(RoutingMode::kRightOnly);
  EXPECT_EQ(table.next_port(0, 4), static_cast<int>(Direction::kRight));
  EXPECT_EQ(table.hops(0, 4), 4);
}

TEST(FabricTest, ShortestRoutingPicksNearerSideTiesGoRight) {
  sim::Engine engine;
  Fabric ring(engine, small_config(4));
  const RoutingTable& table = ring.routing(RoutingMode::kShortest);
  EXPECT_EQ(table.next_port(0, 3), static_cast<int>(Direction::kLeft));
  EXPECT_EQ(table.hops(0, 3), 1);
  EXPECT_EQ(table.next_port(0, 2), static_cast<int>(Direction::kRight));
  EXPECT_EQ(table.hops(0, 2), 2);
}

TEST(FabricTest, ZeroHopRouteForSelf) {
  sim::Engine engine;
  Fabric ring(engine, small_config(3));
  EXPECT_EQ(ring.routing(RoutingMode::kRightOnly).hops(1, 1), 0);
  EXPECT_EQ(ring.routing(RoutingMode::kShortest).hops(1, 1), 0);
}

TEST(FabricTest, PerLinkDmaRateSpreadApplied) {
  sim::Engine engine;
  FabricConfig cfg = small_config(3);
  cfg.link_dma_rates_Bps = {3.0e9, 2.6e9, 2.8e9};
  Fabric ring(engine, cfg);
  EXPECT_DOUBLE_EQ(ring.right_port(0).config().dma_rate_Bps, 3.0e9);
  EXPECT_DOUBLE_EQ(ring.right_port(1).config().dma_rate_Bps, 2.6e9);
  EXPECT_DOUBLE_EQ(ring.right_port(2).config().dma_rate_Bps, 2.8e9);
  // Both ends of a link share its rate.
  EXPECT_DOUBLE_EQ(ring.left_port(1).config().dma_rate_Bps, 3.0e9);
}

TEST(FabricTest, DataMovesBetweenNeighborsThroughWindows) {
  sim::Engine engine;
  Fabric ring(engine, small_config(3));
  auto region = ring.host(1).memory().allocate(4096);
  ring.right_port(0).program_window(ntb::kRawWindow, region);
  std::vector<std::byte> data(1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i & 0xff);
  }
  engine.spawn("sender", [&] {
    ring.right_port(0).dma_write(ntb::kRawWindow, 0, data);
  });
  engine.run();
  auto got = ring.host(1).memory().bytes(region, 0, data.size());
  EXPECT_EQ(std::memcmp(got.data(), data.data(), data.size()), 0);
}

TEST(FabricTest, FaultInjectionDownsOneLinkOnly) {
  sim::Engine engine;
  Fabric ring(engine, small_config(3));
  ring.set_link_up(0, false);
  EXPECT_FALSE(ring.link(0).up());
  EXPECT_TRUE(ring.link(1).up());
  ring.set_link_up(0, true);
  EXPECT_TRUE(ring.link(0).up());
}

TEST(FabricTest, RingOfTwoHasTwoDistinctLinks) {
  sim::Engine engine;
  Fabric ring(engine, small_config(2));
  // host0.right <-> host1.left over link0; host1.right <-> host0.left over
  // link1: a 2-ring is two parallel cables, as with two dual-adapter hosts.
  EXPECT_EQ(&ring.right_port(0).link(), &ring.link(0));
  EXPECT_EQ(&ring.right_port(1).link(), &ring.link(1));
  EXPECT_NE(&ring.link(0), &ring.link(1));
}

}  // namespace
}  // namespace ntbshmem::fabric
