// RoutingTable property tests: reachability, determinism and
// deadlock-freedom of dimension-order routing.
#include "fabric/router.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fabric/topology.hpp"

namespace ntbshmem::fabric {
namespace {

// Forwards a frame from s towards dst exactly as the transport does —
// `first_port` out of s, later hops through forward_port with the real
// arrival port — and expects arrival in exactly expected_hops steps.
// Covers both request walks (first_port = next_port) and response walks
// (first_port = response_port): intermediate hosts always use
// forward_port, which is what keeps kRightOnly responses travelling left.
void expect_walk(const Topology& topo, const RoutingTable& rt, int s,
                 int dst, int first_port, int expected_hops) {
  EXPECT_GE(first_port, 0) << "no egress at host " << s;
  int me = topo.peer_host(s, first_port);
  int in = topo.peer_port(s, first_port);
  int steps = 1;
  while (me != dst && steps < expected_hops) {
    const int out = rt.forward_port(me, dst, in);
    EXPECT_GE(out, 0) << "no egress at host " << me << " towards " << dst;
    if (out < 0) return;
    in = topo.peer_port(me, out);
    me = topo.peer_host(me, out);
    ++steps;
  }
  EXPECT_EQ(me, dst) << s << "->" << dst << " stalled after " << steps;
  EXPECT_EQ(steps, expected_hops) << s << "->" << dst;
}

struct Case {
  Topology topo;
  RoutingMode mode;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  cases.push_back({Topology::ring(6), RoutingMode::kRightOnly});
  cases.push_back({Topology::ring(6), RoutingMode::kShortest});
  cases.push_back({Topology::chordal(8, {3}), RoutingMode::kShortest});
  cases.push_back({Topology::torus2d(3, 3), RoutingMode::kShortest});
  cases.push_back({Topology::torus2d(3, 3), RoutingMode::kDimensionOrder});
  cases.push_back({Topology::torus2d(2, 4), RoutingMode::kDimensionOrder});
  cases.push_back({Topology::full_mesh(5), RoutingMode::kShortest});
  return cases;
}

TEST(RouterTest, EveryPairReachableWithinClaimedHopsAndDiameter) {
  for (const Case& c : all_cases()) {
    const RoutingTable rt = RoutingTable::build(c.topo, c.mode);
    for (int s = 0; s < c.topo.num_hosts(); ++s) {
      for (int d = 0; d < c.topo.num_hosts(); ++d) {
        if (s == d) {
          EXPECT_EQ(rt.next_port(s, d), -1);
          EXPECT_EQ(rt.hops(s, d), 0);
          continue;
        }
        expect_walk(c.topo, rt, s, d, rt.next_port(s, d), rt.hops(s, d));
        EXPECT_LE(rt.hops(s, d), rt.diameter());
        expect_walk(c.topo, rt, s, d, rt.response_port(s, d),
                    rt.response_hops(s, d));
      }
    }
  }
}

TEST(RouterTest, KnownDiameters) {
  EXPECT_EQ(RoutingTable::build(Topology::ring(6), RoutingMode::kRightOnly)
                .diameter(),
            5);
  EXPECT_EQ(
      RoutingTable::build(Topology::ring(6), RoutingMode::kShortest)
          .diameter(),
      3);
  EXPECT_EQ(RoutingTable::build(Topology::torus2d(3, 3),
                                RoutingMode::kDimensionOrder)
                .diameter(),
            4);  // wrap-free |dx| + |dy|
  EXPECT_EQ(
      RoutingTable::build(Topology::full_mesh(5), RoutingMode::kShortest)
          .diameter(),
      1);
}

TEST(RouterTest, RightOnlyAllRequestsGoRightResponsesGoLeft) {
  const Topology topo = Topology::ring(5);
  const RoutingTable rt = RoutingTable::build(topo, RoutingMode::kRightOnly);
  for (int s = 0; s < 5; ++s) {
    for (int d = 0; d < 5; ++d) {
      if (s == d) continue;
      EXPECT_EQ(rt.next_port(s, d), 0);
      EXPECT_EQ(rt.hops(s, d), (d - s + 5) % 5);
      EXPECT_EQ(rt.response_port(s, d), 1);
      EXPECT_EQ(rt.response_hops(s, d), (s - d + 5) % 5);
    }
  }
  // Direction-preserving forwarding: a frame that arrived on the left
  // adapter (port 1) keeps going right, and vice versa.
  EXPECT_EQ(rt.forward_port(2, 0, 1), 0);
  EXPECT_EQ(rt.forward_port(2, 0, 0), 1);
  EXPECT_THROW(rt.forward_port(2, 0, 2), std::logic_error);
}

TEST(RouterTest, ModeTopologyMismatchesThrow) {
  EXPECT_THROW(
      RoutingTable::build(Topology::torus2d(2, 2), RoutingMode::kRightOnly),
      std::invalid_argument);
  EXPECT_THROW(
      RoutingTable::build(Topology::full_mesh(4), RoutingMode::kRightOnly),
      std::invalid_argument);
  EXPECT_THROW(
      RoutingTable::build(Topology::ring(4), RoutingMode::kDimensionOrder),
      std::invalid_argument);
}

TEST(RouterTest, RebuildIsDigestStablePerSeed) {
  // A table is a pure function of (topology, mode): rebuilding it routes
  // identically.
  for (const Case& c : all_cases()) {
    const RoutingTable a = RoutingTable::build(c.topo, c.mode);
    const RoutingTable b = RoutingTable::build(c.topo, c.mode);
    EXPECT_EQ(a.digest(), b.digest());
  }
}

// Channel-dependence-graph acyclicity: a deadlock needs a cycle of
// directed channels (host, egress port) where some route holds channel a
// while requesting channel b. Dimension-order routing must never create
// one (DESIGN.md §4e).
TEST(RouterTest, DimensionOrderChannelDependenceGraphIsAcyclic) {
  for (const auto& shape : std::vector<std::pair<int, int>>{
           {3, 3}, {2, 4}, {4, 4}, {3, 5}}) {
    const Topology topo = Topology::torus2d(shape.first, shape.second);
    const RoutingTable rt =
        RoutingTable::build(topo, RoutingMode::kDimensionOrder);
    // Channel id = host * max_degree + port.
    const int deg = 4;
    const int nchan = topo.num_hosts() * deg;
    std::vector<std::set<int>> edges(static_cast<std::size_t>(nchan));
    for (int s = 0; s < topo.num_hosts(); ++s) {
      for (int d = 0; d < topo.num_hosts(); ++d) {
        if (s == d) continue;
        int me = s;
        int in = -1;
        int prev_chan = -1;
        while (me != d) {
          const int out = rt.forward_port(me, d, in);
          const int chan = me * deg + out;
          if (prev_chan >= 0) {
            edges[static_cast<std::size_t>(prev_chan)].insert(chan);
          }
          prev_chan = chan;
          in = topo.peer_port(me, out);
          me = topo.peer_host(me, out);
        }
      }
    }
    // Iterative three-color DFS.
    std::vector<int> color(static_cast<std::size_t>(nchan), 0);
    for (int start = 0; start < nchan; ++start) {
      if (color[static_cast<std::size_t>(start)] != 0) continue;
      std::vector<std::pair<int, std::set<int>::const_iterator>> stack;
      color[static_cast<std::size_t>(start)] = 1;
      stack.emplace_back(start,
                         edges[static_cast<std::size_t>(start)].begin());
      while (!stack.empty()) {
        auto& [node, it] = stack.back();
        if (it == edges[static_cast<std::size_t>(node)].end()) {
          color[static_cast<std::size_t>(node)] = 2;
          stack.pop_back();
          continue;
        }
        const int next = *it++;
        ASSERT_NE(color[static_cast<std::size_t>(next)], 1)
            << "channel dependence cycle through host " << next / deg
            << " port " << next % deg << " on torus " << shape.first << "x"
            << shape.second;
        if (color[static_cast<std::size_t>(next)] == 0) {
          color[static_cast<std::size_t>(next)] = 1;
          stack.emplace_back(next,
                             edges[static_cast<std::size_t>(next)].begin());
        }
      }
    }
  }
}

TEST(RouterTest, HostIdRangeChecked) {
  const RoutingTable rt =
      RoutingTable::build(Topology::ring(3), RoutingMode::kRightOnly);
  EXPECT_THROW(rt.next_port(-1, 0), std::out_of_range);
  EXPECT_THROW(rt.hops(0, 3), std::out_of_range);
}

}  // namespace
}  // namespace ntbshmem::fabric
