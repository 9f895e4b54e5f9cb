#include "fabric/router.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <stdexcept>

#include "common/fnv.hpp"

namespace ntbshmem::fabric {

namespace {

// Unweighted BFS distance from every host to `dst` over the port graph.
std::vector<int> bfs_dist_to(const Topology& topo, int dst) {
  std::vector<int> dist(static_cast<std::size_t>(topo.num_hosts()), -1);
  std::deque<int> queue;
  dist[static_cast<std::size_t>(dst)] = 0;
  queue.push_back(dst);
  while (!queue.empty()) {
    const int h = queue.front();
    queue.pop_front();
    for (const PortSpec& p : topo.ports(h)) {
      if (dist[static_cast<std::size_t>(p.peer_host)] == -1) {
        dist[static_cast<std::size_t>(p.peer_host)] =
            dist[static_cast<std::size_t>(h)] + 1;
        queue.push_back(p.peer_host);
      }
    }
  }
  return dist;
}

}  // namespace

int RoutingTable::at(const std::vector<int>& table, int src, int dst) const {
  if (src < 0 || src >= num_hosts_ || dst < 0 || dst >= num_hosts_) {
    throw std::out_of_range("RoutingTable: host id out of range");
  }
  return table[static_cast<std::size_t>(src) *
                   static_cast<std::size_t>(num_hosts_) +
               static_cast<std::size_t>(dst)];
}

int RoutingTable::forward_port(int me, int dst, int in_port) const {
  if (mode_ == RoutingMode::kRightOnly && in_port >= 0) {
    // Direction-preserving ring rule: a frame that arrived on the left
    // adapter keeps going right and vice versa — exactly the legacy
    // opposite(from) forwarding, and the only way leftward responses
    // transit a rightward request table.
    if (in_port > 1) {
      throw std::logic_error(
          "RoutingTable: kRightOnly frame arrived on a non-ring port");
    }
    return in_port ^ 1;
  }
  return next_port(me, dst);
}

std::uint64_t RoutingTable::digest() const {
  std::uint64_t h = fnv::kOffset;
  h = fnv::fold_u64(h, static_cast<std::uint64_t>(mode_));
  h = fnv::fold_u64(h, static_cast<std::uint64_t>(num_hosts_));
  for (const auto* table :
       {&next_port_, &hops_, &response_port_, &response_hops_}) {
    for (int v : *table) h = fnv::fold_u64(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

RoutingTable RoutingTable::build(const Topology& topo, RoutingMode mode) {
  const int n = topo.num_hosts();
  RoutingTable t;
  t.mode_ = mode;
  t.num_hosts_ = n;
  const std::size_t cells =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  t.next_port_.assign(cells, -1);
  t.hops_.assign(cells, 0);
  t.response_port_.assign(cells, -1);
  t.response_hops_.assign(cells, 0);
  auto cell = [n](int s, int d) {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(d);
  };

  switch (mode) {
    case RoutingMode::kRightOnly: {
      if (!topo.ring_like()) {
        throw std::invalid_argument(
            "kRightOnly routing requires a ring-like topology");
      }
      for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
          if (s == d) continue;
          const int rd = (d - s + n) % n;
          t.next_port_[cell(s, d)] = 0;  // right adapter
          t.hops_[cell(s, d)] = rd;
          t.response_port_[cell(s, d)] = 1;  // responses travel leftward
          t.response_hops_[cell(s, d)] = (s - d + n) % n;
        }
      }
      break;
    }
    case RoutingMode::kShortest: {
      for (int d = 0; d < n; ++d) {
        const std::vector<int> dist = bfs_dist_to(topo, d);
        for (int s = 0; s < n; ++s) {
          if (s == d) continue;
          if (dist[static_cast<std::size_t>(s)] < 0) {
            throw std::logic_error("RoutingTable: topology is disconnected");
          }
          // Ties go to the lowest port index (on the ring: port 0, right).
          int best = -1;
          for (const PortSpec& p : topo.ports(s)) {
            if (dist[static_cast<std::size_t>(p.peer_host)] ==
                    dist[static_cast<std::size_t>(s)] - 1 &&
                (best < 0 || p.index < best)) {
              best = p.index;
            }
          }
          t.next_port_[cell(s, d)] = best;
          t.hops_[cell(s, d)] = dist[static_cast<std::size_t>(s)];
          t.response_port_[cell(s, d)] = best;
          t.response_hops_[cell(s, d)] = dist[static_cast<std::size_t>(s)];
        }
      }
      // Responses retrace a shortest path towards the origin under the
      // same table, so response rows equal request rows (filled above).
      break;
    }
    case RoutingMode::kDimensionOrder: {
      if (topo.kind() != TopologyKind::kTorus2D) {
        throw std::invalid_argument(
            "kDimensionOrder routing requires a 2-D torus");
      }
      for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
          if (s == d) continue;
          const int sr = topo.torus_row(s), sc = topo.torus_col(s);
          const int dr = topo.torus_row(d), dc = topo.torus_col(d);
          // Correct X first, then Y, moving monotonically towards the
          // destination coordinate without crossing a wrap cable. Port
          // layout: 0 = px, 1 = mx, 2 = py, 3 = my.
          int port;
          if (sc != dc) {
            port = dc > sc ? 0 : 1;
          } else {
            port = dr > sr ? 2 : 3;
          }
          const int hops = std::abs(dr - sr) + std::abs(dc - sc);
          t.next_port_[cell(s, d)] = port;
          t.hops_[cell(s, d)] = hops;
          t.response_port_[cell(s, d)] = port;
          t.response_hops_[cell(s, d)] = hops;
        }
      }
      break;
    }
  }

  t.diameter_ = 0;
  for (int v : t.hops_) t.diameter_ = std::max(t.diameter_, v);
  return t;
}

}  // namespace ntbshmem::fabric
