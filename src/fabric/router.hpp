// Static routing over a fabric Topology.
//
// Routes are precomputed into flat per-(src,dst) next-hop tables, so the
// transport's forwarding decision is a single deterministic lookup — the
// generalisation of the paper's "always forward rightward" rule. Three
// modes:
//
//   kRightOnly       — paper-faithful ring rule: every request travels
//                      rightward (port 0), responses travel leftward
//                      (port 1). Only valid on ring-like topologies.
//   kShortest        — BFS shortest path on the host graph; ties between
//                      equally short egress ports go to the lowest port
//                      index, which on the ring reproduces the legacy
//                      "ties go right".
//   kDimensionOrder  — torus-only deadlock-free mode: correct the X
//                      coordinate fully, then Y, never crossing a wrap
//                      cable. Monotonic dimension order makes the channel
//                      dependence graph acyclic (see DESIGN.md §4e).
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/topology.hpp"

namespace ntbshmem::fabric {

enum class RoutingMode : int {
  kRightOnly,       // paper-faithful: all multi-hop traffic travels rightward
  kShortest,        // choose the nearest egress (fixed tie-break)
  kDimensionOrder,  // torus: X fully before Y, wrap-free (deadlock-free)
};

// Next egress port + remaining hop count for one (src, dst) pair.
struct PortRoute {
  int port = -1;
  int hops = 0;
};

class RoutingTable {
 public:
  // Precompute all (src, dst) routes: a pure function of the topology
  // and the mode.
  static RoutingTable build(const Topology& topo, RoutingMode mode);

  RoutingMode mode() const { return mode_; }
  int num_hosts() const { return num_hosts_; }

  // Egress port on `src` for request traffic towards `dst` (-1 when
  // src == dst), and the total hop count of that path.
  int next_port(int src, int dst) const { return at(next_port_, src, dst); }
  int hops(int src, int dst) const { return at(hops_, src, dst); }

  // Egress port for response traffic (get responses, atomics, delivery
  // acks) from `src` back towards `origin`. Identical to the request
  // tables except under kRightOnly, where responses travel leftward.
  int response_port(int src, int origin) const {
    return at(response_port_, src, origin);
  }
  int response_hops(int src, int origin) const {
    return at(response_hops_, src, origin);
  }

  // Egress port for a frame addressed to `dst` seen at intermediate host
  // `me`, having arrived on `in_port` (-1 when originating locally).
  // kRightOnly is direction-preserving — a frame keeps travelling the way
  // it was going — which is what lets leftward responses transit a table
  // whose request rows all point right.
  int forward_port(int me, int dst, int in_port) const;

  // Longest precomputed route in the table (max hops over all pairs).
  int diameter() const { return diameter_; }

  // FNV-1a over every table entry: two tables route identically iff their
  // digests match, which is what the determinism property tests pin.
  std::uint64_t digest() const;

 private:
  RoutingTable() = default;

  int at(const std::vector<int>& table, int src, int dst) const;

  RoutingMode mode_ = RoutingMode::kRightOnly;
  int num_hosts_ = 0;
  int diameter_ = 0;
  std::vector<int> next_port_;
  std::vector<int> hops_;
  std::vector<int> response_port_;
  std::vector<int> response_hops_;
};

}  // namespace ntbshmem::fabric
