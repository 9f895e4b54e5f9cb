// Fabric topology model: which NTB adapter ports exist on which host and
// which cables join them.
//
// The paper's prototype is a fixed ring of hosts with two adapters each
// (Fig. 2/7); this header generalises that wiring diagram to an arbitrary
// port-level adjacency so the same link/adapter models can be composed
// into richer switchless fabrics. A Topology is pure data — no simulation
// objects — and is consumed by fabric::Fabric (which instantiates hosts,
// links and NtbPorts from it) and by fabric::RoutingTable (which
// precomputes next-hop tables over it).
//
// Generators:
//   ring(n)           — the paper's switchless ring, port 0 = "right"
//                       (towards host i+1), port 1 = "left". Byte-for-byte
//                       the wiring the original ring-only fabric built.
//   chordal(n, skips) — ring plus skip chords of the given strides.
//   torus2d(r, c)     — 2-D torus, ports px/mx/py/my per host.
//   full_mesh(n)      — one cable per host pair.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ntbshmem::fabric {

// Which side of a ring cable an adapter faces. Port index 0 is the right
// adapter and port index 1 the left adapter on every ring-like host, so
// the enum doubles as a port index for two-port topologies.
enum class Direction : int { kRight = 0, kLeft = 1 };

constexpr Direction opposite(Direction d) {
  return d == Direction::kRight ? Direction::kLeft : Direction::kRight;
}

enum class TopologyKind : int {
  kRing = 0,     // paper-faithful switchless ring
  kChordal = 1,  // ring + skip links
  kTorus2D = 2,  // rows x cols 2-D torus
  kFullMesh = 3, // every host pair cabled directly
};

// Declarative description of a topology; resolved against the host count
// by Topology::make. rows/cols are only read for kTorus2D, skips only for
// kChordal.
struct TopologySpec {
  TopologyKind kind = TopologyKind::kRing;
  int rows = 0;
  int cols = 0;
  std::vector<int> skips;  // chord strides, each in [2, n-2]
};

// One adapter port on one host, with the cross-reference to the adapter
// at the far end of its cable.
struct PortSpec {
  int host = -1;
  int index = -1;      // port index on `host`
  int peer_host = -1;
  int peer_port = -1;  // port index on `peer_host`
  int link = -1;       // index into Topology links
  std::string name;    // adapter name suffix, e.g. "right", "px", "to3"
};

// One cable. End A is always instantiated before end B by the fabric, so
// generator ordering here pins the construction order of the simulation
// objects (and with it the paper-mode bit-identity of the ring).
struct LinkSpec {
  int host_a = -1;
  int port_a = -1;
  int host_b = -1;
  int port_b = -1;
  std::string name;
};

class Topology {
 public:
  static Topology ring(int n);
  static Topology chordal(int n, const std::vector<int>& skips);
  static Topology torus2d(int rows, int cols);
  static Topology full_mesh(int n);
  // Resolve a spec against the host count (throws std::invalid_argument on
  // any mismatch, e.g. torus rows*cols != num_hosts).
  static Topology make(const TopologySpec& spec, int num_hosts);

  TopologyKind kind() const { return spec_.kind; }
  const TopologySpec& spec() const { return spec_; }
  int num_hosts() const { return num_hosts_; }
  int num_links() const { return static_cast<int>(links_.size()); }

  // Ring-like topologies carry the paper's ring as a subgraph on ports
  // 0/1, so the doorbell ring-barrier protocol still applies.
  bool ring_like() const {
    return spec_.kind == TopologyKind::kRing ||
           spec_.kind == TopologyKind::kChordal;
  }

  int degree(int host) const {
    return static_cast<int>(ports_.at(checked_host(host)).size());
  }
  const PortSpec& port(int host, int index) const;
  const std::vector<PortSpec>& ports(int host) const {
    return ports_.at(checked_host(host));
  }
  const LinkSpec& link(int index) const;
  const std::vector<LinkSpec>& links() const { return links_; }

  int peer_host(int host, int index) const { return port(host, index).peer_host; }
  int peer_port(int host, int index) const { return port(host, index).peer_port; }

  // Torus coordinate helpers (throw unless kind() == kTorus2D).
  int torus_row(int host) const;
  int torus_col(int host) const;

 private:
  Topology(TopologySpec spec, int num_hosts);

  // Wire host_a's next free (or pre-reserved) port slot to host_b's; both
  // PortSpecs and the LinkSpec are fully cross-referenced.
  void add_link(int host_a, int port_a, const std::string& name_a,
                int host_b, int port_b, const std::string& name_b,
                const std::string& link_name);
  void validate_wiring() const;

  std::size_t checked_host(int host) const;

  TopologySpec spec_;
  int num_hosts_ = 0;
  std::vector<std::vector<PortSpec>> ports_;  // [host][port index]
  std::vector<LinkSpec> links_;
};

}  // namespace ntbshmem::fabric
