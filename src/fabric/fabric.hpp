// Switchless NTB fabric: hosts, adapter ports and PCIe cables instantiated
// from a Topology wiring diagram, plus cached static routing tables.
//
// The default configuration (a ring) reproduces the paper's prototype
// (Fig. 2/7) byte-for-byte: same construction order, names, vector bases
// and per-link DMA-rate spread as the original ring-only fabric. Other
// topologies generalise the same point-to-point NTB links into chordal
// rings, 2-D tori and full meshes; there is still no PCIe switch anywhere,
// every hop is an independent NTB connection and non-neighbour traffic is
// forwarded by intermediate hosts.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/timing_params.hpp"
#include "fabric/router.hpp"
#include "fabric/topology.hpp"
#include "host/host.hpp"
#include "ntb/ntb_port.hpp"
#include "pcie/link.hpp"
#include "sim/engine.hpp"

namespace ntbshmem::fabric {

struct FabricConfig {
  int num_hosts = 3;
  // Wiring diagram; the default (ring) is the paper's prototype.
  TopologySpec topology;
  TimingParams timing;
  // Per-link DMA engine rate overrides (bytes/s), cycled over the links in
  // link-construction order: link i uses entry i % size(). When the fabric
  // has more links than entries the spread simply repeats — that is the
  // supported way to give N > 3 hosts the paper's 3-rate spread. Every
  // entry must be positive; the constructor rejects zero/negative/NaN
  // rates instead of silently building an unusable link. The default
  // spread mirrors the paper's observation that different PEX chipsets /
  // connection environments deliver 20-30 Gbps (Fig. 8a-c show distinct
  // per-pair rates). An empty vector uses timing.dma_rate_Bps.
  std::vector<double> link_dma_rates_Bps = {3.0e9, 2.6e9, 2.8e9};
  // Ports block for link retraining instead of failing fast (see
  // ntb::PortConfig::retry_on_link_down).
  bool resilient_links = false;
};

class Fabric {
 public:
  Fabric(sim::Engine& engine, const FabricConfig& config);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int size() const { return static_cast<int>(hosts_.size()); }
  const FabricConfig& config() const { return config_; }
  sim::Engine& engine() const { return engine_; }
  const Topology& topology() const { return topology_; }

  host::Host& host(int id) { return *hosts_.at(checked(id)); }

  int degree(int id) const { return topology_.degree(id); }
  int num_links() const { return static_cast<int>(links_.size()); }

  // Adapter `port_index` on host `id`, in topology port order.
  ntb::NtbPort& port(int id, int port_index) {
    auto& hp = ports_.at(checked(id));
    if (port_index < 0 || port_index >= static_cast<int>(hp.size())) {
      throw std::out_of_range("Fabric: port index out of range");
    }
    return *hp[static_cast<std::size_t>(port_index)];
  }

  // --- Paper-faithful ring surface -----------------------------------
  // On ring-like topologies port 0 faces the right neighbour (id+1 mod N)
  // and port 1 the left neighbour (id-1 mod N).
  ntb::NtbPort& right_port(int id) { return port(id, 0); }
  ntb::NtbPort& left_port(int id) { return port(id, 1); }
  ntb::NtbPort& port(int id, Direction d) {
    return port(id, static_cast<int>(d));
  }

  // Cable `i` in topology link order (on a ring: joins host i and i+1).
  pcie::Link& link(int i) {
    if (i < 0 || i >= num_links()) {
      throw std::out_of_range("Fabric: host/link id out of range");
    }
    return *links_[static_cast<std::size_t>(i)];
  }
  void set_link_up(int i, bool up) { link(i).set_up(up); }

  int right_neighbor(int id) const { return (checked_i(id) + 1) % size(); }
  int left_neighbor(int id) const {
    return (checked_i(id) + size() - 1) % size();
  }

  // --- Table-driven routing ------------------------------------------
  // Precomputed (and cached) routing table for `mode` (shortest-path ties
  // go to the lowest port index: on a ring, right). Building is pure
  // computation: no simulated time passes and no events are queued, so
  // lazy construction is schedule-neutral.
  const RoutingTable& routing(RoutingMode mode) const;

 private:
  std::size_t checked(int id) const {
    if (id < 0 || id >= size()) {
      throw std::out_of_range("Fabric: host/link id out of range");
    }
    return static_cast<std::size_t>(id);
  }
  int checked_i(int id) const { return static_cast<int>(checked(id)); }

  sim::Engine& engine_;
  FabricConfig config_;
  Topology topology_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  std::vector<std::unique_ptr<pcie::Link>> links_;
  std::vector<std::vector<std::unique_ptr<ntb::NtbPort>>> ports_;
  mutable std::array<std::optional<RoutingTable>, 3> tables_;
};

}  // namespace ntbshmem::fabric
