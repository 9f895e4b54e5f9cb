#include "fabric/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace ntbshmem::fabric {

namespace {

const char* mode_slug(RoutingMode mode) {
  switch (mode) {
    case RoutingMode::kRightOnly:
      return "right_only";
    case RoutingMode::kShortest:
      return "shortest";
    case RoutingMode::kDimensionOrder:
      return "dimension_order";
  }
  return "unknown";
}

}  // namespace

Fabric::Fabric(sim::Engine& engine, const FabricConfig& config)
    : engine_(engine),
      config_(config),
      topology_(Topology::make(config.topology, config.num_hosts)) {
  const int n = config_.num_hosts;
  if (n < 2) {
    throw std::invalid_argument("Fabric needs at least 2 hosts");
  }
  for (std::size_t i = 0; i < config_.link_dma_rates_Bps.size(); ++i) {
    const double rate = config_.link_dma_rates_Bps[i];
    if (!(rate > 0.0) || !std::isfinite(rate)) {
      throw std::invalid_argument(
          "FabricConfig::link_dma_rates_Bps[" + std::to_string(i) +
          "] must be a positive, finite rate (got " + std::to_string(rate) +
          " B/s)");
    }
  }

  pcie::LinkConfig link_cfg;
  link_cfg.gen = static_cast<pcie::Gen>(config_.timing.pcie_gen);
  link_cfg.lanes = config_.timing.pcie_lanes;
  link_cfg.max_payload = config_.timing.pcie_max_payload;
  link_cfg.validate();

  hosts_.reserve(static_cast<std::size_t>(n));
  ports_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Every port spans 16 doorbell vectors (vector base 16 * port index),
    // so a host's interrupt controller must cover 16 * degree vectors.
    // Ring hosts keep the legacy 32-vector controller.
    hosts_.push_back(std::make_unique<host::Host>(
        engine, i, config_.timing,
        std::max(host::InterruptController::kNumVectors,
                 16 * topology_.degree(i))));
    ports_[static_cast<std::size_t>(i)].resize(
        static_cast<std::size_t>(topology_.degree(i)));
  }

  // Cables are instantiated in topology link order, end A before end B —
  // on the ring this is cable i joining host i (right adapter, vector
  // base 0) with host i+1 (left adapter, vector base 16), in the exact
  // order the original ring-only fabric built. The per-link DMA-rate
  // spread models the paper's per-chipset variation and cycles over links.
  links_.reserve(topology_.links().size());
  for (const LinkSpec& ls : topology_.links()) {
    const std::size_t link_idx = links_.size();
    auto link = std::make_unique<pcie::Link>(engine, ls.name, link_cfg);
    double dma_rate = config_.timing.dma_rate_Bps;
    if (!config_.link_dma_rates_Bps.empty()) {
      dma_rate = config_.link_dma_rates_Bps[link_idx %
                                            config_.link_dma_rates_Bps.size()];
    }
    const PortSpec& pa = topology_.port(ls.host_a, ls.port_a);
    const PortSpec& pb = topology_.port(ls.host_b, ls.port_b);
    auto end_a = std::make_unique<ntb::NtbPort>(
        engine, *hosts_[static_cast<std::size_t>(ls.host_a)],
        "host" + std::to_string(ls.host_a) + "." + pa.name, config_.timing,
        ntb::PortConfig{dma_rate, /*vector_base=*/16 * ls.port_a,
                        config_.resilient_links});
    auto end_b = std::make_unique<ntb::NtbPort>(
        engine, *hosts_[static_cast<std::size_t>(ls.host_b)],
        "host" + std::to_string(ls.host_b) + "." + pb.name, config_.timing,
        ntb::PortConfig{dma_rate, /*vector_base=*/16 * ls.port_b,
                        config_.resilient_links});
    ntb::NtbPort::connect(*end_a, *end_b, *link);
    ports_[static_cast<std::size_t>(ls.host_a)]
          [static_cast<std::size_t>(ls.port_a)] = std::move(end_a);
    ports_[static_cast<std::size_t>(ls.host_b)]
          [static_cast<std::size_t>(ls.port_b)] = std::move(end_b);
    links_.push_back(std::move(link));
  }

  if (obs::Hub* hub = engine.obs()) {
    obs::MetricsRegistry& reg = hub->metrics;
    reg.gauge("fabric.hosts")->set(static_cast<double>(n));
    reg.gauge("fabric.links")->set(static_cast<double>(num_links()));
    reg.gauge("fabric.topology_kind")
        ->set(static_cast<double>(static_cast<int>(topology_.kind())));
    int max_degree = 0;
    for (int i = 0; i < n; ++i) {
      max_degree = std::max(max_degree, topology_.degree(i));
    }
    reg.gauge("fabric.max_degree")->set(static_cast<double>(max_degree));
  }
}

const RoutingTable& Fabric::routing(RoutingMode mode) const {
  auto& slot = tables_.at(static_cast<std::size_t>(mode));
  if (!slot.has_value()) {
    slot = RoutingTable::build(topology_, mode);
    if (obs::Hub* hub = engine_.obs()) {
      hub->metrics
          .gauge(std::string("fabric.routing.") + mode_slug(mode) +
                 ".diameter")
          ->set(static_cast<double>(slot->diameter()));
    }
  }
  return *slot;
}

}  // namespace ntbshmem::fabric
