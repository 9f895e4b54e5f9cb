// The Hub bundles one simulation's observability state: the event tracer,
// the metrics registry, the causal recorder and the flight-recorder
// registry. A sim::Engine carries an optional Hub* (null by default — the
// zero-cost path); components reach it through engine.obs() at construction
// and cache instrument pointers / interned ids.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/causal.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ntbshmem::obs {

struct Hub {
  Tracer tracer;
  MetricsRegistry metrics;
  CausalRecorder causal;
  // Flight recorders registered by their owners (one per host transport on
  // the sim backend, one segment ring per PE on shm; registration order =
  // host or PE order, so iteration is deterministic). The hub does not own
  // them; owners outlive the hub's last dump because the Runtime declares
  // the hub before the transports and the backend.
  std::vector<std::pair<std::string, const FlightRecorder*>> flights;
};

}  // namespace ntbshmem::obs
