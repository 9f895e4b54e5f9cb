// MSI-style interrupt controller for a simulated host.
//
// NTB doorbell bits map to interrupt vectors. Raising a vector schedules
// the registered handler after the configured ISR-entry latency (kernel
// dispatch); each raise runs the handler once.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "sim/engine.hpp"

namespace ntbshmem::host {

class InterruptController {
 public:
  // Default vector count: two NTB adapters x 16 doorbell vectors, the
  // paper's ring host. Hosts carrying more adapters (torus, mesh) size
  // the controller up via `num_vectors`.
  static constexpr int kNumVectors = 32;

  // `isr_latency` models doorbell-write -> MSI -> kernel ISR entry;
  // `dispatch_cost` models the fixed ISR bookkeeping before the handler
  // body (which typically just notifies a service thread) runs.
  InterruptController(sim::Engine& engine, std::string name,
                      sim::Dur isr_latency, sim::Dur dispatch_cost,
                      int num_vectors = kNumVectors);

  int num_vectors() const { return static_cast<int>(handlers_.size()); }

  using Handler = std::function<void(int vector)>;

  // Registers the handler for `vector` (replaces any previous handler).
  void register_handler(int vector, Handler handler);

  // Raises `vector`: after isr_latency + dispatch_cost (plus any delay the
  // attached FaultPlan injects) the handler runs in scheduler context (it
  // must not block; notify an Event instead). Callable from any context.
  void raise(int vector);

 private:
  void check_vector(int vector) const;

  sim::Engine& engine_;
  std::string name_;
  sim::Dur isr_latency_;
  sim::Dur dispatch_cost_;
  std::vector<Handler> handlers_;

  // Observability (null instruments without an attached hub).
  obs::Counter* obs_raised_ = obs::MetricsRegistry::null_counter();
  obs::Counter* obs_delivered_ = obs::MetricsRegistry::null_counter();
};

}  // namespace ntbshmem::host
