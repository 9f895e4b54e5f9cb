#include "host/interrupt.hpp"

#include <stdexcept>

#include "sim/fault.hpp"

namespace ntbshmem::host {

InterruptController::InterruptController(sim::Engine& engine, std::string name,
                                         sim::Dur isr_latency,
                                         sim::Dur dispatch_cost,
                                         int num_vectors)
    : engine_(engine),
      name_(std::move(name)),
      isr_latency_(isr_latency),
      dispatch_cost_(dispatch_cost) {
  if (num_vectors < 1) {
    throw std::invalid_argument(name_ + ": need at least one vector");
  }
  handlers_.resize(static_cast<std::size_t>(num_vectors));
  if (obs::Hub* hub = engine.obs()) {
    obs::MetricsRegistry& reg = hub->metrics;
    obs_raised_ = reg.counter(name_ + ".raised");
    obs_delivered_ = reg.counter(name_ + ".delivered");
  }
}

void InterruptController::check_vector(int vector) const {
  if (vector < 0 || vector >= num_vectors()) {
    throw std::out_of_range(name_ + ": interrupt vector out of range");
  }
}

void InterruptController::register_handler(int vector, Handler handler) {
  check_vector(vector);
  handlers_[static_cast<std::size_t>(vector)] = std::move(handler);
}

void InterruptController::raise(int vector) {
  check_vector(vector);
  obs_raised_->inc();
  sim::Dur extra = 0;
  if (sim::FaultPlan* plan = engine_.faults()) {
    // Delayed/coalesced vector: the MSI is held back, modelled as extra
    // delivery latency. Handlers still run in raise order per frame class
    // because the NTB latch FIFO, not the ISR, carries frame identity.
    extra = plan->irq_delivery_delay(engine_.now(), name_, vector);
  }
  engine_.call_after(isr_latency_ + dispatch_cost_ + extra, [this, vector] {
    const auto& handler = handlers_[static_cast<std::size_t>(vector)];
    obs_delivered_->inc();
    if (handler) handler(vector);
  });
}

}  // namespace ntbshmem::host
