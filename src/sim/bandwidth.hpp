// Fluid-flow shared-bandwidth resource.
//
// Models a link or bus of fixed capacity C (bytes/second) shared by
// concurrent transfers under max-min fair sharing: each active flow
// receives an equal share of C, except that a flow never exceeds its own
// rate cap (e.g. the DMA engine limit), in which case its leftover
// capacity is redistributed to the others (water-filling).
//
// Rates are recomputed whenever a flow arrives or completes, and the next
// completion is scheduled as an inline engine callback. This is the
// standard fluid approximation used in network simulators; it is exact for
// the piecewise-constant-rate case and fully deterministic here.
//
// The Fig. 8 "Ring vs Independent" contention dip emerges from this model:
// a host doing one TX and one RX stream shares its memory-bus
// BandwidthResource between the two flows.
#pragma once

#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace ntbshmem::sim {

// Completion token for an asynchronous transfer. Wait on `event` until
// `done` becomes true (one transfer may need to join several resources,
// e.g. source bus + cable + destination bus).
struct Completion {
  explicit Completion(Engine& engine, const std::string& name)
      : event(engine, name) {}
  Event event;
  bool done = false;

  // Blocks the calling process until the transfer finishes.
  void wait() {
    while (!done) event.wait();
  }
};

class BandwidthResource {
 public:
  static constexpr double kUncapped = std::numeric_limits<double>::infinity();

  BandwidthResource(Engine& engine, std::string name, double capacity_Bps);
  BandwidthResource(const BandwidthResource&) = delete;
  BandwidthResource& operator=(const BandwidthResource&) = delete;

  // Blocks the calling process until `bytes` have drained through this
  // resource. `flow_cap_Bps` additionally caps this flow's own rate.
  void transfer(std::uint64_t bytes, double flow_cap_Bps = kUncapped);

  // Starts a transfer and returns immediately; the token's event fires on
  // completion. Usable from scheduler context as well as process context.
  std::shared_ptr<Completion> transfer_async(std::uint64_t bytes,
                                             double flow_cap_Bps = kUncapped);

  double capacity_Bps() const { return capacity_; }
  const std::string& name() const { return name_; }

 private:
  struct Flow {
    double remaining;  // bytes
    double cap;        // flow's own max rate (Bps)
    double rate = 0.0; // current assigned rate (Bps)
    std::shared_ptr<Completion> completion;
  };

  // Drains `dt` of progress into all flows, completes finished ones, then
  // recomputes fair-share rates and re-arms the completion timer.
  void update();
  void recompute_rates();
  void arm_timer();

  Engine& engine_;
  std::string name_;
  double capacity_;
  Time last_update_ = 0;
  std::list<Flow> flows_;
  CallbackHandle timer_;
};

}  // namespace ntbshmem::sim
