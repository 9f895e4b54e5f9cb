// Fluid-flow shared-bandwidth resource.
//
// Models a link or bus of fixed capacity C (bytes/second) shared by
// concurrent transfers under max-min fair sharing: each active flow
// receives an equal share of C, except that a flow never exceeds its own
// rate cap (e.g. the DMA engine limit), in which case its leftover
// capacity is redistributed to the others (water-filling).
//
// Rates are recomputed whenever a flow arrives or completes, and the next
// completion is armed on the engine's shared completion timers
// (FlowTimers), which fire inline in scheduler context. This is the
// standard fluid approximation used in network simulators; it is exact for
// the piecewise-constant-rate case and fully deterministic here.
//
// A transfer may cross several resources at once (transfer_path: a DMA's
// source bus, PCIe wire and destination bus): one flow per stage, each
// under its own resource's arithmetic, and one waiting process.
//
// The Fig. 8 "Ring vs Independent" contention dip emerges from this model:
// a host doing one TX and one RX stream shares its memory-bus
// BandwidthResource between the two flows.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace ntbshmem::sim {

class BandwidthResource;
struct PathWait;

// The completion timers of every BandwidthResource on one engine
// (Engine::flow_timers). A resource whose next completion falls on the
// instant of the timer armed immediately before it, with no other engine
// key (a queue push or an in-place continuation) taken in between, joins
// that timer instead of pushing its own. The two would have held
// consecutive (t, seq) keys, so firing them as one dispatch, in arming
// order, moves nothing.
class FlowTimers {
 public:
  static constexpr std::uint32_t kNone = ~0u;

  explicit FlowTimers(Engine& engine) : engine_(engine) {}
  FlowTimers(const FlowTimers&) = delete;
  FlowTimers& operator=(const FlowTimers&) = delete;

 private:
  friend class BandwidthResource;

  // Arms `r`, which holds no timer, to fire at `t`.
  void arm(BandwidthResource* r, Time t);
  // Withdraws `r` from its timer, if it holds one.
  void leave(BandwidthResource* r);

  struct Timer {
    Time t = 0;
    // Engine::next_seq() right after this timer's push: resources may join
    // while the engine still reports it.
    std::uint64_t joinable_at = 0;
    CallbackHandle handle;
    std::vector<BandwidthResource*> members;  // arming order; null = left
    std::size_t live = 0;
    bool firing = false;
  };
  void fire(std::uint32_t idx);
  void retire(std::uint32_t idx);

  Engine& engine_;
  std::deque<Timer> timers_;  // pooled; references survive growth
  std::vector<std::uint32_t> free_;
  std::uint32_t last_ = kNone;  // the most recently pushed timer
};

class BandwidthResource {
 public:
  static constexpr double kUncapped = std::numeric_limits<double>::infinity();

  BandwidthResource(Engine& engine, std::string name, double capacity_Bps);
  // Must not outlive its engine. A transfer still draining through a
  // destroyed resource stops waiting for that stage.
  ~BandwidthResource();
  BandwidthResource(const BandwidthResource&) = delete;
  BandwidthResource& operator=(const BandwidthResource&) = delete;

  // Blocks the calling process until `bytes` have drained through this
  // resource. `flow_cap_Bps` additionally caps this flow's own rate.
  void transfer(std::uint64_t bytes, double flow_cap_Bps = kUncapped);

  double capacity_Bps() const { return capacity_; }
  const std::string& name() const { return name_; }

 private:
  friend class FlowTimers;
  friend void transfer_path(std::span<BandwidthResource* const>,
                            std::uint64_t, double);

  struct Flow {
    double remaining;   // bytes
    double cap;         // flow's own max rate (Bps)
    double rate;        // current assigned rate (Bps)
    PathWait* path;     // the transfer this flow is one stage of
    std::uint32_t stage;
    bool open;          // water-filling: still below the equal share
  };

  // A flow of `path` arriving (start) or leaving unfinished (abandon),
  // each bracketed like a completion: update, change, recompute, re-arm.
  void start(PathWait* path, std::uint32_t stage, std::uint64_t bytes,
             double cap);
  void abandon(PathWait* path, std::uint32_t stage);
  void on_timer();
  // Drains `dt` of progress into all flows and completes finished ones.
  void update();
  void recompute_rates();
  void arm_timer();

  Engine& engine_;
  FlowTimers& timers_;
  std::string name_;
  std::string xfer_name_;  // what a process waiting on this stage waits on
  double capacity_;
  Time last_update_ = 0;
  std::vector<Flow> flows_;  // arrival order, which completions wake in
  std::uint32_t timer_ = FlowTimers::kNone;  // index of the held timer
};

// Blocks the calling process until `bytes` have drained through every
// resource of `path` (for a DMA: source bus, PCIe wire, destination bus).
// The stages drain concurrently, one flow each under its resource's fair
// share and the common `flow_cap_Bps`, so the slowest stage sets the end.
// Flows start in path order, and the caller waits on the stages in path
// order: it is woken only when the stage it waits on completes, which is
// where one wait per stage would wake it. At most 32 stages.
void transfer_path(std::span<BandwidthResource* const> path,
                   std::uint64_t bytes,
                   double flow_cap_Bps = BandwidthResource::kUncapped);

}  // namespace ntbshmem::sim
