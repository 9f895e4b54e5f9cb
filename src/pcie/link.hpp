// Full-duplex PCIe cable between two NTB adapters.
//
// Each direction is an independent fluid BandwidthResource at the link's
// effective bandwidth (PCIe is full duplex: simultaneous opposite-direction
// streams do not share capacity). A link can be administratively downed for
// fault-injection tests.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "pcie/config.hpp"
#include "sim/bandwidth.hpp"
#include "sim/engine.hpp"

namespace ntbshmem::pcie {

// The two ends of a cable. The fabric assigns end A to the lower host id.
enum class End : int { kA = 0, kB = 1 };

constexpr End opposite(End e) { return e == End::kA ? End::kB : End::kA; }

class LinkDownError : public std::runtime_error {
 public:
  explicit LinkDownError(const std::string& link)
      : std::runtime_error("PCIe link down: " + link) {}
};

class Link {
 public:
  Link(sim::Engine& engine, std::string name, const LinkConfig& config);

  // Bandwidth resource carrying traffic that *originates* at `from`.
  sim::BandwidthResource& direction_from(End from) {
    check_up();
    return from == End::kA ? *a_to_b_ : *b_to_a_;
  }

  const LinkConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

  bool up() const { return up_; }
  void set_up(bool up) {
    if (up_ && !up) ++down_edges_;
    up_ = up;
  }
  // Number of up -> down transitions so far: a blocking operation compares
  // it across its wait to see whether the link dropped at any point inside
  // (NtbPort::post), even if it has retrained since.
  std::uint64_t down_edges() const { return down_edges_; }
  void check_up() const {
    if (!up_) throw LinkDownError(name_);
  }

  // Fault model: extra occupancy a `bytes`-sized transfer originating at
  // `from` pays for CRC-detected TLP drop/corruption (the link layer's ACK/
  // NAK replay — data is never silently corrupted in flight, exactly like
  // real PCIe). Returns 0 when `plan` is null or rolls nothing; the TLP
  // count comes from this link's max_payload.
  sim::Dur fault_replay_delay(sim::FaultPlan* plan, sim::Time now, End from,
                              std::uint64_t bytes) const;

  // ---- Observability hooks (called by NtbPort around transfer_path) --------
  // Account a transfer originating at `from`: bytes + TLP count (from this
  // link's max_payload) on entry, and an in-flight-bytes utilization sample
  // on the link's trace track at both edges. All no-ops without a hub.
  void note_transfer_start(End from, std::uint64_t bytes);
  void note_transfer_end(End from, std::uint64_t bytes);
  // Account a link-layer replay stall (CRC-detected TLP loss, `stall` ns).
  void note_replay(End from, sim::Dur stall);

  // ---- Utilization windows (Perfetto congestion series + tracecheck oracle) -
  // Event-driven busy-time accounting: a direction is "busy" while at least
  // one transfer is in flight on it. With a non-zero window, every
  // completed window with busy time emits one counter sample (busy ns in
  // the window) on the link's trace track and is retained for the
  // ntbshmem-trace-v1 artifact; flush_util() closes the final partial
  // window so the sample series integrates *exactly* to busy_ns() — the
  // consistency invariant tools/tracecheck asserts. Driven from
  // note_transfer_start/end as pure arithmetic — never touches the engine,
  // so enabling it cannot perturb virtual time. Off (window 0) by default.
  void set_util_window(sim::Dur window);
  sim::Dur util_window() const { return util_window_; }
  void flush_util(sim::Time now);
  std::uint64_t busy_ns(End dir) const {
    return busy_ns_[static_cast<std::size_t>(dir)];
  }
  std::uint64_t transferred_bytes(End dir) const {
    return transferred_bytes_[static_cast<std::size_t>(dir)];
  }
  struct UtilSample {
    sim::Time t = 0;         // sample (window-end or flush) time
    std::uint64_t busy = 0;  // busy ns accumulated since the prior sample
  };
  const std::vector<UtilSample>& util_samples(End dir) const {
    return util_samples_[static_cast<std::size_t>(dir)];
  }

 private:
  // Attributes [covered_until_, now) to the current window(s) using the
  // pre-update in-flight state; call before mutating inflight_bytes_.
  void account_util(std::size_t dir, sim::Time now);
  void emit_util_sample(std::size_t dir, sim::Time t);

  std::string name_;
  LinkConfig config_;
  bool up_ = true;
  std::uint64_t down_edges_ = 0;
  std::unique_ptr<sim::BandwidthResource> a_to_b_;
  std::unique_ptr<sim::BandwidthResource> b_to_a_;

  // Observability (null instruments when the engine has no hub attached).
  sim::Engine* engine_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId obs_track_ = 0;
  obs::EventId obs_ev_inflight_[2] = {0, 0};  // per direction (a2b, b2a)
  obs::Counter* obs_bytes_[2] = {obs::MetricsRegistry::null_counter(),
                                 obs::MetricsRegistry::null_counter()};
  obs::Counter* obs_tlps_[2] = {obs::MetricsRegistry::null_counter(),
                                obs::MetricsRegistry::null_counter()};
  obs::Counter* obs_replays_ = obs::MetricsRegistry::null_counter();
  obs::Counter* obs_replay_stall_ns_ = obs::MetricsRegistry::null_counter();
  std::uint64_t inflight_bytes_[2] = {0, 0};

  // Utilization-window state (all zero while util_window_ == 0).
  obs::EventId obs_ev_busy_[2] = {0, 0};
  sim::Dur util_window_ = 0;
  sim::Time covered_until_[2] = {0, 0};
  sim::Time window_end_[2] = {0, 0};
  std::uint64_t window_busy_[2] = {0, 0};
  std::uint64_t busy_ns_[2] = {0, 0};
  std::uint64_t transferred_bytes_[2] = {0, 0};
  std::vector<UtilSample> util_samples_[2];
};

}  // namespace ntbshmem::pcie
