#include "pcie/link.hpp"

#include "sim/fault.hpp"

namespace ntbshmem::pcie {

LinkConfig gen_lanes(Gen gen, int lanes) {
  LinkConfig cfg;
  cfg.gen = gen;
  cfg.lanes = lanes;
  cfg.validate();
  return cfg;
}

Link::Link(sim::Engine& engine, std::string name, const LinkConfig& config)
    : name_(std::move(name)), config_(config), engine_(&engine) {
  config_.validate();
  const double bps = config_.effective_Bps();
  a_to_b_ = std::make_unique<sim::BandwidthResource>(engine, name_ + ".a2b", bps);
  b_to_a_ = std::make_unique<sim::BandwidthResource>(engine, name_ + ".b2a", bps);
  if (obs::Hub* hub = engine.obs()) {
    tracer_ = &hub->tracer;
    obs_track_ = tracer_->track("fabric", name_);
    obs_ev_inflight_[0] = tracer_->event("inflight_a2b_bytes");
    obs_ev_inflight_[1] = tracer_->event("inflight_b2a_bytes");
    obs_ev_busy_[0] = tracer_->event("busy_a2b_ns_per_window");
    obs_ev_busy_[1] = tracer_->event("busy_b2a_ns_per_window");
    obs::MetricsRegistry& reg = hub->metrics;
    obs_bytes_[0] = reg.counter(name_ + ".a2b.bytes");
    obs_bytes_[1] = reg.counter(name_ + ".b2a.bytes");
    obs_tlps_[0] = reg.counter(name_ + ".a2b.tlps");
    obs_tlps_[1] = reg.counter(name_ + ".b2a.tlps");
    obs_replays_ = reg.counter(name_ + ".tlp_replays");
    obs_replay_stall_ns_ = reg.counter(name_ + ".replay_stall_ns");
  }
}

void Link::note_transfer_start(End from, std::uint64_t bytes) {
  const auto dir = static_cast<std::size_t>(from);
  obs_bytes_[dir]->add(bytes);
  const auto payload = static_cast<std::uint64_t>(config_.max_payload);
  obs_tlps_[dir]->add((bytes + payload - 1) / payload);
  if (util_window_ > 0) {
    account_util(dir, engine_->now());
    transferred_bytes_[dir] += bytes;
  }
  inflight_bytes_[dir] += bytes;
  if (tracer_ != nullptr) {
    tracer_->counter(obs_track_, obs_ev_inflight_[dir], engine_->now(),
                     static_cast<double>(inflight_bytes_[dir]));
  }
}

void Link::note_transfer_end(End from, std::uint64_t bytes) {
  const auto dir = static_cast<std::size_t>(from);
  if (util_window_ > 0) account_util(dir, engine_->now());
  inflight_bytes_[dir] -= bytes;
  if (tracer_ != nullptr) {
    tracer_->counter(obs_track_, obs_ev_inflight_[dir], engine_->now(),
                     static_cast<double>(inflight_bytes_[dir]));
  }
}

void Link::set_util_window(sim::Dur window) {
  util_window_ = window;
  window_end_[0] = window_end_[1] = window;
}

void Link::account_util(std::size_t dir, sim::Time now) {
  sim::Time t = covered_until_[dir];
  if (now <= t) return;
  // The interval [t, now) carries the *pre-update* in-flight state: callers
  // account before mutating inflight_bytes_.
  const bool busy = inflight_bytes_[dir] > 0;
  while (t < now) {
    const sim::Time boundary = window_end_[dir];
    const sim::Time upto = now < boundary ? now : boundary;
    if (busy) {
      busy_ns_[dir] += static_cast<std::uint64_t>(upto - t);
      window_busy_[dir] += static_cast<std::uint64_t>(upto - t);
    }
    t = upto;
    if (t == boundary) {
      if (window_busy_[dir] > 0) emit_util_sample(dir, boundary);
      window_end_[dir] = boundary + util_window_;
    }
  }
  covered_until_[dir] = now;
}

void Link::emit_util_sample(std::size_t dir, sim::Time t) {
  util_samples_[dir].push_back(UtilSample{t, window_busy_[dir]});
  if (tracer_ != nullptr) {
    tracer_->counter(obs_track_, obs_ev_busy_[dir], t,
                     static_cast<double>(window_busy_[dir]));
  }
  window_busy_[dir] = 0;
}

void Link::flush_util(sim::Time now) {
  if (util_window_ <= 0) return;
  for (std::size_t dir = 0; dir < 2; ++dir) {
    account_util(dir, now);
    // Close the final partial window so sum(samples) == busy_ns exactly.
    if (window_busy_[dir] > 0) emit_util_sample(dir, now);
  }
}

void Link::note_replay(End, sim::Dur stall) {
  obs_replays_->inc();
  obs_replay_stall_ns_->add(static_cast<std::uint64_t>(stall));
}

sim::Dur Link::fault_replay_delay(sim::FaultPlan* plan, sim::Time now, End from,
                                  std::uint64_t bytes) const {
  if (plan == nullptr) return 0;
  // Stream key is the name of the BandwidthResource carrying this
  // direction, so a targeted test can arm "link0-1.a2b" directly.
  const sim::BandwidthResource& wire = from == End::kA ? *a_to_b_ : *b_to_a_;
  return plan->tlp_replay_penalty(
      now, wire.name(), bytes, static_cast<std::uint32_t>(config_.max_payload));
}

}  // namespace ntbshmem::pcie
