#include "sim/bandwidth.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ntbshmem::sim {

namespace {
// A flow is finished once its residual drops below half a byte; the timer
// is armed with ceil rounding so the residual at wake-up is fp noise only.
constexpr double kEpsilonBytes = 0.5;
}  // namespace

BandwidthResource::BandwidthResource(Engine& engine, std::string name,
                                     double capacity_Bps)
    : engine_(engine), name_(std::move(name)), capacity_(capacity_Bps) {
  if (!(capacity_Bps > 0.0)) {
    throw std::invalid_argument("BandwidthResource capacity must be > 0: " +
                                name_);
  }
}

std::shared_ptr<Completion> BandwidthResource::transfer_async(
    std::uint64_t bytes, double flow_cap_Bps) {
  auto completion = std::make_shared<Completion>(engine_, name_ + ".xfer");
  if (!(flow_cap_Bps > 0.0)) {
    throw std::invalid_argument("flow cap must be > 0 on " + name_);
  }
  if (bytes == 0) {
    completion->done = true;
    completion->event.notify_all();
    return completion;
  }
  // Bring existing flows up to date before the new arrival changes rates.
  update();
  flows_.push_back(Flow{static_cast<double>(bytes), flow_cap_Bps, 0.0,
                        completion});
  recompute_rates();
  arm_timer();
  return completion;
}

void BandwidthResource::transfer(std::uint64_t bytes, double flow_cap_Bps) {
  auto completion = transfer_async(bytes, flow_cap_Bps);
  completion->wait();
}

void BandwidthResource::update() {
  const Time now = engine_.now();
  const double dt = to_seconds(now - last_update_);
  last_update_ = now;
  if (dt > 0.0) {
    for (auto& f : flows_) {
      f.remaining = std::max(0.0, f.remaining - f.rate * dt);
    }
  }
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->remaining < kEpsilonBytes) {
      it->completion->done = true;
      it->completion->event.notify_all();
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
}

void BandwidthResource::recompute_rates() {
  if (flows_.empty()) return;
  // Water-filling: repeatedly grant the equal share; flows capped below the
  // share take their cap and return the surplus to the pool.
  std::vector<Flow*> open;
  open.reserve(flows_.size());
  for (auto& f : flows_) {
    f.rate = 0.0;
    open.push_back(&f);
  }
  double pool = capacity_;
  bool changed = true;
  while (changed && !open.empty()) {
    changed = false;
    const double share = pool / static_cast<double>(open.size());
    for (auto it = open.begin(); it != open.end();) {
      if ((*it)->cap <= share) {
        (*it)->rate = (*it)->cap;
        pool -= (*it)->cap;
        it = open.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
  if (!open.empty()) {
    const double share = pool / static_cast<double>(open.size());
    for (Flow* f : open) f->rate = share;
  }
}

void BandwidthResource::arm_timer() {
  timer_.cancel();
  if (flows_.empty()) return;
  Dur min_eta = std::numeric_limits<Dur>::max();
  for (const auto& f : flows_) {
    assert(f.rate > 0.0);
    const double eta_ns = f.remaining / f.rate * 1e9;
    const Dur eta = std::max<Dur>(1, static_cast<Dur>(std::ceil(eta_ns)));
    min_eta = std::min(min_eta, eta);
  }
  timer_ = engine_.call_after(min_eta, [this] {
    update();
    recompute_rates();
    arm_timer();
  });
}

}  // namespace ntbshmem::sim
