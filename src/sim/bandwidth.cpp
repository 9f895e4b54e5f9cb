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
constexpr std::size_t kMaxStages = 32;  // one bit each in PathWait::pending
}  // namespace

// One process's transfer_path, on that process's stack: the stages still
// draining and the one whose completion wakes the process.
struct PathWait {
  static constexpr std::uint32_t kNotBlocked = ~0u;

  Engine& engine;
  Process* waiter;
  std::uint32_t pending;  // bit i: stage i still draining
  std::uint32_t blocked_on = kNotBlocked;

  void stage_done(std::uint32_t stage) {
    pending &= ~(1u << stage);
    if (stage == blocked_on) {
      blocked_on = kNotBlocked;
      engine.wake(waiter);
    }
  }
};

// ---- FlowTimers -------------------------------------------------------------

void FlowTimers::arm(BandwidthResource* r, Time t) {
  assert(r->timer_ == kNone);
  if (last_ != kNone) {
    Timer& last = timers_[last_];
    if (last.t == t && last.joinable_at == engine_.next_seq()) {
      last.members.push_back(r);
      ++last.live;
      r->timer_ = last_;
      return;
    }
  }
  std::uint32_t idx = 0;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(timers_.size());
    timers_.emplace_back();
  }
  Timer& tm = timers_[idx];
  tm.t = t;
  tm.members.push_back(r);
  tm.live = 1;
  tm.handle = engine_.call_at(t, [this, idx] { fire(idx); });
  tm.joinable_at = engine_.next_seq();
  last_ = idx;
  r->timer_ = idx;
}

void FlowTimers::leave(BandwidthResource* r) {
  const std::uint32_t idx = r->timer_;
  if (idx == kNone) return;
  r->timer_ = kNone;
  Timer& tm = timers_[idx];
  const auto member = std::find(tm.members.begin(), tm.members.end(), r);
  assert(member != tm.members.end());
  *member = nullptr;
  if (--tm.live == 0 && !tm.firing) {
    tm.handle.cancel();
    retire(idx);
  }
}

void FlowTimers::fire(std::uint32_t idx) {
  Timer& tm = timers_[idx];
  if (last_ == idx) last_ = kNone;  // a firing timer takes no joiners
  tm.firing = true;
  // Members re-arm as they run, always for a later instant, so new timers
  // may be appended meanwhile; `tm` stays valid (deque) and its member list
  // cannot grow.
  for (BandwidthResource*& member : tm.members) {
    BandwidthResource* r = member;
    if (r == nullptr) continue;
    member = nullptr;
    --tm.live;
    r->timer_ = kNone;
    r->on_timer();
  }
  tm.firing = false;
  retire(idx);
}

void FlowTimers::retire(std::uint32_t idx) {
  Timer& tm = timers_[idx];
  tm.members.clear();  // keeps its capacity for the next timer
  tm.live = 0;
  tm.handle = CallbackHandle();
  if (last_ == idx) last_ = kNone;
  free_.push_back(idx);
}

// ---- BandwidthResource ------------------------------------------------------

BandwidthResource::BandwidthResource(Engine& engine, std::string name,
                                     double capacity_Bps)
    : engine_(engine),
      timers_(engine.flow_timers()),
      name_(std::move(name)),
      xfer_name_(name_ + ".xfer"),
      capacity_(capacity_Bps) {
  if (!(capacity_Bps > 0.0)) {
    throw std::invalid_argument("BandwidthResource capacity must be > 0: " +
                                name_);
  }
}

BandwidthResource::~BandwidthResource() {
  timers_.leave(this);
  for (const Flow& f : flows_) f.path->pending &= ~(1u << f.stage);
}

void BandwidthResource::transfer(std::uint64_t bytes, double flow_cap_Bps) {
  BandwidthResource* const path[] = {this};
  transfer_path(path, bytes, flow_cap_Bps);
}

void BandwidthResource::start(PathWait* path, std::uint32_t stage,
                              std::uint64_t bytes, double cap) {
  // Bring existing flows up to date before the new arrival changes rates.
  update();
  flows_.push_back(
      Flow{static_cast<double>(bytes), cap, 0.0, path, stage, false});
  recompute_rates();
  arm_timer();
}

void BandwidthResource::abandon(PathWait* path, std::uint32_t stage) {
  update();
  const auto it = std::find_if(flows_.begin(), flows_.end(), [&](const Flow& f) {
    return f.path == path && f.stage == stage;
  });
  if (it != flows_.end()) flows_.erase(it);
  recompute_rates();
  arm_timer();
}

void BandwidthResource::on_timer() {
  update();
  recompute_rates();
  arm_timer();
}

void BandwidthResource::update() {
  const Time now = engine_.now();
  const double dt = to_seconds(now - last_update_);
  last_update_ = now;
  if (dt > 0.0) {
    for (Flow& f : flows_) {
      f.remaining = std::max(0.0, f.remaining - f.rate * dt);
    }
  }
  // Complete finished flows in arrival order; the rest keep theirs.
  std::size_t kept = 0;
  for (const Flow& f : flows_) {
    if (f.remaining < kEpsilonBytes) {
      f.path->stage_done(f.stage);
    } else {
      flows_[kept++] = f;
    }
  }
  flows_.resize(kept);
}

void BandwidthResource::recompute_rates() {
  if (flows_.empty()) return;
  // Water-filling: repeatedly grant the equal share; flows capped below the
  // share take their cap and return the surplus to the pool.
  std::size_t open = flows_.size();
  for (Flow& f : flows_) {
    f.rate = 0.0;
    f.open = true;
  }
  double pool = capacity_;
  bool changed = true;
  while (changed && open > 0) {
    changed = false;
    const double share = pool / static_cast<double>(open);
    for (Flow& f : flows_) {
      if (f.open && f.cap <= share) {
        f.rate = f.cap;
        pool -= f.cap;
        f.open = false;
        --open;
        changed = true;
      }
    }
  }
  if (open > 0) {
    const double share = pool / static_cast<double>(open);
    for (Flow& f : flows_) {
      if (f.open) f.rate = share;
    }
  }
}

void BandwidthResource::arm_timer() {
  timers_.leave(this);
  if (flows_.empty()) return;
  Dur min_eta = std::numeric_limits<Dur>::max();
  for (const Flow& f : flows_) {
    assert(f.rate > 0.0);
    const double eta_ns = f.remaining / f.rate * 1e9;
    const Dur eta = std::max<Dur>(1, static_cast<Dur>(std::ceil(eta_ns)));
    min_eta = std::min(min_eta, eta);
  }
  timers_.arm(this, engine_.now() + min_eta);
}

// ---- transfer_path ----------------------------------------------------------

void transfer_path(std::span<BandwidthResource* const> path,
                   std::uint64_t bytes, double flow_cap_Bps) {
  if (path.empty() || path.size() > kMaxStages) {
    throw std::invalid_argument("transfer_path takes 1 to 32 stages");
  }
  BandwidthResource& first = *path.front();
  if (!(flow_cap_Bps > 0.0)) {
    throw std::invalid_argument("flow cap must be > 0 on " + first.name_);
  }
  Engine& engine = first.engine_;
  Process* self = engine.require_current("transfer_path");
  if (bytes == 0) return;
  const auto n = static_cast<std::uint32_t>(path.size());
  PathWait wait{engine, self, n == kMaxStages ? ~0u : (1u << n) - 1};
  // The flows point at `wait`: a process unwound mid-transfer (engine
  // shutdown) withdraws whatever has not drained yet.
  struct Withdraw {
    std::span<BandwidthResource* const> path;
    PathWait& wait;
    ~Withdraw() {
      wait.blocked_on = PathWait::kNotBlocked;
      for (std::uint32_t i = 0; i < path.size(); ++i) {
        if ((wait.pending & (1u << i)) != 0) path[i]->abandon(&wait, i);
      }
    }
  } withdraw{path, wait};
  for (std::uint32_t i = 0; i < n; ++i) {
    path[i]->start(&wait, i, bytes, flow_cap_Bps);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    while ((wait.pending & (1u << i)) != 0) {
      wait.blocked_on = i;
      engine.block_current(self, &path[i]->xfer_name_);
    }
  }
}

}  // namespace ntbshmem::sim
