#include "sim/fault.hpp"

#include <cmath>

#include "common/fnv.hpp"
#include "common/splitmix.hpp"
#include "obs/trace.hpp"
#include "sim/branch.hpp"

namespace ntbshmem::sim {

namespace {

// FNV-1a over the site tag and key bytes: stream identities must be stable
// across platforms for seeds to be shareable in bug reports.
std::uint64_t site_hash(FaultPlan::Site site, const std::string& key) {
  return fnv::fold_bytes(
      fnv::fold(fnv::kOffset, static_cast<std::uint8_t>(site)), key);
}

// Probability that at least one of `n` independent per-TLP events with
// probability `p` fires during a transfer.
double per_transfer_prob(double p, std::uint64_t n_tlps) {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  return 1.0 - std::pow(1.0 - p, static_cast<double>(n_tlps));
}

}  // namespace

FaultPlan::FaultPlan(std::uint64_t seed, FaultSpec spec)
    : seed_(seed), spec_(spec) {}

void FaultPlan::arm_one_shot(Site site, const std::string& key, int count) {
  one_shots_[site_hash(site, key)] += count;
}

bool FaultPlan::take_one_shot(Site site, const std::string& key) {
  if (one_shots_.empty()) return false;
  auto it = one_shots_.find(site_hash(site, key));
  if (it == one_shots_.end() || it->second <= 0) return false;
  if (--it->second == 0) one_shots_.erase(it);
  return true;
}

std::uint64_t& FaultPlan::stream(Site site, const std::string& key) {
  const std::uint64_t h = site_hash(site, key);
  // Fold the seed into the initial state so two plans with different seeds
  // produce unrelated sequences at every site.
  return streams_.try_emplace(h, seed_ ^ h ^ 0x6a09e667f3bcc909ull)
      .first->second;
}

bool FaultPlan::roll(Site site, const std::string& key, double prob) {
  if (prob <= 0.0) return false;
  return splitmix::unit(splitmix::next(stream(site, key))) < prob;
}

void FaultPlan::set_branch_hook(BranchHook* hook, std::uint32_t site_mask,
                                int fire_budget) {
  hook_ = hook;
  hook_site_mask_ = site_mask;
  fire_budget_ = fire_budget;
  fires_used_ = 0;
}

bool FaultPlan::explore_decision(Site site, const std::string& key) {
  if ((hook_site_mask_ & (1u << static_cast<unsigned>(site))) == 0) {
    return false;
  }
  if (fires_used_ >= fire_budget_) return false;
  if (!hook_->choose_fault(static_cast<int>(site), key)) return false;
  ++fires_used_;
  return true;
}

std::uint32_t FaultPlan::draw_mask(Site site, const std::string& key) {
  // Any nonzero XOR mask corrupts; force the low bit so a zero draw cannot
  // produce a no-op "corruption".
  return static_cast<std::uint32_t>(splitmix::next(stream(site, key))) | 1u;
}

void FaultPlan::note(Time now, const std::string& message) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  // Rare-event path: interning per record is fine.
  const obs::TrackId track = tracer_->track("trace", "fault");
  const obs::CategoryId cat = tracer_->category("fault");
  const obs::EventId ev = tracer_->event("fault");
  tracer_->instant_detail(track, cat, ev, now, message);
}

bool FaultPlan::decide(Site site, const std::string& key, double prob) {
  if (hook_ != nullptr) return explore_decision(site, key);
  return take_one_shot(site, key) || roll(site, key, prob);
}

bool FaultPlan::drop_doorbell(Time now, const std::string& port, int bit) {
  const bool eligible = (spec_.doorbell_drop_mask & (1u << bit)) != 0;
  const double prob = eligible ? spec_.doorbell_drop : 0.0;
  // With a hook the mask check comes FIRST: a masked bit (barrier
  // circulation) must not become a branch point — dropping it would be an
  // unrecoverable false deadlock. Without one, an armed one-shot fires even
  // on a masked bit.
  if (hook_ != nullptr ? !eligible : (one_shots_.empty() && prob <= 0.0)) {
    return false;  // nothing can fire: the key is never built
  }
  const std::string key = port + ":" + std::to_string(bit);
  if (!decide(Site::kDoorbell, key, prob)) return false;
  ++stats_.doorbells_dropped;
  note(now, "doorbell drop " + key);
  return true;
}

bool FaultPlan::corrupt_scratchpad(Time now, const std::string& port, int reg,
                                   std::uint32_t* xor_mask) {
  if (!decide(Site::kScratchpad, port, spec_.scratchpad_corrupt)) return false;
  *xor_mask = draw_mask(Site::kScratchpad, port);
  ++stats_.scratchpads_corrupted;
  note(now, "scratchpad corrupt " + port + " reg" + std::to_string(reg));
  return true;
}

bool FaultPlan::dma_descriptor_error(Time now, const std::string& port) {
  if (!decide(Site::kDma, port, spec_.dma_error)) return false;
  ++stats_.dma_errors;
  note(now, "dma descriptor error " + port);
  return true;
}

Dur FaultPlan::tlp_replay_penalty(Time now, const std::string& wire,
                                  std::uint64_t bytes,
                                  std::uint32_t max_payload) {
  const std::uint64_t payload = max_payload > 0 ? max_payload : 1;
  const std::uint64_t n_tlps = bytes == 0 ? 1 : (bytes + payload - 1) / payload;
  Dur penalty = 0;
  if (decide(Site::kTlp, wire, per_transfer_prob(spec_.tlp_drop, n_tlps))) {
    penalty += spec_.tlp_replay_ns;
    ++stats_.tlp_replays;
    note(now, "tlp drop replay " + wire);
  }
  // Explore mode branches once per transfer (drop-and-replay or clean):
  // the drop/corrupt distinction only differs in trace wording.
  if (hook_ == nullptr &&
      roll(Site::kTlp, wire, per_transfer_prob(spec_.tlp_corrupt, n_tlps))) {
    penalty += spec_.tlp_replay_ns;
    ++stats_.tlp_replays;
    note(now, "tlp lcrc replay " + wire);
  }
  return penalty;
}

Dur FaultPlan::irq_delivery_delay(Time now, const std::string& controller,
                                  int vector) {
  if (!decide(Site::kIrq, controller, spec_.irq_delay)) return 0;
  ++stats_.irq_delays;
  note(now, "irq delay " + controller + " vec" + std::to_string(vector));
  return spec_.irq_delay_ns;
}

}  // namespace ntbshmem::sim
