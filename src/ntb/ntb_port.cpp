#include "ntb/ntb_port.hpp"

#include <cstring>
#include <stdexcept>

#include "sim/bandwidth.hpp"
#include "sim/fault.hpp"

namespace ntbshmem::ntb {

NtbPort::NtbPort(sim::Engine& engine, host::Host& local, std::string name,
                 const TimingParams& timing, const PortConfig& config)
    : engine_(engine),
      local_(local),
      name_(std::move(name)),
      pio_write_Bps_(timing.pio_write_Bps),
      dma_setup_(timing.dma_setup),
      reg_write_(timing.reg_access),
      config_(config) {
  if (obs::Hub* hub = engine.obs()) {
    tracer_ = &hub->tracer;
    obs_track_ = tracer_->track(local_.name(), name_);
    obs_cat_dma_ = tracer_->category("dma");
    obs_cat_ctl_ = tracer_->category("ntb");
    obs_ev_dma_write_ = tracer_->event("dma_write");
    obs_ev_doorbell_ = tracer_->event("doorbell");
    obs_ev_dma_error_ = tracer_->event("dma_descriptor_error");
    obs::MetricsRegistry& reg = hub->metrics;
    obs_doorbells_ = reg.counter(name_ + ".doorbells_rung");
    obs_sp_writes_ = reg.counter(name_ + ".scratchpad_writes");
    obs_dma_descriptors_ = reg.counter(name_ + ".dma_descriptors");
    obs_dma_bytes_ = reg.counter(name_ + ".dma_bytes");
    obs_pio_bytes_ = reg.counter(name_ + ".pio_bytes");
    obs_dma_sizes_ = reg.histogram(name_ + ".dma_transfer_bytes");
  }
}

void NtbPort::connect(NtbPort& a, NtbPort& b, pcie::Link& link) {
  if (a.connected() || b.connected()) {
    throw std::logic_error("NtbPort::connect: port already connected");
  }
  a.peer_ = &b;
  b.peer_ = &a;
  a.link_ = &link;
  b.link_ = &link;
  a.end_ = pcie::End::kA;
  b.end_ = pcie::End::kB;
}

NtbPort& NtbPort::peer() const {
  require_connected("peer");
  return *peer_;
}

pcie::Link& NtbPort::link() const {
  require_connected("link");
  return *link_;
}

void NtbPort::await_link_up() {
  require_connected("await_link_up");
  if (!config_.retry_on_link_down) {
    link_->check_up();
    return;
  }
  while (!link_->up()) {
    engine_.wait_for(kLinkRetryInterval);
  }
}

void NtbPort::require_connected(const char* op) const {
  if (peer_ == nullptr) {
    throw std::logic_error(name_ + ": " + op + " on unconnected NTB port");
  }
}

void NtbPort::program_window(int idx, host::Region region) {
  require_connected("program_window");
  if (idx < 0 || idx >= kNumWindows) {
    throw std::out_of_range(name_ + ": window index out of range");
  }
  windows_[static_cast<std::size_t>(idx)] =
      WindowTarget{&peer_->local_host(), region};
}

const WindowTarget& NtbPort::window(int idx) const {
  if (idx < 0 || idx >= kNumWindows) {
    throw std::out_of_range(name_ + ": window index out of range");
  }
  return windows_[static_cast<std::size_t>(idx)];
}

const WindowTarget& NtbPort::require_mapped(int idx, const char* op) const {
  const WindowTarget& w = window(idx);
  if (!w.mapped()) {
    throw std::runtime_error(name_ + ": " + op + " through unmapped window " +
                             std::to_string(idx));
  }
  return w;
}

void NtbPort::transfer_path(host::Host& src_host, host::Host& dst_host,
                            sim::BandwidthResource& wire, pcie::End wire_end,
                            std::uint64_t bytes, double cap) {
  // The three stages of the path drain concurrently; the transfer is done
  // when the slowest one finishes. Contention on any stage (e.g. a host bus
  // carrying both a TX and an RX stream in the Fig. 8 ring experiment)
  // stretches that stage's completion and thus the whole transfer.
  link_->note_transfer_start(wire_end, bytes);
  sim::BandwidthResource* const stages[] = {&src_host.bus(), &wire,
                                            &dst_host.bus()};
  sim::transfer_path(stages, bytes, cap);
  // Link-layer TLP loss/LCRC errors stall the transfer for replay rounds
  // but never deliver bad data (CRC-detected, as on a real PCIe link).
  const sim::Dur replay = link_->fault_replay_delay(
      engine_.faults(), engine_.now(), wire_end, bytes);
  if (replay > 0) {
    link_->note_replay(wire_end, replay);
    engine_.wait_for(replay);
  }
  link_->note_transfer_end(wire_end, bytes);
}

bool NtbPort::dma_write(int idx, std::uint64_t off,
                        std::span<const std::byte> src,
                        bool descriptor_prefetched) {
  require_connected("dma_write");
  // Latch the translation by value: the descriptor captures the window
  // target when programmed, so a later program_window (e.g. by the other
  // software context on this host) cannot retarget an in-flight transfer.
  const WindowTarget w = require_mapped(idx, "dma_write");
  obs_dma_descriptors_->inc();
  std::uint64_t span_id = 0;
  if (tracer_ != nullptr && tracer_->enabled()) {
    span_id = tracer_->next_async_id();
    tracer_->async_begin(obs_track_, obs_cat_dma_, obs_ev_dma_write_,
                         engine_.now(), span_id);
  }
  await_link_up();
  if (!descriptor_prefetched) engine_.wait_for(dma_setup_);
  if (sim::FaultPlan* plan = engine_.faults()) {
    // Descriptor rejected at fetch time: the engine sets its error status
    // bit and transfers nothing (the setup/poll time was already spent).
    if (plan->dma_descriptor_error(engine_.now(), name_)) {
      dma_error_latched_ = true;
      if (span_id != 0) {
        tracer_->instant(obs_track_, obs_cat_dma_, obs_ev_dma_error_,
                         engine_.now());
        tracer_->async_end(obs_track_, obs_cat_dma_, obs_ev_dma_write_,
                           engine_.now(), span_id);
      }
      return false;
    }
  }
  await_link_up();
  transfer_path(local_, *w.peer_host, link_->direction_from(end_), end_,
                src.size(), config_.dma_rate_Bps);
  auto dst = w.peer_host->memory().bytes(w.region, off, src.size());
  std::memcpy(dst.data(), src.data(), src.size());
  obs_dma_bytes_->add(src.size());
  obs_dma_sizes_->record(src.size());
  if (span_id != 0) {
    tracer_->async_end(obs_track_, obs_cat_dma_, obs_ev_dma_write_,
                       engine_.now(), span_id);
  }
  return true;
}

void NtbPort::clear_dma_error() {
  engine_.wait_for(reg_write_);
  dma_error_latched_ = false;
}

void NtbPort::pio_write(int idx, std::uint64_t off,
                        std::span<const std::byte> src) {
  require_connected("pio_write");
  const WindowTarget w = require_mapped(idx, "pio_write");
  await_link_up();
  transfer_path(local_, *w.peer_host, link_->direction_from(end_), end_,
                src.size(), pio_write_Bps_);
  auto dst = w.peer_host->memory().bytes(w.region, off, src.size());
  std::memcpy(dst.data(), src.data(), src.size());
  obs_pio_bytes_->add(src.size());
}

void NtbPort::post(int first, std::span<const std::uint32_t> regs,
                   int doorbell) {
  require_connected("post");
  const int n = static_cast<int>(regs.size());
  if (first < 0 || n > kNumScratchpads - first) {
    throw std::out_of_range(name_ + ": scratchpad index out of range");
  }
  const bool ring = doorbell != kNoDoorbell;
  if (ring && (doorbell < 0 || doorbell >= kNumDoorbells)) {
    throw std::out_of_range(name_ + ": doorbell bit out of range");
  }
  await_link_up();
  const sim::Time t0 = engine_.now();
  const std::uint64_t down_edges = link_->down_edges();
  engine_.wait_for(static_cast<sim::Dur>(n + (ring ? 1 : 0)) *
                   reg_write_);
  if (link_->down_edges() != down_edges) {
    // The link dropped somewhere inside the burst: nothing has landed yet,
    // so fail (or wait for retraining) exactly as a single write would.
    if (!config_.retry_on_link_down) throw pcie::LinkDownError(link_->name());
    await_link_up();
  }
  sim::FaultPlan* plan = engine_.faults();
  for (int i = 0; i < n; ++i) {
    std::uint32_t stored = regs[static_cast<std::size_t>(i)];
    if (plan != nullptr) {
      // Corruption lands in the peer's register bank, not on the wire: the
      // posted write completed but the stored word is damaged. The
      // transport detects this via its frame checksum (reg 7) and NAKs.
      std::uint32_t mask = 0;
      if (plan->corrupt_scratchpad(t0 + (i + 1) * reg_write_, name_,
                                   first + i, &mask)) {
        stored ^= mask;
      }
    }
    peer_->scratchpad_[static_cast<std::size_t>(first + i)] = stored;
  }
  obs_sp_writes_->add(static_cast<std::uint64_t>(n));
  if (!ring) return;
  obs_doorbells_->inc();
  if (tracer_ != nullptr) {
    tracer_->instant(obs_track_, obs_cat_ctl_, obs_ev_doorbell_, engine_.now(),
                     static_cast<double>(doorbell));
  }
  // A dropped ring is lost before the peer sees anything: no latch, no
  // interrupt. The write time was still spent.
  if (plan != nullptr && plan->drop_doorbell(engine_.now(), name_, doorbell)) {
    return;
  }
  peer_->receive_doorbell(doorbell);
}

void NtbPort::receive_doorbell(int bit) {
  if ((latch_bits_ & (1u << bit)) != 0) {
    // Snapshot the header bank at doorbell-arrival time: with multiple
    // frame credits the sender may restage these registers before the
    // service thread runs, and the latch is what keeps the in-flight
    // header intact (the "double-buffered ScratchPad"). The staged causal
    // context is consumed by the same snapshot so it can never attach to a
    // later, unrelated frame — and only by the doorbell classes in
    // ctx_bits_, so an ACK/NAK ring racing between the sender's staging
    // and its data doorbell cannot steal the data frame's context.
    const bool takes_ctx = (ctx_bits_ & (1u << bit)) != 0;
    latched_frames_.push_back(LatchedFrame{
        bit, {scratchpad_, takes_ctx ? pending_ctx_ : obs::TraceCtx{},
              engine_.now()}});
    if (takes_ctx) pending_ctx_ = obs::TraceCtx{};
  }
  local_.interrupts().raise(config_.vector_base + bit);
}

void NtbPort::stage_tx_ctx(const obs::TraceCtx& ctx) {
  require_connected("stage_tx_ctx");
  // Like a posted register write, the staged value lands on the *peer*
  // adapter — but out of band: no register-write charge, no fault sites,
  // so the causal-off path stays bit-identical (see DESIGN.md §4h).
  peer_->pending_ctx_ = ctx;
}

NtbPort::PoppedFrame NtbPort::pop_latched_frame(std::uint16_t accept_mask) {
  for (auto it = latched_frames_.begin(); it != latched_frames_.end(); ++it) {
    if ((accept_mask & (1u << it->bit)) == 0) continue;
    PoppedFrame popped = it->frame;
    latched_frames_.erase(it);
    return popped;
  }
  throw std::logic_error(name_ +
                         ": pop_latched_frame found no matching snapshot");
}

}  // namespace ntbshmem::ntb
