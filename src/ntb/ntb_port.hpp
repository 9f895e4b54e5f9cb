// PCIe Non-Transparent Bridge port model (PLX PEX 8749/8733 class).
//
// Two NtbPorts joined by a pcie::Link form one NTB connection between two
// hosts. Each port models the adapter surface the OpenSHMEM protocol
// drives, as the paper's Fig. 1/2 describe:
//
//   * BAR memory windows whose translation registers map a local aperture
//     onto a region of the *peer* host's memory, written by a
//     descriptor-based DMA engine or by PIO (CPU stores);
//   * a ScratchPad bank (8 x 32-bit registers per adapter; writes land in
//     the peer adapter's bank) for small synchronous information exchange;
//   * a 16-bit Doorbell register: ringing a bit raises the peer's interrupt
//     vector, and latched bits snapshot the bank for the peer's service
//     thread.
//
// Timing: every data-movement and register method blocks the calling
// simulated process for the modeled duration; data becomes visible in the
// peer's memory at completion time. The durations and rates come from the
// TimingParams calibration the port is built from; a PortConfig carries
// only what differs from port to port (the link's DMA rate, the doorbell
// vector base, link-down behaviour). ScratchPad writes and doorbells are
// posted writes, so a burst of them (post) blocks once, for all of its
// writes back to back, and its registers land together just before its
// doorbell. Interrupt handlers run in scheduler context and must not call
// the blocking methods — that is the service thread's job, exactly as in
// the paper's Fig. 5 design.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>

#include "common/fnv.hpp"
#include "common/timing_params.hpp"
#include "host/host.hpp"
#include "obs/hub.hpp"
#include "pcie/link.hpp"
#include "sim/engine.hpp"

namespace ntbshmem::ntb {

inline constexpr int kNumScratchpads = 8;
inline constexpr int kNumDoorbells = 16;
inline constexpr int kNumWindows = 4;
// `doorbell` argument of NtbPort::post for a burst that rings nothing.
inline constexpr int kNoDoorbell = -1;

// How often a resilient port polls a link that is down for retraining.
inline constexpr sim::Dur kLinkRetryInterval = 100'000;  // 100us

// Conventional window roles used by the OpenSHMEM layer; the raw window is
// what the Fig. 8 link-rate experiment programs directly.
enum WindowIndex : int {
  kShmemWindow = 0,
  kBypassWindow = 1,
  kRawWindow = 2,
  kSpareWindow = 3,
};

// Translation target of a BAR window: a region of the peer host's memory.
struct WindowTarget {
  host::Host* peer_host = nullptr;
  host::Region region;
  bool mapped() const { return peer_host != nullptr && region.valid(); }
};

// What differs between two ports of one fabric; everything else is the
// TimingParams calibration the port is built from.
struct PortConfig {
  // DMA engine peak: the per-link chipset override point.
  double dma_rate_Bps = TimingParams{}.dma_rate_Bps;
  // First interrupt vector on the local host used by this port's doorbells.
  // The fabric assigns base 16 * port_index — a ring host's two adapters
  // get 0 and 16; higher-degree topologies continue at 32, 48, ...
  int vector_base = 0;
  // Resilience: when true, operations that find the link administratively
  // down wait for retraining (polling every kLinkRetryInterval) instead of
  // throwing LinkDownError — the PCIe link-recovery behaviour a production
  // driver exposes. Default is fail-fast, which the fault-injection tests
  // rely on.
  bool retry_on_link_down = false;
};

class NtbPort {
 public:
  NtbPort(sim::Engine& engine, host::Host& local, std::string name,
          const TimingParams& timing, const PortConfig& config);
  NtbPort(const NtbPort&) = delete;
  NtbPort& operator=(const NtbPort&) = delete;

  // Wires two ports back-to-back over `link`; `a` talks on End::kA.
  static void connect(NtbPort& a, NtbPort& b, pcie::Link& link);

  bool connected() const { return peer_ != nullptr; }
  NtbPort& peer() const;
  host::Host& local_host() const { return local_; }
  const std::string& name() const { return name_; }
  const PortConfig& config() const { return config_; }
  pcie::Link& link() const;
  // One posted 32-bit register write (TimingParams::reg_access), and one
  // non-posted read: a round trip, twice the write.
  sim::Dur reg_write() const { return reg_write_; }
  sim::Dur reg_read() const { return 2 * reg_write_; }

  // ---- BAR windows ---------------------------------------------------------
  // Programs the translation registers of window `idx` to land on `region`
  // of the peer host's memory. Instantaneous (driver-call latency is charged
  // by the software layer that issues it, see TimingParams::segment_setup).
  void program_window(int idx, host::Region region);
  const WindowTarget& window(int idx) const;

  // ---- Data movement (blocking, process context) ----------------------------
  // DMA write: local memory -> peer memory through window `idx` at `off`.
  // `descriptor_prefetched` skips the per-descriptor setup/poll charge
  // (TimingParams::dma_setup): the descriptor was programmed ahead of time
  // while the previous transfer was draining (TransportTuning's overlapped
  // segment setup); the software layer accounts for the prefetch cost.
  // Returns false when the attached FaultPlan rejects the descriptor: the
  // engine latches its error status bit and moves no data; the caller must
  // re-program the descriptor (transport retry) or fail fast.
  bool dma_write(int idx, std::uint64_t off, std::span<const std::byte> src,
                 bool descriptor_prefetched = false);
  // Clears the latched DMA error status (sticky until cleared; one reg
  // write).
  void clear_dma_error();
  // PIO path: CPU stores through the mapped window.
  void pio_write(int idx, std::uint64_t off, std::span<const std::byte> src);

  // ---- ScratchPad and doorbell (blocking, process context) ------------------
  // Each adapter carries its own 8-register bank (back-to-back PLX
  // adapters): writing lands in the PEER's bank, so the two directions of a
  // link never clobber each other's in-flight headers. The receiving side
  // reads the bank through the frame latch below.
  //
  // Posted burst: writes `regs` into the peer's registers first..first+n-1
  // and then, unless `doorbell` is kNoDoorbell, rings that doorbell bit —
  // one wait of (n + 1) x reg_write (n x reg_write without a doorbell), the
  // time the writes take back to back. The registers land together at the
  // end of the burst, just before the doorbell's latch snapshot. Fault
  // decisions are still drawn per register in register order on the same
  // (site, key) streams, each stamped with its register's own landing time
  // t0 + (i + 1) x reg_write. A link that goes down anywhere inside the
  // burst fails it as a down link fails one write (LinkDownError, or wait
  // for retraining under retry_on_link_down); a failed burst lands nothing.
  void post(int first, std::span<const std::uint32_t> regs,
            int doorbell = kNoDoorbell);
  // Rings doorbell bit `bit` alone: raises the peer's interrupt vector
  // (vector_base + bit). Blocking (one register write).
  void ring_doorbell(int bit) { post(0, {}, bit); }

  // ---- Frame latch (double-buffered ScratchPad extension) -------------------
  // When a doorbell bit in `mask` arrives, the adapter snapshots the local
  // ScratchPad bank into a FIFO at arrival time — before the sender can
  // restage the registers for its next frame. This is the hardware half of
  // credit-based frame pipelining: with one frame in flight the latched
  // snapshot always equals the live bank, so enabling it is behaviour- and
  // timing-neutral for the paper-faithful handshake. Snapshot reads are
  // charged by the caller (reg_read() per register).
  void set_latch_bits(std::uint16_t mask) { latch_bits_ = mask; }

  // ---- Causal-trace sidecar -------------------------------------------------
  // Stages the causal context that rides with the *next* frame the sender
  // rings into this port's peer. Models two extra ScratchPad registers
  // (see DESIGN.md §4h) but is carried out of band so the disabled path
  // stays byte- and timing-identical: staging costs nothing, and the
  // context is snapshotted into the latch FIFO together with the
  // registers. The context is consumed by the next latch, so control
  // doorbells that stage nothing latch a null context.
  void stage_tx_ctx(const obs::TraceCtx& ctx);
  // Doorbell bits that consume the staged context when they latch (the
  // data-frame bits). Other latched bits (e.g. ACK) snapshot a null
  // context and leave the staged one for the data doorbell it belongs to.
  void set_ctx_bits(std::uint16_t mask) { ctx_bits_ = mask; }

  // One latched frame: the bank snapshot, the causal context it carried
  // and the doorbell's arrival time (for IRQ-delay attribution).
  struct PoppedFrame {
    std::array<std::uint32_t, kNumScratchpads> regs{};
    obs::TraceCtx ctx;         // staged by the sender's stage_tx_ctx
    sim::Time latched_at = 0;  // doorbell arrival
  };
  // Pops the oldest snapshot whose doorbell bit is in `accept_mask`
  // (default: any); throws std::logic_error when there is none. Snapshots
  // are consumed in arrival order per bit class, so frame identity is
  // carried by the latch FIFO, not by which ISR pops first — delayed
  // interrupt vectors (fault injection) cannot cross a data snapshot with
  // an ack snapshot.
  PoppedFrame pop_latched_frame(std::uint16_t accept_mask = 0xffff);

  // FNV hash of the port's protocol-visible register state: ScratchPad
  // bank, DMA error latch, latched-frame FIFO (bit + snapshot).
  // Model-checker introspection (DESIGN.md §4i); excludes timing and
  // observability state on purpose.
  std::uint64_t state_hash() const {
    std::uint64_t h = fnv::kOffset;
    for (const std::uint32_t r : scratchpad_) h = fnv::fold_u64(h, r);
    h = fnv::fold_u64(h, dma_error_latched_ ? 1u : 0u);
    h = fnv::fold_u64(h, latched_frames_.size());
    for (const LatchedFrame& f : latched_frames_) {
      h = fnv::fold_u64(h, static_cast<std::uint64_t>(f.bit));
      for (const std::uint32_t r : f.frame.regs) h = fnv::fold_u64(h, r);
    }
    return h;
  }

 private:
  void require_connected(const char* op) const;
  // Fail-fast or block-until-retrained, per PortConfig::retry_on_link_down.
  void await_link_up();
  const WindowTarget& require_mapped(int idx, const char* op) const;
  // Joint transfer across source bus, cable, destination bus. `wire_end` is
  // the link end the transfer originates at (fault-key for TLP replay).
  void transfer_path(host::Host& src_host, host::Host& dst_host,
                     sim::BandwidthResource& wire, pcie::End wire_end,
                     std::uint64_t bytes, double cap);
  void receive_doorbell(int bit);

  sim::Engine& engine_;
  host::Host& local_;
  std::string name_;
  const double pio_write_Bps_;
  const sim::Dur dma_setup_;
  const sim::Dur reg_write_;
  PortConfig config_;
  NtbPort* peer_ = nullptr;
  pcie::Link* link_ = nullptr;
  pcie::End end_ = pcie::End::kA;
  std::array<WindowTarget, kNumWindows> windows_{};
  std::array<std::uint32_t, kNumScratchpads> scratchpad_{};
  std::uint16_t latch_bits_ = 0;
  struct LatchedFrame {
    int bit = 0;  // doorbell bit that triggered the snapshot
    PoppedFrame frame;
  };
  std::deque<LatchedFrame> latched_frames_;
  obs::TraceCtx pending_ctx_;      // staged for the next latched data frame
  std::uint16_t ctx_bits_ = 0xffff;  // doorbell bits that consume it
  bool dma_error_latched_ = false;

  // Observability: ids/instruments cached at construction from the engine's
  // obs::Hub. tracer_ stays null without a hub; the counters point at the
  // shared null instruments so hot paths never branch on registry presence.
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId obs_track_ = 0;
  obs::CategoryId obs_cat_dma_ = 0;
  obs::CategoryId obs_cat_ctl_ = 0;
  obs::EventId obs_ev_dma_write_ = 0;
  obs::EventId obs_ev_doorbell_ = 0;
  obs::EventId obs_ev_dma_error_ = 0;
  obs::Counter* obs_doorbells_ = obs::MetricsRegistry::null_counter();
  obs::Counter* obs_sp_writes_ = obs::MetricsRegistry::null_counter();
  obs::Counter* obs_dma_descriptors_ = obs::MetricsRegistry::null_counter();
  obs::Counter* obs_dma_bytes_ = obs::MetricsRegistry::null_counter();
  obs::Counter* obs_pio_bytes_ = obs::MetricsRegistry::null_counter();
  obs::Histogram* obs_dma_sizes_ = obs::MetricsRegistry::null_histogram();
};

}  // namespace ntbshmem::ntb
