// NTB transport: the data-sharing machinery of the paper's §III.
//
// Per host there are:
//   * one TX channel per NTB adapter (a ring host has two, left/right; a
//     torus host four): each serializes the link's ScratchPad bank — a
//     frame holds the channel from ScratchPad write until the receiver's
//     ACK doorbell ("Release Interrupt" in Fig. 5) frees it;
//   * an RX service process: the interrupt-service thread of Fig. 5. It
//     reads the ScratchPad header, copies staged payloads out of the bypass
//     buffer, acknowledges the frame, reassembles chunked messages, and
//     either delivers locally or queues the message for forwarding;
//   * a TX service process: drains the forward queue, moving messages hop
//     by hop through the pre-mapped bypass window in
//     TimingParams::bypass_chunk_bytes chunks, one ScratchPad handshake per
//     chunk. (Service context cannot reprogram translation windows, so it
//     cannot use the fast segmented path the application context uses —
//     this asymmetry is what makes Get and multi-hop forwarding an order of
//     magnitude slower than neighbour Put, as in the paper's Fig. 9.)
//
// Routing: every hop decision consults the fabric's precomputed
// fabric::RoutingTable (RuntimeOptions::routing selects the mode). On the
// paper's ring with the default kRightOnly mode the table reproduces the
// legacy always-right circulation bit-for-bit; kShortest and
// kDimensionOrder generalize the same transport to chordal rings, 2-D tori
// and full meshes without touching the data path.
//
// Application-context operations:
//   * put(): neighbour targets get the direct path — data DMA'd segment by
//     segment straight into the destination symmetric heap through the LUT
//     window (segment_setup per segment), then one kDirectPut notify frame.
//     Non-neighbour targets get the whole message staged into the next
//     hop's bypass buffer (same segmented cost) and forwarded from there by
//     the service threads; the call returns at local completion either way
//     (one-sided semantics).
//   * get(): sends a kGetRequest frame toward the source; the source's
//     service thread pushes a GetResponse message back through the bypass
//     path; the caller blocks until the payload lands in its buffer.
//   * atomics: request/response messages executed by the owner's service
//     thread (single-threaded per host -> linearizable per target word).
//   * barrier(): the Fig. 6 two-round start/end doorbell circulation on
//     ring-like fabrics, or — when TransportTuning::topology_collectives is
//     on, and always on non-ring fabrics, whose doorbell walk would not
//     terminate — a token tree over the routing graph rooted at host 0
//     (children send kBarrierToken up, the root releases down the tree).
//
// Pipelined data path (opt-in via RuntimeOptions::tuning; the default is
// the paper-faithful serial protocol above):
//   * tx_credits > 1: N frames in flight per channel. The receiving
//     adapter latches the ScratchPad bank per doorbell (NtbPort frame
//     latch) and the bypass staging buffer is partitioned into N slots, one
//     per credit, carried in FrameHeader::d.
//   * overlap_segment_setup: window_write charges segment i+1's LUT/
//     descriptor setup concurrently with segment i's DMA (descriptor
//     prefetch), instead of serially.
//   * cut_through_forwarding: an intermediate hop forwards each chunk of a
//     multi-hop message on arrival once the first chunk's network header
//     shows a non-resident target, instead of store-and-forwarding the
//     whole message.
// All three keep the DES deterministic: credits are a FIFO sim::Resource,
// ACKs return in emission order, and chunk forwarding preserves per-link
// FIFO order.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <span>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hpp"
#include "obs/hub.hpp"
#include "shmem/message.hpp"
#include "shmem/options.hpp"
#include "sim/event.hpp"
#include "sim/resource.hpp"

namespace ntbshmem::shmem {

class Runtime;

// Raised by Transport::check_protocol_invariants when a safety invariant
// (credit conservation, staging-slot partition, seq-window discipline) is
// broken — the model checker's violation signal.
class ProtocolViolation : public std::runtime_error {
 public:
  explicit ProtocolViolation(const std::string& what)
      : std::runtime_error(what) {}
};

// Per-PE transport statistics (tests assert on these; benches report them).
struct TransportStats {
  std::uint64_t puts_issued = 0;
  std::uint64_t gets_issued = 0;
  std::uint64_t atomics_issued = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t messages_forwarded = 0;
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t delivery_acks_sent = 0;
  // Put payloads written into a resident PE's heap (local + remote arrivals)
  // — the exactly-once ledger the model checker sums against puts_issued.
  std::uint64_t puts_delivered = 0;
  std::uint64_t barriers_completed = 0;
  std::uint64_t barrier_tokens_sent = 0;  // tree barrier: up+down tokens
  // Reliability-layer accounting (all zero when reliability is off).
  std::uint64_t retransmits = 0;        // frames re-emitted (timeout or NAK)
  std::uint64_t ack_timeouts = 0;       // retransmit timers that fired
  std::uint64_t naks_sent = 0;          // checksum/order rejects signalled
  std::uint64_t naks_received = 0;
  std::uint64_t frames_corrupt_dropped = 0;     // checksum mismatch
  std::uint64_t frames_duplicate_dropped = 0;   // seq below expected; re-acked
  std::uint64_t frames_out_of_order_dropped = 0;  // seq gap (go-back-N)
  std::uint64_t invalid_acks_dropped = 0;  // ack word failed redundancy check
  std::uint64_t dma_retries = 0;           // descriptor errors retried
};

class Transport {
 public:
  // One Transport per HOST: it owns the host's NTB channels, staging
  // buffers and service threads, shared by every PE resident on the host
  // (pes_per_host of them; 1 in the paper's prototype).
  Transport(Runtime& runtime, int host_id);
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Registers ISR handlers and spawns the RX/TX service daemons.
  void start_services();

  // Communication-context domain ids: every one-sided operation belongs to
  // a domain, and quiet(domain) drains only that domain's outstanding work
  // (the OpenSHMEM 1.4 context semantics). kDefaultDomain backs
  // SHMEM_CTX_DEFAULT and all non-ctx API calls.
  static constexpr int kDefaultDomain = 0;
  static constexpr int kAllDomains = -1;

  // Reliability layer (ReliabilityParams): a frame is retransmitted at most
  // kMaxRetries times, its ack timeout doubling each time, before the link
  // counts as unrecoverable. Runtime::retransmit_bound() and the trace
  // artifact read it too.
  static constexpr int kMaxRetries = 10;

  // ---- One-sided data movement (application/PE context) --------------------
  // `origin_pe` identifies the calling PE (a resident of this host).
  // Copies `src` into `target_pe`'s symmetric heap at `heap_offset`.
  // Returns at local completion (locally blocking, per OpenSHMEM).
  void put(std::uint64_t heap_offset, std::span<const std::byte> src,
           int target_pe, int origin_pe, int domain = kDefaultDomain);
  // Copies from `source_pe`'s symmetric heap into `dst`; blocks until the
  // data has arrived.
  void get(std::uint64_t heap_offset, std::span<std::byte> dst, int source_pe,
           int origin_pe);
  // Non-blocking get: returns an op id; completion via quiet(). Like
  // every operation it is its own op root, closed at local issue; its
  // frames complete asynchronously.
  std::uint32_t get_nbi(std::uint64_t heap_offset, std::span<std::byte> dst,
                        int source_pe, int origin_pe,
                        int domain = kDefaultDomain);

  // ---- Remote atomics -------------------------------------------------------
  // Executes `op` on the 4- or 8-byte word at `heap_offset` of `target_pe`;
  // returns the previous value (meaningful for fetching ops).
  std::uint64_t atomic(AtomicOp op, std::uint64_t heap_offset, int target_pe,
                       std::uint8_t width, std::uint64_t operand1,
                       std::uint64_t operand2, int origin_pe);
  // Fire-and-forget non-fetching atomic: returns at local completion; the
  // update is ordered behind prior puts to the same target (same path) and
  // drained by quiet(). Building block of put-with-signal.
  void atomic_post(AtomicOp op, std::uint64_t heap_offset, int target_pe,
                   std::uint8_t width, std::uint64_t operand1, int origin_pe,
                   int domain = kDefaultDomain);
  // Put `src` then update the signal word — the OpenSHMEM 1.5
  // put-with-signal shape; the signal update is delivered after the data.
  void put_signal(std::uint64_t heap_offset, std::span<const std::byte> src,
                  std::uint64_t signal_offset, std::uint64_t signal_value,
                  AtomicOp signal_op, int target_pe, int origin_pe,
                  int domain = kDefaultDomain);

  // ---- Ordering & synchronization ------------------------------------------
  // Drains outstanding remote writes (per the configured CompletionMode)
  // and pending non-blocking gets — of one domain, or of all domains.
  void quiet(int domain = kAllDomains);
  // Put ordering to each PE is FIFO by construction; fence is bookkeeping
  // only (documented in DESIGN.md).
  void fence();
  // Collective barrier across all PEs. With multiple PEs per host the
  // barrier is hierarchical: residents gather locally, each host's lowest
  // PE runs the inter-host protocol, then releases its residents. The
  // inter-host protocol is the paper's Fig. 6 doorbell circulation on
  // ring-like fabrics and the kBarrierToken tree otherwise (or when
  // TransportTuning::topology_collectives opts the ring in).
  void barrier(int origin_pe);
  // Blocks until the RX service signals a local symmetric-heap update
  // (building block of shmem_wait_until).
  void wait_heap_change();

  const TransportStats& stats() const { return stats_; }
  int host_id() const { return host_id_; }

  // Staging buffer for frames arriving through adapter `in_port` (the
  // bypass buffer of paper Fig. 4; written by that port's peer host).
  host::Region staging_in(int in_port) const {
    return staging_in_.at(static_cast<std::size_t>(in_port));
  }
  // Allocates a fresh completion-domain id (per-PE contexts draw from the
  // host transport so ids never collide between co-resident PEs).
  int allocate_domain() { return next_domain_++; }

  // ---- Model-checker introspection (DESIGN.md §4i) -------------------------
  // FNV hash of this host's protocol state: per-channel credit/in-flight/
  // sequence state, RX/TX/retransmit queues, reassembly and cut-through
  // tables, pending ops, per-domain outstanding counts, barrier token
  // counters, and each adapter's NtbPort register state. Cumulative
  // statistics are excluded (they grow monotonically along every path and
  // would defeat revisit pruning). Unordered containers are folded with a
  // commutative combine so iteration order cannot leak in.
  std::uint64_t state_hash() const;
  // True when no protocol work is pending on this host: empty RX/TX/retx
  // queues, all credits free, no in-flight frames, no reassembly or
  // cut-through residue, all pending gets/atomics done, zero outstanding
  // deliveries in every domain. A runtime whose transports are all
  // quiescent after the PE mains return has fully drained.
  bool quiescent() const;
  // Human-readable summary of what quiescent() found pending (deadlock
  // diagnostics); empty string when quiescent.
  std::string pending_summary() const;
  // Checks the safety invariants that must hold at every scheduler point:
  // credit conservation (free slots + in-flight == capacity, matching the
  // sim::Resource ledger), staging-slot partition (slots distinct, in
  // range, free/in-flight sets disjoint), and — with reliability on — the
  // go-back-N window discipline (in-flight sequence numbers consecutive
  // mod 256, ending just below the channel's next_seq). Throws
  // ProtocolViolation with a diagnostic on the first breach.
  void check_protocol_invariants() const;

 private:
  // Arms the planted bug below; defined only by tools/mck.
  friend class TransportTestPeer;

  // One TX adapter of the host. `credits` is the number of frames that may
  // be in flight before the sender must wait for an ACK doorbell: 1 is the
  // paper's handshake; N>1 is the pipelined mode, where the receiver's
  // adapter latches the ScratchPad bank per doorbell and the bypass staging
  // buffer is partitioned into N slots so in-flight payloads never collide.
  // ACKs arrive in emission order (the link and the receiver's service loop
  // are both FIFO), so in-flight bookkeeping is a queue popped by the ACK
  // handler.
  struct TxChannel {
    TxChannel(sim::Engine& engine, const std::string& name, int credits,
              std::uint64_t stage_slot_bytes)
        : slot(engine, name, static_cast<std::size_t>(credits)),
          emit_serial(engine, name + ".emit", 1),
          slot_bytes(stage_slot_bytes) {
      for (int i = 0; i < credits; ++i) free_slots.push_back(i);
    }
    sim::Resource slot;         // frame credits (capacity == tx_credits)
    sim::Resource emit_serial;  // serializes ScratchPad staging + doorbell
    std::uint64_t slot_bytes;   // staging partition owned by one credit
    std::deque<int> free_slots; // staging slots not owned by an in-flight frame
    struct InFlight {
      int stage_slot = 0;
      bool counts_as_delivery = false;
      int delivery_domain = 0;
      // Reliability bookkeeping (untouched when reliability is off). The
      // header and doorbell are kept for retransmission — payloads stay in
      // the credit-owned staging slot, so a retransmit is header-only.
      std::uint8_t seq = 0;
      int doorbell = 0;
      int retries = 0;
      FrameHeader hdr;
      sim::CallbackHandle retx_timer;
      // Causal-trace bookkeeping (0/null when causal recording is off).
      // `causal_id` is the kFrame span closed by the retiring ack;
      // `wire_ctx` is the context staged with every (re)emission — its
      // parent is the ORIGINAL frame span, so the receiver links to the
      // same node no matter which emission attempt delivered.
      std::uint64_t causal_id = 0;
      obs::TraceCtx wire_ctx;
    };
    std::deque<InFlight> inflight;  // emission order; ACKs pop the front
    std::uint8_t next_seq = 0;      // reliability: next sequence to assign
  };

  enum class RxTokenKind : std::uint8_t {
    kFrame,         // ScratchPad frame notify (DMAPUT / DMAGET doorbells)
    kBarrierStart,  // DOORBELL_BARRIER_START (ring protocol only)
    kBarrierEnd,    // DOORBELL_BARRIER_END (ring protocol only)
  };

  struct RxToken {
    int from = 0;  // adapter/port index the signal arrived through
    RxTokenKind kind = RxTokenKind::kFrame;
    // Header bank latched by the adapter at doorbell-arrival time (valid
    // for kFrame tokens). Reading it is charged at process_frame time.
    std::array<std::uint32_t, ntb::kNumScratchpads> regs{};
    // Causal context staged by the sender alongside the frame, plus the
    // doorbell-arrival time (IRQ-delay attribution). Null when causal
    // recording is off or for control tokens.
    obs::TraceCtx ctx;
    sim::Time latched_at = 0;
  };

  struct OutboundItem {
    enum class Kind : std::uint8_t {
      kMessage,   // whole logical message, sent chunked hop by hop
      kRawFrame,  // get-request forwarding (payload-free frame)
      kChunk,     // cut-through: one chunk of a partially arrived message
    };
    Kind kind = Kind::kMessage;
    int port = 0;                     // egress adapter to send through
    std::vector<std::byte> message;   // message bytes, or one chunk's payload
    FrameHeader raw_frame;            // get-request forwarding
    // Cut-through chunk coordinates (kind == kChunk).
    std::uint32_t chunk_msg_id = 0;
    std::uint64_t chunk_off = 0;
    std::uint32_t chunk_total = 0;
    // The enqueuing process's cause, one hop on (stamped by
    // enqueue_outbound); the TX service parents its kForward span here.
    obs::TraceCtx ctx;
  };

  struct Reassembly {
    std::vector<std::byte> data;
    std::uint64_t received = 0;
  };

  // Cut-through forwarding state for one in-transit chunked message: once
  // the first chunk reveals a non-resident target, every chunk is forwarded
  // on arrival under a fresh outgoing message id.
  struct CutThrough {
    std::uint32_t out_msg_id = 0;
    std::uint64_t forwarded = 0;  // bytes forwarded so far
    // Egress port resolved from the first chunk's network header; later
    // chunks are header-less and must follow the same port (the routing
    // table is static per run, so the path cannot change mid-message).
    int out_port = 0;
  };

  struct PendingGet {
    std::byte* dst = nullptr;
    std::uint32_t len = 0;
    bool done = false;
    int domain = 0;
  };

  struct PendingAtomic {
    std::uint64_t old_value = 0;
    bool done = false;
  };

  // ---- context helpers ----
  int pes_per_host() const;
  int host_of(int pe) const { return pe / pes_per_host(); }
  bool is_resident(int pe) const { return host_of(pe) == host_id_; }
  int leader_pe() const { return host_id_ * pes_per_host(); }
  fabric::Fabric& fabric() const;
  int degree() const;
  ntb::NtbPort& port(int p) const;
  TxChannel& channel(int p) { return *tx_[static_cast<std::size_t>(p)]; }
  // Host on the far end of adapter `p` (and the adapter index it arrives
  // through over there — whose staging buffer receives our staged frames).
  int peer_host(int p) const;
  int peer_port(int p) const;
  // Precomputed routing table for the configured RoutingMode.
  const fabric::RoutingTable& routes() const;
  // First-hop egress port and total hop count toward `target` (a PE).
  fabric::PortRoute route_to(int target) const;
  // Egress port/hops for a response travelling back to `origin` (a PE); on
  // kRightOnly rings responses travel leftward so hop counts stay symmetric.
  fabric::PortRoute response_route_to(int origin) const;
  // Egress port for forwarding a transit message toward `target_pe` that
  // arrived through `in`.
  int forward_port(int target_pe, int in) const;
  const TimingParams& timing() const;
  const TransportTuning& tuning() const;

  // ---- send-side primitives ----
  // The frame, DMA and credit-stall spans these emit parent under the
  // calling process's current cause (none = record nothing).
  // Blocks until a frame credit is free and returns the staging slot index
  // owned by that credit until the matching ACK doorbell.
  int acquire_send_credit(int p);
  // Posts the 7 header registers (+ checksum reg under reliability) and
  // `doorbell` as one register burst; the channel's emit_serial must be
  // held. `wire_ctx` is staged into the port's causal sidecar first so the
  // receiver's latch carries it.
  void post_frame(int p, const FrameHeader& hdr, int doorbell,
                  const obs::TraceCtx& wire_ctx);
  // First emission of a frame: post_frame plus in-flight bookkeeping.
  // Serializes the ScratchPad staging against other credit holders and
  // registers the record the ACK handler consumes. `slot` is the staging
  // slot from acquire_send_credit.
  void emit_frame_inflight(int p, const FrameHeader& hdr, int doorbell,
                           int slot, bool counts_as_delivery,
                           int delivery_domain);
  // Data write through a window with the configured path; charges
  // segment_setup per LUT segment when `app_context` is true (serially, or
  // overlapped with the previous segment's DMA under the pipelined tuning).
  void window_write(int p, int window, host::Region region, std::uint64_t off,
                    std::span<const std::byte> src, bool app_context);
  // Sends one message (header+payload) one hop through adapter `p`,
  // chunked through the bypass buffer with one handshake per chunk. Any
  // process context.
  void send_message_chunked(int p, std::span<const std::byte> message);
  // Sends one chunk of the logical message `msg_id` (`total` bytes overall)
  // one hop through `p`; the chunk's payload starts at message offset `off`.
  void send_chunk(int p, std::span<const std::byte> payload,
                  std::uint32_t msg_id, std::uint64_t off, std::uint32_t total);
  // Application fast path: stage the whole message in one handshake.
  void send_message_staged(int p, std::span<const std::byte> message);
  // Header + payload, with the current cause stamped into the header.
  std::vector<std::byte> build_message(const MessageHeader& header,
                                       std::span<const std::byte> payload);
  // Stamps the current cause (when there is one) into the causal fields of
  // `message`'s header, so the logical-message link survives chunking,
  // reassembly and forwarding.
  void stamp_cause(std::span<std::byte> message) const;
  // Hands `item` to the TX service with the current cause, one hop on.
  void enqueue_outbound(OutboundItem item);
  // Sends a kGetRequest frame for `dst` and registers the pending get;
  // shared by get() and get_nbi() under their own op roots.
  std::uint32_t issue_get(std::uint64_t heap_offset, std::span<std::byte> dst,
                          int source_pe, int origin_pe, int domain);

  // ---- reliability (all no-ops / unreachable when the layer is off) ----
  bool reliability_on() const { return tuning().reliability.enabled; }
  TxChannel::InFlight* find_inflight(TxChannel& ch, std::uint8_t seq);
  // Arms the per-frame retransmit timer (timeout grows with rec.retries).
  void arm_retx_timer(int p, TxChannel::InFlight& rec);
  // Scheduler context: queue a retransmit and wake the rel service.
  void on_ack_timeout(int p, std::uint8_t seq);
  void on_nak(int p);
  // Retires in-flight records up to (and including) `seq` — cumulative ack.
  void retire_acked(int p, std::uint8_t seq);
  // Re-emits the header of in-flight frame `seq` (payload still staged);
  // throws after kMaxRetries.
  void retransmit(int p, std::uint8_t seq);
  void rel_service_body();
  // Receiver side: signal a checksum/order reject to the sender.
  void nak_frame(int from);
  // Accept gate for a frame's sequence number; true => process it.
  bool accept_frame_seq(const RxToken& token, const FrameHeader& f);

  // ---- receive side ----
  void on_rx_token(int from, RxTokenKind kind);
  void on_ack(int p);
  void rx_service_body();
  void tx_service_body();
  void process_frame(const RxToken& token);
  // Cut-through fast path for a kChunk frame; returns true when the chunk
  // was forwarded (consumed) instead of entering reassembly.
  bool try_cut_through(const FrameHeader& f, int from);
  void ack_frame(int from);
  void dispatch_message(std::vector<std::byte> message, int from);
  // Local delivery between co-resident PEs (shared-memory path).
  void local_put(std::uint64_t heap_offset, std::span<const std::byte> src,
                 int target_pe);
  void deliver_put(const MessageHeader& h, std::span<const std::byte> payload);
  void deliver_get_response(const MessageHeader& h,
                            std::span<const std::byte> payload);
  void serve_get_request(const FrameHeader& f);
  void execute_atomic_request(const MessageHeader& h);
  void deliver_atomic_response(const MessageHeader& h);
  std::uint64_t apply_atomic(AtomicOp op, int target_pe,
                             std::uint64_t heap_offset, std::uint8_t width,
                             std::uint64_t operand1, std::uint64_t operand2);
  void send_delivery_ack(std::uint8_t origin, std::uint32_t op_id);
  // Registers an outstanding counted delivery in `domain`.
  void track_delivery(int domain, std::uint32_t op_id);
  void note_delivery_completed(int domain);
  // Completion of an op id tracked via track_delivery (DeliveryAck path).
  void note_delivery_completed_op(std::uint32_t op_id);

  // ---- barrier protocols ----
  // Tree barrier is mandatory off-ring (the doorbell circulation assumes a
  // ring) and opt-in on ring-like fabrics via topology_collectives.
  bool use_tree_barrier() const;
  // Inter-host half of the barrier, run by the host leader PE only.
  void barrier_leader_ring();   // Fig. 6 doorbell circulation
  // kBarrierToken tree rooted at host 0; tokens parent under the leader's
  // barrier root.
  void barrier_leader_tree();
  // Sends one barrier token (phase 0 = up, 1 = down) to an adjacent host's
  // leader through the normal message path.
  void send_barrier_token(int dst_host, int phase);

  // ---- observability ----
  // Caches the causal recorder and metric instruments from the engine's
  // obs::Hub (no-op without one); called once from the constructor.
  void init_obs();
  // Closes a retired frame's causal span (ACK time).
  void end_frame_span(const TxChannel::InFlight& rec);
  // Charges the CPU cost of a local DRAM-to-DRAM copy.
  void charge_local_copy(std::uint64_t bytes);
  // Models the service thread's scheduling latency after an idle wake.
  void charge_service_wake();
  // ---- causal cross-hop tracing ----
  bool causal_on() const {
    return causal_ != nullptr && causal_->enabled();
  }
  // One instrumented step of the calling process; see transport.cpp.
  class Step;
  // Context of the calling process's current cause ({} outside a process
  // or while causal recording is off).
  obs::TraceCtx current_cause() const;
  // Records a closed leaf span from `t0` to now under the current cause.
  void record_leaf(obs::SpanKind kind, int port, sim::Time t0,
                   std::uint64_t a = 0, std::uint64_t b = 0);

  Runtime& runtime_;
  int host_id_;

  // Incoming bypass/staging buffers, one per adapter (indexed by the port
  // the traffic arrives through; a ring host's port 0 faces right).
  std::vector<host::Region> staging_in_;

  // TX channels, one per adapter (same port indexing).
  std::vector<std::unique_ptr<TxChannel>> tx_;

  // RX service state. (Hot-path lookups are unordered_map: nothing relies
  // on key order, and the stress/bench workloads hit these per frame.)
  std::deque<RxToken> rx_queue_;
  std::unique_ptr<sim::Event> rx_event_;
  std::unordered_map<std::uint64_t, Reassembly> reassembly_;  // origin<<32|id
  std::unordered_map<std::uint64_t, CutThrough> cut_through_;  // same key

  // TX service state.
  std::deque<OutboundItem> tx_queue_;
  std::unique_ptr<sim::Event> tx_event_;

  // Reliability service state: retransmits queued by ISR/timer callbacks
  // (scheduler context cannot block on register writes) and drained by the
  // rel service daemon, which is spawned only when reliability is enabled.
  struct RetxRequest {
    int port = 0;
    std::uint8_t seq = 0;
  };
  std::deque<RetxRequest> retx_queue_;
  std::unique_ptr<sim::Event> rel_event_;
  // Go-back-N receive state: next expected sequence per arrival port.
  std::vector<std::uint8_t> rx_expected_seq_;

  // Pending application operations.
  std::unordered_map<std::uint32_t, PendingGet> pending_gets_;
  std::unordered_map<std::uint32_t, PendingAtomic> pending_atomics_;
  std::unique_ptr<sim::Event> op_event_;

  // Outstanding remote writes per context domain (kFullDelivery
  // accounting). delivery_domain_of_op_ maps staged/atomic op ids back to
  // their domain for the end-to-end DeliveryAck path.
  std::unordered_map<int, std::uint64_t> outstanding_by_domain_;
  std::unordered_map<std::uint32_t, int> delivery_domain_of_op_;
  std::unique_ptr<sim::Event> quiet_event_;

  // Ring-barrier token counters (signals arrive on the left port, Fig. 6).
  std::uint64_t barrier_start_tokens_ = 0;
  std::uint64_t barrier_end_tokens_ = 0;
  // Tree-barrier token counters (kBarrierToken messages).
  std::uint64_t barrier_up_tokens_ = 0;
  std::uint64_t barrier_down_tokens_ = 0;
  // Tree shape (computed once in start_services when the tree barrier is
  // active): the next hop toward host 0 is the parent; hosts whose parent
  // is this host are the children, in increasing host order.
  int barrier_parent_ = -1;
  std::vector<int> barrier_children_;
  std::unique_ptr<sim::Event> barrier_event_;
  // Hierarchical barrier state for co-resident PEs.
  int local_barrier_arrived_ = 0;
  std::uint64_t local_barrier_round_ = 0;
  std::unique_ptr<sim::Event> local_barrier_event_;

  // Local symmetric-heap update notification (shmem_wait_until).
  std::unique_ptr<sim::Event> heap_event_;

  std::uint32_t next_op_id_ = 1;
  std::uint32_t next_msg_id_ = 1;
  int next_domain_ = 1;  // 0 is reserved (kDefaultDomain, unused directly)
  TransportStats stats_;

  // Planted bug for the model checker's self-check (mck --seed-bug):
  // deliver_put acknowledges and notifies BEFORE the heap write lands
  // (deferred to a same-timestamp callback), violating write-before-notify.
  // Only TransportTestPeer sets it; the runtime never does.
  bool bug_ack_before_write_ = false;

  // Observability: instruments cached by init_obs(). Without a hub the
  // counters/histograms fall back to the shared null instruments so hot
  // paths never branch.
  obs::Counter* obs_credit_stalls_ = obs::MetricsRegistry::null_counter();
  obs::Counter* obs_credit_stall_ns_ = obs::MetricsRegistry::null_counter();
  obs::Histogram* obs_credit_stall_hist_ =
      obs::MetricsRegistry::null_histogram();
  obs::Histogram* obs_barrier_hist_ = obs::MetricsRegistry::null_histogram();

  // Causal recorder (null without a hub; gated again by causal_enabled).
  obs::CausalRecorder* causal_ = nullptr;
  // Always-on bounded flight recorder: last-N protocol events, dumped on
  // fault-recovery failure (Runtime::dump_flight). Pure ring-buffer stores,
  // no allocation, no engine interaction — safe on every hot path.
  obs::FlightRecorder flight_;
};

}  // namespace ntbshmem::shmem
