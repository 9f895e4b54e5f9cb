#include "shmem/transport.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/sorted.hpp"
#include "shmem/runtime.hpp"

namespace ntbshmem::shmem {

namespace {

// Reliability layer: ack-timeout multiplier per retransmit, and how often a
// DMA descriptor error is retried per segment before the transfer fails.
constexpr double kBackoff = 2.0;
constexpr int kDmaRetries = 4;

// Reassembly key: link-level sender and its message id are unique per hop
// because each forwarding host assigns fresh ids.
std::uint64_t reassembly_key(std::uint8_t origin, std::uint32_t id) {
  return (static_cast<std::uint64_t>(origin) << 32) | id;
}

}  // namespace

// One instrumented step of the calling simulated process (DESIGN.md §4h).
// It opens the step's causal span and closes it when it goes out of scope,
// early returns included; the Perfetto export draws op, service and frame
// spans from the recorder (obs/export.hpp). A step that causes further work
// (an op root, an rx service, a forward leg) also installs its span as the
// process's current cause and restores the previous cause on exit,
// ProcessKilled unwinding included; a leaf step (dma, copy, retransmit)
// records under the current cause without becoming it. A no-op while
// causal recording is off.
class Transport::Step {
 public:
  // Root of an operation issued by resident PE `pe`: the causal root of op
  // `family`, which every span the operation causes hangs under.
  static Step op(Transport& t, int pe, std::uint64_t family,
                 std::uint64_t bytes) {
    return Step(t, Role::kRoot, {}, obs::SpanKind::kOp, pe, family, bytes);
  }
  // Receive service of a frame that arrived through port `from`, under the
  // frame's wire context.
  static Step service(Transport& t, int from) {
    return Step(t, Role::kCause, t.current_cause(), obs::SpanKind::kService,
                from, 0, 0);
  }
  // Forward leg of an outbound item, under the context it was queued with.
  static Step forward(Transport& t, const OutboundItem& item) {
    return Step(t, Role::kCause, item.ctx, obs::SpanKind::kForward, item.port,
                static_cast<std::uint64_t>(item.kind), item.message.size());
  }
  // Leaf span under the current cause.
  static Step leaf(Transport& t, obs::SpanKind kind, int port,
                   std::uint64_t a = 0, std::uint64_t b = 0) {
    return Step(t, Role::kLeaf, t.current_cause(), kind, port, a, b);
  }
  // Runs the rest of the scope under an existing span: a frame's wire
  // context, a message header's context, an in-flight frame re-staged.
  static Step under(Transport& t, std::uint64_t span) { return Step(t, span); }

  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;
  ~Step() {
    if (process_ != nullptr) process_->set_cause(prev_cause_);
    if (span_ != 0) t_.causal_->end(span_, t_.runtime_.engine().now());
  }

 private:
  enum class Role : std::uint8_t { kRoot, kCause, kLeaf };

  // `where` is the issuing PE of a root and the port of any other span.
  Step(Transport& t, Role role, const obs::TraceCtx& cause, obs::SpanKind kind,
       int where, std::uint64_t a, std::uint64_t b)
      : t_(t) {
    if (!t.causal_on()) return;
    const sim::Time now = t.runtime_.engine().now();
    span_ = role == Role::kRoot
                ? t.causal_->begin_root(kind, t.host_id_, where, now, a, b)
                : t.causal_->begin(cause, kind, t.host_id_, where, now, a, b);
    if (role != Role::kLeaf) install(span_);
  }
  Step(Transport& t, std::uint64_t span) : t_(t) {
    if (t.causal_on()) install(span);
  }
  void install(std::uint64_t span) {
    process_ = t_.runtime_.engine().current();
    if (process_ == nullptr) return;
    prev_cause_ = process_->cause();
    process_->set_cause(span);
  }

  Transport& t_;
  std::uint64_t span_ = 0;           // owned causal span, closed on exit
  sim::Process* process_ = nullptr;  // set when this step installed a cause
  std::uint64_t prev_cause_ = 0;
};

Transport::Transport(Runtime& runtime, int host_id)
    : runtime_(runtime), host_id_(host_id) {
  sim::Engine& engine = runtime_.engine();
  const std::string prefix = "host" + std::to_string(host_id_);
  host::MemoryArena& arena = fabric().host(host_id_).memory();
  const std::uint64_t staging_bytes =
      runtime_.options().timing.bypass_buffer_bytes;
  const TransportTuning& tune = runtime_.options().tuning;
  if (tune.tx_credits < 1) {
    throw std::invalid_argument("TransportTuning::tx_credits must be >= 1");
  }
  // Each credit owns one staging slot; a slot must hold at least one bypass
  // chunk (and a message header for the staged path).
  const std::uint64_t slot_bytes =
      staging_bytes / static_cast<std::uint64_t>(tune.tx_credits);
  if (slot_bytes < runtime_.options().timing.bypass_chunk_bytes ||
      slot_bytes <= kMessageHeaderBytes) {
    throw std::invalid_argument(
        "bypass_buffer_bytes / tx_credits leaves staging slots smaller than "
        "a bypass chunk");
  }
  const fabric::Topology& topo = fabric().topology();
  const int deg = topo.degree(host_id_);
  staging_in_.reserve(static_cast<std::size_t>(deg));
  tx_.reserve(static_cast<std::size_t>(deg));
  // One staging buffer and one TX channel per adapter, in port order (the
  // allocations are pure address bookkeeping; no engine interaction).
  for (int p = 0; p < deg; ++p) {
    staging_in_.push_back(arena.allocate(staging_bytes, 4096));
  }
  for (int p = 0; p < deg; ++p) {
    tx_.push_back(std::make_unique<TxChannel>(
        engine, prefix + ".tx_" + topo.port(host_id_, p).name,
        tune.tx_credits, slot_bytes));
  }
  rx_expected_seq_.assign(static_cast<std::size_t>(deg), 0);
  rx_event_ = std::make_unique<sim::Event>(engine, prefix + ".rx");
  tx_event_ = std::make_unique<sim::Event>(engine, prefix + ".tx");
  rel_event_ = std::make_unique<sim::Event>(engine, prefix + ".rel");
  op_event_ = std::make_unique<sim::Event>(engine, prefix + ".ops");
  quiet_event_ = std::make_unique<sim::Event>(engine, prefix + ".quiet");
  barrier_event_ = std::make_unique<sim::Event>(engine, prefix + ".barrier");
  heap_event_ = std::make_unique<sim::Event>(engine, prefix + ".heap");
  local_barrier_event_ =
      std::make_unique<sim::Event>(engine, prefix + ".local_barrier");
  init_obs();
}

void Transport::init_obs() {
  obs::Hub* hub = runtime_.engine().obs();
  if (hub == nullptr) return;
  causal_ = &hub->causal;
  const std::string host_name = fabric().host(host_id_).name();
  // The flight recorder is registered unconditionally (it is always on);
  // registration order is host-construction order, so dumps are stable.
  hub->flights.emplace_back(host_name, &flight_);

  obs::MetricsRegistry& reg = hub->metrics;
  const std::string prefix = host_name + ".transport";
  obs_credit_stalls_ = reg.counter(prefix + ".credit_stalls");
  obs_credit_stall_ns_ = reg.counter(prefix + ".credit_stall_ns");
  obs_credit_stall_hist_ = reg.histogram(prefix + ".credit_stall_wait_ns");
  obs_barrier_hist_ = reg.histogram(prefix + ".barrier_latency_ns");
  // Every TransportStats field doubles as a snapshot probe, so metrics
  // exports carry the protocol accounting without double bookkeeping. The
  // captured field pointers are valid for any snapshot taken while the
  // Runtime is alive (the documented contract for Runtime::obs()).
  auto probe = [&](const char* key, const std::uint64_t* field) {
    reg.register_probe(prefix + "." + std::string(key),
                       [field] { return static_cast<double>(*field); });
  };
  probe("puts_issued", &stats_.puts_issued);
  probe("gets_issued", &stats_.gets_issued);
  probe("atomics_issued", &stats_.atomics_issued);
  probe("frames_sent", &stats_.frames_sent);
  probe("frames_received", &stats_.frames_received);
  probe("messages_forwarded", &stats_.messages_forwarded);
  probe("bytes_forwarded", &stats_.bytes_forwarded);
  probe("delivery_acks_sent", &stats_.delivery_acks_sent);
  probe("barriers_completed", &stats_.barriers_completed);
  probe("barrier_tokens_sent", &stats_.barrier_tokens_sent);
  probe("retransmits", &stats_.retransmits);
  probe("ack_timeouts", &stats_.ack_timeouts);
  probe("naks_sent", &stats_.naks_sent);
  probe("naks_received", &stats_.naks_received);
  probe("frames_corrupt_dropped", &stats_.frames_corrupt_dropped);
  probe("frames_duplicate_dropped", &stats_.frames_duplicate_dropped);
  probe("frames_out_of_order_dropped", &stats_.frames_out_of_order_dropped);
  probe("invalid_acks_dropped", &stats_.invalid_acks_dropped);
  probe("dma_retries", &stats_.dma_retries);
}

void Transport::end_frame_span(const TxChannel::InFlight& rec) {
  // The retiring ack closes the frame's causal span — a kFrame left open in
  // the export is precisely "a doorbell with no matching ack" (tracecheck
  // invariant).
  if (rec.causal_id != 0) causal_->end(rec.causal_id, runtime_.engine().now());
}

obs::TraceCtx Transport::current_cause() const {
  if (!causal_on()) return {};
  const sim::Process* p = runtime_.engine().current();
  return p == nullptr ? obs::TraceCtx{} : causal_->ctx_of(p->cause());
}

void Transport::record_leaf(obs::SpanKind kind, int port, sim::Time t0,
                            std::uint64_t a, std::uint64_t b) {
  if (!causal_on()) return;
  causal_->end(causal_->begin(current_cause(), kind, host_id_, port, t0, a, b),
               runtime_.engine().now());
}

int Transport::pes_per_host() const {
  return runtime_.options().pes_per_host;
}

fabric::Fabric& Transport::fabric() const { return runtime_.fabric(); }

int Transport::degree() const { return static_cast<int>(tx_.size()); }

ntb::NtbPort& Transport::port(int p) const { return fabric().port(host_id_, p); }

int Transport::peer_host(int p) const {
  return fabric().topology().peer_host(host_id_, p);
}

int Transport::peer_port(int p) const {
  return fabric().topology().peer_port(host_id_, p);
}

const fabric::RoutingTable& Transport::routes() const {
  return fabric().routing(runtime_.options().routing);
}

fabric::PortRoute Transport::route_to(int target) const {
  const fabric::RoutingTable& rt = routes();
  const int dst = host_of(target);
  return fabric::PortRoute{rt.next_port(host_id_, dst),
                           rt.hops(host_id_, dst)};
}

fabric::PortRoute Transport::response_route_to(int origin) const {
  // Responses travel against the request direction so that hop counts stay
  // symmetric (a 1-hop Get is one hop out and one hop back); on kRightOnly
  // rings the response table is the leftward walk, in the other modes the
  // same shortest/dimension-order path serves both directions.
  const fabric::RoutingTable& rt = routes();
  const int dst = host_of(origin);
  return fabric::PortRoute{rt.response_port(host_id_, dst),
                           rt.response_hops(host_id_, dst)};
}

int Transport::forward_port(int target_pe, int in) const {
  return routes().forward_port(host_id_, host_of(target_pe), in);
}

const TimingParams& Transport::timing() const {
  return runtime_.options().timing;
}

const TransportTuning& Transport::tuning() const {
  return runtime_.options().tuning;
}

void Transport::charge_local_copy(std::uint64_t bytes) {
  if (bytes == 0) return;
  runtime_.engine().wait_for(
      sim::duration_for_bytes(bytes, timing().local_copy_Bps));
}

void Transport::charge_service_wake() {
  runtime_.engine().wait_for(timing().service_wake);
}

// ---- service startup --------------------------------------------------------

void Transport::start_services() {
  const std::string prefix = "host" + std::to_string(host_id_);
  host::InterruptController& irq = fabric().host(host_id_).interrupts();
  for (int p = 0; p < degree(); ++p) {
    ntb::NtbPort& in = port(p);
    // Latch the header bank per data doorbell at arrival time (the
    // double-buffered-ScratchPad half of frame pipelining; identical to a
    // live read when only one frame can be in flight). Under reliability the
    // ack doorbell is latched too: the cumulative ack word travels in our
    // bank's reg 7 and must be snapshotted before the peer re-acks.
    std::uint16_t latch =
        static_cast<std::uint16_t>((1u << kDbDmaPut) | (1u << kDbDmaGet));
    if (reliability_on()) latch |= static_cast<std::uint16_t>(1u << kDbAck);
    in.set_latch_bits(latch);
    // Only data doorbells consume the staged causal context: an ACK rung by
    // our own RX service between the peer's ctx staging and its data
    // doorbell must not steal the data frame's context.
    in.set_ctx_bits(
        static_cast<std::uint16_t>((1u << kDbDmaPut) | (1u << kDbDmaGet)));
    const int base = in.config().vector_base;
    irq.register_handler(base + kDbDmaPut, [this, p](int) {
      on_rx_token(p, RxTokenKind::kFrame);
    });
    irq.register_handler(base + kDbDmaGet, [this, p](int) {
      on_rx_token(p, RxTokenKind::kFrame);
    });
    irq.register_handler(base + kDbAck, [this, p](int) { on_ack(p); });
    if (reliability_on()) {
      irq.register_handler(base + kDbNak, [this, p](int) { on_nak(p); });
    }
  }
  if (!use_tree_barrier()) {
    // Ring protocol: barrier signals circulate rightward and therefore
    // arrive on the left adapter (Fig. 6). Like the data doorbells, they
    // are handled by the service thread (the Fig. 5 design), so barrier
    // latency couples to whatever receive work is in flight — visible as
    // the mild put-size dependence of Fig. 10.
    const int left = static_cast<int>(fabric::Direction::kLeft);
    const int base = port(left).config().vector_base;
    irq.register_handler(base + kDbBarrierStart, [this, left](int) {
      on_rx_token(left, RxTokenKind::kBarrierStart);
    });
    irq.register_handler(base + kDbBarrierEnd, [this, left](int) {
      on_rx_token(left, RxTokenKind::kBarrierEnd);
    });
  } else {
    // Tree protocol: derive the barrier tree from the routing table once.
    // The parent is the peer on the next hop toward host 0 (the root); our
    // children are the hosts whose own next hop toward the root lands on
    // us, in increasing host order. Pure computation — no engine
    // interaction, so arming the tree is schedule-neutral.
    const fabric::RoutingTable& rt = routes();
    const fabric::Topology& topo = fabric().topology();
    if (host_id_ != 0) {
      barrier_parent_ = topo.peer_host(host_id_, rt.next_port(host_id_, 0));
    }
    for (int h = 0; h < fabric().size(); ++h) {
      if (h == host_id_ || h == 0) continue;
      if (topo.peer_host(h, rt.next_port(h, 0)) == host_id_) {
        barrier_children_.push_back(h);
      }
    }
  }
  runtime_.engine().spawn(prefix + ".rx_service", [this] { rx_service_body(); },
                          /*daemon=*/true);
  runtime_.engine().spawn(prefix + ".tx_service", [this] { tx_service_body(); },
                          /*daemon=*/true);
  if (reliability_on()) {
    // Spawned only when the layer is on: an extra daemon at t=0 would
    // perturb the engine's (time, seq) tie-breaks and break the golden
    // virtual times the paper path must keep reproducing.
    runtime_.engine().spawn(prefix + ".rel_service",
                            [this] { rel_service_body(); },
                            /*daemon=*/true);
  }
}

void Transport::on_rx_token(int from, RxTokenKind kind) {
  RxToken token;
  token.from = from;
  token.kind = kind;
  if (kind == RxTokenKind::kFrame) {
    // ISR context: consume the oldest *data* snapshot the adapter latched
    // (free; the service thread charges the reads). The accept mask keeps a
    // delay-reordered ack ISR from stealing a data snapshot and vice versa.
    const ntb::NtbPort::PoppedFrame popped = port(from).pop_latched_frame_info(
        static_cast<std::uint16_t>((1u << kDbDmaPut) | (1u << kDbDmaGet)));
    token.regs = popped.regs;
    token.ctx = popped.ctx;
    token.latched_at = popped.latched_at;
  }
  rx_queue_.push_back(token);
  rx_event_->notify_all();
}

void Transport::on_ack(int p) {
  TxChannel& ch = channel(p);
  if (!reliability_on()) {
    if (ch.inflight.empty()) {
      throw std::logic_error("ACK doorbell with no in-flight frame");
    }
    const TxChannel::InFlight rec = ch.inflight.front();
    ch.inflight.pop_front();
    end_frame_span(rec);
    flight_.log(runtime_.engine().now(), obs::FlightCode::kAck,
                static_cast<std::uint16_t>(p), rec.hdr.id);
    // Return the staging slot before the credit so a woken sender always
    // finds a free slot to pair with its credit.
    ch.free_slots.push_back(rec.stage_slot);
    ch.slot.release();
    if (rec.counts_as_delivery) note_delivery_completed(rec.delivery_domain);
    return;
  }
  // Reliability: the adapter latched our bank when the ack doorbell rang;
  // reg 7 of the snapshot carries the redundantly encoded cumulative
  // sequence number.
  const auto regs = port(p).pop_latched_frame(
      static_cast<std::uint16_t>(1u << kDbAck));
  std::uint8_t acked = 0;
  if (!unpack_ack_word(regs[kAckReg], &acked)) {
    // Corrupted ack word: ignore it; the retransmit timeout recovers and
    // the eventual duplicate is re-acked by the receiver.
    ++stats_.invalid_acks_dropped;
    return;
  }
  flight_.log(runtime_.engine().now(), obs::FlightCode::kAck,
              static_cast<std::uint16_t>(p), acked);
  retire_acked(p, acked);
}

void Transport::retire_acked(int p, std::uint8_t acked) {
  TxChannel& ch = channel(p);
  // Cumulative: everything at or before `acked` (signed 8-bit distance; the
  // in-flight window is bounded by tx_credits, far below 128).
  while (!ch.inflight.empty() &&
         static_cast<std::int8_t>(ch.inflight.front().seq - acked) <= 0) {
    TxChannel::InFlight rec = ch.inflight.front();
    ch.inflight.pop_front();
    end_frame_span(rec);
    rec.retx_timer.cancel();
    ch.free_slots.push_back(rec.stage_slot);
    ch.slot.release();
    if (rec.counts_as_delivery) note_delivery_completed(rec.delivery_domain);
  }
}

void Transport::track_delivery(int domain, std::uint32_t op_id) {
  ++outstanding_by_domain_[domain];
  delivery_domain_of_op_[op_id] = domain;
}

void Transport::note_delivery_completed(int domain) {
  auto it = outstanding_by_domain_.find(domain);
  if (it == outstanding_by_domain_.end() || it->second == 0) {
    throw std::logic_error("delivery ack with no outstanding deliveries");
  }
  --it->second;
  quiet_event_->notify_all();
}

void Transport::note_delivery_completed_op(std::uint32_t op_id) {
  auto it = delivery_domain_of_op_.find(op_id);
  if (it == delivery_domain_of_op_.end()) {
    throw std::logic_error("delivery ack for unknown op id");
  }
  const int domain = it->second;
  delivery_domain_of_op_.erase(it);
  note_delivery_completed(domain);
}

// ---- send-side primitives ----------------------------------------------------

int Transport::acquire_send_credit(int p) {
  TxChannel& ch = channel(p);
  const sim::Time t0 = runtime_.engine().now();
  ch.slot.acquire();
  const sim::Dur stalled = runtime_.engine().now() - t0;
  if (stalled > 0) {
    obs_credit_stalls_->inc();
    obs_credit_stall_ns_->add(static_cast<std::uint64_t>(stalled));
    obs_credit_stall_hist_->record(static_cast<std::uint64_t>(stalled));
    flight_.log(runtime_.engine().now(), obs::FlightCode::kCreditStall,
                static_cast<std::uint16_t>(p), 0,
                static_cast<std::uint64_t>(stalled));
    // Closed span covering the stall: critical-path extraction attributes
    // the wait to flow control, not to whatever emitted next.
    record_leaf(obs::SpanKind::kCreditStall, p, t0, 0,
                static_cast<std::uint64_t>(stalled));
  }
  // Invariant: slots are returned before credits are released (on_ack), so
  // a granted credit always finds a free slot; no yield between the two.
  const int slot = ch.free_slots.front();
  ch.free_slots.pop_front();
  return slot;
}

void Transport::emit_frame_inflight(int p, const FrameHeader& hdr,
                                    int doorbell, int slot,
                                    bool counts_as_delivery,
                                    int delivery_domain) {
  TxChannel& ch = channel(p);
  // Serialize header staging between concurrent credit holders (the PE
  // thread and the TX service can emit on the same channel); the record
  // is pushed in emission order, which is the order ACKs come back in.
  ch.emit_serial.acquire();
  TxChannel::InFlight rec{};
  rec.stage_slot = slot;
  rec.counts_as_delivery = counts_as_delivery;
  rec.delivery_domain = delivery_domain;
  FrameHeader h = hdr;
  if (reliability_on()) {
    // Sequence numbers are assigned under emit_serial so the wire order and
    // the sequence order coincide (the go-back-N receiver relies on it).
    h.flags = ch.next_seq++;
    rec.seq = h.flags;
    rec.doorbell = doorbell;
    rec.hdr = h;
  }
  if (causal_on()) {
    // Frame lifetime span: open at emission, closed by the retiring ack
    // (credits allow overlapping lifetimes on one channel). The wire context names THIS span as parent and is re-staged verbatim on
    // every retransmit, so the receiver links to the same node no matter
    // which emission attempt delivered.
    rec.causal_id =
        causal_->begin(current_cause(), obs::SpanKind::kFrame, host_id_, p,
                       runtime_.engine().now(), rec.seq,
                       static_cast<std::uint64_t>(doorbell));
    rec.wire_ctx = causal_->ctx_of(rec.causal_id);
  }
  ch.inflight.push_back(rec);
  post_frame(p, h, doorbell, rec.wire_ctx);
  ++stats_.frames_sent;
  flight_.log(runtime_.engine().now(), obs::FlightCode::kFrameTx,
              static_cast<std::uint16_t>(p),
              static_cast<std::uint32_t>(doorbell), h.id);
  if (reliability_on()) {
    // Re-find by seq: acks for earlier frames may have popped the deque
    // while post_frame blocked on its register burst.
    if (TxChannel::InFlight* r = find_inflight(ch, rec.seq)) {
      arm_retx_timer(p, *r);
    }
  }
  ch.emit_serial.release();
}

void Transport::post_frame(int p, const FrameHeader& hdr, int doorbell,
                           const obs::TraceCtx& wire_ctx) {
  // Stage the causal sidecar so the doorbell's latch snapshots it with the
  // registers (out of band: no wire bytes, no register-write charge). The
  // channel's emit_serial keeps any other data frame from restaging it
  // before this burst's doorbell.
  if (wire_ctx.valid()) port(p).stage_tx_ctx(wire_ctx);
  const auto header = hdr.pack();
  std::array<std::uint32_t, kFrameRegs + 1> regs{};
  std::copy(header.begin(), header.end(), regs.begin());
  std::size_t n = kFrameRegs;
  if (reliability_on()) {
    // One extra register: the header checksum in the receiver bank's reg 7.
    // Computed over the intended values — a corrupted register lands with
    // an unchanged checksum and fails verification.
    regs[n++] = frame_checksum(header);
  }
  port(p).post(0, std::span<const std::uint32_t>(regs.data(), n), doorbell);
}

Transport::TxChannel::InFlight* Transport::find_inflight(TxChannel& ch,
                                                         std::uint8_t seq) {
  for (TxChannel::InFlight& rec : ch.inflight) {
    if (rec.seq == seq) return &rec;
  }
  return nullptr;
}

void Transport::arm_retx_timer(int p, TxChannel::InFlight& rec) {
  double timeout = static_cast<double>(tuning().reliability.ack_timeout);
  for (int i = 0; i < rec.retries; ++i) timeout *= kBackoff;
  const std::uint8_t seq = rec.seq;
  rec.retx_timer = runtime_.engine().call_after(
      static_cast<sim::Dur>(timeout), [this, p, seq] { on_ack_timeout(p, seq); });
}

void Transport::on_ack_timeout(int p, std::uint8_t seq) {
  // Scheduler context: no blocking. Hand the work to the rel service.
  TxChannel& ch = channel(p);
  TxChannel::InFlight* rec = find_inflight(ch, seq);
  if (rec == nullptr) return;  // ack won the race
  ++stats_.ack_timeouts;
  flight_.log(runtime_.engine().now(), obs::FlightCode::kAckTimeout,
              static_cast<std::uint16_t>(p),
              static_cast<std::uint32_t>(rec->retries), seq);
  retx_queue_.push_back(RetxRequest{p, seq});
  rel_event_->notify_all();
}

void Transport::on_nak(int p) {
  // The receiver rejected a frame (checksum or order); go-back-N resends
  // from the oldest unacknowledged frame.
  TxChannel& ch = channel(p);
  ++stats_.naks_received;
  if (ch.inflight.empty()) return;  // everything already acked: stale NAK
  const std::uint8_t seq = ch.inflight.front().seq;
  flight_.log(runtime_.engine().now(), obs::FlightCode::kNak,
              static_cast<std::uint16_t>(p), seq);
  retx_queue_.push_back(RetxRequest{p, seq});
  rel_event_->notify_all();
}

void Transport::rel_service_body() {
  for (;;) {
    if (retx_queue_.empty()) {
      rel_event_->wait();
      charge_service_wake();
    }
    while (!retx_queue_.empty()) {
      const RetxRequest req = retx_queue_.front();
      retx_queue_.pop_front();
      retransmit(req.port, req.seq);
    }
  }
}

void Transport::retransmit(int p, std::uint8_t seq) {
  TxChannel& ch = channel(p);
  TxChannel::InFlight* rec = find_inflight(ch, seq);
  if (rec == nullptr) return;  // acked while the request sat in the queue
  if (rec->retries >= kMaxRetries) {
    throw std::runtime_error(
        "host" + std::to_string(host_id_) + ": frame seq " +
        std::to_string(seq) + " exceeded " + std::to_string(kMaxRetries) +
        " retransmit attempts (link unrecoverable)");
  }
  rec->retx_timer.cancel();
  ++rec->retries;
  ++stats_.retransmits;
  flight_.log(runtime_.engine().now(), obs::FlightCode::kRetransmit,
              static_cast<std::uint16_t>(p),
              static_cast<std::uint32_t>(rec->retries), seq);
  // Header-only re-emission: the payload still sits in the credit-owned
  // staging slot (credits are released by the retiring ack, never earlier).
  // Copy what we need before blocking — the ack for the original emission
  // may retire the record while the register writes drain.
  const FrameHeader hdr = rec->hdr;
  const int doorbell = rec->doorbell;
  // Causal: the retransmit is a child of the ORIGINAL frame span, and that
  // span's wire context is re-staged so the receiver's spans link to the
  // original frame no matter which attempt delivered.
  const obs::TraceCtx wire = rec->wire_ctx;
  const Step frame = Step::under(*this, rec->causal_id);
  const Step retx =
      Step::leaf(*this, obs::SpanKind::kRetransmit, p, seq,
                 static_cast<std::uint64_t>(rec->retries));
  ch.emit_serial.acquire();
  post_frame(p, hdr, doorbell, wire);
  ch.emit_serial.release();
  if (TxChannel::InFlight* still = find_inflight(ch, seq)) {
    arm_retx_timer(p, *still);
  }
}

void Transport::window_write(int p, int window, host::Region region,
                             std::uint64_t off, std::span<const std::byte> src,
                             bool app_context) {
  sim::Engine& engine = runtime_.engine();
  ntb::NtbPort& out = port(p);
  const Step dma = Step::leaf(*this, obs::SpanKind::kDma, p, src.size());
  const std::uint64_t seg = timing().lut_segment_bytes;
  const bool overlap = app_context && tuning().overlap_segment_setup;
  const bool use_dma = runtime_.options().data_path == DataPath::kDma;
  // Overlapped mode: while segment i's data drains, the driver programs
  // segment i+1's DMA descriptor and LUT entry in parallel, so segment i+1
  // starts at max(transfer i done, setup i+1 done) instead of paying the
  // full setup serially. `setup_ready` is the virtual time the prefetched
  // descriptor for the *current* segment becomes valid.
  sim::Time setup_ready = 0;
  bool first = true;
  std::uint64_t done = 0;
  while (done < src.size()) {
    const std::uint64_t n = std::min<std::uint64_t>(seg, src.size() - done);
    if (app_context) {
      if (!overlap || first) {
        // Driver call: program the DMA descriptor and the LUT translation
        // entry for this segment (TimingParams::segment_setup).
        engine.wait_for(timing().segment_setup);
      } else {
        // Residual hand-off cost of the prefetched descriptor, then block
        // only if the concurrent setup has not finished yet.
        engine.wait_for(timing().segment_prefetch_overhead);
        if (engine.now() < setup_ready) engine.wait_until(setup_ready);
      }
    }
    if (overlap) {
      // The driver starts programming the NEXT segment now, while this
      // segment's transfer occupies the engine; setups serialize on the
      // driver thread.
      const sim::Time driver_free = std::max(setup_ready, engine.now());
      setup_ready = driver_free + timing().segment_setup;
    }
    out.program_window(window, region);
    const auto piece = src.subspan(done, n);
    if (use_dma) {
      bool ok = out.dma_write(window, off + done, piece,
                              /*descriptor_prefetched=*/overlap && !first);
      if (!ok) {
        if (!reliability_on()) {
          // Fail-fast contract (ntb_port.hpp): without the retry layer a
          // descriptor error is a hard, diagnosable failure, not a hang.
          throw std::runtime_error(
              out.name() +
              ": DMA descriptor error (reliability disabled; fail-fast)");
        }
        int attempts = 0;
        while (!ok) {
          if (attempts++ >= kDmaRetries) {
            throw std::runtime_error(
                out.name() + ": DMA descriptor error persisted after " +
                std::to_string(kDmaRetries) + " retries");
          }
          ++stats_.dma_retries;
          flight_.log(engine.now(), obs::FlightCode::kDmaError,
                      static_cast<std::uint16_t>(p),
                      static_cast<std::uint32_t>(attempts));
          out.clear_dma_error();
          // Re-program the descriptor from scratch (pays dma_setup again).
          ok = out.dma_write(window, off + done, piece,
                             /*descriptor_prefetched=*/false);
        }
      }
    } else {
      out.pio_write(window, off + done, piece);
    }
    done += n;
    first = false;
  }
}

std::vector<std::byte> Transport::build_message(
    const MessageHeader& header, std::span<const std::byte> payload) {
  std::vector<std::byte> msg(kMessageHeaderBytes + payload.size());
  write_message_header(msg, header);
  if (!payload.empty()) {
    std::memcpy(msg.data() + kMessageHeaderBytes, payload.data(),
                payload.size());
  }
  stamp_cause(msg);
  return msg;
}

void Transport::stamp_cause(std::span<std::byte> message) const {
  // Without a cause the header is left as it is, so with recording off its
  // causal fields stay zero.
  const obs::TraceCtx c = current_cause();
  if (!c.valid()) return;
  MessageHeader h = read_message_header(message);
  h.trace_id = c.trace_id;
  h.parent_span = c.parent;
  h.hop = c.hop;
  write_message_header(message, h);
}

void Transport::send_message_staged(int p,
                                    std::span<const std::byte> message) {
  const int next = peer_host(p);
  // The receiver's staging buffer for traffic arriving through its end of
  // this link.
  const host::Region staging =
      runtime_.host_transport(next).staging_in(peer_port(p));
  TxChannel& ch = channel(p);
  if (message.size() > ch.slot_bytes) {
    throw std::logic_error("staged message exceeds bypass staging slot");
  }
  const int slot = acquire_send_credit(p);
  const std::uint64_t slot_off =
      static_cast<std::uint64_t>(slot) * ch.slot_bytes;
  // The 64-byte message header goes through the head of the pre-mapped
  // bypass window as a plain PIO write; only the payload pays the
  // per-segment driver cost. This keeps a multi-hop Put's local latency in
  // line with a direct Put of the same size (Fig. 9a: 1 hop ~ 2 hops).
  {
    ntb::NtbPort& out = port(p);
    out.program_window(ntb::kBypassWindow, staging);
    out.pio_write(ntb::kBypassWindow, slot_off,
                  message.subspan(0, kMessageHeaderBytes));
  }
  window_write(p, ntb::kBypassWindow, staging, slot_off + kMessageHeaderBytes,
               message.subspan(kMessageHeaderBytes), /*app_context=*/true);
  const MessageHeader mh = read_message_header(message);
  FrameHeader f;
  f.kind = FrameKind::kStaged;
  f.origin_pe = static_cast<std::uint8_t>(leader_pe());  // link-level id
  f.target_pe = mh.target_pe;
  f.id = next_msg_id_++;
  f.c = static_cast<std::uint32_t>(message.size());
  f.d = static_cast<std::uint32_t>(slot_off);  // staging slot offset
  emit_frame_inflight(p, f, kDbDmaPut, slot, /*counts_as_delivery=*/false, 0);
  // The credit is released by the receiver's ACK doorbell; the call is
  // locally complete once the doorbell is rung (one-sided Put semantics).
}

void Transport::send_chunk(int p, std::span<const std::byte> payload,
                           std::uint32_t msg_id, std::uint64_t off,
                           std::uint32_t total) {
  const int next = peer_host(p);
  const host::Region staging =
      runtime_.host_transport(next).staging_in(peer_port(p));
  TxChannel& ch = channel(p);
  // One ScratchPad+Doorbell handshake per chunk: acquire a credit, deposit
  // the chunk in the credit's staging slot, notify. The ACK returns the
  // credit; with tx_credits > 1 the next chunk's staging overlaps this
  // chunk's in-flight ACK instead of ping-ponging with it.
  const int slot = acquire_send_credit(p);
  const std::uint64_t slot_off =
      static_cast<std::uint64_t>(slot) * ch.slot_bytes;
  window_write(p, ntb::kBypassWindow, staging, slot_off, payload,
               /*app_context=*/false);
  FrameHeader f;
  f.kind = FrameKind::kChunk;
  f.origin_pe = static_cast<std::uint8_t>(leader_pe());  // link-level id
  f.id = msg_id;
  f.a = off;                                      // offset within message
  f.b = static_cast<std::uint32_t>(payload.size());  // chunk size
  f.c = total;                                    // total message size
  f.d = static_cast<std::uint32_t>(slot_off);     // staging slot offset
  emit_frame_inflight(p, f, kDbDmaPut, slot, /*counts_as_delivery=*/false, 0);
}

void Transport::send_message_chunked(int p,
                                     std::span<const std::byte> message) {
  const std::uint64_t chunk = timing().bypass_chunk_bytes;
  const std::uint32_t msg_id = next_msg_id_++;
  const auto total = static_cast<std::uint32_t>(message.size());
  std::uint64_t off = 0;
  while (off < message.size()) {
    const std::uint64_t n = std::min<std::uint64_t>(chunk, message.size() - off);
    send_chunk(p, message.subspan(off, n), msg_id, off, total);
    off += n;
  }
}

void Transport::enqueue_outbound(OutboundItem item) {
  // The item crosses into the TX service process, so its cause travels
  // with it explicitly: the enqueuer's, one store-and-forward hop on.
  item.ctx = current_cause();
  if (item.ctx.valid()) ++item.ctx.hop;
  tx_queue_.push_back(std::move(item));
  tx_event_->notify_all();
}

// ---- application-context operations ------------------------------------------

void Transport::put(std::uint64_t heap_offset, std::span<const std::byte> src,
                    int target_pe, int origin_pe, int domain) {
  sim::Engine& engine = runtime_.engine();
  const Step root = Step::op(*this, origin_pe, obs::kFamilyPut, src.size());
  flight_.log(engine.now(), obs::FlightCode::kPut,
              static_cast<std::uint16_t>(target_pe),
              static_cast<std::uint32_t>(src.size()));
  engine.wait_for(timing().sw_overhead);
  ++stats_.puts_issued;
  if (src.empty()) return;
  SymmetricHeap& target_heap = runtime_.context(target_pe).heap();

  if (is_resident(target_pe)) {
    // Self or co-resident PE: shared-memory path, no NTB involved.
    local_put(heap_offset, src, target_pe);
    return;
  }

  const fabric::PortRoute r = route_to(target_pe);
  const bool full = runtime_.options().completion == CompletionMode::kFullDelivery;

  if (r.hops == 1) {
    // Direct path: DMA straight into the destination symmetric heap through
    // the LUT window (Fig. 4, "PE0 puts data to PE1's shmem buffer").
    std::uint64_t done = 0;
    for (const SymmetricHeap::Piece& piece :
         target_heap.pieces(heap_offset, src.size())) {
      window_write(r.port, ntb::kShmemWindow, piece.region, piece.region_off,
                   src.subspan(done, piece.len), /*app_context=*/true);
      done += piece.len;
    }
    const int slot = acquire_send_credit(r.port);
    if (full) ++outstanding_by_domain_[domain];
    FrameHeader f;
    f.kind = FrameKind::kDirectPut;
    f.origin_pe = static_cast<std::uint8_t>(origin_pe);
    f.target_pe = static_cast<std::uint8_t>(target_pe);
    f.id = next_op_id_++;
    f.a = heap_offset;
    f.b = static_cast<std::uint32_t>(src.size());
    emit_frame_inflight(r.port, f, kDbDmaPut, slot,
                        /*counts_as_delivery=*/full, domain);
    return;
  }

  // Multi-hop: stage whole sub-messages into the next hop's bypass buffer
  // (Fig. 4, "PE0 puts data to PE2's shmem buffer" via PE1). The service
  // threads forward from there; we are locally complete after staging.
  // With tx_credits > 1 the staging buffer is partitioned per credit, so a
  // sub-message is capped at one slot (and successive sub-messages overlap
  // in flight instead of serializing on one ACK).
  const std::uint64_t staging_cap =
      channel(r.port).slot_bytes - kMessageHeaderBytes;
  std::uint64_t off = 0;
  while (off < src.size()) {
    const std::uint64_t n =
        std::min<std::uint64_t>(staging_cap, src.size() - off);
    MessageHeader mh;
    mh.op = MsgOp::kPut;
    mh.origin_pe = static_cast<std::uint8_t>(origin_pe);
    mh.target_pe = static_cast<std::uint8_t>(target_pe);
    mh.op_id = next_op_id_++;
    mh.heap_offset = heap_offset + off;
    mh.payload_len = static_cast<std::uint32_t>(n);
    const auto msg = build_message(mh, src.subspan(off, n));
    if (full) track_delivery(domain, mh.op_id);
    send_message_staged(r.port, msg);
    off += n;
  }
}

void Transport::local_put(std::uint64_t heap_offset,
                          std::span<const std::byte> src, int target_pe) {
  runtime_.context(target_pe).heap().write(heap_offset, src);
  ++stats_.puts_delivered;
  charge_local_copy(src.size());
  heap_event_->notify_all();
}

std::uint32_t Transport::get_nbi(std::uint64_t heap_offset,
                                 std::span<std::byte> dst, int source_pe,
                                 int origin_pe, int domain) {
  const Step root = Step::op(*this, origin_pe, obs::kFamilyGet, dst.size());
  return issue_get(heap_offset, dst, source_pe, origin_pe, domain);
}

std::uint32_t Transport::issue_get(std::uint64_t heap_offset,
                                   std::span<std::byte> dst, int source_pe,
                                   int origin_pe, int domain) {
  flight_.log(runtime_.engine().now(), obs::FlightCode::kGet,
              static_cast<std::uint16_t>(source_pe),
              static_cast<std::uint32_t>(dst.size()));
  const std::uint32_t op_id = next_op_id_++;
  pending_gets_[op_id] = PendingGet{dst.data(),
                                    static_cast<std::uint32_t>(dst.size()),
                                    false, domain};
  const fabric::PortRoute r = route_to(source_pe);
  const int slot = acquire_send_credit(r.port);
  FrameHeader f;
  f.kind = FrameKind::kGetRequest;
  f.origin_pe = static_cast<std::uint8_t>(origin_pe);
  f.target_pe = static_cast<std::uint8_t>(source_pe);
  f.id = op_id;
  f.a = heap_offset;
  f.b = static_cast<std::uint32_t>(dst.size());
  emit_frame_inflight(r.port, f, kDbDmaGet, slot, /*counts_as_delivery=*/false,
                      0);
  ++stats_.gets_issued;
  return op_id;
}

void Transport::get(std::uint64_t heap_offset, std::span<std::byte> dst,
                    int source_pe, int origin_pe) {
  sim::Engine& engine = runtime_.engine();
  const Step root = Step::op(*this, origin_pe, obs::kFamilyGet, dst.size());
  engine.wait_for(timing().sw_overhead);
  if (dst.empty()) return;
  if (is_resident(source_pe)) {
    // Self or co-resident source: shared-memory read.
    runtime_.context(source_pe).heap().read(heap_offset, dst);
    charge_local_copy(dst.size());
    ++stats_.gets_issued;
    return;
  }
  const std::uint32_t op_id =
      issue_get(heap_offset, dst, source_pe, origin_pe, kDefaultDomain);
  bool waited = false;
  while (!pending_gets_.at(op_id).done) {
    op_event_->wait();
    waited = true;
  }
  if (waited) charge_service_wake();  // requester thread reschedule
  pending_gets_.erase(op_id);
}

std::uint64_t Transport::atomic(AtomicOp op, std::uint64_t heap_offset,
                                int target_pe, std::uint8_t width,
                                std::uint64_t operand1,
                                std::uint64_t operand2, int origin_pe) {
  sim::Engine& engine = runtime_.engine();
  const Step root = Step::op(*this, origin_pe, obs::kFamilyAtomic, width);
  flight_.log(engine.now(), obs::FlightCode::kAtomic,
              static_cast<std::uint16_t>(target_pe),
              static_cast<std::uint32_t>(op));
  engine.wait_for(timing().sw_overhead);
  ++stats_.atomics_issued;
  if (is_resident(target_pe)) {
    // The engine serializes processes, and apply_atomic performs its
    // read-modify-write without yielding, so this is atomic with respect to
    // the service thread executing remote requests.
    const std::uint64_t old =
        apply_atomic(op, target_pe, heap_offset, width, operand1, operand2);
    heap_event_->notify_all();
    return old;
  }
  const std::uint32_t op_id = next_op_id_++;
  pending_atomics_[op_id] = PendingAtomic{};
  MessageHeader mh;
  mh.op = MsgOp::kAtomicRequest;
  mh.origin_pe = static_cast<std::uint8_t>(origin_pe);
  mh.target_pe = static_cast<std::uint8_t>(target_pe);
  mh.width = width;
  mh.op_id = op_id;
  mh.heap_offset = heap_offset;
  mh.payload_len = 0;
  mh.atomic_op = static_cast<std::uint8_t>(op);
  mh.operand1 = operand1;
  mh.operand2 = operand2;
  const auto msg = build_message(mh, {});
  const fabric::PortRoute r = route_to(target_pe);
  send_message_chunked(r.port, msg);  // single 64-byte control chunk
  bool waited = false;
  while (!pending_atomics_.at(op_id).done) {
    op_event_->wait();
    waited = true;
  }
  if (waited) charge_service_wake();
  const std::uint64_t old = pending_atomics_.at(op_id).old_value;
  pending_atomics_.erase(op_id);
  return old;
}

void Transport::atomic_post(AtomicOp op, std::uint64_t heap_offset,
                            int target_pe, std::uint8_t width,
                            std::uint64_t operand1, int origin_pe,
                            int domain) {
  sim::Engine& engine = runtime_.engine();
  const Step root = Step::op(*this, origin_pe, obs::kFamilyAtomic, width);
  flight_.log(engine.now(), obs::FlightCode::kAtomic,
              static_cast<std::uint16_t>(target_pe),
              static_cast<std::uint32_t>(op));
  engine.wait_for(timing().sw_overhead);
  ++stats_.atomics_issued;
  if (op == AtomicOp::kFetch || op == AtomicOp::kFetchAdd ||
      op == AtomicOp::kFetchInc || op == AtomicOp::kCompareSwap ||
      op == AtomicOp::kSwap) {
    throw std::invalid_argument("atomic_post requires a non-fetching op");
  }
  if (is_resident(target_pe)) {
    apply_atomic(op, target_pe, heap_offset, width, operand1, 0);
    heap_event_->notify_all();
    return;
  }
  const bool full =
      runtime_.options().completion == CompletionMode::kFullDelivery;
  MessageHeader mh;
  mh.op = MsgOp::kAtomicRequest;
  mh.origin_pe = static_cast<std::uint8_t>(origin_pe);
  mh.target_pe = static_cast<std::uint8_t>(target_pe);
  mh.width = width;
  mh.op_id = next_op_id_++;
  mh.heap_offset = heap_offset;
  mh.atomic_op = static_cast<std::uint8_t>(op);
  mh.flags = kMsgFlagNoReply;
  mh.operand1 = operand1;
  const auto msg = build_message(mh, {});
  if (full) track_delivery(domain, mh.op_id);
  send_message_chunked(route_to(target_pe).port, msg);
}

void Transport::put_signal(std::uint64_t heap_offset,
                           std::span<const std::byte> src,
                           std::uint64_t signal_offset,
                           std::uint64_t signal_value, AtomicOp signal_op,
                           int target_pe, int origin_pe, int domain) {
  put(heap_offset, src, target_pe, origin_pe, domain);
  // The signal update travels the same path as the data (deterministic
  // single-path routing, per-link FIFO and in-order forwarding), so the
  // target observes data before signal.
  atomic_post(signal_op, signal_offset, target_pe, 8, signal_value, origin_pe,
              domain);
}

void Transport::quiet(int domain) {
  // Drain pending non-blocking gets of the domain first (they complete via
  // op_event).
  auto in_domain = [domain](int d) {
    return domain == kAllDomains || d == domain;
  };
  // Hash-order iteration over the pending tables is banned in sim-visible
  // code (detlint: no-unordered-iteration) — these sweeps run on key-sorted
  // snapshots instead, so the drain order is a pure function of the issued
  // op ids, not of rehash history.
  for (;;) {
    bool all_done = true;
    for (const auto& [id, g] : sorted_items(pending_gets_)) {
      if (!g.done && in_domain(g.domain)) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    op_event_->wait();
  }
  for (const std::uint32_t id : sorted_keys(pending_gets_)) {
    const PendingGet& g = pending_gets_.at(id);
    if (g.done && in_domain(g.domain)) pending_gets_.erase(id);
  }
  if (runtime_.options().completion == CompletionMode::kFullDelivery) {
    for (;;) {
      std::uint64_t pending = 0;
      for (const auto& [d, count] : sorted_items(outstanding_by_domain_)) {
        if (in_domain(d)) pending += count;
      }
      if (pending == 0) break;
      quiet_event_->wait();
    }
  }
  // kLocalDma: the paper-prototype discipline — locally issued DMA is
  // synchronous in this model, so nothing further to wait for.
}

void Transport::fence() {
  // Frames to a given target travel a single deterministic path and each
  // link channel is FIFO, so put-put ordering per target already holds.
  runtime_.engine().wait_for(timing().sw_overhead);
}

void Transport::wait_heap_change() { heap_event_->wait(); }

// ---- barrier ------------------------------------------------------------------

bool Transport::use_tree_barrier() const {
  // The doorbell circulation is only defined on a ring-like fabric (the
  // rightward walk from host 0 must visit everyone and return); non-ring
  // fabrics always run the token tree, ring fabrics may opt in.
  return tuning().topology_collectives || !fabric().topology().ring_like();
}

void Transport::barrier(int origin_pe) {
  // The caller's quiet() semantics are per-PE; PE-level code (Context)
  // drains its own domains before calling. Here we only run the
  // synchronization protocol.
  sim::Engine& engine = runtime_.engine();
  // Each participating PE roots its own barrier trace; the trees link
  // across hosts through the token frames' wire contexts (a leader's tree
  // spans its whole subtree of the token exchange).
  const Step root = Step::op(*this, origin_pe, obs::kFamilyBarrier, 0);
  flight_.log(engine.now(), obs::FlightCode::kBarrier,
              static_cast<std::uint16_t>(origin_pe));
  const sim::Time barrier_t0 = engine.now();
  engine.wait_for(timing().sw_overhead);

  const int k = pes_per_host();
  const std::uint64_t my_round = local_barrier_round_;
  ++local_barrier_arrived_;
  if (origin_pe != leader_pe()) {
    // Non-leader resident: wait for the leader to complete the inter-host
    // round (intra-host synchronization over shared memory).
    local_barrier_event_->notify_all();
    bool waited = false;
    while (local_barrier_round_ == my_round) {
      local_barrier_event_->wait();
      waited = true;
    }
    if (waited) charge_service_wake();
    return;
  }

  // Leader: gather all residents first.
  while (local_barrier_arrived_ < k) local_barrier_event_->wait();
  local_barrier_arrived_ -= k;

  if (use_tree_barrier()) {
    barrier_leader_tree();
  } else {
    barrier_leader_ring();
  }
  ++stats_.barriers_completed;
  obs_barrier_hist_->record(static_cast<std::uint64_t>(engine.now() - barrier_t0));
  // Release the residents.
  ++local_barrier_round_;
  local_barrier_event_->notify_all();
}

void Transport::barrier_leader_ring() {
  auto consume = [&](std::uint64_t& tokens) {
    bool waited = false;
    while (tokens == 0) {
      barrier_event_->wait();
      waited = true;
    }
    if (waited) charge_service_wake();  // blocked PE thread reschedule
    --tokens;
  };
  ntb::NtbPort& right = port(static_cast<int>(fabric::Direction::kRight));
  if (host_id_ == 0) {
    // Host 0 initiates the start round, closes it, then initiates the end
    // round and waits for it to circulate fully (Fig. 6 steps 1 and 3).
    right.ring_doorbell(kDbBarrierStart);
    consume(barrier_start_tokens_);
    right.ring_doorbell(kDbBarrierEnd);
    consume(barrier_end_tokens_);
  } else {
    consume(barrier_start_tokens_);
    right.ring_doorbell(kDbBarrierStart);
    consume(barrier_end_tokens_);
    right.ring_doorbell(kDbBarrierEnd);
  }
}

void Transport::barrier_leader_tree() {
  // Two-phase tree rooted at host 0: every leader consumes one up-token per
  // child, non-roots then report up and wait for the release; the root's
  // down-tokens release the tree top-down, each host relaying to its
  // children. Tokens are ordinary kBarrierToken messages on the data path,
  // so barrier latency couples to in-flight receive work exactly as the
  // ring protocol's doorbells do (the Fig. 10 effect survives the topology
  // change).
  auto consume = [&](std::uint64_t& tokens, std::uint64_t need) {
    bool waited = false;
    while (tokens < need) {
      barrier_event_->wait();
      waited = true;
    }
    if (waited) charge_service_wake();  // blocked PE thread reschedule
    tokens -= need;
  };
  consume(barrier_up_tokens_, barrier_children_.size());
  if (barrier_parent_ >= 0) {
    send_barrier_token(barrier_parent_, /*phase=*/0);
    consume(barrier_down_tokens_, 1);
  }
  for (const int child : barrier_children_) {
    send_barrier_token(child, /*phase=*/1);
  }
}

void Transport::send_barrier_token(int dst_host, int phase) {
  MessageHeader mh;
  mh.op = MsgOp::kBarrierToken;
  mh.origin_pe = static_cast<std::uint8_t>(leader_pe());
  mh.target_pe = static_cast<std::uint8_t>(dst_host * pes_per_host());
  mh.op_id = next_op_id_++;
  mh.payload_len = 0;
  mh.operand1 = static_cast<std::uint64_t>(phase);
  const auto msg = build_message(mh, {});
  flight_.log(runtime_.engine().now(), obs::FlightCode::kBarrierToken,
              static_cast<std::uint16_t>(leader_pe()),
              static_cast<std::uint32_t>(phase));
  // Parent and children are routing-graph neighbours, so this is one hop
  // (one 64-byte control chunk).
  send_message_chunked(routes().next_port(host_id_, dst_host), msg);
  ++stats_.barrier_tokens_sent;
}

// ---- receive side -------------------------------------------------------------

void Transport::rx_service_body() {
  for (;;) {
    if (rx_queue_.empty()) {
      rx_event_->wait();
      charge_service_wake();  // Sleep & Wait -> scheduled (Fig. 5)
    }
    while (!rx_queue_.empty()) {
      const RxToken token = rx_queue_.front();
      rx_queue_.pop_front();
      switch (token.kind) {
        case RxTokenKind::kFrame:
          process_frame(token);
          break;
        case RxTokenKind::kBarrierStart:
          ++barrier_start_tokens_;
          flight_.log(runtime_.engine().now(), obs::FlightCode::kBarrierRx,
                      static_cast<std::uint16_t>(token.from), 0);
          barrier_event_->notify_all();
          break;
        case RxTokenKind::kBarrierEnd:
          ++barrier_end_tokens_;
          flight_.log(runtime_.engine().now(), obs::FlightCode::kBarrierRx,
                      static_cast<std::uint16_t>(token.from), 1);
          barrier_event_->notify_all();
          break;
      }
    }
  }
}

void Transport::tx_service_body() {
  for (;;) {
    if (tx_queue_.empty()) {
      tx_event_->wait();
      charge_service_wake();
    }
    while (!tx_queue_.empty()) {
      OutboundItem item = std::move(tx_queue_.front());
      tx_queue_.pop_front();
      // Each forwarded/responded item gets a kForward span on this host's
      // egress; the next hop parents under it (the span's context is
      // restamped into the message header and re-staged on the wire).
      const Step fwd = Step::forward(*this, item);
      switch (item.kind) {
        case OutboundItem::Kind::kRawFrame: {
          const int slot = acquire_send_credit(item.port);
          emit_frame_inflight(item.port, item.raw_frame, kDbDmaGet, slot,
                              /*counts_as_delivery=*/false, 0);
          break;
        }
        case OutboundItem::Kind::kMessage:
          // Restamp the embedded header so the next hop's dispatch parents
          // under this forward leg, not the origin's span.
          stamp_cause(item.message);
          send_message_chunked(item.port, item.message);
          break;
        case OutboundItem::Kind::kChunk:
          // Cut-through: one chunk of a message still arriving behind us.
          // The embedded header (in chunk 0) keeps the origin's context; the
          // wire sidecar carries this hop's forward leg.
          send_chunk(item.port, item.message, item.chunk_msg_id,
                     item.chunk_off, item.chunk_total);
          break;
      }
    }
  }
}

void Transport::ack_frame(int from) {
  ntb::NtbPort& in = port(from);
  if (!reliability_on()) {
    const std::uint32_t consumed = 1;
    in.post(kAckReg, std::span<const std::uint32_t>(&consumed, 1), kDbAck);
    return;
  }
  // The cumulative ack word lands in the *peer* bank's reg 7 — the same
  // register our own data-frame checksums travel in (reverse direction), so
  // the write+ring must hold that channel's emit serial. Only taken when
  // reliability is on: the paper path keeps its lock-free ack.
  TxChannel& ch = channel(from);
  const auto acked = static_cast<std::uint8_t>(
      rx_expected_seq_[static_cast<std::size_t>(from)] - 1);
  const std::uint32_t word = pack_ack_word(acked);
  ch.emit_serial.acquire();
  in.post(kAckReg, std::span<const std::uint32_t>(&word, 1), kDbAck);
  ch.emit_serial.release();
}

void Transport::nak_frame(int from) {
  // Payload-free reject signal; the doorbell register is not the ScratchPad
  // bank, so no emit serialization is needed.
  ++stats_.naks_sent;
  port(from).ring_doorbell(kDbNak);
}

bool Transport::accept_frame_seq(const RxToken& token, const FrameHeader& f) {
  std::uint8_t& expected =
      rx_expected_seq_[static_cast<std::size_t>(token.from)];
  const auto diff = static_cast<std::int8_t>(f.flags - expected);
  if (diff == 0) {
    ++expected;
    return true;
  }
  if (diff < 0) {
    // Duplicate of a frame we already consumed (our ack was lost or beaten
    // by the sender's timeout): drop it but re-ack so the sender retires it.
    ++stats_.frames_duplicate_dropped;
    flight_.log(runtime_.engine().now(), obs::FlightCode::kDupDrop,
                static_cast<std::uint16_t>(token.from), f.flags);
    ack_frame(token.from);
    return false;
  }
  // Gap: a predecessor was lost. Go-back-N drops successors silently and
  // NAKs so the sender rewinds to the oldest in-flight frame.
  ++stats_.frames_out_of_order_dropped;
  flight_.log(runtime_.engine().now(), obs::FlightCode::kOooDrop,
              static_cast<std::uint16_t>(token.from), f.flags, expected);
  nak_frame(token.from);
  return false;
}

void Transport::process_frame(const RxToken& token) {
  const int from = token.from;
  ntb::NtbPort& in = port(from);
  sim::Engine& engine = runtime_.engine();
  // Causal receive legs, both under the wire context the sender staged with
  // the frame: a closed kIrq span covers doorbell-latch -> service wake
  // (interrupt-delay attribution), then the service step covers the header
  // decode and dispatch below and causes whatever they send.
  const Step wire = Step::under(*this, token.ctx.parent);
  if (engine.now() > token.latched_at) {
    record_leaf(obs::SpanKind::kIrq, from, token.latched_at);
  }
  const Step svc = Step::service(*this, from);
  // The header registers were latched at doorbell arrival; reading the
  // latched bank costs the same non-posted register reads as the live one,
  // charged as one wait for the seven back-to-back reads.
  engine.wait_for(kFrameRegs * in.config().reg_read);
  std::array<std::uint32_t, kFrameRegs> regs{};
  std::copy_n(token.regs.begin(), kFrameRegs, regs.begin());
  const FrameHeader f = FrameHeader::unpack(regs);
  flight_.log(engine.now(), obs::FlightCode::kFrameRx,
              static_cast<std::uint16_t>(from),
              static_cast<std::uint32_t>(f.kind), f.id);
  if (reliability_on()) {
    // One more register read: the checksum the sender wrote into reg 7.
    engine.wait_for(in.config().reg_read);
    if (token.regs[kAckReg] != frame_checksum(regs)) {
      ++stats_.frames_corrupt_dropped;
      flight_.log(engine.now(), obs::FlightCode::kChecksumDrop,
                  static_cast<std::uint16_t>(from), 0, frame_checksum(regs));
      nak_frame(from);
      return;
    }
    if (!accept_frame_seq(token, f)) return;
  }
  ++stats_.frames_received;

  switch (f.kind) {
    case FrameKind::kDirectPut: {
      // Data already landed in the target PE's symmetric heap via the
      // sender's DMA; the frame is pure notification (plus flow control).
      ++stats_.puts_delivered;
      heap_event_->notify_all();
      ack_frame(from);
      return;
    }
    case FrameKind::kGetRequest: {
      ack_frame(from);  // fields captured; release the channel promptly
      if (is_resident(f.target_pe)) {
        serve_get_request(f);
      } else {
        OutboundItem item;
        item.kind = OutboundItem::Kind::kRawFrame;
        item.port = forward_port(f.target_pe, from);  // keep travelling
        item.raw_frame = f;
        enqueue_outbound(std::move(item));
      }
      return;
    }
    case FrameKind::kStaged: {
      const host::Region staging = staging_in(from);
      std::vector<std::byte> msg(f.c);
      auto src = fabric().host(host_id_).memory().bytes(staging, f.d, f.c);
      std::memcpy(msg.data(), src.data(), f.c);
      charge_local_copy(f.c);
      ack_frame(from);
      dispatch_message(std::move(msg), from);
      return;
    }
    case FrameKind::kChunk: {
      if (tuning().cut_through_forwarding && try_cut_through(f, from)) return;
      const std::uint64_t key = reassembly_key(f.origin_pe, f.id);
      Reassembly& re = reassembly_[key];
      if (re.data.empty()) re.data.resize(f.c);
      const host::Region staging = staging_in(from);
      auto src = fabric().host(host_id_).memory().bytes(staging, f.d, f.b);
      std::memcpy(re.data.data() + f.a, src.data(), f.b);
      charge_local_copy(f.b);
      re.received += f.b;
      ack_frame(from);
      if (re.received >= re.data.size()) {
        std::vector<std::byte> msg = std::move(re.data);
        reassembly_.erase(key);
        dispatch_message(std::move(msg), from);
      }
      return;
    }
  }
  throw std::runtime_error("unknown frame kind received");
}

bool Transport::try_cut_through(const FrameHeader& f, int from) {
  const std::uint64_t key = reassembly_key(f.origin_pe, f.id);
  auto it = cut_through_.find(key);
  if (it == cut_through_.end()) {
    // Only the first chunk of a multi-chunk message can start cut-through,
    // and only if it carries the whole network header (chunks arrive in
    // order on a FIFO link, so f.a == 0 comes first).
    if (f.a != 0 || f.b < kMessageHeaderBytes || f.b >= f.c) return false;
    const host::Region head_staging = staging_in(from);
    auto head = fabric().host(host_id_).memory().bytes(head_staging, f.d,
                                                       kMessageHeaderBytes);
    const MessageHeader mh = read_message_header(
        std::span<const std::byte>(head.data(), kMessageHeaderBytes));
    if (is_resident(mh.target_pe)) return false;  // terminal hop: reassemble
    // The first chunk's header fixes the egress port for the whole message
    // (later chunks are header-less and must follow the same port).
    it = cut_through_
             .emplace(key, CutThrough{next_msg_id_++, 0,
                                      forward_port(mh.target_pe, from)})
             .first;
    ++stats_.messages_forwarded;
  }
  CutThrough& ct = it->second;
  // Copy the chunk out of the staging slot and put it on the forward queue
  // immediately — the tail of the message is still hops behind us.
  const host::Region staging = staging_in(from);
  auto src = fabric().host(host_id_).memory().bytes(staging, f.d, f.b);
  OutboundItem item;
  item.kind = OutboundItem::Kind::kChunk;
  item.port = ct.out_port;
  item.message.assign(src.begin(), src.end());
  item.chunk_msg_id = ct.out_msg_id;
  item.chunk_off = f.a;
  item.chunk_total = f.c;
  charge_local_copy(f.b);
  stats_.bytes_forwarded += f.b;
  ct.forwarded += f.b;
  const bool last = ct.forwarded >= f.c;
  if (last) cut_through_.erase(it);
  ack_frame(from);
  enqueue_outbound(std::move(item));
  return true;
}

void Transport::dispatch_message(std::vector<std::byte> message, int from) {
  const MessageHeader mh = read_message_header(message);
  // The message's cause travels embedded in its header across staged and
  // chunked hops (the wire sidecar only survives one link), so everything
  // the message causes here runs under the header's context.
  const Step cause = Step::under(*this, mh.parent_span);
  if (!is_resident(mh.target_pe)) {
    ++stats_.messages_forwarded;
    stats_.bytes_forwarded += message.size();
    OutboundItem item;
    item.port = forward_port(mh.target_pe, from);
    item.message = std::move(message);
    enqueue_outbound(std::move(item));
    return;
  }
  // Terminal hop: a kCopy span covers the local delivery work.
  const Step copy = Step::leaf(*this, obs::SpanKind::kCopy, from,
                               mh.payload_len,
                               static_cast<std::uint64_t>(mh.op));
  const std::span<const std::byte> payload(
      message.data() + kMessageHeaderBytes, mh.payload_len);
  switch (mh.op) {
    case MsgOp::kPut:
      deliver_put(mh, payload);
      return;
    case MsgOp::kGetResponse:
      deliver_get_response(mh, payload);
      return;
    case MsgOp::kAtomicRequest:
      execute_atomic_request(mh);
      return;
    case MsgOp::kAtomicResponse:
      deliver_atomic_response(mh);
      return;
    case MsgOp::kDeliveryAck:
      note_delivery_completed_op(mh.op_id);
      return;
    case MsgOp::kBarrierToken:
      // Tree barrier: count the token for the leader and wake it.
      if (mh.operand1 == 0) {
        ++barrier_up_tokens_;
      } else {
        ++barrier_down_tokens_;
      }
      flight_.log(runtime_.engine().now(), obs::FlightCode::kBarrierRx,
                  static_cast<std::uint16_t>(from),
                  static_cast<std::uint32_t>(mh.operand1));
      barrier_event_->notify_all();
      return;
  }
  throw std::runtime_error("unknown message op received");
}

void Transport::deliver_put(const MessageHeader& h,
                            std::span<const std::byte> payload) {
  if (bug_ack_before_write_) {
    // Planted bug (see bug_ack_before_write_): notify waiters and
    // acknowledge delivery FIRST, landing the heap write in a same-timestamp
    // callback. A PE woken by the notify can observe the pre-write heap —
    // exactly the write-before-notify violation the checker must catch.
    charge_local_copy(payload.size());
    heap_event_->notify_all();
    if (runtime_.options().completion == CompletionMode::kFullDelivery) {
      send_delivery_ack(h.origin_pe, h.op_id);
    }
    sim::Engine& engine = runtime_.engine();
    engine.call_at(
        engine.now(),
        [this, hdr = h, data = std::vector<std::byte>(payload.begin(),
                                                      payload.end())] {
          runtime_.context(hdr.target_pe).heap().write(hdr.heap_offset, data);
          ++stats_.puts_delivered;
        });
    return;
  }
  runtime_.context(h.target_pe).heap().write(h.heap_offset, payload);
  ++stats_.puts_delivered;
  charge_local_copy(payload.size());
  heap_event_->notify_all();
  if (runtime_.options().completion == CompletionMode::kFullDelivery) {
    send_delivery_ack(h.origin_pe, h.op_id);
  }
}

void Transport::deliver_get_response(const MessageHeader& h,
                                     std::span<const std::byte> payload) {
  auto it = pending_gets_.find(h.op_id);
  if (it == pending_gets_.end()) {
    throw std::runtime_error("get response for unknown op id");
  }
  PendingGet& pg = it->second;
  if (payload.size() != pg.len) {
    throw std::runtime_error("get response size mismatch");
  }
  std::memcpy(pg.dst, payload.data(), payload.size());
  charge_local_copy(payload.size());
  pg.done = true;
  op_event_->notify_all();
  quiet_event_->notify_all();
}

void Transport::serve_get_request(const FrameHeader& f) {
  // Read the requested bytes out of the target PE's symmetric heap and
  // push them back toward the requester through the bypass path.
  std::vector<std::byte> data(f.b);
  runtime_.context(f.target_pe).heap().read(f.a, data);
  charge_local_copy(data.size());
  MessageHeader mh;
  mh.op = MsgOp::kGetResponse;
  mh.origin_pe = static_cast<std::uint8_t>(f.target_pe);
  mh.target_pe = f.origin_pe;
  mh.op_id = f.id;
  mh.payload_len = static_cast<std::uint32_t>(data.size());
  OutboundItem item;
  item.port = response_route_to(f.origin_pe).port;
  item.message = build_message(mh, data);
  enqueue_outbound(std::move(item));
}

std::uint64_t Transport::apply_atomic(AtomicOp op, int target_pe,
                                      std::uint64_t heap_offset,
                                      std::uint8_t width,
                                      std::uint64_t operand1,
                                      std::uint64_t operand2) {
  if (width != 4 && width != 8) {
    throw std::invalid_argument("atomic width must be 4 or 8");
  }
  SymmetricHeap& heap = runtime_.context(target_pe).heap();
  std::uint64_t old = 0;
  std::array<std::byte, 8> buf{};
  heap.read(heap_offset, std::span<std::byte>(buf.data(), width));
  std::memcpy(&old, buf.data(), width);
  if (width == 4) old &= 0xffffffffu;

  std::uint64_t next = old;
  bool write_back = true;
  switch (op) {
    case AtomicOp::kAdd:
    case AtomicOp::kFetchAdd:
      next = old + operand1;
      break;
    case AtomicOp::kInc:
    case AtomicOp::kFetchInc:
      next = old + 1;
      break;
    case AtomicOp::kCompareSwap:
      // operand2 = expected, operand1 = desired.
      if (old == operand2) {
        next = operand1;
      } else {
        write_back = false;
      }
      break;
    case AtomicOp::kSwap:
    case AtomicOp::kSet:
      next = operand1;
      break;
    case AtomicOp::kFetch:
      write_back = false;
      break;
    case AtomicOp::kAnd:
      next = old & operand1;
      break;
    case AtomicOp::kOr:
      next = old | operand1;
      break;
    case AtomicOp::kXor:
      next = old ^ operand1;
      break;
  }
  if (write_back) {
    std::memcpy(buf.data(), &next, width);
    heap.write(heap_offset, std::span<const std::byte>(buf.data(), width));
  }
  return old;
}

void Transport::execute_atomic_request(const MessageHeader& h) {
  const std::uint64_t old =
      apply_atomic(static_cast<AtomicOp>(h.atomic_op), h.target_pe,
                   h.heap_offset, h.width, h.operand1, h.operand2);
  heap_event_->notify_all();
  if ((h.flags & kMsgFlagNoReply) != 0) {
    // Fire-and-forget (signal) atomic: no response, but the origin still
    // tracks delivery under full-completion mode.
    if (runtime_.options().completion == CompletionMode::kFullDelivery) {
      send_delivery_ack(h.origin_pe, h.op_id);
    }
    return;
  }
  MessageHeader resp;
  resp.op = MsgOp::kAtomicResponse;
  resp.origin_pe = static_cast<std::uint8_t>(h.target_pe);
  resp.target_pe = h.origin_pe;
  resp.op_id = h.op_id;
  resp.payload_len = 0;
  resp.operand2 = old;
  OutboundItem item;
  item.port = response_route_to(h.origin_pe).port;
  item.message = build_message(resp, {});
  enqueue_outbound(std::move(item));
}

void Transport::deliver_atomic_response(const MessageHeader& h) {
  auto it = pending_atomics_.find(h.op_id);
  if (it == pending_atomics_.end()) {
    throw std::runtime_error("atomic response for unknown op id");
  }
  it->second.old_value = h.operand2;
  it->second.done = true;
  op_event_->notify_all();
}

void Transport::send_delivery_ack(std::uint8_t origin, std::uint32_t op_id) {
  MessageHeader mh;
  mh.op = MsgOp::kDeliveryAck;
  mh.origin_pe = static_cast<std::uint8_t>(leader_pe());
  mh.target_pe = origin;
  mh.op_id = op_id;
  mh.payload_len = 0;
  flight_.log(runtime_.engine().now(), obs::FlightCode::kDeliveryAck,
              static_cast<std::uint16_t>(origin), 0, op_id);
  OutboundItem item;
  item.port = response_route_to(origin).port;
  item.message = build_message(mh, {});
  enqueue_outbound(std::move(item));
  ++stats_.delivery_acks_sent;
}

// ---- Model-checker introspection (DESIGN.md §4i) ---------------------------

namespace {

std::uint64_t mc_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xffu)) * 0x100000001b3ull;
    v >>= 8;
  }
  return h;
}

std::uint64_t mc_mix_bytes(std::uint64_t h, std::span<const std::byte> bytes) {
  for (const std::byte b : bytes) {
    h = (h ^ static_cast<unsigned char>(b)) * 0x100000001b3ull;
  }
  return mc_mix(h, bytes.size());
}

std::uint64_t mc_frame(std::uint64_t h, const FrameHeader& f) {
  h = mc_mix(h, static_cast<std::uint64_t>(f.kind));
  h = mc_mix(h, f.origin_pe);
  h = mc_mix(h, f.target_pe);
  h = mc_mix(h, f.flags);
  h = mc_mix(h, f.id);
  h = mc_mix(h, f.a);
  h = mc_mix(h, f.b);
  h = mc_mix(h, f.c);
  return mc_mix(h, f.d);
}

constexpr std::uint64_t kMcFnvOffset = 0xcbf29ce484222325ull;

}  // namespace

std::uint64_t Transport::state_hash() const {
  std::uint64_t h = kMcFnvOffset;
  // Per-adapter channel state, in port order (deterministic).
  for (std::size_t p = 0; p < tx_.size(); ++p) {
    const TxChannel& ch = *tx_[p];
    h = mc_mix(h, ch.slot.available());
    h = mc_mix(h, ch.free_slots.size());
    for (const int s : ch.free_slots) h = mc_mix(h, static_cast<std::uint64_t>(s));
    h = mc_mix(h, ch.inflight.size());
    for (const TxChannel::InFlight& rec : ch.inflight) {
      h = mc_mix(h, static_cast<std::uint64_t>(rec.stage_slot));
      h = mc_mix(h, rec.counts_as_delivery ? 1u : 0u);
      h = mc_mix(h, static_cast<std::uint64_t>(rec.delivery_domain));
      h = mc_mix(h, rec.seq);
      h = mc_mix(h, static_cast<std::uint64_t>(rec.doorbell));
      h = mc_frame(h, rec.hdr);
    }
    h = mc_mix(h, ch.next_seq);
    h = mc_mix(h, port(static_cast<int>(p)).state_hash());
  }
  // Service queues, in queue order (deterministic deques).
  h = mc_mix(h, rx_queue_.size());
  for (const RxToken& t : rx_queue_) {
    h = mc_mix(h, static_cast<std::uint64_t>(t.from));
    h = mc_mix(h, static_cast<std::uint64_t>(t.kind));
    for (const std::uint32_t r : t.regs) h = mc_mix(h, r);
  }
  h = mc_mix(h, tx_queue_.size());
  for (const OutboundItem& it : tx_queue_) {
    h = mc_mix(h, static_cast<std::uint64_t>(it.kind));
    h = mc_mix(h, static_cast<std::uint64_t>(it.port));
    h = mc_mix_bytes(h, it.message);
    h = mc_frame(h, it.raw_frame);
    h = mc_mix(h, it.chunk_msg_id);
    h = mc_mix(h, it.chunk_off);
    h = mc_mix(h, it.chunk_total);
  }
  h = mc_mix(h, retx_queue_.size());
  for (const RetxRequest& r : retx_queue_) {
    h = mc_mix(h, static_cast<std::uint64_t>(r.port));
    h = mc_mix(h, r.seq);
  }
  for (const std::uint8_t s : rx_expected_seq_) h = mc_mix(h, s);
  // Unordered containers: iterate key-sorted snapshots so the buckets'
  // iteration order cannot leak into the hash. The maps are tiny on the
  // model-checker configs that call this, so the O(n log n) copy is cheap.
  for (const std::uint64_t key : sorted_keys(reassembly_)) {
    const Reassembly& re = reassembly_.at(key);
    h = mc_mix(h, 1);
    h = mc_mix(h, key);
    h = mc_mix(h, re.received);
    h = mc_mix_bytes(h, re.data);
  }
  for (const std::uint64_t key : sorted_keys(cut_through_)) {
    const CutThrough& ct = cut_through_.at(key);
    h = mc_mix(h, 2);
    h = mc_mix(h, key);
    h = mc_mix(h, ct.out_msg_id);
    h = mc_mix(h, ct.forwarded);
    h = mc_mix(h, static_cast<std::uint64_t>(ct.out_port));
  }
  for (const std::uint32_t id : sorted_keys(pending_gets_)) {
    const PendingGet& pg = pending_gets_.at(id);
    h = mc_mix(h, 3);
    h = mc_mix(h, id);
    h = mc_mix(h, pg.len);
    h = mc_mix(h, pg.done ? 1u : 0u);
    h = mc_mix(h, static_cast<std::uint64_t>(pg.domain));
  }
  for (const std::uint32_t id : sorted_keys(pending_atomics_)) {
    h = mc_mix(h, 4);
    h = mc_mix(h, id);
    h = mc_mix(h, pending_atomics_.at(id).done ? 1u : 0u);
  }
  for (const auto& [domain, count] : sorted_items(outstanding_by_domain_)) {
    h = mc_mix(h, 5);
    h = mc_mix(h, static_cast<std::uint64_t>(domain));
    h = mc_mix(h, count);
  }
  for (const auto& [op, domain] : sorted_items(delivery_domain_of_op_)) {
    h = mc_mix(h, 6);
    h = mc_mix(h, op);
    h = mc_mix(h, static_cast<std::uint64_t>(domain));
  }
  // Barrier progress.
  h = mc_mix(h, barrier_start_tokens_);
  h = mc_mix(h, barrier_end_tokens_);
  h = mc_mix(h, barrier_up_tokens_);
  h = mc_mix(h, barrier_down_tokens_);
  h = mc_mix(h, static_cast<std::uint64_t>(local_barrier_arrived_));
  return mc_mix(h, local_barrier_round_);
}

std::string Transport::pending_summary() const {
  std::ostringstream oss;
  const std::string host = "host" + std::to_string(host_id_);
  for (std::size_t p = 0; p < tx_.size(); ++p) {
    const TxChannel& ch = *tx_[p];
    if (ch.slot.available() != ch.slot.capacity()) {
      oss << " [" << host << ".port" << p << " credits "
          << ch.slot.available() << "/" << ch.slot.capacity() << "]";
    }
    if (!ch.inflight.empty()) {
      oss << " [" << host << ".port" << p << " inflight="
          << ch.inflight.size() << "]";
    }
  }
  if (!rx_queue_.empty()) oss << " [" << host << " rx=" << rx_queue_.size() << "]";
  if (!tx_queue_.empty()) oss << " [" << host << " tx=" << tx_queue_.size() << "]";
  if (!retx_queue_.empty()) {
    oss << " [" << host << " retx=" << retx_queue_.size() << "]";
  }
  if (!reassembly_.empty()) {
    oss << " [" << host << " reassembly=" << reassembly_.size() << "]";
  }
  if (!cut_through_.empty()) {
    oss << " [" << host << " cut_through=" << cut_through_.size() << "]";
  }
  for (const std::uint32_t id : sorted_keys(pending_gets_)) {
    if (!pending_gets_.at(id).done) {
      oss << " [" << host << " get op" << id << " pending]";
    }
  }
  for (const std::uint32_t id : sorted_keys(pending_atomics_)) {
    if (!pending_atomics_.at(id).done) {
      oss << " [" << host << " atomic op" << id << " pending]";
    }
  }
  for (const auto& [domain, count] : sorted_items(outstanding_by_domain_)) {
    if (count != 0) {
      oss << " [" << host << " domain" << domain << " outstanding=" << count
          << "]";
    }
  }
  return oss.str();
}

bool Transport::quiescent() const { return pending_summary().empty(); }

void Transport::check_protocol_invariants() const {
  for (std::size_t p = 0; p < tx_.size(); ++p) {
    const TxChannel& ch = *tx_[p];
    const std::string where =
        "host" + std::to_string(host_id_) + ".port" + std::to_string(p);
    const std::size_t credits = ch.slot.capacity();
    // Credit conservation: a Resource credit is only ever granted against a
    // physically free staging slot, so available() can never exceed the
    // free list. The converse inequality is legitimately transient:
    // Resource::release hands a contended unit to a queued waiter without
    // incrementing available_, so between on_ack freeing the slot and the
    // woken sender popping it, free_slots runs ahead of available().
    if (ch.slot.available() > ch.free_slots.size()) {
      throw ProtocolViolation(
          where + ": credit ledger mismatch — " +
          std::to_string(ch.slot.available()) + " available credits vs " +
          std::to_string(ch.free_slots.size()) + " free staging slots");
    }
    if (ch.free_slots.size() + ch.inflight.size() > credits) {
      throw ProtocolViolation(
          where + ": " + std::to_string(ch.free_slots.size()) + " free + " +
          std::to_string(ch.inflight.size()) + " in-flight slots exceed " +
          std::to_string(credits) + " credits");
    }
    // Staging-slot partition: every slot id in range, no slot both free and
    // owned by an in-flight frame, no slot counted twice.
    std::vector<bool> seen(credits, false);
    auto claim = [&](int slot, const char* kind) {
      if (slot < 0 || static_cast<std::size_t>(slot) >= credits) {
        throw ProtocolViolation(where + ": " + kind + " staging slot " +
                                std::to_string(slot) + " out of range");
      }
      if (seen[static_cast<std::size_t>(slot)]) {
        throw ProtocolViolation(where + ": staging slot " +
                                std::to_string(slot) +
                                " claimed twice (" + kind + ")");
      }
      seen[static_cast<std::size_t>(slot)] = true;
    };
    for (const int s : ch.free_slots) claim(s, "free");
    for (const TxChannel::InFlight& rec : ch.inflight) {
      claim(rec.stage_slot, "in-flight");
    }
    // Go-back-N window discipline: in-flight sequence numbers are
    // consecutive mod 256 and end just below the channel's next_seq.
    if (reliability_on() && !ch.inflight.empty()) {
      const std::size_t n = ch.inflight.size();
      for (std::size_t i = 0; i < n; ++i) {
        const auto expect = static_cast<std::uint8_t>(
            ch.next_seq - static_cast<std::uint8_t>(n - i));
        if (ch.inflight[i].seq != expect) {
          throw ProtocolViolation(
              where + ": in-flight seq[" + std::to_string(i) + "]=" +
              std::to_string(ch.inflight[i].seq) + " breaks the window (want " +
              std::to_string(expect) + ", next_seq=" +
              std::to_string(ch.next_seq) + ")");
        }
      }
    }
  }
}

}  // namespace ntbshmem::shmem
