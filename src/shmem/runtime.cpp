#include "shmem/runtime.hpp"

#include <cstring>
#include <ostream>
#include <stdexcept>

#include "backend/backend.hpp"
#include "backend/des/des_backend.hpp"
#include "backend/shm/shm_backend.hpp"
#include "common/fnv.hpp"
#include "obs/export.hpp"
#include "shmem/collectives.hpp"

namespace ntbshmem::shmem {

// ---- CurrentContextBinder ----------------------------------------------------
//
// The PE identity rides on the simulated *process*, not the OS thread:
// under the fiber backend every PE shares one thread, so a thread_local
// binding would be clobbered at each process switch (all PEs would answer
// as whichever bound last). Process::user_binding() follows the process
// across blocks under both backends.
//
// On the shm backend a PE is a fork()ed OS process with no simulated
// process to ride on; the binding then lives in a process-global — each
// child is single-threaded and owns exactly one PE for its whole life, so
// the global is written once after fork and read thereafter.

namespace {
// detlint:allow(no-mutable-static): per-forked-process PE binding for the shm backend; each child process is single-threaded and binds exactly once
Context* g_process_context = nullptr;
}  // namespace

CurrentContextBinder::CurrentContextBinder(Context* ctx) {
  if (sim::Process* p = sim::current_process()) {
    p->set_user_binding(ctx);
  } else {
    g_process_context = ctx;
  }
}

CurrentContextBinder::~CurrentContextBinder() {
  if (sim::Process* p = sim::current_process()) {
    p->set_user_binding(nullptr);
  } else {
    g_process_context = nullptr;
  }
}

Context* Runtime::current() {
  sim::Process* p = sim::current_process();
  if (p != nullptr) return static_cast<Context*>(p->user_binding());
  return g_process_context;
}

// ---- Context -------------------------------------------------------------------

Context::Context(Runtime& runtime, int pe)
    : runtime_(runtime),
      pe_(pe),
      heap_(runtime.backend().heap_arena(pe),
            runtime.backend().heap_geometry().first,
            runtime.backend().heap_geometry().second),
      chan_(runtime.backend().make_channel(pe)) {
  // Reserve the collective scratch block at the bottom of every symmetric
  // heap so token counters and the reduction pipeline buffer sit at
  // identical offsets on all PEs (before any user allocation can skew the
  // layout).
  auto scratch = heap_.allocate(CollectiveScratch::kTotalBytes, 64);
  if (!scratch || *scratch != 0) {
    throw std::logic_error("collective scratch must occupy heap offset 0");
  }
  // The default completion domain for this PE's ctx-less operations.
  ctx_domains_.push_back(chan_->allocate_domain());
}

Context::~Context() = default;

int Context::npes() const { return runtime_.npes(); }

Transport& Context::transport() const {
  return runtime_.host_transport(pe_ / runtime_.options().pes_per_host);
}


void Context::check_pe(int pe, const char* what) const {
  if (pe < 0 || pe >= npes()) {
    throw std::out_of_range(std::string(what) + ": PE out of range");
  }
}

void* Context::sym_malloc(std::size_t size) {
  auto off = heap_.allocate(size);
  barrier_all();  // shmem_malloc is collective with an implicit barrier
  return off ? heap_.ptr(*off) : nullptr;
}

void* Context::sym_calloc(std::size_t count, std::size_t size) {
  // Zero BEFORE the collective exit barrier: once any PE returns from
  // shmem_calloc it may immediately put into our copy, and a local memset
  // after the barrier would wipe that delivery (the barrier releases PEs in
  // ring order, so the race is real — caught by the histogram example).
  auto off = heap_.allocate(count * size);
  if (off) std::memset(heap_.ptr(*off), 0, count * size);
  barrier_all();
  return off ? heap_.ptr(*off) : nullptr;
}

void* Context::sym_align(std::size_t alignment, std::size_t size) {
  auto off = heap_.allocate(size, alignment);
  barrier_all();
  return off ? heap_.ptr(*off) : nullptr;
}

void* Context::sym_realloc(void* ptr, std::size_t size) {
  if (ptr == nullptr) return sym_malloc(size);
  const std::uint64_t off = symmetric_offset(ptr);
  auto new_off = heap_.reallocate(off, size);
  barrier_all();
  return new_off ? heap_.ptr(*new_off) : nullptr;
}

void Context::sym_free(void* ptr) {
  if (ptr != nullptr) {
    heap_.free(symmetric_offset(ptr));
  }
  barrier_all();
}

std::uint64_t Context::symmetric_offset(const void* p) const {
  auto off = heap_.offset_of(p);
  if (!off) {
    throw std::invalid_argument(
        "address is not in the symmetric heap of this PE");
  }
  return *off;
}

void Context::putmem(void* dest, const void* src, std::size_t nbytes,
                     int target_pe) {
  check_pe(target_pe, "putmem");
  if (nbytes == 0) return;
  chan_->put(symmetric_offset(dest),
             std::span<const std::byte>(static_cast<const std::byte*>(src),
                                        nbytes),
             target_pe, default_domain());
}

void Context::getmem(void* dest, const void* src, std::size_t nbytes,
                     int source_pe) {
  check_pe(source_pe, "getmem");
  if (nbytes == 0) return;
  chan_->get(symmetric_offset(src),
             std::span<std::byte>(static_cast<std::byte*>(dest), nbytes),
             source_pe);
}

void Context::putmem_nbi(void* dest, const void* src, std::size_t nbytes,
                         int target_pe) {
  // put() is locally blocking, which is a conforming implementation of the
  // non-blocking variant (completion still requires shmem_quiet).
  putmem(dest, src, nbytes, target_pe);
}

void Context::getmem_nbi(void* dest, const void* src, std::size_t nbytes,
                         int source_pe) {
  check_pe(source_pe, "getmem_nbi");
  if (nbytes == 0) return;
  if (source_pe == pe_) {
    getmem(dest, src, nbytes, source_pe);
    return;
  }
  chan_->get_nbi(symmetric_offset(src),
                 std::span<std::byte>(static_cast<std::byte*>(dest), nbytes),
                 source_pe, default_domain());
}

void Context::putmem_signal(void* dest, const void* src, std::size_t nbytes,
                            std::uint64_t* sig_addr, std::uint64_t signal,
                            AtomicOp sig_op, int target_pe) {
  check_pe(target_pe, "putmem_signal");
  const std::uint64_t sig_off = symmetric_offset(sig_addr);
  if (nbytes == 0) {
    chan_->atomic_post(sig_op, sig_off, target_pe, 8, signal,
                       default_domain());
    return;
  }
  chan_->put_signal(
      symmetric_offset(dest),
      std::span<const std::byte>(static_cast<const std::byte*>(src), nbytes),
      sig_off, signal, sig_op, target_pe, default_domain());
}

std::uint64_t Context::atomic(AtomicOp op, void* target, int target_pe,
                              std::uint8_t width, std::uint64_t operand1,
                              std::uint64_t operand2) {
  check_pe(target_pe, "atomic");
  return chan_->atomic(op, symmetric_offset(target), target_pe, width,
                       operand1, operand2);
}

int Context::domain_of(int ctx_handle) const {
  check_ctx_domain(ctx_handle);
  return ctx_domains_[static_cast<std::size_t>(ctx_handle)];
}

int Context::create_ctx_domain() {
  ctx_domains_.push_back(chan_->allocate_domain());
  ctx_alive_.push_back(true);
  return static_cast<int>(ctx_alive_.size()) - 1;
}

void Context::check_ctx_domain(int handle) const {
  if (handle < 0 || handle >= static_cast<int>(ctx_alive_.size()) ||
      !ctx_alive_[static_cast<std::size_t>(handle)]) {
    throw std::invalid_argument("invalid or destroyed shmem context");
  }
}

void Context::destroy_ctx_domain(int handle) {
  check_ctx_domain(handle);
  if (handle == 0) {
    throw std::invalid_argument("the default context cannot be destroyed");
  }
  chan_->quiet(domain_of(handle));  // destroy completes its ops
  ctx_alive_[static_cast<std::size_t>(handle)] = false;
}

void Context::ctx_putmem(int handle, void* dest, const void* src,
                         std::size_t nbytes, int target_pe) {
  const int domain = domain_of(handle);
  check_pe(target_pe, "ctx_putmem");
  if (nbytes == 0) return;
  chan_->put(symmetric_offset(dest),
             std::span<const std::byte>(static_cast<const std::byte*>(src),
                                        nbytes),
             target_pe, domain);
}

void Context::ctx_getmem_nbi(int handle, void* dest, const void* src,
                             std::size_t nbytes, int source_pe) {
  const int domain = domain_of(handle);
  check_pe(source_pe, "ctx_getmem_nbi");
  if (nbytes == 0) return;
  if (source_pe == pe_) {
    getmem(dest, src, nbytes, source_pe);
    return;
  }
  chan_->get_nbi(symmetric_offset(src),
                 std::span<std::byte>(static_cast<std::byte*>(dest), nbytes),
                 source_pe, domain);
}

void Context::ctx_quiet(int handle) { chan_->quiet(domain_of(handle)); }

void Context::quiet() {
  // Drain only this PE's domains (co-resident PEs share the transport).
  for (std::size_t h = 0; h < ctx_domains_.size(); ++h) {
    if (ctx_alive_[h]) chan_->quiet(ctx_domains_[h]);
  }
}
void Context::fence() { chan_->fence(); }
void Context::barrier_all() {
  quiet();
  chan_->barrier();
}
void Context::wait_heap_change() { chan_->wait_heap_change(); }

void Context::mark_initialized() { initialized_ = true; }
void Context::mark_finalized() { initialized_ = false; }

// ---- Runtime --------------------------------------------------------------------

namespace {
// Sampling window of each link's busy-ns utilization series.
constexpr sim::Dur kLinkUtilWindow = 1'000'000;  // 1 ms
}  // namespace

Runtime::Runtime(const RuntimeOptions& options)
    : options_(options) {
  if (options_.pes_per_host < 1) {
    throw std::invalid_argument("pes_per_host must be >= 1");
  }
  if (options_.npes < 2 || options_.npes % options_.pes_per_host != 0) {
    throw std::invalid_argument(
        "npes must be a positive multiple of pes_per_host (>= 2)");
  }
  if (options_.backend == backend::Kind::kSim && options_.num_hosts() < 2) {
    throw std::invalid_argument("the switchless fabric needs >= 2 hosts");
  }
  if (options_.backend == backend::Kind::kShm && options_.pes_per_host != 1) {
    throw std::invalid_argument(
        "the shm backend maps one PE per process (pes_per_host must be 1)");
  }
  if (options_.npes > 255) {
    throw std::invalid_argument("PE ids must fit in the 8-bit wire format");
  }
  if (options_.tuning.reliability.ack_timeout <= 0) {
    throw std::invalid_argument("ReliabilityParams: ack_timeout > 0 required");
  }
  // Schedule auditing must switch on before anything is queued on the
  // engine so the digest covers every dispatch.
  if (options_.schedule_digest) engine_.enable_schedule_digest();
  // Observability: the hub is always attached (counter increments are one
  // pointer-deref adds and never touch the engine, so golden times are
  // unaffected); span recording is gated separately by ObsOptions. The
  // timeline draws transport spans from the causal recorder, so spans need
  // it on too.
  obs_.tracer.set_enabled(options_.obs.spans_enabled);
  obs_.causal.set_enabled(options_.obs.causal_enabled ||
                          options_.obs.spans_enabled);
  engine_.attach_obs(&obs_);
  // The fault plan is always attached: an all-zero spec short-circuits at
  // every site without waits or PRNG draws, so the paper-mode golden times
  // are bit-identical with the plan in place (asserted by pipeline_test).
  {
    sim::FaultSpec spec = options_.faults;
    // Barrier doorbells have no retransmit path (the Fig. 6 circulation is
    // a bare doorbell, not a frame), so the model treats them as a reliable
    // control path and never drops them.
    spec.doorbell_drop_mask &= static_cast<std::uint16_t>(
        ~((1u << kDbBarrierStart) | (1u << kDbBarrierEnd)));
    fault_plan_ = std::make_unique<sim::FaultPlan>(options_.fault_seed, spec);
    // Injections show up on the exported timeline as instant events.
    fault_plan_->bind_tracer(&obs_.tracer);
    engine_.attach_faults(fault_plan_.get());
  }
  if (options_.backend == backend::Kind::kSim) {
    fabric_ = std::make_unique<fabric::Fabric>(engine_,
                                               options_.fabric_config());
    // Routing/topology compatibility: the legacy right-only circulation is
    // only defined where port 0 walks a ring, and dimension-order needs
    // torus coordinates. Checked here rather than deep in
    // RoutingTable::build so the error names the RuntimeOptions fields to
    // change.
    {
      const fabric::Topology& topo = fabric_->topology();
      if (options_.routing == fabric::RoutingMode::kRightOnly &&
          !topo.ring_like()) {
        throw std::invalid_argument(
            "RoutingMode::kRightOnly requires a ring-like topology; use "
            "kShortest (or kDimensionOrder on a 2-D torus)");
      }
      if (options_.routing == fabric::RoutingMode::kDimensionOrder &&
          topo.kind() != fabric::TopologyKind::kTorus2D) {
        throw std::invalid_argument(
            "RoutingMode::kDimensionOrder is only defined on kTorus2D "
            "topologies");
      }
      // Build the table eagerly so a misconfigured fabric fails at Runtime
      // construction instead of at the first multi-hop operation. Pure
      // computation: no simulated time passes, no events are queued.
      fabric_->routing(options_.routing);
    }
    // Per-link utilization windows feed both the Perfetto congestion series
    // and the trace artifact's tracecheck oracle. Pure arithmetic inside the
    // link accounting — never touches the engine — but only armed when some
    // recording is on, so benchmark runs allocate nothing.
    if (options_.obs.spans_enabled || options_.obs.causal_enabled) {
      for (int i = 0; i < fabric_->num_links(); ++i) {
        fabric_->link(i).set_util_window(kLinkUtilWindow);
      }
    }
    for (const sim::LinkFlap& flap : fault_plan_->spec().link_flaps) {
      if (flap.up_at < flap.down_at || flap.down_at < 0) {
        throw std::invalid_argument("LinkFlap: need 0 <= down_at <= up_at");
      }
      engine_.call_at(flap.down_at, [this, flap] {
        fabric_->set_link_up(flap.link, false);
      });
      engine_.call_at(flap.up_at,
                      [this, flap] { fabric_->set_link_up(flap.link, true); });
    }
    transports_.reserve(static_cast<std::size_t>(options_.num_hosts()));
    for (int h = 0; h < options_.num_hosts(); ++h) {
      transports_.push_back(std::make_unique<Transport>(*this, h));
    }
    backend_ = std::make_unique<backend::DesBackend>(*this);
  } else {
    // Real processes over a shared-memory segment: no simulated fabric, no NTB
    // transports — the segment mapping plus futex doorbells are the whole
    // data path (DESIGN.md §4j).
    backend_ = std::make_unique<backend::ShmBackend>(*this);
  }
  contexts_.reserve(static_cast<std::size_t>(options_.npes));
  for (int pe = 0; pe < options_.npes; ++pe) {
    contexts_.push_back(std::make_unique<Context>(*this, pe));
  }
  // Services start only after every transport exists (forwarding resolves
  // neighbour staging regions at send time).
  for (auto& t : transports_) {
    t->start_services();
  }
}

Runtime::~Runtime() {
  // Unwind the service daemons while everything they touch still exists:
  // a daemon killed mid-frame closes its spans on the hub and reads its
  // transport on the way out. Members are destroyed in reverse declaration
  // order, so left to ~Engine this would run after obs_, fabric_ and
  // transports_ are gone.
  engine_.shutdown();
}

fabric::Fabric& Runtime::fabric() {
  if (!fabric_) {
    throw std::logic_error(
        "Runtime::fabric(): no simulated fabric on the shm backend");
  }
  return *fabric_;
}

bool Runtime::tree_collectives() const {
  return fabric_ != nullptr && (options_.tuning.topology_collectives ||
                                !fabric_->topology().ring_like());
}

Transport& Runtime::host_transport(int host) {
  if (transports_.empty()) {
    throw std::logic_error(
        "Runtime::host_transport(): no NTB transports on the shm backend");
  }
  return *transports_.at(static_cast<std::size_t>(host));
}

sim::Time Runtime::clock_now() { return backend_->now_ns(); }
void Runtime::clock_wait_until(sim::Time t) { backend_->wait_until_ns(t); }
void Runtime::clock_wait_for(sim::Dur d) { backend_->wait_for_ns(d); }

std::span<std::byte> Runtime::pe_scratch(int pe) {
  return backend_->pe_scratch(pe);
}

std::uint64_t Runtime::retransmit_bound() const {
  const std::uint64_t injected = fault_plan_->stats().total();
  const std::uint64_t flaps = fault_plan_->spec().link_flaps.size();
  if (injected == 0 && flaps == 0) return 0;
  // Worst case per injected fault: the frame re-emits through the whole
  // retry ladder. Worst case per flap: a full credit window of in-flight
  // frames per direction re-runs its ladder while the link retrains.
  const auto ladder = static_cast<std::uint64_t>(Transport::kMaxRetries) + 1;
  const auto credits = static_cast<std::uint64_t>(options_.tuning.tx_credits);
  return injected * ladder + flaps * 2 * credits * ladder;
}

void Runtime::write_causal_trace(std::ostream& out) {
  // Close every partial utilization window first so each direction's sample
  // series integrates exactly to its busy_ns — the consistency oracle
  // tools/tracecheck asserts. (The shm backend has no links: the loop body
  // never runs and the artifact's links array is empty.)
  for (int i = 0; has_fabric() && i < fabric_->num_links(); ++i) {
    fabric_->link(i).flush_util(engine_.now());
  }
  std::uint64_t retransmits = 0, frames_sent = 0, frames_received = 0;
  std::uint64_t naks_sent = 0, ack_timeouts = 0, delivery_acks = 0;
  std::uint64_t barrier_tokens = 0;
  for (const auto& t : transports_) {
    const TransportStats& s = t->stats();
    retransmits += s.retransmits;
    frames_sent += s.frames_sent;
    frames_received += s.frames_received;
    naks_sent += s.naks_sent;
    ack_timeouts += s.ack_timeouts;
    delivery_acks += s.delivery_acks_sent;
    barrier_tokens += s.barrier_tokens_sent;
  }
  out << "{\n";
  out << "  \"schema\": \"ntbshmem-trace-v1\",\n";
  out << "  \"hosts\": " << num_hosts() << ",\n";
  out << "  \"elapsed_ns\": " << engine_.now() << ",\n";
  out << "  \"tx_credits\": " << options_.tuning.tx_credits << ",\n";
  out << "  \"reliability\": "
      << (options_.tuning.reliability.enabled ? "true" : "false") << ",\n";
  out << "  \"max_retries\": " << Transport::kMaxRetries << ",\n";
  out << "  \"faults_injected\": " << fault_plan_->stats().total() << ",\n";
  out << "  \"link_flaps\": " << fault_plan_->spec().link_flaps.size()
      << ",\n";
  out << "  \"retransmit_bound\": " << retransmit_bound() << ",\n";
  out << "  \"counters\": {\n";
  out << "    \"retransmits\": " << retransmits << ",\n";
  out << "    \"frames_sent\": " << frames_sent << ",\n";
  out << "    \"frames_received\": " << frames_received << ",\n";
  out << "    \"naks_sent\": " << naks_sent << ",\n";
  out << "    \"ack_timeouts\": " << ack_timeouts << ",\n";
  out << "    \"delivery_acks_sent\": " << delivery_acks << ",\n";
  out << "    \"barrier_tokens_sent\": " << barrier_tokens << "\n";
  out << "  },\n";
  out << "  \"spans\": [";
  bool first = true;
  for (const obs::CausalSpan& s : obs_.causal.spans()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"id\": " << s.id << ", \"trace\": " << s.trace_id
        << ", \"parent\": " << s.parent << ", \"kind\": \""
        << obs::span_kind_name(s.kind) << "\", \"host\": " << s.host
        << ", \"port\": " << s.port << ", \"hop\": "
        << static_cast<int>(s.hop) << ", \"t0\": " << s.t0 << ", \"t1\": "
        << s.t1 << ", \"a\": " << s.a << ", \"b\": " << s.b << "}";
  }
  out << "\n  ],\n";
  out << "  \"links\": [";
  first = true;
  for (int i = 0; has_fabric() && i < fabric_->num_links(); ++i) {
    pcie::Link& link = fabric_->link(i);
    for (const pcie::End dir : {pcie::End::kA, pcie::End::kB}) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "    {\"name\": \"" << link.name() << "\", \"dir\": \""
          << (dir == pcie::End::kA ? "a2b" : "b2a")
          << "\", \"busy_ns\": " << link.busy_ns(dir) << ", \"bytes\": "
          << link.transferred_bytes(dir) << ", \"capacity_Bps\": "
          << static_cast<std::uint64_t>(link.config().effective_Bps())
          << ", \"window_ns\": "
          << link.util_window() << ", \"samples\": [";
      bool sfirst = true;
      for (const pcie::Link::UtilSample& u : link.util_samples(dir)) {
        out << (sfirst ? "" : ", ") << "[" << u.t << ", " << u.busy << "]";
        sfirst = false;
      }
      out << "]}";
    }
  }
  out << "\n  ]\n";
  out << "}\n";
}

void Runtime::write_chrome_trace(std::ostream& out) const {
  std::vector<obs::HostTracks> hosts;
  if (has_fabric()) {
    const fabric::Topology& topo = fabric_->topology();
    for (int h = 0; h < num_hosts(); ++h) {
      obs::HostTracks& t = hosts.emplace_back();
      t.name = fabric_->host(h).name();
      t.first_pe = h * options_.pes_per_host;
      t.pes = options_.pes_per_host;
      for (int p = 0; p < topo.degree(h); ++p) {
        t.ports.push_back(topo.port(h, p).name);
      }
    }
  }
  obs::write_chrome_trace(obs_.tracer, obs_.causal, hosts, out);
}

void Runtime::dump_flight(std::ostream& out) const {
  for (const auto& [name, rec] : obs_.flights) {
    obs::dump_flight(*rec, name, out);
  }
}

std::uint64_t Runtime::state_hash() const {
  std::uint64_t h = fnv::fold_u64(fnv::kOffset, engine_.state_hash());
  for (const auto& t : transports_) h = fnv::fold_u64(h, t->state_hash());
  // Live symmetric-heap bytes of every PE (the application-visible data the
  // safety properties speak about). Freed regions and unallocated tails are
  // skipped — their contents are unobservable.
  std::vector<std::byte> buf;
  for (const auto& ctx : contexts_) {
    const SymmetricHeap& heap = ctx->heap();
    for (const auto& [off, len] : heap.allocation_ranges()) {
      buf.resize(len);
      heap.read(off, buf);
      h = fnv::fold_bytes(fnv::fold_u64(h, off), buf);
    }
  }
  return h;
}

bool Runtime::quiescent() const {
  for (const auto& t : transports_) {
    if (!t->quiescent()) return false;
  }
  return true;
}

std::string Runtime::pending_summary() const {
  std::string out;
  for (const auto& t : transports_) out += t->pending_summary();
  return out;
}

void Runtime::check_invariants() const {
  for (const auto& t : transports_) t->check_protocol_invariants();
}

sim::Dur Runtime::run(const std::function<void()>& pe_main) {
  return backend_->run(*this, pe_main);
}

}  // namespace ntbshmem::shmem
