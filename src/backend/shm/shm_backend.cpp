#include "backend/shm/shm_backend.hpp"

#include <sys/wait.h>
#include <time.h>  // NOLINT: clock_gettime/nanosleep (POSIX, not <ctime>)
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "backend/shm/futex.hpp"
#include "obs/hub.hpp"
#include "shmem/runtime.hpp"

namespace ntbshmem::backend {

static_assert(kSegScratchBytes == kPeScratchBytes,
              "segment scratch must match the Backend::pe_scratch contract");

namespace {

// Spin this many times on a doorbell/barrier word before paying the futex
// syscall — the spin-then-sleep hybrid: intra-socket wakeups land in the
// spin window, long waits sleep in the kernel.
constexpr int kSpinIters = 4096;
// Bounded futex slice: every sleeper re-checks the abort flag at least this
// often, so watchdog-raised aborts propagate promptly.
constexpr std::int64_t kWaitSliceNs = 10'000'000;  // 10 ms

sim::Time wall_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<sim::Time>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void sleep_ns(std::int64_t ns) {
  if (ns <= 0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

std::int64_t timeout_from_env() {
  const char* env = std::getenv("NTBSHMEM_SHM_TIMEOUT_MS");
  std::int64_t ms = 60'000;
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end == nullptr || *end != '\0' || v < 1) {
      throw std::invalid_argument(
          "NTBSHMEM_SHM_TIMEOUT_MS must be a positive integer (milliseconds)");
    }
    ms = v;
  }
  return ms * 1'000'000;
}

// ---- Metrics outbox wire format ---------------------------------------------
//
//   u32 nrows, then per row:
//     u8 kind (0 counter, 1 gauge, 2 histogram), u16 name_len, name bytes,
//     counter: u64 value | gauge: double | histogram: u64 count,sum,min,max,
//     u16 nbuckets, nbuckets x u64.
//
// Probes are skipped: they sample parent-owned stats at snapshot time and
// would double-count on merge. Child and parent share one architecture (a
// fork), so no endianness/width concerns.

class Writer {
 public:
  Writer(std::byte* p, std::byte* end) : p_(p), end_(end) {}
  bool fits(std::size_t n) const {
    return static_cast<std::size_t>(end_ - p_) >= n;
  }
  template <typename T>
  void raw(T v) {
    std::memcpy(p_, &v, sizeof(T));
    p_ += sizeof(T);
  }
  void bytes(const void* src, std::size_t n) {
    std::memcpy(p_, src, n);
    p_ += n;
  }
  std::byte* pos() const { return p_; }

 private:
  std::byte* p_;
  std::byte* end_;
};

class Reader {
 public:
  Reader(const std::byte* p, const std::byte* end) : p_(p), end_(end) {}
  bool fits(std::size_t n) const {
    return static_cast<std::size_t>(end_ - p_) >= n;
  }
  template <typename T>
  T raw() {
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }
  const std::byte* take(std::size_t n) {
    const std::byte* at = p_;
    p_ += n;
    return at;
  }

 private:
  const std::byte* p_;
  const std::byte* end_;
};

void encode_metrics(const obs::Snapshot& snap, PeControl& c) {
  Writer w(c.outbox, c.outbox + kOutboxBytes);
  if (!w.fits(4)) return;
  std::byte* nrows_at = w.pos();
  w.raw<std::uint32_t>(0);
  std::uint32_t nrows = 0;
  bool overflow = false;
  for (const obs::MetricRow& row : snap.rows) {
    if (row.kind == obs::MetricRow::Kind::kProbe) continue;
    std::size_t need = 1 + 2 + row.name.size();
    if (row.kind == obs::MetricRow::Kind::kHistogram) {
      need += 4 * 8 + 2 + row.hist_buckets.size() * 8;
    } else {
      need += 8;
    }
    if (!w.fits(need)) {
      overflow = true;
      break;
    }
    std::uint8_t kind = 0;
    if (row.kind == obs::MetricRow::Kind::kGauge) kind = 1;
    if (row.kind == obs::MetricRow::Kind::kHistogram) kind = 2;
    w.raw<std::uint8_t>(kind);
    w.raw<std::uint16_t>(static_cast<std::uint16_t>(row.name.size()));
    w.bytes(row.name.data(), row.name.size());
    switch (kind) {
      case 0:
        w.raw<std::uint64_t>(static_cast<std::uint64_t>(row.value));
        break;
      case 1:
        w.raw<double>(row.value);
        break;
      default:
        w.raw<std::uint64_t>(static_cast<std::uint64_t>(row.value));
        w.raw<std::uint64_t>(row.hist_sum);
        w.raw<std::uint64_t>(row.hist_min);
        w.raw<std::uint64_t>(row.hist_max);
        w.raw<std::uint16_t>(
            static_cast<std::uint16_t>(row.hist_buckets.size()));
        for (const std::uint64_t b : row.hist_buckets) w.raw<std::uint64_t>(b);
        break;
    }
    ++nrows;
  }
  std::memcpy(nrows_at, &nrows, sizeof(nrows));
  c.outbox_len = static_cast<std::uint32_t>(w.pos() - c.outbox);
  c.outbox_overflow = overflow ? 1 : 0;
}

void decode_metrics_into(obs::MetricsRegistry& reg, const PeControl& c) {
  Reader r(c.outbox, c.outbox + c.outbox_len);
  if (!r.fits(4)) return;
  const std::uint32_t nrows = r.raw<std::uint32_t>();
  for (std::uint32_t i = 0; i < nrows; ++i) {
    if (!r.fits(3)) return;
    const std::uint8_t kind = r.raw<std::uint8_t>();
    const std::uint16_t name_len = r.raw<std::uint16_t>();
    if (!r.fits(name_len)) return;
    const std::string name(reinterpret_cast<const char*>(r.take(name_len)),
                           name_len);
    switch (kind) {
      case 0: {
        if (!r.fits(8)) return;
        reg.counter(name)->add(r.raw<std::uint64_t>());
        break;
      }
      case 1: {
        if (!r.fits(8)) return;
        reg.gauge(name)->set(r.raw<double>());
        break;
      }
      case 2: {
        if (!r.fits(4 * 8 + 2)) return;
        const std::uint64_t count = r.raw<std::uint64_t>();
        const std::uint64_t sum = r.raw<std::uint64_t>();
        const std::uint64_t min = r.raw<std::uint64_t>();
        const std::uint64_t max = r.raw<std::uint64_t>();
        const std::uint16_t nbuckets = r.raw<std::uint16_t>();
        if (!r.fits(static_cast<std::size_t>(nbuckets) * 8)) return;
        std::uint64_t buckets[obs::Histogram::kBuckets] = {};
        for (std::uint16_t b = 0; b < nbuckets; ++b) {
          const std::uint64_t v = r.raw<std::uint64_t>();
          if (b < obs::Histogram::kBuckets) buckets[b] = v;
        }
        reg.histogram(name)->absorb(buckets, obs::Histogram::kBuckets, count,
                                    sum, min, max);
        break;
      }
      default:
        return;  // unknown row kind: stop rather than misparse the rest
    }
  }
}

}  // namespace

// ---- ShmBackend -------------------------------------------------------------

ShmBackend::ShmBackend(shmem::Runtime& rt)
    : rt_(&rt), timeout_ns_(timeout_from_env()) {
  seg_ = std::make_unique<Segment>(rt.npes(),
                                   rt.options().symheap_max_bytes);
  arenas_.reserve(static_cast<std::size_t>(rt.npes()));
  for (int pe = 0; pe < rt.npes(); ++pe) {
    arenas_.push_back(std::make_unique<host::MemoryArena>(
        seg_->heap(pe), "pe" + std::to_string(pe) + ".shmheap"));
    // The children log into their segment rings and the parent reads them
    // in place, so Runtime::dump_flight covers shm runs too.
    rt.obs().flights.emplace_back("pe" + std::to_string(pe),
                                  &seg_->pe(pe).flight);
  }
  epoch_ns_ = wall_ns();
}

ShmBackend::~ShmBackend() = default;

host::MemoryArena& ShmBackend::heap_arena(int pe) {
  return *arenas_.at(static_cast<std::size_t>(pe));
}

std::pair<std::uint64_t, std::uint64_t> ShmBackend::heap_geometry() const {
  return {seg_->heap_slice(), seg_->heap_slice()};
}

std::unique_ptr<Channel> ShmBackend::make_channel(int pe) {
  return std::make_unique<ShmChannel>(*this, pe);
}

std::span<std::byte> ShmBackend::pe_scratch(int pe) {
  return {seg_->pe(pe).scratch, kSegScratchBytes};
}

sim::Time ShmBackend::now_ns() { return wall_ns() - epoch_ns_; }
void ShmBackend::wait_until_ns(sim::Time t) { sleep_ns(t - now_ns()); }
void ShmBackend::wait_for_ns(sim::Dur d) { sleep_ns(d); }

sim::Dur ShmBackend::run(shmem::Runtime& rt,
                         const std::function<void()>& pe_main) {
  const int n = rt.npes();
  SegmentHeader& h = seg_->header();
  __atomic_store_n(&h.abort_flag, 0u, __ATOMIC_SEQ_CST);
  for (int pe = 0; pe < n; ++pe) {
    PeControl& c = seg_->pe(pe);
    c.status = kPeRunning;
    c.error[0] = '\0';
    c.flight.clear();
    c.outbox_len = 0;
    c.outbox_overflow = 0;
  }
  // Flush stdio before forking so buffered output is not duplicated into
  // every child.
  std::fflush(nullptr);
  const sim::Time t0 = now_ns();
  std::vector<int> pids(static_cast<std::size_t>(n), -1);
  for (int pe = 0; pe < n; ++pe) {
    const pid_t pid = fork();
    if (pid == 0) child_main(pe, pe_main);  // never returns
    if (pid < 0) {
      const int err = errno;
      __atomic_store_n(&h.abort_flag, 1u, __ATOMIC_SEQ_CST);
      futex_wake(&h.barrier_gen, INT_MAX);
      for (int p = 0; p < n; ++p) futex_wake(&seg_->pe(p).notify, INT_MAX);
      kill_and_reap(pids);
      throw std::runtime_error(std::string("shm backend: fork failed: ") +
                               std::strerror(err));
    }
    pids[static_cast<std::size_t>(pe)] = static_cast<int>(pid);
  }
  watchdog(pids);  // throws on any PE failure (after killing survivors)
  const sim::Time t1 = now_ns();
  merge_metrics_outboxes();
  return t1 - t0;
}

void ShmBackend::child_main(int pe, const std::function<void()>& pe_main) {
  PeControl& c = seg_->pe(pe);
  int code = 0;
  try {
    shmem::Context* ctx = &rt_->context(pe);
    shmem::CurrentContextBinder bind(ctx);
    pe_main();
    // Publish this child's COW copy of the metrics registry — the only road
    // its counter bumps travel back to the parent on.
    encode_metrics(rt_->obs().metrics.snapshot(), c);
    __atomic_store_n(&c.status, kPeOk, __ATOMIC_RELEASE);
  } catch (const std::exception& e) {
    std::strncpy(c.error, e.what(), sizeof(c.error) - 1);
    c.error[sizeof(c.error) - 1] = '\0';
    __atomic_store_n(&c.status, kPeError, __ATOMIC_RELEASE);
    code = 1;
  } catch (...) {
    std::strncpy(c.error, "non-std::exception thrown by PE body",
                 sizeof(c.error) - 1);
    __atomic_store_n(&c.status, kPeError, __ATOMIC_RELEASE);
    code = 2;
  }
  if (code != 0) {
    // Fail fast fleet-wide: peers blocked in a barrier or wait_until must
    // see the abort instead of hanging until the watchdog deadline.
    SegmentHeader& h = seg_->header();
    __atomic_store_n(&h.abort_flag, 1u, __ATOMIC_SEQ_CST);
    futex_wake(&h.barrier_gen, INT_MAX);
    for (int p = 0; p < seg_->npes(); ++p) {
      futex_wake(&seg_->pe(p).notify, INT_MAX);
    }
  }
  // _exit, not exit: the child must not run the parent's atexit handlers or
  // destructors (it shares their registrations via fork).
  _exit(code);
}

void ShmBackend::watchdog(std::vector<int>& pids) {
  const int n = static_cast<int>(pids.size());
  int remaining = n;
  const sim::Time deadline = now_ns() + timeout_ns_;
  std::string reason;
  while (remaining > 0 && reason.empty()) {
    bool progressed = false;
    for (int pe = 0; pe < n && reason.empty(); ++pe) {
      int& pid = pids[static_cast<std::size_t>(pe)];
      if (pid < 0) continue;
      int st = 0;
      const pid_t r = waitpid(pid, &st, WNOHANG);
      if (r == 0) continue;
      pid = -1;
      --remaining;
      progressed = true;
      if (r < 0) {
        reason = "waitpid(PE " + std::to_string(pe) +
                 ") failed: " + std::strerror(errno);
      } else if (WIFSIGNALED(st)) {
        reason = "PE " + std::to_string(pe) + " died on signal " +
                 std::to_string(WTERMSIG(st));
      } else if (WEXITSTATUS(st) != 0) {
        const PeControl& c = seg_->pe(pe);
        reason = "PE " + std::to_string(pe) + " failed: " +
                 (c.error[0] != '\0' ? std::string(c.error)
                                     : "exit code " +
                                           std::to_string(WEXITSTATUS(st)));
      }
    }
    if (remaining == 0 && reason.empty()) return;
    if (!progressed && reason.empty()) {
      if (now_ns() > deadline) {
        std::string stuck;
        for (int pe = 0; pe < n; ++pe) {
          if (pids[static_cast<std::size_t>(pe)] < 0) continue;
          if (!stuck.empty()) stuck += ", ";
          stuck += "PE " + std::to_string(pe) + " (heartbeat " +
                   std::to_string(seg_->pe(pe).heartbeat) + ")";
        }
        reason = "liveness timeout after " +
                 std::to_string(timeout_ns_ / 1'000'000) +
                 " ms; still running: " + stuck;
      } else {
        sleep_ns(1'000'000);  // 1 ms supervision tick
      }
    }
  }
  // Failure: raise the abort flag so live children unwind cleanly, give
  // them a grace window, then force-kill and reap whatever is left.
  SegmentHeader& h = seg_->header();
  __atomic_store_n(&h.abort_flag, 1u, __ATOMIC_SEQ_CST);
  futex_wake(&h.barrier_gen, INT_MAX);
  for (int p = 0; p < n; ++p) futex_wake(&seg_->pe(p).notify, INT_MAX);
  kill_and_reap(pids);
  // The first exit the scan happened to reap is often a *secondary* victim:
  // a peer that unwound on the abort flag the real culprit raised. Now that
  // every child is reaped, prefer any PE whose error is not the generic
  // abort echo as the root cause.
  if (reason.find("run aborted") != std::string::npos) {
    for (int pe = 0; pe < n; ++pe) {
      const PeControl& c = seg_->pe(pe);
      if (__atomic_load_n(&c.status, __ATOMIC_ACQUIRE) == kPeError &&
          c.error[0] != '\0' &&
          std::strstr(c.error, "run aborted") == nullptr) {
        reason = "PE " + std::to_string(pe) + " failed: " + c.error;
        break;
      }
    }
  }
  throw std::runtime_error(describe_failure(reason));
}

void ShmBackend::kill_and_reap(std::vector<int>& pids) {
  // Grace: children that see the abort flag throw and _exit on their own.
  const sim::Time grace_end = now_ns() + 500'000'000;
  bool any = true;
  while (any && now_ns() < grace_end) {
    any = false;
    for (int& pid : pids) {
      if (pid < 0) continue;
      int st = 0;
      if (waitpid(pid, &st, WNOHANG) == pid) {
        pid = -1;
      } else {
        any = true;
      }
    }
    if (any) sleep_ns(5'000'000);
  }
  for (int& pid : pids) {
    if (pid < 0) continue;
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    pid = -1;
  }
}

void ShmBackend::merge_metrics_outboxes() {
  for (int pe = 0; pe < seg_->npes(); ++pe) {
    decode_metrics_into(rt_->obs().metrics, seg_->pe(pe));
  }
}

std::string ShmBackend::describe_failure(const std::string& reason) {
  std::ostringstream out;
  out << "shm backend: " << reason << "\n";
  out << "flight recorder (per PE, oldest first):\n";
  for (int pe = 0; pe < seg_->npes(); ++pe) {
    obs::dump_flight(seg_->pe(pe).flight, "pe" + std::to_string(pe), out);
  }
  return out.str();
}

// ---- ShmChannel -------------------------------------------------------------

ShmChannel::ShmChannel(ShmBackend& be, int pe)
    : be_(&be), seg_(&be.segment()), pe_(pe), npes_(be.runtime().npes()) {
  obs::Hub& hub = be.runtime().obs();
  const std::string prefix = "pe" + std::to_string(pe) + ".shm.";
  puts_ = hub.metrics.counter(prefix + "puts");
  put_bytes_ = hub.metrics.counter(prefix + "put_bytes");
  gets_ = hub.metrics.counter(prefix + "gets");
  get_bytes_ = hub.metrics.counter(prefix + "get_bytes");
  atomics_ = hub.metrics.counter(prefix + "atomics");
  barriers_ = hub.metrics.counter(prefix + "barriers");
  doorbell_wakes_ = hub.metrics.counter(prefix + "doorbell_wakes");
  doorbell_sleeps_ = hub.metrics.counter(prefix + "doorbell_sleeps");
}

std::byte* ShmChannel::heap_at(int target_pe, std::uint64_t offset,
                               std::uint64_t len, const char* what) {
  if (target_pe < 0 || target_pe >= npes_) {
    throw std::out_of_range(std::string(what) + ": PE out of range");
  }
  std::span<std::byte> heap = seg_->heap(target_pe);
  if (offset > heap.size() || len > heap.size() - offset) {
    throw std::out_of_range(std::string(what) +
                            ": offset/length outside the symmetric heap");
  }
  return heap.data() + offset;
}

void ShmChannel::ring_doorbell(int target_pe) {
  PeControl& c = seg_->pe(target_pe);
  // seq_cst RMW: orders after the release-fenced payload store on this side
  // and pairs with the waiter's acquire load — the waiter that observes the
  // bump also observes the payload.
  __atomic_add_fetch(&c.notify, 1u, __ATOMIC_SEQ_CST);
  if (__atomic_load_n(&c.waiters, __ATOMIC_SEQ_CST) != 0) {
    futex_wake(&c.notify, INT_MAX);
    doorbell_wakes_->inc();
  }
}

void ShmChannel::check_abort() {
  if (__atomic_load_n(&seg_->header().abort_flag, __ATOMIC_ACQUIRE) != 0) {
    throw std::runtime_error(
        "shm backend: run aborted (peer failure or liveness timeout)");
  }
}

void ShmChannel::flight(obs::FlightCode code, std::uint16_t a, std::uint32_t b,
                        std::uint64_t c) {
  PeControl& ctl = seg_->pe(pe_);
  ctl.flight.log(be_->now_ns(), code, a, b, c);
  // Every data-path event doubles as a heartbeat for the watchdog.
  ++ctl.heartbeat;
}

void ShmChannel::put(std::uint64_t heap_offset, std::span<const std::byte> src,
                     int target_pe, int /*domain*/) {
  if (src.empty()) return;
  std::byte* dst = heap_at(target_pe, heap_offset, src.size(), "shm put");
  std::memcpy(dst, src.data(), src.size());
  // Payload visible before any subsequent doorbell/signal store.
  std::atomic_thread_fence(std::memory_order_release);
  ring_doorbell(target_pe);
  puts_->inc();
  put_bytes_->add(src.size());
  flight(obs::FlightCode::kPut, static_cast<std::uint16_t>(target_pe),
         static_cast<std::uint32_t>(src.size()), heap_offset);
}

void ShmChannel::get(std::uint64_t heap_offset, std::span<std::byte> dst,
                     int source_pe) {
  if (dst.empty()) return;
  const std::byte* src = heap_at(source_pe, heap_offset, dst.size(), "shm get");
  // Pairs with the producers' release fences: everything a previously
  // observed doorbell bump ordered is visible to this copy.
  std::atomic_thread_fence(std::memory_order_acquire);
  std::memcpy(dst.data(), src, dst.size());
  gets_->inc();
  get_bytes_->add(dst.size());
  flight(obs::FlightCode::kGet, static_cast<std::uint16_t>(source_pe),
         static_cast<std::uint32_t>(dst.size()), heap_offset);
}

void ShmChannel::get_nbi(std::uint64_t heap_offset, std::span<std::byte> dst,
                         int source_pe, int /*domain*/) {
  // Synchronous completion is a conforming nbi implementation.
  get(heap_offset, dst, source_pe);
}

void ShmChannel::put_signal(std::uint64_t heap_offset,
                            std::span<const std::byte> src,
                            std::uint64_t signal_offset,
                            std::uint64_t signal_value,
                            shmem::AtomicOp signal_op, int target_pe,
                            int /*domain*/) {
  if (!src.empty()) {
    std::byte* dst =
        heap_at(target_pe, heap_offset, src.size(), "shm put_signal");
    std::memcpy(dst, src.data(), src.size());
  }
  // Data-before-signal: the release fence orders the payload copy before
  // the signal RMW; a consumer that observes the signal observes the data.
  std::atomic_thread_fence(std::memory_order_release);
  apply_atomic(signal_op, target_pe, signal_offset, 8, signal_value, 0);
  ring_doorbell(target_pe);
  puts_->inc();
  put_bytes_->add(src.size());
  flight(obs::FlightCode::kPut, static_cast<std::uint16_t>(target_pe),
         static_cast<std::uint32_t>(src.size()), heap_offset);
}

template <typename T>
static std::uint64_t amo_builtin(shmem::AtomicOp op, T* p, std::uint64_t op1,
                                 std::uint64_t op2) {
  const T a = static_cast<T>(op1);
  switch (op) {
    case shmem::AtomicOp::kAdd:
    case shmem::AtomicOp::kFetchAdd:
      return __atomic_fetch_add(p, a, __ATOMIC_SEQ_CST);
    case shmem::AtomicOp::kInc:
    case shmem::AtomicOp::kFetchInc:
      return __atomic_fetch_add(p, T{1}, __ATOMIC_SEQ_CST);
    case shmem::AtomicOp::kCompareSwap: {
      // operand2 = expected, operand1 = desired (Transport::apply_atomic's
      // convention); returns the old value either way.
      T expected = static_cast<T>(op2);
      __atomic_compare_exchange_n(p, &expected, a, false, __ATOMIC_SEQ_CST,
                                  __ATOMIC_SEQ_CST);
      return expected;
    }
    case shmem::AtomicOp::kSwap:
    case shmem::AtomicOp::kSet:
      return __atomic_exchange_n(p, a, __ATOMIC_SEQ_CST);
    case shmem::AtomicOp::kFetch:
      return __atomic_load_n(p, __ATOMIC_SEQ_CST);
    case shmem::AtomicOp::kAnd:
      return __atomic_fetch_and(p, a, __ATOMIC_SEQ_CST);
    case shmem::AtomicOp::kOr:
      return __atomic_fetch_or(p, a, __ATOMIC_SEQ_CST);
    case shmem::AtomicOp::kXor:
      return __atomic_fetch_xor(p, a, __ATOMIC_SEQ_CST);
  }
  throw std::invalid_argument("shm atomic: unknown op");
}

std::uint64_t ShmChannel::apply_atomic(shmem::AtomicOp op, int target_pe,
                                       std::uint64_t heap_offset,
                                       std::uint8_t width,
                                       std::uint64_t operand1,
                                       std::uint64_t operand2) {
  shmem::check_amo_operand(heap_offset, width);
  std::byte* p = heap_at(target_pe, heap_offset, width, "shm atomic");
  if (width == 4) {
    return amo_builtin(op, reinterpret_cast<std::uint32_t*>(p), operand1,
                       operand2);
  }
  return amo_builtin(op, reinterpret_cast<std::uint64_t*>(p), operand1,
                     operand2);
}

std::uint64_t ShmChannel::atomic(shmem::AtomicOp op, std::uint64_t heap_offset,
                                 int target_pe, std::uint8_t width,
                                 std::uint64_t operand1,
                                 std::uint64_t operand2) {
  const std::uint64_t old =
      apply_atomic(op, target_pe, heap_offset, width, operand1, operand2);
  ring_doorbell(target_pe);
  atomics_->inc();
  flight(obs::FlightCode::kAtomic, static_cast<std::uint16_t>(target_pe),
         static_cast<std::uint32_t>(op), heap_offset);
  return old;
}

void ShmChannel::atomic_post(shmem::AtomicOp op, std::uint64_t heap_offset,
                             int target_pe, std::uint8_t width,
                             std::uint64_t operand1, int /*domain*/) {
  if (shmem::is_fetching(op)) {
    throw std::invalid_argument("atomic_post requires a non-fetching op");
  }
  atomic(op, heap_offset, target_pe, width, operand1, 0);
}

void ShmChannel::quiet(int /*domain*/) {
  // Every operation completed synchronously when it returned; quiet only
  // has to order it for other observers.
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void ShmChannel::fence() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void ShmChannel::barrier() {
  check_abort();
  SegmentHeader& h = seg_->header();
  const std::uint32_t gen = __atomic_load_n(&h.barrier_gen, __ATOMIC_ACQUIRE);
  if (__atomic_add_fetch(&h.barrier_count, 1u, __ATOMIC_ACQ_REL) ==
      static_cast<std::uint32_t>(npes_)) {
    // Last arriver: reset the count for the next generation *before*
    // releasing anyone (a released PE may re-enter barrier immediately).
    __atomic_store_n(&h.barrier_count, 0u, __ATOMIC_SEQ_CST);
    __atomic_add_fetch(&h.barrier_gen, 1u, __ATOMIC_SEQ_CST);
    futex_wake(&h.barrier_gen, INT_MAX);
  } else {
    const sim::Time deadline = be_->now_ns() + be_->timeout_ns();
    int spins = 0;
    while (__atomic_load_n(&h.barrier_gen, __ATOMIC_ACQUIRE) == gen) {
      check_abort();
      if (++spins < kSpinIters) continue;
      futex_wait(&h.barrier_gen, gen, kWaitSliceNs);
      if (be_->now_ns() > deadline) {
        // Tell the peers (and the watchdog) before unwinding: a barrier
        // that cannot complete means a PE is gone.
        __atomic_store_n(&h.abort_flag, 1u, __ATOMIC_SEQ_CST);
        futex_wake(&h.barrier_gen, INT_MAX);
        for (int p = 0; p < npes_; ++p) {
          futex_wake(&seg_->pe(p).notify, INT_MAX);
        }
        throw std::runtime_error(
            "shm barrier: timed out waiting for peers (peer death?)");
      }
    }
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
  barriers_->inc();
  flight(obs::FlightCode::kBarrier, static_cast<std::uint16_t>(pe_));
}

void ShmChannel::wait_heap_change() {
  PeControl& me = seg_->pe(pe_);
  const std::uint32_t seen = seen_notify_;
  std::uint32_t cur = __atomic_load_n(&me.notify, __ATOMIC_ACQUIRE);
  if (cur != seen) {
    // A write landed since the caller's last predicate check — return and
    // let it re-evaluate (missed-update protection).
    seen_notify_ = cur;
    return;
  }
  for (int i = 0; i < kSpinIters; ++i) {
    cur = __atomic_load_n(&me.notify, __ATOMIC_ACQUIRE);
    if (cur != seen) {
      seen_notify_ = cur;
      return;
    }
  }
  check_abort();
  __atomic_add_fetch(&me.waiters, 1u, __ATOMIC_SEQ_CST);
  doorbell_sleeps_->inc();
  // Bounded slice: spurious returns are fine (caller re-checks), and the
  // abort flag is re-examined at least every slice.
  futex_wait(&me.notify, cur, kWaitSliceNs);
  __atomic_sub_fetch(&me.waiters, 1u, __ATOMIC_SEQ_CST);
  check_abort();
  seen_notify_ = __atomic_load_n(&me.notify, __ATOMIC_ACQUIRE);
}

int ShmChannel::allocate_domain() { return next_domain_++; }

void ShmChannel::yield(sim::Dur pacing) {
  check_abort();
  // Back off for the requested pacing, clamped to keep lock-retry latency
  // reasonable on a wall clock (the DES virtual pacing values are tuned for
  // simulated contention, not real schedulers).
  const std::int64_t ns =
      pacing < 1'000 ? 1'000 : (pacing > 1'000'000 ? 1'000'000 : pacing);
  sleep_ns(ns);
}

}  // namespace ntbshmem::backend
