// Real-process shared-memory backend (DESIGN.md §4j): every PE is a
// fork()ed OS process, the symmetric heaps live in one POSIX shm segment
// laid out before the fork, and puts/gets are memcpy into the peer's mapped
// heap slice with release/acquire fencing. Doorbells are futex words;
// barriers are a central generation futex; a parent-side liveness watchdog
// reaps dead children and turns a hung collective into a clean error with a
// flight-recorder dump.
//
// This is the "what would the protocol cost on real silicon-less hardware"
// counterpart to backend/des: the same shmem API surface (api.hpp, teams,
// contexts, collectives run unchanged), but clocked by CLOCK_MONOTONIC
// instead of the DES run queue — bench_workload --backend=shm emits the
// first wall-clock ntbshmem-slo-v1 numbers of the tree.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/shm/segment.hpp"
#include "host/memory.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ntbshmem::backend {

class ShmBackend : public Backend {
 public:
  explicit ShmBackend(shmem::Runtime& rt);
  ~ShmBackend() override;

  host::MemoryArena& heap_arena(int pe) override;
  // (slice, slice): chunk 0 spans the whole per-PE space, so the heap never
  // grows after the pre-fork collective-scratch allocation and every
  // process can translate every offset without chunk bookkeeping.
  std::pair<std::uint64_t, std::uint64_t> heap_geometry() const override;
  std::unique_ptr<Channel> make_channel(int pe) override;
  sim::Dur run(shmem::Runtime& rt,
               const std::function<void()>& pe_main) override;
  std::span<std::byte> pe_scratch(int pe) override;
  sim::Time now_ns() override;
  void wait_until_ns(sim::Time t) override;
  void wait_for_ns(sim::Dur d) override;

  Segment& segment() { return *seg_; }
  shmem::Runtime& runtime() { return *rt_; }
  // Child-side PE-death/abort timeout (NTBSHMEM_SHM_TIMEOUT_MS).
  std::int64_t timeout_ns() const { return timeout_ns_; }

 private:
  // Child body after fork: bind the PE context, run pe_main, publish the
  // metrics outbox, _exit. Never returns.
  [[noreturn]] void child_main(int pe, const std::function<void()>& pe_main);
  // Parent side: waitpid loop with heartbeat/timeout supervision. Throws
  // (with a flight dump in the message) after killing survivors if any PE
  // dies, exits non-zero, or the deadline passes.
  void watchdog(std::vector<int>& pids);
  void kill_and_reap(std::vector<int>& pids);
  // Merges every PE's metrics outbox into the parent registry.
  void merge_metrics_outboxes();
  std::string describe_failure(const std::string& reason);

  shmem::Runtime* rt_;
  std::unique_ptr<Segment> seg_;
  std::vector<std::unique_ptr<host::MemoryArena>> arenas_;  // one per PE
  sim::Time epoch_ns_ = 0;  // CLOCK_MONOTONIC at construction
  std::int64_t timeout_ns_;
};

// Per-PE endpoint: memcpy + fences into peer heap slices, futex doorbells,
// __atomic RMWs for the AMO set. All operations complete synchronously
// (quiet/fence degenerate to memory fences), which is a conforming —
// maximally strict — implementation of the nbi/domain contract.
class ShmChannel : public Channel {
 public:
  ShmChannel(ShmBackend& be, int pe);

  void put(std::uint64_t heap_offset, std::span<const std::byte> src,
           int target_pe, int domain) override;
  void get(std::uint64_t heap_offset, std::span<std::byte> dst,
           int source_pe) override;
  void get_nbi(std::uint64_t heap_offset, std::span<std::byte> dst,
               int source_pe, int domain) override;
  void put_signal(std::uint64_t heap_offset, std::span<const std::byte> src,
                  std::uint64_t signal_offset, std::uint64_t signal_value,
                  shmem::AtomicOp signal_op, int target_pe,
                  int domain) override;
  std::uint64_t atomic(shmem::AtomicOp op, std::uint64_t heap_offset,
                       int target_pe, std::uint8_t width,
                       std::uint64_t operand1, std::uint64_t operand2) override;
  void atomic_post(shmem::AtomicOp op, std::uint64_t heap_offset,
                   int target_pe, std::uint8_t width, std::uint64_t operand1,
                   int domain) override;
  void quiet(int domain) override;
  void fence() override;
  void barrier() override;
  void wait_heap_change() override;
  int allocate_domain() override;
  void yield(sim::Dur pacing) override;

 private:
  // Bounds-checked pointer into target_pe's heap slice.
  std::byte* heap_at(int target_pe, std::uint64_t offset, std::uint64_t len,
                     const char* what);
  // Bump target's doorbell (seq_cst RMW) and wake its sleepers, if any.
  void ring_doorbell(int target_pe);
  // Applies an AMO on a 4/8-byte heap word; returns the old value.
  std::uint64_t apply_atomic(shmem::AtomicOp op, int target_pe,
                             std::uint64_t heap_offset, std::uint8_t width,
                             std::uint64_t operand1, std::uint64_t operand2);
  // Throws if the watchdog (or a failing peer) raised the abort flag.
  void check_abort();
  void flight(obs::FlightCode code, std::uint16_t a, std::uint32_t b = 0,
              std::uint64_t c = 0);

  ShmBackend* be_;
  Segment* seg_;
  int pe_;
  int npes_;
  int next_domain_ = 1;
  // Doorbell value consumed by the last wait_heap_change (missed-update
  // detection: a bump between predicate check and wait returns immediately).
  std::uint32_t seen_notify_ = 0;
  // Hot-path instruments (parent registry; children bump COW copies that
  // travel back through the metrics outbox).
  obs::Counter* puts_;
  obs::Counter* put_bytes_;
  obs::Counter* gets_;
  obs::Counter* get_bytes_;
  obs::Counter* atomics_;
  obs::Counter* barriers_;
  obs::Counter* doorbell_wakes_;
  obs::Counter* doorbell_sleeps_;
};

}  // namespace ntbshmem::backend
