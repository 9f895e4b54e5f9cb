// The Backend seam: everything shmem::Context and the collectives need
// from a data-path implementation, abstracted so the DES transport
// (backend/des) and the real-process shared-memory path (backend/shm) run
// the same API surface — api.hpp, teams, contexts, nbi + quiet/fence and
// the collectives are backend-agnostic by construction (DESIGN.md §4j).
//
// A Channel is the per-PE operation endpoint (the shape of the ISI-apex
// shmem_link layer: offset-addressed one-sided ops plus doorbell-backed
// waits). A Backend owns per-PE resources — the arena each symmetric heap
// is carved from, the channels, the per-PE result scratch — and the run
// loop that executes pe_main on every PE (simulated processes on the DES
// engine, fork()ed OS processes on shm).
//
// Time: now_ns/wait_* expose the backend's native clock (virtual ns on the
// engine, CLOCK_MONOTONIC wall ns on shm) so workload pacing code never
// names a clock source directly — the only wall-clock calls in the tree
// stay inside src/backend/shm/ where detlint's path exemption covers them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>

#include "shmem/message.hpp"
#include "sim/time.hpp"

namespace ntbshmem::host {
class MemoryArena;
}

namespace ntbshmem::shmem {
class Runtime;
}

namespace ntbshmem::backend {

// Fixed size of Backend::pe_scratch — a POD mailbox big enough for a
// workload ScenarioReport wire image plus conformance-test bookkeeping.
inline constexpr std::size_t kPeScratchBytes = 256;

// Per-PE data-path endpoint. Offsets address the *target PE's* symmetric
// heap (the paper's Fig. 3(b) offset addressing); the origin PE is bound at
// construction. Domains are completion scopes (shmem_ctx_*): quiet(domain)
// drains only that domain's operations, kAllDomains drains everything.
class Channel {
 public:
  static constexpr int kDefaultDomain = 0;
  static constexpr int kAllDomains = -1;

  virtual ~Channel() = default;

  // Locally-blocking put into target_pe's heap (one-sided semantics:
  // returns at local completion; remote completion via quiet()).
  virtual void put(std::uint64_t heap_offset, std::span<const std::byte> src,
                   int target_pe, int domain) = 0;
  // Blocking get from source_pe's heap.
  virtual void get(std::uint64_t heap_offset, std::span<std::byte> dst,
                   int source_pe) = 0;
  // Non-blocking get; completion via quiet(domain). A blocking
  // implementation is conforming.
  virtual void get_nbi(std::uint64_t heap_offset, std::span<std::byte> dst,
                       int source_pe, int domain) = 0;
  // Put then update the signal word, data delivered before the signal.
  virtual void put_signal(std::uint64_t heap_offset,
                          std::span<const std::byte> src,
                          std::uint64_t signal_offset,
                          std::uint64_t signal_value, shmem::AtomicOp signal_op,
                          int target_pe, int domain) = 0;
  // Fetching atomic on a 4/8-byte heap word; returns the previous value.
  virtual std::uint64_t atomic(shmem::AtomicOp op, std::uint64_t heap_offset,
                               int target_pe, std::uint8_t width,
                               std::uint64_t operand1,
                               std::uint64_t operand2) = 0;
  // Fire-and-forget non-fetching atomic, ordered behind prior puts to the
  // same target; drained by quiet(domain).
  virtual void atomic_post(shmem::AtomicOp op, std::uint64_t heap_offset,
                           int target_pe, std::uint8_t width,
                           std::uint64_t operand1, int domain) = 0;

  virtual void quiet(int domain) = 0;
  virtual void fence() = 0;
  // Collective barrier entry for this PE (all PEs; teams/active-set
  // barriers are layered above in shmem/collectives.cpp).
  virtual void barrier() = 0;
  // Blocks until some write may have landed in this PE's heap (the
  // building block of shmem_wait_until; spurious wakeups are fine, callers
  // re-check their predicate).
  virtual void wait_heap_change() = 0;
  // New completion scope for shmem_ctx_create.
  virtual int allocate_domain() = 0;
  // Backoff/pacing point in spin loops (lock acquisition, post-wait
  // reschedule). DES charges virtual time on the engine — golden times
  // depend on it — shm yields the CPU briefly.
  virtual void yield(sim::Dur pacing) = 0;
};

// Backend factory + run loop. One per Runtime; constructed before the
// Contexts (whose heaps live in backend-provided arenas).
class Backend {
 public:
  virtual ~Backend() = default;

  // Arena PE `pe`'s symmetric-heap chunks are carved from. DES: the
  // simulated host's DRAM arena; shm: a MemoryArena viewing the PE's heap
  // slice of the mapped segment.
  virtual host::MemoryArena& heap_arena(int pe) = 0;

  // Heap geometry (chunk_bytes, max_bytes) for PE heaps. DES passes
  // RuntimeOptions through; shm returns (slice, slice) so chunk 0 spans the
  // whole virtual space and any process can address any offset without
  // growth bookkeeping.
  virtual std::pair<std::uint64_t, std::uint64_t> heap_geometry() const = 0;

  virtual std::unique_ptr<Channel> make_channel(int pe) = 0;

  // Executes pe_main on every PE and returns the elapsed duration in the
  // backend's native clock (virtual ns / wall ns).
  virtual sim::Dur run(shmem::Runtime& rt,
                       const std::function<void()>& pe_main) = 0;

  // Per-PE POD scratch that survives the run loop — under fork this is the
  // only memory a PE's results can travel back through, so workload
  // scenarios publish their per-PE report here on every backend.
  virtual std::span<std::byte> pe_scratch(int pe) = 0;

  // The backend's native clock: virtual ns since engine start (DES) or
  // wall-clock ns since an arbitrary epoch (shm). wait_* block the calling
  // PE without holding shared resources.
  virtual sim::Time now_ns() = 0;
  virtual void wait_until_ns(sim::Time t) = 0;
  virtual void wait_for_ns(sim::Dur d) = 0;
};

}  // namespace ntbshmem::backend
