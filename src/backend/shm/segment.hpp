// The shared segment of the real-process backend (DESIGN.md §4j).
//
// PE 0's parent process lays out one shared anonymous mapping
// (MAP_SHARED | MAP_ANONYMOUS) *before* forking the PE processes, so every
// child inherits it at the same virtual address — cross-PE puts are plain
// memcpy into the peer's heap slice, no address translation beyond the
// symmetric-heap offset (the same offset addressing as the paper's
// Fig. 3(b), with the NTB BAR window replaced by the segment mapping).
//
//   [SegmentHeader]                 abort flag, barrier generation/count
//   [PeControl x npes]              per-PE doorbell, flight ring, outboxes
//   [heap slice x npes]             page-aligned symmetric-heap storage
//
// The mapping has no name: it lives as long as parent or children map it,
// and nothing can leak into /dev/shm if the run dies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "obs/flight.hpp"

namespace ntbshmem::backend {

// Serialized per-PE metrics registry image (counters + histograms of the
// shm data path; a registry row costs ~name + 40 bytes, a histogram ~name +
// 560 bytes, so 32 KiB holds hundreds of instruments).
inline constexpr std::size_t kOutboxBytes = 32 * 1024;
// Mirrors backend::kPeScratchBytes (static_asserted in shm_backend.cpp to
// avoid a backend.hpp include cycle here).
inline constexpr std::size_t kSegScratchBytes = 256;

// Per-PE child exit state, written by the child before _exit.
enum PeStatus : std::uint32_t {
  kPeRunning = 0,
  kPeOk = 1,
  kPeError = 2,
};

// Per-PE control block. Single-writer fields throughout: the owning PE
// writes its own flight ring/outbox/status, remote PEs only touch `notify`
// (with atomic RMWs) — so nothing here needs locks.
struct PeControl {
  // Doorbell futex word: bumped (seq_cst RMW) by every remote write landing
  // in this PE's heap; shmem_wait_until sleeps on it.
  alignas(64) std::uint32_t notify;
  // Count of sleepers on `notify` — producers skip the wake syscall when 0.
  std::uint32_t waiters;
  // Bumped by the owning PE at progress points; the watchdog reads it to
  // tell "slow" from "dead" in diagnostics.
  std::uint32_t heartbeat;
  PeStatus status;
  // The child's exception message (NUL-terminated, truncated to fit).
  char error[192];
  // Flight ring: the PE's last data-path events (one masked store each).
  // The parent registers it with the obs hub and reads it in place after
  // the run — the post-mortem artifact.
  obs::FlightRecorder flight;
  // Metrics outbox: the child's serialized obs::Snapshot (fork gives each
  // child a COW copy of the registry, so this is the only road counter
  // bumps travel back on).
  std::uint32_t outbox_len;
  std::uint32_t outbox_overflow;
  std::byte outbox[kOutboxBytes];
  // Backend::pe_scratch — the workload/conformance result mailbox.
  std::byte scratch[kSegScratchBytes];
};

struct SegmentHeader {
  std::uint64_t magic;
  std::uint32_t npes;
  std::uint32_t pad0;
  std::uint64_t heap_slice_bytes;
  // Abort flag (futex word): set once by the watchdog (peer death/timeout)
  // or by the first failing PE; every bounded wait re-checks it and turns a
  // hung collective into a thrown error.
  alignas(64) std::uint32_t abort_flag;
  // Central generation barrier: arrivals increment `barrier_count`; the
  // last arriver resets the count, bumps `barrier_gen` and wakes everyone
  // sleeping on it. The generation word makes back-to-back barriers safe
  // (a PE racing into barrier N+1 waits on a fresh generation value).
  alignas(64) std::uint32_t barrier_gen;
  std::uint32_t barrier_count;
};

inline constexpr std::uint64_t kSegmentMagic = 0x4e54'4253'484d'3031ull;

// Owner of the mapping. Created (and torn down) by the parent; children
// inherit the mapping via fork and never construct one.
class Segment {
 public:
  // Lays out a segment for `npes` PEs with `heap_slice_bytes` of symmetric
  // heap each and commits every page of it before any PE is forked (see the
  // constructor for why). Throws std::runtime_error on mmap failure.
  Segment(int npes, std::uint64_t heap_slice_bytes);
  ~Segment();
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  SegmentHeader& header() { return *reinterpret_cast<SegmentHeader*>(base_); }
  PeControl& pe(int pe);
  // PE `pe`'s symmetric-heap slice.
  std::span<std::byte> heap(int pe);

  int npes() const { return npes_; }
  std::uint64_t heap_slice() const { return slice_; }

 private:
  int npes_;
  std::uint64_t slice_;
  std::size_t total_ = 0;
  std::size_t controls_off_ = 0;
  std::size_t heaps_off_ = 0;
  std::byte* base_ = nullptr;
};

}  // namespace ntbshmem::backend
