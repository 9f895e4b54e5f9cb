// Schedule auditing for the discrete-event engine.
//
// The determinism contract (DESIGN.md §4d) says identical workloads produce
// identical schedules. A ScheduleDigest makes that claim checkable: when
// enabled on an Engine it folds every dispatched queue item — the tuple
// (virtual time, sequence number, dispatch kind) — into an FNV-1a hash, in
// dispatch order. Two runs of the same workload must produce bit-identical
// digests; a drift pinpoints the first divergence far more cheaply than
// diffing full traces.
//
// The companion schedule fuzzer is a seeded BranchHook (sim/branch.hpp)
// installed with Engine::set_branch_hook: it picks which same-timestamp
// runnable item dispatches next from a seeded stream. Code that is
// order-sensitive only where the spec allows it (FIFO event wake-up,
// spawn-start order) will produce a *different but still deterministic*
// schedule — SHMEM-visible results (heap contents, barrier counts) must
// not change. A result change under fuzzing is accidental order
// sensitivity: exactly the bug class the auditor exists to catch.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace ntbshmem::sim {

// What the engine dispatched: a process resume or an inline callback.
// Stale wake-ups and cancelled callbacks are skipped by the scheduler and
// deliberately not digested — they are bookkeeping artifacts, not schedule.
enum class DispatchKind : std::uint8_t {
  kProcess = 1,
  kCallback = 2,
};

// Stateless splitmix64 finalizer: a bijection on uint64 and a general seeded
// mixer (the router's seeded route tie-break keys ports with it). Distinct
// from the stream-advancing splitmix64 in fault.cpp.
std::uint64_t splitmix64_mix(std::uint64_t x);

// FNV-1a (64-bit) accumulator over the dispatched event stream.
class ScheduleDigest {
 public:
  void reset();
  void mix(Time t, std::uint64_t seq, DispatchKind kind);

  // Digest of everything mixed so far; stable across platforms.
  std::uint64_t value() const { return hash_; }
  // Number of dispatches folded in (a cheap first-line diff aid).
  std::uint64_t count() const { return count_; }

 private:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;

  std::uint64_t hash_ = kOffset;
  std::uint64_t count_ = 0;
};

}  // namespace ntbshmem::sim
