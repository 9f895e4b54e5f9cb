// Branch-point hook for explicit-state exploration (DESIGN.md §4i).
//
// The engine and the fault plan are deterministic: at every point where the
// simulation *could* go more than one way — several queue items runnable at
// the same timestamp, or an armed fault site that may or may not fire — they
// consult fixed policy (FIFO tie-break, seeded probability roll). A
// BranchHook replaces that policy with an external chooser, turning each
// such point into an explicit branch the model checker (tools/mck) can
// enumerate and a seeded schedule fuzzer can sample.
//
// Contract:
//   * choose_dispatch(n) is called only when n > 1 same-timestamp runnable
//     items exist; it returns the index (0..n-1, frontier order = the
//     default seq order, so index 0 reproduces the unhooked
//     schedule) of the item to dispatch now. The remaining items are
//     re-queued with their original keys and re-offered at the next
//     dispatch.
//   * choose_fault(site, key) is called by FaultPlan in explore mode for
//     each eligible decision site; returning true fires the fault,
//     false skips it. Returning false everywhere reproduces a fault-free
//     run.
//
// Hooks must be deterministic functions of the call sequence (the explorer's
// ScriptedHook replays a choice prefix, then defaults) — the whole
// exploration scheme is replay-based because fiber stacks cannot be
// checkpointed.
#pragma once

#include <cstddef>
#include <string>

namespace ntbshmem::sim {

class BranchHook {
 public:
  virtual ~BranchHook() = default;

  // Pick which of `n` same-timestamp runnable queue items dispatches next.
  // Must return a value in [0, n). Called only for n > 1.
  virtual std::size_t choose_dispatch(std::size_t n) = 0;

  // Decide whether the fault at (site, key) fires. `site` is the integer
  // value of FaultPlan::Site (kept as int to avoid a header cycle).
  virtual bool choose_fault(int site, const std::string& key) = 0;
};

}  // namespace ntbshmem::sim
