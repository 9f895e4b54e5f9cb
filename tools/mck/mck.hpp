// mck: exhaustive protocol model checker for tiny ntbshmem configurations
// (DESIGN.md §4i).
//
// mck drives the real simulation — the same sim::Engine, Transport and NTB
// hardware models every test runs — through EVERY schedulable interleaving
// and fault-firing choice of a small fixed workload ("model") on a small
// fixed configuration ("config"), pruning revisited states by hash. At
// every branch point it re-checks the transport safety invariants (credit
// conservation, staging-slot partition, go-back-N window discipline); at
// the end of every path it checks termination (full quiescence after a
// bounded drain) and the model's own postconditions (heap values,
// exactly-once delivery ledger). A failing path is reported as a
// counterexample: the exact choice script that reproduces it, replayable
// with the schedule digest and the ntbshmem-trace-v1 causal artifact
// enabled.
//
// Configs deliberately stay tiny (2-3 hosts, 1-2 ScratchPad credits): the
// search re-runs the whole simulation once per path (see sim/explore.hpp),
// so state count, not wall-clock per state, is the budget.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/explore.hpp"

namespace ntbshmem::mck {

// Named tiny configurations:
//   paper2  2 hosts, paper-faithful tuning (1 credit, store-and-forward)
//   paper3  3 hosts, paper-faithful tuning (0->2 puts take two hops)
//   allon3  3 hosts, all_on(2 credits) + reliability (fault exploration
//           stays live: dropped doorbells recover via retransmit)
std::vector<std::string> config_names();

// Named workloads:
//   put_barrier  every PE puts a distinct word into its slot on every other
//                PE, then quiet + barrier_all, then verifies all slots and
//                the exactly-once delivery ledger
//   notify       PE 0 puts 42 into the LAST PE's flag word (a two-hop
//                staged path on 3-host ring/right-only — the route that
//                exercises deliver_put) and the last PE waits on
//                heap-change notifications until it observes the value; a
//                notify that fires before the write lands strands the
//                waiter forever, which mck reports as a deadlock
std::vector<std::string> model_names();

// Parses "doorbell,scratchpad,dma,tlp,irq" (any subset) into the
// FaultPlan::Site bitmask consumed by FaultPlan::set_branch_hook. Throws
// std::invalid_argument on an unknown site name.
std::uint32_t parse_fault_sites(const std::string& csv);

struct CheckOptions {
  std::string model = "put_barrier";
  std::string config = "paper2";
  // Arms the planted ack-before-write mutation on every host transport
  // (TransportTestPeer in mck.cpp) — the checker's own acceptance gate: mck
  // must find it and must find nothing without it.
  bool seed_bug = false;
  // Upper bound on faults fired per path; 0 disables fault branch points
  // entirely (pure dispatch-interleaving search).
  int fault_budget = 0;
  // Which FaultPlan sites may branch (bit = 1 << Site). Default: doorbell
  // drops and TLP replays, the two transport-visible loss modes.
  std::uint32_t fault_site_mask = (1u << 1) | (1u << 4);
  sim::ExploreLimits limits;
};

struct CheckResult {
  sim::ExploreReport report;
  // First counterexample, already replayed once with auditing enabled
  // (empty script when the search found no violation).
  std::string script;
  std::string detail;
  std::uint64_t replay_digest = 0;      // schedule digest of the replay
  std::uint64_t replay_dispatches = 0;  // dispatches folded into it
};

// Runs the bounded-exhaustive search; progress and the final summary go to
// `log`. If a violation is found, the first counterexample is replayed
// once with the schedule digest enabled to prove the script reproduces it.
CheckResult check(const CheckOptions& opts, std::ostream& log);

// Replays one choice script (format_script form, "-" for all-defaults)
// with schedule digest and causal tracing armed. Writes the
// ntbshmem-trace-v1 artifact to `trace_out` when non-null. Digest/dispatch
// outputs are optional.
sim::PathOutcome replay(const CheckOptions& opts, const std::string& script,
                        std::ostream* trace_out, std::uint64_t* digest_out,
                        std::uint64_t* dispatches_out);

}  // namespace ntbshmem::mck
