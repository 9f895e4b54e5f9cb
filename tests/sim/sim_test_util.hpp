// Shared helpers for the simulator test suites (the SHMEM schedule-digest
// suite uses the schedule fuzzer too).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/splitmix.hpp"
#include "sim/branch.hpp"

namespace ntbshmem::sim::testing {

// `prefix` followed by the decimal `i` ("p3"): a process or event name.
// Built by appending: GCC 12 at -O3 misreports `"p" + std::to_string(i)`
// as an overlapping copy (-Wrestrict), which -Werror builds reject.
inline std::string numbered(std::string prefix, long long i) {
  prefix += std::to_string(i);
  return prefix;
}

// Schedule fuzzer: a seeded tie-break permutation applied at dispatch time.
// Installed with Engine::set_branch_hook, it picks which of the runnable
// items queued for the same instant dispatches next from a splitmix64
// stream, and never fires a fault. Each seed is its own deterministic
// schedule; SHMEM-visible results must not depend on the seed
// (DESIGN.md §4d).
class SeededTiebreakHook final : public BranchHook {
 public:
  explicit SeededTiebreakHook(std::uint64_t seed) : state_(seed) {}

  std::size_t choose_dispatch(std::size_t n) override {
    return static_cast<std::size_t>(splitmix::next(state_) % n);
  }
  bool choose_fault(int /*site*/, const std::string& /*key*/) override {
    return false;
  }

 private:
  std::uint64_t state_;
};

}  // namespace ntbshmem::sim::testing
