// splitmix64: the one seeded generator behind every random choice in the
// simulator (fault decisions, workload traffic streams, the seeded route
// tie-break, the tests' schedule fuzzer). It is fast, has no bad seeds, and
// its output sequence is fixed by its constants, so a seed in a bug report
// reproduces anywhere.
//
// A stream is one uint64 of state; next() advances it by the golden-ratio
// gamma and returns the mix of the new state. mix() is the same finalizer
// without the state: mix(s) is what next() returns from state s, and it is a
// bijection on uint64, so it also serves as a seeded hash.
#pragma once

#include <cstdint>

namespace ntbshmem::splitmix {

inline constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

// The output of one stream step from state `x`.
constexpr std::uint64_t mix(std::uint64_t x) {
  x += kGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Advances `state` by one step and returns its output.
constexpr std::uint64_t next(std::uint64_t& state) {
  const std::uint64_t out = mix(state);
  state += kGamma;
  return out;
}

// Uniform double in [0, 1) from the top 53 bits of a draw.
constexpr double unit(std::uint64_t draw) {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

}  // namespace ntbshmem::splitmix
