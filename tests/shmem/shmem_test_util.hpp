// Shared helpers for the OpenSHMEM test suites.
#pragma once

#include <cstdint>
#include <vector>

#include "shmem/api.hpp"
#include "shmem/options.hpp"
#include "shmem/runtime.hpp"

namespace ntbshmem::shmem::testing {

inline RuntimeOptions test_options(
    int npes, DataPath path = DataPath::kDma,
    fabric::RoutingMode routing = fabric::RoutingMode::kRightOnly,
    CompletionMode completion = CompletionMode::kFullDelivery) {
  RuntimeOptions opts;
  opts.npes = npes;
  opts.data_path = path;
  opts.routing = routing;
  opts.completion = completion;
  opts.symheap_chunk_bytes = 1 << 20;
  opts.symheap_max_bytes = 8u << 20;
  return opts;
}

// Deterministic per-PE test pattern.
inline std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 137 + static_cast<std::size_t>(seed) * 31 + 7) & 0xff);
  }
  return v;
}

}  // namespace ntbshmem::shmem::testing
