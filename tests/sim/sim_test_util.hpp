// Shared helpers for the simulator test suites.
#pragma once

#include <string>

namespace ntbshmem::sim::testing {

// `prefix` followed by the decimal `i` ("p3"): a process or event name.
// Built by appending: GCC 12 at -O3 misreports `"p" + std::to_string(i)`
// as an overlapping copy (-Wrestrict), which -Werror builds reject.
inline std::string numbered(std::string prefix, long long i) {
  prefix += std::to_string(i);
  return prefix;
}

}  // namespace ntbshmem::sim::testing
