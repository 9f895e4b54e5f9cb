// JSON checks for the export tests. Well-formedness is decided by the
// tracecheck parser, so the tests accept exactly what the artifact checker
// reads and the repo has one JSON grammar.
#pragma once

#include <cstddef>
#include <exception>
#include <string_view>

#include "../../tools/tracecheck/json.hpp"

namespace ntbshmem::obs::testing {

inline bool json_well_formed(std::string_view text) {
  try {
    tracecheck::json::parse(text);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// Occurrences of an exact byte pattern (serializer output has no optional
// whitespace, so substring counting against the canonical form is exact).
inline std::size_t count_occurrences(std::string_view text,
                                     std::string_view pattern) {
  std::size_t n = 0;
  for (std::size_t at = text.find(pattern); at != std::string_view::npos;
       at = text.find(pattern, at + pattern.size())) {
    ++n;
  }
  return n;
}

}  // namespace ntbshmem::obs::testing
