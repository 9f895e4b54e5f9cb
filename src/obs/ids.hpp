// Interned identifiers for the observability layer.
//
// Hot-path instrumentation must not construct or hash std::strings per
// record (the O(n)-string cost of a string-message log). Components intern
// their category/event names once — typically at construction — and record
// small integer ids from then on. Interned ids are dense, stable for the
// lifetime of the interner, and reversible for export.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace ntbshmem::obs {

// Dense id spaces. 0 is a valid id (the first interned name).
using CategoryId = std::uint16_t;
using EventId = std::uint32_t;
using TrackId = std::uint32_t;

// String -> dense id table. Interning an already-known name returns the
// original id; ids are never reused or reordered, so a cached id stays
// valid as long as the interner lives.
class Interner {
 public:
  std::uint32_t id(std::string_view name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto fresh = static_cast<std::uint32_t>(names_.size());
    // deque: elements never relocate, so the map keys can safely view the
    // stored strings (a vector reallocation would move SSO buffers).
    names_.emplace_back(name);
    ids_.emplace(names_.back(), fresh);
    return fresh;
  }

  const std::string& name(std::uint32_t id) const {
    return names_.at(static_cast<std::size_t>(id));
  }

  std::size_t size() const { return names_.size(); }

 private:
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  std::deque<std::string> names_;
  std::unordered_map<std::string_view, std::uint32_t, SvHash, SvEq> ids_;
};

}  // namespace ntbshmem::obs
