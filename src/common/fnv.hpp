// FNV-1a (64-bit): the one hash behind every stable digest in the simulator
// (schedule digests, model-checker state hashes, routing-table digests) and
// every seeded stream key. std::hash is not used on purpose: its value is
// implementation-defined, and these values must be stable across platforms
// so that a seed or digest in a bug report reproduces anywhere.
//
// Each fold takes the running hash and returns the new one; start from
// kOffset. Callers choose the byte sequence, and it is part of their value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace ntbshmem::fnv {

inline constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kPrime = 0x100000001b3ull;

// One byte.
constexpr std::uint64_t fold(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * kPrime;
}

// The eight bytes of `v`, least significant first.
constexpr std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = fold(h, static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return h;
}

// Every byte, in order.
constexpr std::uint64_t fold_bytes(std::uint64_t h,
                                   std::span<const std::byte> bytes) {
  for (const std::byte b : bytes) h = fold(h, static_cast<std::uint8_t>(b));
  return h;
}

constexpr std::uint64_t fold_bytes(std::uint64_t h, std::string_view s) {
  for (const char c : s) h = fold(h, static_cast<std::uint8_t>(c));
  return h;
}

}  // namespace ntbshmem::fnv
