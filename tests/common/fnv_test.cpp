#include "common/fnv.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>

namespace ntbshmem {
namespace {

// The published FNV-1a 64-bit test vectors.
TEST(FnvTest, MatchesStandardVectors) {
  EXPECT_EQ(fnv::fold_bytes(fnv::kOffset, ""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv::fold_bytes(fnv::kOffset, "a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv::fold_bytes(fnv::kOffset, "foobar"), 0x85944171f73967e8ull);
  static_assert(fnv::fold_bytes(fnv::kOffset, "a") == 0xaf63dc4c8601ec8cull);
}

// A u64 fold is the byte fold of its little-endian bytes.
TEST(FnvTest, U64FoldIsLittleEndianByteFold) {
  const std::uint64_t v = 0x0123456789abcdefull;
  const std::array<std::byte, 8> le = {
      std::byte{0xef}, std::byte{0xcd}, std::byte{0xab}, std::byte{0x89},
      std::byte{0x67}, std::byte{0x45}, std::byte{0x23}, std::byte{0x01}};
  EXPECT_EQ(fnv::fold_u64(fnv::kOffset, v), fnv::fold_bytes(fnv::kOffset, le));
  std::uint64_t bytewise = fnv::kOffset;
  for (const std::byte b : le) {
    bytewise = fnv::fold(bytewise, static_cast<std::uint8_t>(b));
  }
  EXPECT_EQ(fnv::fold_u64(fnv::kOffset, v), bytewise);
}

}  // namespace
}  // namespace ntbshmem
