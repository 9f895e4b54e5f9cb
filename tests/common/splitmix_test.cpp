#include "common/splitmix.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace ntbshmem {
namespace {

// The published splitmix64 outputs of a stream seeded with 0.
TEST(SplitmixTest, MatchesPublishedSeedZeroOutputs) {
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix::next(state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(splitmix::next(state), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(splitmix::next(state), 0x06c45d188009454full);
  static_assert(splitmix::mix(0) == 0xe220a8397b1dcdafull);
}

// The stateless mix of s is the output of one stream step from s, and the
// step advances the state by the gamma.
TEST(SplitmixTest, MixIsOneStreamStep) {
  constexpr std::uint64_t kStates[] = {0, 1, 42, 0x0123456789abcdef,
                                       ~std::uint64_t{0}};
  for (const std::uint64_t s : kStates) {
    std::uint64_t state = s;
    EXPECT_EQ(splitmix::mix(s), splitmix::next(state)) << s;
    EXPECT_EQ(state, s + splitmix::kGamma) << s;
  }
}

// unit() keeps the top 53 bits: 0 maps to 0 and the largest draw stays
// below 1.
TEST(SplitmixTest, UnitIsHalfOpen) {
  EXPECT_EQ(splitmix::unit(0), 0.0);
  EXPECT_LT(splitmix::unit(~std::uint64_t{0}), 1.0);
  EXPECT_EQ(splitmix::unit(std::uint64_t{1} << 63), 0.5);
}

}  // namespace
}  // namespace ntbshmem
