// FlightRecorder ring semantics: wraparound retention, dump-after-wrap
// ordering, clear() and the zero-filled empty ring — the post-mortem path
// must be trustworthy precisely when the ring has long since wrapped.
#include "obs/flight.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

namespace ntbshmem::obs {
namespace {

constexpr int kCap = static_cast<int>(FlightRecorder::kCapacity);

TEST(FlightRecorderTest, ZeroFilledMemoryIsAnEmptyRing) {
  // The shm backend embeds rings in a zero-filled shared segment and never
  // constructs them, so all-zero bytes must read as an empty ring.
  FlightRecorder rec;
  for (int i = 0; i < 3; ++i) rec.log(i, FlightCode::kGet);
  std::memset(static_cast<void*>(&rec), 0, sizeof rec);
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_TRUE(rec.recent().empty());
  rec.log(7, FlightCode::kPut, 1, 2, 3);
  ASSERT_EQ(rec.recent().size(), 1u);
  EXPECT_EQ(rec.recent().front().t, 7);
}

TEST(FlightRecorderTest, RecentBeforeWrapKeepsEverythingInOrder) {
  FlightRecorder rec;
  for (int i = 0; i < 5; ++i) {
    rec.log(i * 10, FlightCode::kPut, static_cast<std::uint16_t>(i));
  }
  EXPECT_EQ(rec.total(), 5u);
  const std::vector<FlightRecord> out = rec.recent();
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].t, i * 10);
    EXPECT_EQ(out[static_cast<std::size_t>(i)].a, i);
  }
}

TEST(FlightRecorderTest, WraparoundRetainsNewestCapacityRecordsOldestFirst) {
  FlightRecorder rec;
  // kCap + 7 records: the first 7 are evicted.
  const int n = kCap + 7;
  for (int i = 0; i < n; ++i) {
    rec.log(i, FlightCode::kFrameTx, static_cast<std::uint16_t>(i),
            static_cast<std::uint32_t>(100 + i),
            static_cast<std::uint64_t>(1000 + i));
  }
  EXPECT_EQ(rec.total(), static_cast<std::uint64_t>(n));
  const std::vector<FlightRecord> out = rec.recent();
  ASSERT_EQ(out.size(), FlightRecorder::kCapacity);
  for (int i = 0; i < kCap; ++i) {
    const FlightRecord& r = out[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.t, 7 + i);  // oldest retained first, strictly ascending
    EXPECT_EQ(r.a, 7 + i);
    EXPECT_EQ(r.b, static_cast<std::uint32_t>(107 + i));
    EXPECT_EQ(r.c, static_cast<std::uint64_t>(1007 + i));
  }
}

TEST(FlightRecorderTest, WrapExactlyAtCapacityBoundary) {
  FlightRecorder rec;
  for (int i = 0; i < kCap; ++i) rec.log(i, FlightCode::kAck);
  ASSERT_EQ(rec.recent().size(), FlightRecorder::kCapacity);
  EXPECT_EQ(rec.recent().front().t, 0);
  // One more evicts exactly the oldest.
  rec.log(kCap, FlightCode::kAck);
  const std::vector<FlightRecord> out = rec.recent();
  ASSERT_EQ(out.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(out.front().t, 1);
  EXPECT_EQ(out.back().t, kCap);
}

TEST(FlightRecorderTest, DumpAfterWrapReportsEvictionsAndOrdering) {
  FlightRecorder rec;
  const int n = kCap + 6;
  for (int i = 0; i < n; ++i) {
    rec.log(i * 100, FlightCode::kRetransmit, 2,
            static_cast<std::uint32_t>(i));
  }
  std::ostringstream oss;
  dump_flight(rec, "host3", oss);
  const std::string text = oss.str();
  EXPECT_NE(text.find("flight recorder host3"), std::string::npos);
  EXPECT_NE(text.find(std::to_string(kCap) + " records retained, 6 evicted"),
            std::string::npos);
  // Newest-last: the retained records appear oldest first in the dump.
  const auto at = [&](int i) {
    return text.find("[t=" + std::to_string(i * 100) + "ns] retransmit");
  };
  ASSERT_NE(at(6), std::string::npos);
  ASSERT_NE(at(n - 1), std::string::npos);
  EXPECT_LT(at(6), at(7));
  EXPECT_LT(at(7), at(n - 2));
  EXPECT_LT(at(n - 2), at(n - 1));
  // Everything evicted is absent.
  EXPECT_EQ(at(5), std::string::npos);
  EXPECT_EQ(at(0), std::string::npos);
}

TEST(FlightRecorderTest, ClearResetsRetentionAndTotals) {
  FlightRecorder rec;
  for (int i = 0; i < kCap + 5; ++i) rec.log(i, FlightCode::kNak);
  rec.clear();
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_TRUE(rec.recent().empty());
  // The ring is reusable after clear, wrap semantics intact.
  for (int i = 0; i < kCap + 2; ++i) rec.log(50 + i, FlightCode::kBarrier);
  const std::vector<FlightRecord> out = rec.recent();
  ASSERT_EQ(out.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(out.front().t, 52);
  EXPECT_EQ(out.back().t, 50 + kCap + 1);
}

TEST(FlightRecorderTest, EveryCodeHasAStableName) {
  for (int code = 1; code <= 18; ++code) {
    EXPECT_STRNE(flight_code_name(static_cast<FlightCode>(code)), "unknown")
        << "code " << code;
  }
  EXPECT_STREQ(flight_code_name(static_cast<FlightCode>(999)), "unknown");
}

}  // namespace
}  // namespace ntbshmem::obs
