#include "host/memory.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace ntbshmem::host {
namespace {

TEST(MemoryArenaTest, AllocatesAlignedRegions) {
  MemoryArena arena(1 << 20);
  Region a = arena.allocate(100, 64);
  Region b = arena.allocate(200, 4096);
  EXPECT_EQ(a.offset % 64, 0u);
  EXPECT_EQ(b.offset % 4096, 0u);
  EXPECT_GE(b.offset, a.offset + a.size);
}

TEST(MemoryArenaTest, ExhaustionThrows) {
  MemoryArena arena(1024);
  arena.allocate(1000);
  EXPECT_THROW(arena.allocate(100), OutOfMemory);
}

TEST(MemoryArenaTest, ExactFitSucceeds) {
  MemoryArena arena(1024);
  Region r = arena.allocate(1024, 1);
  EXPECT_EQ(r.size, 1024u);
  EXPECT_THROW(arena.allocate(1, 1), OutOfMemory);
}

TEST(MemoryArenaTest, BadAlignmentThrows) {
  MemoryArena arena(1024);
  EXPECT_THROW(arena.allocate(16, 3), std::invalid_argument);
  EXPECT_THROW(arena.allocate(16, 0), std::invalid_argument);
}

TEST(MemoryArenaTest, BytesAreBoundsChecked) {
  MemoryArena arena(1024);
  Region r = arena.allocate(128);
  EXPECT_NO_THROW(arena.bytes(r, 0, 128));
  EXPECT_NO_THROW(arena.bytes(r, 128, 0));
  EXPECT_THROW(arena.bytes(r, 0, 129), std::out_of_range);
  EXPECT_THROW(arena.bytes(r, 120, 16), std::out_of_range);
}

TEST(MemoryArenaTest, DataRoundTrips) {
  MemoryArena arena(1024);
  Region r = arena.allocate(16);
  auto w = arena.bytes(r);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<std::byte>(i);
  auto rd = arena.bytes(r, 4, 4);
  EXPECT_EQ(rd[0], static_cast<std::byte>(4));
  EXPECT_EQ(rd[3], static_cast<std::byte>(7));
}

TEST(MemoryArenaTest, FreshArenaReadsZero) {
  const auto fill = [](MemoryArena& a, std::byte value) {
    auto all = a.bytes(a.allocate(a.capacity(), 1));
    std::fill(all.begin(), all.end(), value);
  };
  {
    MemoryArena freed(4u << 20);
    fill(freed, std::byte{0xa5});
  }
  MemoryArena live(4u << 20);
  fill(live, std::byte{0x5a});
  MemoryArena arena(4u << 20);
  auto all = arena.bytes(arena.allocate(arena.capacity(), 1));
  EXPECT_EQ(all.front(), std::byte{0});
  EXPECT_EQ(all[all.size() / 2], std::byte{0});
  EXPECT_EQ(all.back(), std::byte{0});
}

TEST(MemoryArenaTest, UnmappableSizeThrowsOutOfMemoryNamingTheArena) {
  try {
    MemoryArena arena(1ull << 62, "huge");
    FAIL() << "a 2^62-byte arena was mapped";
  } catch (const OutOfMemory& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("huge"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(1ull << 62)), std::string::npos)
        << what;
  }
  // Too large to round up to whole pages without wrapping.
  EXPECT_THROW(MemoryArena(~0ull, "wrap"), OutOfMemory);
}

TEST(MemoryArenaDeathTest, WritePastTheEndHitsTheGuardPage) {
  const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  MemoryArena arena(4 * page);
  auto all = arena.bytes(arena.allocate(4 * page, 1));
  volatile std::byte* past_end = all.data() + all.size();
  EXPECT_DEATH(*past_end = std::byte{1}, "");
}

}  // namespace
}  // namespace ntbshmem::host
