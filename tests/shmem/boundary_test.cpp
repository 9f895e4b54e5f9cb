// Boundary sweep: transfer sizes straddling every protocol boundary —
// LUT segment (64KB), bypass chunk (8KB), bypass/staging capacity, message
// header padding — at 1 and 2 hops, put and get. Off-by-one bugs in
// segmentation/chunking/reassembly live exactly here.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using testing::pattern;
using testing::test_options;

std::vector<std::size_t> boundary_sizes(const RuntimeOptions& opts) {
  std::vector<std::size_t> sizes;
  auto add_around = [&sizes](std::uint64_t b) {
    if (b > 1) sizes.push_back(static_cast<std::size_t>(b - 1));
    sizes.push_back(static_cast<std::size_t>(b));
    sizes.push_back(static_cast<std::size_t>(b + 1));
  };
  sizes.push_back(1);
  add_around(opts.timing.bypass_chunk_bytes);
  add_around(2 * opts.timing.bypass_chunk_bytes);
  add_around(opts.timing.lut_segment_bytes);
  add_around(opts.timing.lut_segment_bytes * 2);
  add_around(opts.timing.bypass_buffer_bytes - 64);  // staging minus header
  add_around(opts.timing.bypass_buffer_bytes);
  return sizes;
}

class BoundarySweep : public ::testing::TestWithParam<int> {};  // hops

TEST_P(BoundarySweep, PutDeliversExactBytes) {
  const int hops = GetParam();
  RuntimeOptions opts = test_options(3);
  opts.timing.bypass_buffer_bytes = 128 * 1024;  // small: hits capacity splits
  opts.symheap_chunk_bytes = 2u << 20;
  opts.symheap_max_bytes = 8u << 20;
  const auto sizes = boundary_sizes(opts);
  const std::size_t max_size = *std::max_element(sizes.begin(), sizes.end());
  Runtime rt(opts);
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(max_size + 64));
    shmem_barrier_all();
    int seed = 0;
    for (std::size_t size : sizes) {
      ++seed;
      if (shmem_my_pe() == 0) {
        const auto data = pattern(size, seed);
        // +1 offset: misaligned destination as well.
        shmem_putmem(buf + 1, data.data(), data.size(), hops);
        shmem_quiet();
      }
      shmem_barrier_all();
      if (shmem_my_pe() == hops) {
        const auto want = pattern(size, seed);
        ASSERT_EQ(std::memcmp(buf + 1, want.data(), want.size()), 0)
            << "size " << size << " at " << hops << " hops";
      }
      shmem_barrier_all();
    }
    shmem_finalize();
  });
}

TEST_P(BoundarySweep, GetReadsExactBytes) {
  const int hops = GetParam();
  RuntimeOptions opts = test_options(3);
  opts.timing.bypass_buffer_bytes = 128 * 1024;
  opts.symheap_chunk_bytes = 2u << 20;
  opts.symheap_max_bytes = 8u << 20;
  // Get responses are chunked; keep the sweep to chunk-ish boundaries so
  // virtual runtime stays reasonable.
  std::vector<std::size_t> sizes = {1,
                                    opts.timing.bypass_chunk_bytes - 1,
                                    opts.timing.bypass_chunk_bytes,
                                    opts.timing.bypass_chunk_bytes + 1,
                                    3 * opts.timing.bypass_chunk_bytes - 1,
                                    64 * 1024 + 1};
  Runtime rt(opts);
  rt.run([&] {
    shmem_init();
    const std::size_t max_size = 64 * 1024 + 64;
    auto* buf = static_cast<std::byte*>(shmem_malloc(max_size));
    const int me = shmem_my_pe();
    const auto mine = pattern(max_size, me + 11);
    std::memcpy(buf, mine.data(), mine.size());
    shmem_barrier_all();
    if (me == 0) {
      for (std::size_t size : sizes) {
        std::vector<std::byte> got(size);
        shmem_getmem(got.data(), buf + 3, got.size(), hops);  // odd offset
        const auto remote = pattern(max_size, hops + 11);
        ASSERT_EQ(std::memcmp(got.data(), remote.data() + 3, size), 0)
            << "size " << size << " at " << hops << " hops";
      }
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

INSTANTIATE_TEST_SUITE_P(Hops, BoundarySweep, ::testing::Values(1, 2),
                         [](const auto& param_info) {
                           return "hops" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace ntbshmem::shmem
