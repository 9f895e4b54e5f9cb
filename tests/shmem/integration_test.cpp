// Cross-module integration: workloads that push multiple subsystems at
// once — symmetric-heap chunk boundaries under remote access, heavy
// bidirectional traffic, stencil halo exchange, and mixed op chaos.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using testing::pattern;
using testing::test_options;

TEST(IntegrationTest, RemoteOpsAcrossHeapChunkBoundary) {
  // Force an allocation spanning two symmetric-heap chunks; remote put and
  // get must handle the physically scattered pieces transparently.
  RuntimeOptions opts = test_options(3);
  opts.symheap_chunk_bytes = 256 * 1024;
  opts.symheap_max_bytes = 2u << 20;
  Runtime rt(opts);
  rt.run([&] {
    shmem_init();
    // Padding pushes the next allocation near the end of chunk 0 (the
    // collective scratch block occupies the bottom of the heap).
    void* pad = shmem_malloc(120 * 1024);
    ASSERT_NE(pad, nullptr);
    auto* buf = static_cast<std::byte*>(shmem_malloc(128 * 1024));
    ASSERT_NE(buf, nullptr);
    Context& c = *Runtime::current();
    const std::uint64_t off = c.symmetric_offset(buf);
    ASSERT_LT(off, 256u * 1024);
    ASSERT_GT(off + 128 * 1024, 256u * 1024) << "buffer must span chunks";

    const int me = shmem_my_pe();
    const auto data = pattern(128 * 1024, me + 50);
    shmem_putmem(buf, data.data(), data.size(), (me + 1) % 3);
    shmem_barrier_all();
    const auto want = pattern(128 * 1024, (me + 2) % 3 + 50);
    EXPECT_EQ(std::memcmp(buf, want.data(), want.size()), 0);

    std::vector<std::byte> got(128 * 1024);
    shmem_getmem(got.data(), buf, got.size(), (me + 1) % 3);
    const auto want_get = pattern(128 * 1024, me + 50);
    EXPECT_EQ(std::memcmp(got.data(), want_get.data(), want_get.size()), 0);
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(IntegrationTest, BidirectionalHeavyTraffic) {
  // Every PE simultaneously streams large puts rightward AND issues gets
  // leftward; channels, staging buffers and service threads must survive
  // the cross-traffic without corruption or deadlock.
  Runtime rt(test_options(4));
  rt.run([&] {
    shmem_init();
    const int me = shmem_my_pe();
    auto* buf = static_cast<std::byte*>(shmem_malloc(4 * 64 * 1024));
    const auto mine = pattern(64 * 1024, me);
    std::memcpy(buf + static_cast<std::size_t>(me) * 64 * 1024, mine.data(),
                mine.size());
    shmem_barrier_all();
    for (int round = 0; round < 3; ++round) {
      const auto data = pattern(64 * 1024, me * 10 + round);
      shmem_putmem_nbi(buf + static_cast<std::size_t>(me) * 64 * 1024,
                       data.data(), data.size(), (me + 1) % 4);
      std::vector<std::byte> got(64 * 1024);
      const int src = (me + 3) % 4;
      shmem_getmem(got.data(),
                   buf + static_cast<std::size_t>(src) * 64 * 1024,
                   got.size(), src);
      shmem_quiet();
    }
    shmem_barrier_all();
    // Slot `me-1` on me was last written by the left neighbour's round 2.
    const int writer = (me + 3) % 4;
    const auto want = pattern(64 * 1024, writer * 10 + 2);
    EXPECT_EQ(std::memcmp(buf + static_cast<std::size_t>(writer) * 64 * 1024,
                          want.data(), want.size()),
              0);
    shmem_finalize();
  });
}

TEST(IntegrationTest, StencilHaloExchangeConverges) {
  // Miniature version of examples/heat_1d as a checked test.
  constexpr int kCells = 8;
  constexpr int kIters = 24;  // heat needs > kCells steps to cross a PE boundary
  constexpr double kAlpha = 0.25;
  Runtime rt(test_options(4));
  rt.run([&] {
    shmem_init();
    const int me = shmem_my_pe();
    const int n = shmem_n_pes();
    auto* slab = static_cast<double*>(
        shmem_calloc(kCells + 2, sizeof(double)));
    std::vector<double> next(kCells + 2, 0.0);
    if (me == 0) slab[0] = 64.0;
    shmem_barrier_all();
    for (int it = 0; it < kIters; ++it) {
      if (me > 0) shmem_double_put(&slab[kCells + 1], &slab[1], 1, me - 1);
      if (me < n - 1) shmem_double_put(&slab[0], &slab[kCells], 1, me + 1);
      shmem_barrier_all();
      for (int i = 1; i <= kCells; ++i) {
        next[static_cast<std::size_t>(i)] =
            slab[i] + kAlpha * (slab[i - 1] - 2 * slab[i] + slab[i + 1]);
      }
      if (me != 0) next[0] = slab[0];
      else next[0] = slab[0];  // boundary held
      next[kCells + 1] = slab[kCells + 1];
      for (int i = 0; i <= kCells + 1; ++i) slab[i] = next[static_cast<std::size_t>(i)];
      shmem_barrier_all();
    }
    // Sanity: heat monotonically decreases along the rod away from the
    // hot boundary, and some heat has crossed at least one PE boundary.
    static long psync[SHMEM_REDUCE_SYNC_SIZE];
    auto* total_in = static_cast<double*>(shmem_malloc(sizeof(double)));
    auto* total_out = static_cast<double*>(shmem_malloc(sizeof(double)));
    double local_sum = 0;
    for (int i = 1; i <= kCells; ++i) local_sum += slab[i];
    *total_in = local_sum;
    shmem_double_sum_to_all(total_out, total_in, 1, 0, 0, n, nullptr, psync);
    EXPECT_GT(*total_out, 0.0);
    if (me == 1) {
      EXPECT_GT(slab[1], 0.0) << "heat must have crossed into PE 1's slab";
    }
    shmem_finalize();
  });
}

TEST(IntegrationTest, AtomicsPutsAndCollectivesInterleaved) {
  Runtime rt(test_options(5));
  rt.run([&] {
    shmem_init();
    const int me = shmem_my_pe();
    const int n = shmem_n_pes();
    auto* counter = static_cast<long*>(shmem_calloc(1, sizeof(long)));
    auto* table = static_cast<long*>(shmem_calloc(
        static_cast<std::size_t>(n), sizeof(long)));
    static long psync[SHMEM_REDUCE_SYNC_SIZE];
    for (int round = 0; round < 4; ++round) {
      shmem_long_atomic_add(counter, me + 1, (me + round) % n);
      shmem_long_p(&table[me], me * 100 + round, (me + 1) % n);
      auto* sum_in = static_cast<long*>(shmem_malloc(sizeof(long)));
      auto* sum_out = static_cast<long*>(shmem_malloc(sizeof(long)));
      // Atomics are synchronous to their issuer, so after this barrier all
      // of this round's adds are applied everywhere.
      shmem_barrier_all();
      *sum_in = *counter;
      shmem_long_sum_to_all(sum_out, sum_in, 1, 0, 0, n, nullptr, psync);
      // Conservation: the global counter mass equals all adds issued so
      // far; every PE adds (me+1) per round.
      EXPECT_EQ(*sum_out, static_cast<long>(round + 1) * (1 + 2 + 3 + 4 + 5));
      shmem_free(sum_out);
      shmem_free(sum_in);
    }
    shmem_barrier_all();
    EXPECT_EQ(table[(me + n - 1) % n], ((me + n - 1) % n) * 100 + 3);
    shmem_finalize();
  });
}

TEST(IntegrationTest, LinkUtilizationAccountingUnderLoad) {
  // X7: the links count bytes per direction and (with recording on, which
  // arms the utilization windows) busy time; a saturating unidirectional
  // stream loads its cable while the reverse direction stays near idle.
  RuntimeOptions opts = test_options(3);
  opts.obs.causal_enabled = true;
  Runtime rt(opts);
  sim::Dur window = 0;
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(512 * 1024));
    shmem_barrier_all();
    sim::Engine& eng = Runtime::current()->runtime().engine();
    const sim::Time t0 = eng.now();
    if (shmem_my_pe() == 0) {
      const auto data = pattern(512 * 1024, 1);
      for (int r = 0; r < 4; ++r) {
        shmem_putmem(buf, data.data(), data.size(), 1);
      }
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 0) window = eng.now() - t0;
    shmem_finalize();
  });
  const pcie::Link& link = rt.fabric().link(0);
  obs::MetricsRegistry& reg = rt.obs().metrics;
  const std::uint64_t fwd = reg.counter(link.name() + ".a2b.bytes")->value();
  const std::uint64_t rev = reg.counter(link.name() + ".b2a.bytes")->value();
  EXPECT_GE(fwd, 4u * 512 * 1024);  // exactly the payload: register ops are latency-only
  // The data direction moved orders of magnitude more bytes than the
  // reverse (ack/status-only) direction.
  EXPECT_GT(fwd, 100 * std::max<std::uint64_t>(rev, 1));
  EXPECT_GT(link.busy_ns(pcie::End::kA), 0u);
  EXPECT_LE(link.busy_ns(pcie::End::kA),
            static_cast<std::uint64_t>(rt.engine().now()));
  EXPECT_GT(window, 0);
}

}  // namespace
}  // namespace ntbshmem::shmem
