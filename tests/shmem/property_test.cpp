// Property-style parameterized sweeps: for every combination of PE count,
// data path, routing mode and completion mode, arbitrary put/get traffic
// between all PE pairs must deliver exactly the bytes sent, and a trailing
// barrier must make all writes visible.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <tuple>
#include <vector>

#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using testing::pattern;
using testing::test_options;

// Transport-tuning axis: the paper-faithful serial protocol, the fully
// pipelined data path, and the pipelined path with the reliability layer on
// (which must be behaviour-invisible when nothing is injected).
enum class Tune : int { kPaper, kAllOn, kAllOnReliable };

TransportTuning make_tuning(Tune t) {
  switch (t) {
    case Tune::kPaper:
      return TransportTuning::paper();
    case Tune::kAllOn:
      return TransportTuning::all_on(4);
    case Tune::kAllOnReliable:
      return TransportTuning::reliable(TransportTuning::all_on(4));
  }
  return TransportTuning::paper();
}

using Param =
    std::tuple<int, DataPath, fabric::RoutingMode, CompletionMode, Tune>;

class TrafficSweep : public ::testing::TestWithParam<Param> {
 protected:
  RuntimeOptions options() const {
    const auto& [npes, path, routing, completion, tune] = GetParam();
    RuntimeOptions opts = test_options(npes, path, routing, completion);
    opts.tuning = make_tuning(tune);
    return opts;
  }
  int npes() const { return std::get<0>(GetParam()); }
};

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto& [npes, path, routing, completion, tune] = info.param;
  std::string s = "n";
  s += std::to_string(npes);
  s += path == DataPath::kDma ? "_dma" : "_memcpy";
  s += routing == fabric::RoutingMode::kRightOnly ? "_right" : "_shortest";
  s += completion == CompletionMode::kFullDelivery ? "_full" : "_localdma";
  s += tune == Tune::kPaper
           ? "_paper"
           : (tune == Tune::kAllOn ? "_allon" : "_allonrel");
  return s;
}

TEST_P(TrafficSweep, AllPairsPutThenBarrierIsVisible) {
  Runtime rt(options());
  const int n = npes();
  const std::size_t slot = 4096;
  rt.run([&] {
    shmem_init();
    // One slot per writer PE.
    auto* buf = static_cast<std::byte*>(
        shmem_malloc(slot * static_cast<std::size_t>(n)));
    const int me = shmem_my_pe();
    std::memset(buf, 0, slot * static_cast<std::size_t>(n));
    shmem_barrier_all();
    for (int dst = 0; dst < n; ++dst) {
      if (dst == me) continue;
      const auto data = pattern(slot, me * 41 + dst);
      shmem_putmem(buf + static_cast<std::size_t>(me) * slot, data.data(),
                   data.size(), dst);
    }
    if (std::get<3>(GetParam()) == CompletionMode::kLocalDma) {
      // Paper-prototype completion: the barrier only guarantees local DMA
      // completion, so multi-hop forwarding may still be in flight. Give
      // the service threads bounded (virtual) time to drain before
      // verifying — this is exactly the visibility wart DESIGN.md §4
      // documents about the prototype's discipline.
      Runtime::current()->runtime().engine().wait_for(sim::msec(500));
    }
    shmem_barrier_all();
    for (int src = 0; src < n; ++src) {
      if (src == me) continue;
      const auto want = pattern(slot, src * 41 + me);
      EXPECT_EQ(std::memcmp(buf + static_cast<std::size_t>(src) * slot,
                            want.data(), want.size()),
                0)
          << "bytes from PE " << src << " corrupted at PE " << me;
    }
    shmem_finalize();
  });
}

TEST_P(TrafficSweep, AllPairsGetReadsExactBytes) {
  Runtime rt(options());
  const int n = npes();
  const std::size_t slot = 2048;
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(slot));
    const int me = shmem_my_pe();
    const auto mine = pattern(slot, me + 7);
    std::memcpy(buf, mine.data(), mine.size());
    shmem_barrier_all();
    std::vector<std::byte> got(slot);
    for (int src = 0; src < n; ++src) {
      shmem_getmem(got.data(), buf, got.size(), src);
      const auto want = pattern(slot, src + 7);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
          << "get from PE " << src << " at PE " << me;
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST_P(TrafficSweep, RandomizedMixedTrafficIsConsistent) {
  Runtime rt(options());
  const int n = npes();
  rt.run([&] {
    shmem_init();
    const int me = shmem_my_pe();
    auto* buf = static_cast<long*>(shmem_malloc(sizeof(long) *
                                                static_cast<std::size_t>(n)));
    auto* counter = static_cast<long*>(shmem_malloc(sizeof(long)));
    for (int i = 0; i < n; ++i) buf[i] = -1;
    *counter = 0;
    shmem_barrier_all();
    // Deterministic per-PE RNG: mixed puts / gets / atomics.
    std::mt19937 rng(static_cast<unsigned>(1234 + me));
    std::uniform_int_distribution<int> pick_pe(0, n - 1);
    for (int iter = 0; iter < 15; ++iter) {
      const int other = pick_pe(rng);
      switch (iter % 3) {
        case 0:
          shmem_long_p(&buf[me], me * 1000 + iter, other);
          break;
        case 1: {
          long v = 0;
          shmem_getmem(&v, counter, sizeof v, other);
          EXPECT_GE(v, 0);
          break;
        }
        case 2:
          shmem_long_atomic_inc(counter, other);
          break;
      }
    }
    shmem_barrier_all();
    // Each PE wrote only slot `me` anywhere, so slots hold either -1 or a
    // value stamped by the slot's owner.
    for (int i = 0; i < n; ++i) {
      if (buf[i] != -1) {
        EXPECT_EQ(buf[i] / 1000, i) << "slot " << i << " stamped by wrong PE";
      }
    }
    // Total increments must be conserved across all PEs.
    long local = *counter;
    auto* total = static_cast<long*>(shmem_malloc(sizeof(long)));
    static long psync[SHMEM_REDUCE_SYNC_SIZE];
    shmem_long_sum_to_all(total, &local, 1, 0, 0, n, nullptr, psync);
    EXPECT_EQ(*total, 5L * n) << "each PE issued 5 atomic increments";
    shmem_finalize();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TrafficSweep,
    ::testing::Combine(
        ::testing::Values(2, 3, 4, 6),
        ::testing::Values(DataPath::kDma, DataPath::kMemcpy),
        ::testing::Values(fabric::RoutingMode::kRightOnly,
                          fabric::RoutingMode::kShortest),
        ::testing::Values(CompletionMode::kFullDelivery,
                          CompletionMode::kLocalDma),
        ::testing::Values(Tune::kPaper, Tune::kAllOn, Tune::kAllOnReliable)),
    param_name);

}  // namespace
}  // namespace ntbshmem::shmem
