// Barrier correctness: the paper's Fig. 6 ring protocol plus the
// centralized and dissemination baselines. The key property: no PE leaves
// a barrier before every PE has entered it — checked under deliberately
// skewed arrival times.
#include <gtest/gtest.h>

#include <vector>

#include "shmem/api.hpp"
#include "shmem/collectives.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using testing::test_options;

class BarrierAlgTest : public ::testing::TestWithParam<BarrierAlgorithm> {};

TEST_P(BarrierAlgTest, NoEarlyReleaseUnderSkewedArrivals) {
  const BarrierAlgorithm alg = GetParam();
  for (int npes : {2, 3, 5}) {
    Runtime rt(test_options(npes));
    std::vector<sim::Time> entered(static_cast<std::size_t>(npes));
    std::vector<sim::Time> left(static_cast<std::size_t>(npes));
    rt.run([&] {
      shmem_init();
      Context& c = *Runtime::current();
      sim::Engine& eng = c.runtime().engine();
      // Heavily skewed arrival: PE k arrives k*5ms late.
      eng.wait_for(sim::msec(5) * c.pe());
      entered[static_cast<std::size_t>(c.pe())] = eng.now();
      barrier_all(c, alg);
      left[static_cast<std::size_t>(c.pe())] = eng.now();
      shmem_finalize();
    });
    const sim::Time last_entry =
        *std::max_element(entered.begin(), entered.end());
    for (int pe = 0; pe < npes; ++pe) {
      EXPECT_GE(left[static_cast<std::size_t>(pe)], last_entry)
          << "PE " << pe << " left before everyone entered (npes=" << npes
          << ")";
    }
  }
}

TEST_P(BarrierAlgTest, RepeatedBarriersStayCorrect) {
  const BarrierAlgorithm alg = GetParam();
  Runtime rt(test_options(3));
  std::vector<int> round_of_pe(3, 0);
  rt.run([&] {
    shmem_init();
    Context& c = *Runtime::current();
    for (int round = 0; round < 10; ++round) {
      // Everyone must observe all PEs at the same round number.
      round_of_pe[static_cast<std::size_t>(c.pe())] = round;
      barrier_all(c, alg);
      for (int pe = 0; pe < 3; ++pe) {
        EXPECT_EQ(round_of_pe[static_cast<std::size_t>(pe)], round);
      }
      barrier_all(c, alg);
    }
    shmem_finalize();
  });
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BarrierAlgTest,
                         ::testing::Values(BarrierAlgorithm::kPaperRing,
                                           BarrierAlgorithm::kCentralized,
                                           BarrierAlgorithm::kDissemination),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case BarrierAlgorithm::kPaperRing:
                               return "PaperRing";
                             case BarrierAlgorithm::kCentralized:
                               return "Centralized";
                             case BarrierAlgorithm::kDissemination:
                               return "Dissemination";
                           }
                           return "Unknown";
                         });

TEST(BarrierTest, BarrierDrainsOutstandingPuts) {
  // kFullDelivery: after barrier_all, a multi-hop put issued before the
  // barrier must be visible at the destination.
  Runtime rt(test_options(4));
  rt.run([&] {
    shmem_init();
    auto* flag = static_cast<long*>(shmem_malloc(sizeof(long)));
    *flag = 0;
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      const long v = 42;
      shmem_putmem(flag, &v, sizeof v, 3);  // 3 hops rightward
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 3) {
      EXPECT_EQ(*flag, 42);
    }
    shmem_finalize();
  });
}

TEST(BarrierTest, RingBarrierLatencyInPaperBand) {
  // Fig. 10: ~1.0-2.5 ms on the 3-host ring.
  Runtime rt(test_options(3));
  sim::Dur latency = 0;
  rt.run([&] {
    shmem_init();
    shmem_barrier_all();  // warm-up: align PEs
    sim::Engine& eng = Runtime::current()->runtime().engine();
    const sim::Time t0 = eng.now();
    shmem_barrier_all();
    latency = eng.now() - t0;
    shmem_finalize();
  });
  EXPECT_GT(latency, sim::usec(500));
  EXPECT_LT(latency, sim::usec(2500));
}

TEST(BarrierTest, ActiveSetBarrierOnlySyncsMembers) {
  Runtime rt(test_options(4));
  std::vector<sim::Time> left(4, 0);
  rt.run([&] {
    shmem_init();
    Context& c = *Runtime::current();
    sim::Engine& eng = c.runtime().engine();
    if (c.pe() % 2 == 0) {
      // PEs 0 and 2: active set {0, 2} (stride 2).
      eng.wait_for(sim::msec(c.pe() == 0 ? 10 : 0));
      barrier_set(c, ActiveSet{0, 2, 2});
      left[static_cast<std::size_t>(c.pe())] = eng.now();
    }
    // PEs 1 and 3 never join and must not be required to.
    shmem_finalize();
  });
  EXPECT_GE(left[0], sim::msec(10));
  EXPECT_GE(left[2], sim::msec(10)) << "member 2 waits for late member 0";
}

TEST(BarrierTest, ActiveSetValidation) {
  Runtime rt(test_options(3));
  rt.run([&] {
    shmem_init();
    Context& c = *Runtime::current();
    EXPECT_THROW(barrier_set(c, ActiveSet{0, 1, 5}), std::invalid_argument);
    if (c.pe() == 2) {
      EXPECT_THROW(barrier_set(c, ActiveSet{0, 1, 2}), std::invalid_argument);
    }
    shmem_finalize();
  });
}

TEST(BarrierTest, PaperRingUsesDoorbellsNotMessages) {
  Runtime rt(test_options(3));
  std::uint64_t frames = 0;
  rt.run([&] {
    shmem_init();
    for (int i = 0; i < 5; ++i) shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      frames = Runtime::current()->transport().stats().frames_sent;
    }
    shmem_finalize();
  });
  EXPECT_EQ(frames, 0u) << "ring barrier must be doorbell-only";
}

}  // namespace
}  // namespace ntbshmem::shmem
