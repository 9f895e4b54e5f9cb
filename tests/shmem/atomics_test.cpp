// Remote atomics: correctness of every operation, linearizability of
// concurrent updates (owner-side execution serializes them), 4- vs 8-byte
// widths, and wait_until interplay.
#include <gtest/gtest.h>

#include <vector>

#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using testing::test_options;

TEST(AtomicsTest, FetchAddAccumulatesAcrossPes) {
  Runtime rt(test_options(4));
  rt.run([&] {
    shmem_init();
    auto* counter = static_cast<long*>(shmem_malloc(sizeof(long)));
    *counter = 0;
    shmem_barrier_all();
    for (int i = 0; i < 10; ++i) {
      shmem_long_atomic_add(counter, shmem_my_pe() + 1, 0);
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      EXPECT_EQ(*counter, 10 * (1 + 2 + 3 + 4));
    }
    shmem_finalize();
  });
}

TEST(AtomicsTest, FetchIncReturnsUniqueTickets) {
  Runtime rt(test_options(4));
  std::vector<std::vector<long>> tickets(4);
  rt.run([&] {
    shmem_init();
    auto* counter = static_cast<long*>(shmem_malloc(sizeof(long)));
    *counter = 0;
    shmem_barrier_all();
    auto& mine = tickets[static_cast<std::size_t>(shmem_my_pe())];
    for (int i = 0; i < 8; ++i) {
      mine.push_back(shmem_long_atomic_fetch_inc(counter, 0));
    }
    shmem_barrier_all();
    shmem_finalize();
  });
  std::vector<long> all;
  for (const auto& v : tickets) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 32u);
  for (long i = 0; i < 32; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)], i) << "tickets must be unique";
  }
}

TEST(AtomicsTest, CompareSwapSemantics) {
  Runtime rt(test_options(3));
  rt.run([&] {
    shmem_init();
    auto* word = static_cast<long*>(shmem_malloc(sizeof(long)));
    *word = 7;
    shmem_barrier_all();
    if (shmem_my_pe() == 1) {
      EXPECT_EQ(shmem_long_atomic_compare_swap(word, 8, 100, 0), 7)
          << "mismatched expected leaves value intact";
      EXPECT_EQ(shmem_long_atomic_compare_swap(word, 7, 100, 0), 7);
      EXPECT_EQ(shmem_long_atomic_fetch(word, 0), 100);
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      EXPECT_EQ(*word, 100);
    }
    shmem_finalize();
  });
}

TEST(AtomicsTest, SwapSetFetch) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* word = static_cast<int*>(shmem_malloc(sizeof(int)));
    *word = 11;
    shmem_barrier_all();
    if (shmem_my_pe() == 1) {
      EXPECT_EQ(shmem_int_atomic_swap(word, 22, 0), 11);
      EXPECT_EQ(shmem_int_atomic_fetch(word, 0), 22);
      shmem_int_atomic_set(word, 33, 0);
      EXPECT_EQ(shmem_int_atomic_fetch(word, 0), 33);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(AtomicsTest, BitwiseOps) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* word = static_cast<unsigned int*>(shmem_malloc(sizeof(unsigned)));
    *word = 0b1100u;
    shmem_barrier_all();
    if (shmem_my_pe() == 1) {
      EXPECT_EQ(shmem_uint_atomic_fetch_and(word, 0b1010u, 0), 0b1100u);
      EXPECT_EQ(shmem_uint_atomic_fetch_or(word, 0b0001u, 0), 0b1000u);
      EXPECT_EQ(shmem_uint_atomic_fetch_xor(word, 0b1111u, 0), 0b1001u);
      EXPECT_EQ(shmem_uint_atomic_fetch(word, 0), 0b0110u);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(AtomicsTest, FourByteWidthDoesNotClobberNeighbors) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* arr = static_cast<int*>(shmem_malloc(4 * sizeof(int)));
    for (int i = 0; i < 4; ++i) arr[i] = 1000 + i;
    shmem_barrier_all();
    if (shmem_my_pe() == 1) {
      shmem_int_atomic_add(&arr[1], 5, 0);
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      EXPECT_EQ(arr[0], 1000);
      EXPECT_EQ(arr[1], 1006);
      EXPECT_EQ(arr[2], 1002);
      EXPECT_EQ(arr[3], 1003);
    }
    shmem_finalize();
  });
}

TEST(AtomicsTest, NegativeValuesRoundTrip) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* word = static_cast<long*>(shmem_malloc(sizeof(long)));
    *word = -50;
    shmem_barrier_all();
    if (shmem_my_pe() == 1) {
      EXPECT_EQ(shmem_long_atomic_fetch_add(word, -8, 0), -50);
      EXPECT_EQ(shmem_long_atomic_fetch(word, 0), -58);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(AtomicsTest, SelfAtomicsWork) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* word = static_cast<long*>(shmem_malloc(sizeof(long)));
    *word = 5;
    EXPECT_EQ(shmem_long_atomic_fetch_add(word, 3, shmem_my_pe()), 5);
    EXPECT_EQ(*word, 8);
    shmem_finalize();
  });
}

TEST(AtomicsTest, LegacyAliases) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* word = static_cast<int*>(shmem_malloc(sizeof(int)));
    *word = 0;
    shmem_barrier_all();
    if (shmem_my_pe() == 1) {
      EXPECT_EQ(shmem_int_finc(word, 0), 0);
      EXPECT_EQ(shmem_int_fadd(word, 10, 0), 1);
      EXPECT_EQ(shmem_int_cswap(word, 11, 50, 0), 11);
      EXPECT_EQ(shmem_int_swap(word, 60, 0), 50);
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      EXPECT_EQ(*word, 60);
    }
    shmem_finalize();
  });
}

TEST(AtomicsTest, AtomicThenWaitUntilSignalsConsumer) {
  // Producer/consumer: PE0 waits on a flag PE1 bumps atomically.
  Runtime rt(test_options(3));
  rt.run([&] {
    shmem_init();
    auto* flag = static_cast<long*>(shmem_malloc(sizeof(long)));
    *flag = 0;
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      shmem_long_wait_until(flag, SHMEM_CMP_GE, 2);
      EXPECT_GE(*flag, 2);
    } else {
      Runtime::current()->runtime().engine().wait_for(sim::msec(2));
      shmem_long_atomic_inc(flag, 0);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

}  // namespace
}  // namespace ntbshmem::shmem
