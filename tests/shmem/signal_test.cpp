// Put-with-signal: the signal update must never be observable before the
// data it announces, at any hop count, on either data path.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using testing::pattern;
using testing::test_options;

TEST(SignalTest, SignalSetDeliversAfterData) {
  Runtime rt(test_options(3));
  rt.run([&] {
    shmem_init();
    auto* data = static_cast<std::byte*>(shmem_malloc(16 * 1024));
    auto* sig = static_cast<std::uint64_t*>(shmem_malloc(sizeof(std::uint64_t)));
    *sig = 0;
    std::memset(data, 0, 16 * 1024);
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      const auto payload = pattern(16 * 1024, 9);
      shmem_putmem_signal(data, payload.data(), payload.size(), sig, 7,
                          SHMEM_SIGNAL_SET, 1);
    }
    if (shmem_my_pe() == 1) {
      EXPECT_EQ(shmem_signal_wait_until(sig, SHMEM_CMP_EQ, 7), 7u);
      // Data must already be in place when the signal fires.
      const auto want = pattern(16 * 1024, 9);
      EXPECT_EQ(std::memcmp(data, want.data(), want.size()), 0);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(SignalTest, SignalOrderingHoldsAcrossTwoHops) {
  Runtime rt(test_options(4));
  rt.run([&] {
    shmem_init();
    auto* data = static_cast<std::byte*>(shmem_malloc(8 * 1024));
    auto* sig = static_cast<std::uint64_t*>(shmem_malloc(sizeof(std::uint64_t)));
    *sig = 0;
    std::memset(data, 0, 8 * 1024);
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      const auto payload = pattern(8 * 1024, 3);
      // PE 2 is two hops rightward: data goes through the bypass path and
      // the signal is a control message behind it — FIFO must hold.
      shmem_putmem_signal(data, payload.data(), payload.size(), sig, 1,
                          SHMEM_SIGNAL_ADD, 2);
    }
    if (shmem_my_pe() == 2) {
      shmem_signal_wait_until(sig, SHMEM_CMP_GE, 1);
      const auto want = pattern(8 * 1024, 3);
      EXPECT_EQ(std::memcmp(data, want.data(), want.size()), 0)
          << "signal overtook its data across the bypass path";
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(SignalTest, SignalAddAccumulates) {
  Runtime rt(test_options(3));
  rt.run([&] {
    shmem_init();
    auto* data = static_cast<std::byte*>(shmem_malloc(64));
    auto* sig = static_cast<std::uint64_t*>(shmem_malloc(sizeof(std::uint64_t)));
    *sig = 0;
    shmem_barrier_all();
    const auto payload = pattern(64, shmem_my_pe());
    if (shmem_my_pe() != 0) {
      shmem_putmem_signal(data, payload.data(), payload.size(), sig, 1,
                          SHMEM_SIGNAL_ADD, 0);
    }
    if (shmem_my_pe() == 0) {
      shmem_signal_wait_until(sig, SHMEM_CMP_EQ, 2);  // both writers arrived
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(SignalTest, QuietDrainsSignals) {
  Runtime rt(test_options(3));
  rt.run([&] {
    shmem_init();
    auto* data = static_cast<std::byte*>(shmem_malloc(1024));
    auto* sig = static_cast<std::uint64_t*>(shmem_malloc(sizeof(std::uint64_t)));
    *sig = 0;
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      const auto payload = pattern(1024, 1);
      shmem_putmem_signal(data, payload.data(), payload.size(), sig, 5,
                          SHMEM_SIGNAL_SET, 2);
      shmem_quiet();  // full-delivery mode: signal delivered after quiet
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 2) {
      EXPECT_EQ(*sig, 5u);
    }
    shmem_finalize();
  });
}

TEST(SignalTest, ZeroByteSignalStillFires) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* data = static_cast<std::byte*>(shmem_malloc(64));
    auto* sig = static_cast<std::uint64_t*>(shmem_malloc(sizeof(std::uint64_t)));
    *sig = 0;
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      shmem_putmem_signal(data, nullptr, 0, sig, 9, SHMEM_SIGNAL_SET, 1);
    }
    if (shmem_my_pe() == 1) {
      EXPECT_EQ(shmem_signal_wait_until(sig, SHMEM_CMP_EQ, 9), 9u);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(SignalTest, FetchReadsLocalSignal) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* sig = static_cast<std::uint64_t*>(shmem_malloc(sizeof(std::uint64_t)));
    *sig = 123;
    EXPECT_EQ(shmem_signal_fetch(sig), 123u);
    shmem_finalize();
  });
}

TEST(SignalTest, BadSignalOpRejected) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* data = static_cast<std::byte*>(shmem_malloc(64));
    auto* sig = static_cast<std::uint64_t*>(shmem_malloc(sizeof(std::uint64_t)));
    char byte = 0;
    EXPECT_THROW(shmem_putmem_signal(data, &byte, 1, sig, 1, 99, 1),
                 std::invalid_argument);
    shmem_finalize();
  });
}

}  // namespace
}  // namespace ntbshmem::shmem
