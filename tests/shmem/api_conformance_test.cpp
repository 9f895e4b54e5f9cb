// Table I conformance: every essential OpenSHMEM routine the paper lists,
// exercised end-to-end, plus a smoke pass over the typed RMA surface.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using testing::test_options;

// Table I row by row: shmem_init, my_pe, num_pes, shmem_malloc,
// shmem_<type>_put, shmem_<type>_get, shmem_barrier_all, shmem_finalize.
TEST(TableIConformance, EssentialRoutinesEndToEnd) {
  Runtime rt(test_options(3));
  rt.run([&] {
    shmem_init();                       // Table I: initialize PE & library
    const int me = my_pe();             // Table I: integer id of the PE
    const int n = num_pes();            // Table I: number of PEs
    EXPECT_EQ(n, 3);
    EXPECT_GE(me, 0);
    EXPECT_LT(me, n);

    auto* data =                        // Table I: allocate symmetric object
        static_cast<long*>(shmem_malloc(16 * sizeof(long)));
    ASSERT_NE(data, nullptr);
    for (int i = 0; i < 16; ++i) data[i] = me * 100 + i;
    shmem_barrier_all();                // Table I: synchronize all PEs

    long out[16];
    for (int i = 0; i < 16; ++i) out[i] = me * 1000 + i;
    shmem_long_put(data, out, 16,       // Table I: put to symmetric object
                   (me + 1) % n);
    shmem_barrier_all();
    const int writer = (me + n - 1) % n;
    for (int i = 0; i < 16; ++i) EXPECT_EQ(data[i], writer * 1000 + i);

    long in[16];
    shmem_long_get(in, data,            // Table I: get from symmetric object
                   16, (me + 1) % n);
    const int remote_writer = ((me + 1) % n + n - 1) % n;
    for (int i = 0; i < 16; ++i) EXPECT_EQ(in[i], remote_writer * 1000 + i);

    shmem_barrier_all();
    shmem_free(data);
    shmem_finalize();                   // Table I: release heap & finalize
  });
}

template <typename T>
void roundtrip_typed(
    void (*put)(T*, const T*, std::size_t, int),
    void (*get)(T*, const T*, std::size_t, int)) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<T*>(shmem_malloc(8 * sizeof(T)));
    T src[8];
    for (int i = 0; i < 8; ++i) src[i] = static_cast<T>(i + 1 + shmem_my_pe());
    put(buf, src, 8, 1 - shmem_my_pe());
    shmem_barrier_all();
    T back[8];
    get(back, buf, 8, 1 - shmem_my_pe());
    for (int i = 0; i < 8; ++i) {
      // buf on the remote PE was written by me... which is 1 - their id.
      EXPECT_EQ(back[i], static_cast<T>(i + 1 + shmem_my_pe()));
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(TypedRmaSmoke, Char) { roundtrip_typed<char>(shmem_char_put, shmem_char_get); }
TEST(TypedRmaSmoke, Short) { roundtrip_typed<short>(shmem_short_put, shmem_short_get); }
TEST(TypedRmaSmoke, Int) { roundtrip_typed<int>(shmem_int_put, shmem_int_get); }
TEST(TypedRmaSmoke, Long) { roundtrip_typed<long>(shmem_long_put, shmem_long_get); }
TEST(TypedRmaSmoke, LongLong) {
  roundtrip_typed<long long>(shmem_longlong_put, shmem_longlong_get);
}
TEST(TypedRmaSmoke, Float) {
  roundtrip_typed<float>(shmem_float_put, shmem_float_get);
}
TEST(TypedRmaSmoke, Double) {
  roundtrip_typed<double>(shmem_double_put, shmem_double_get);
}

TEST(ApiSurface, AccessibilityQueries) {
  Runtime rt(test_options(3));
  rt.run([&] {
    shmem_init();
    EXPECT_EQ(shmem_pe_accessible(0), 1);
    EXPECT_EQ(shmem_pe_accessible(2), 1);
    EXPECT_EQ(shmem_pe_accessible(3), 0);
    EXPECT_EQ(shmem_pe_accessible(-1), 0);
    void* sym = shmem_malloc(64);
    int local = 0;
    EXPECT_EQ(shmem_addr_accessible(sym, 1), 1);
    EXPECT_EQ(shmem_addr_accessible(&local, 1), 0);
    EXPECT_EQ(shmem_addr_accessible(sym, 99), 0);
    shmem_free(sym);
    shmem_finalize();
  });
}

TEST(ApiSurface, SingleElementPG) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* x = static_cast<double*>(shmem_malloc(sizeof(double)));
    *x = 0.0;
    shmem_barrier_all();
    if (shmem_my_pe() == 0) shmem_double_p(x, 3.25, 1);
    shmem_barrier_all();
    if (shmem_my_pe() == 1) {
      EXPECT_DOUBLE_EQ(*x, 3.25);
    }
    if (shmem_my_pe() == 0) {
      EXPECT_DOUBLE_EQ(shmem_double_g(x, 1), 3.25);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(ApiSurface, StridedIputIget) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<int*>(shmem_malloc(16 * sizeof(int)));
    std::memset(buf, 0, 16 * sizeof(int));
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      int src[4] = {1, 2, 3, 4};
      // Every 3rd source element into every 4th destination slot.
      shmem_int_iput(buf, src, 4, 1, 4, 1);
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 1) {
      EXPECT_EQ(buf[0], 1);
      EXPECT_EQ(buf[4], 2);
      EXPECT_EQ(buf[8], 3);
      EXPECT_EQ(buf[12], 4);
      EXPECT_EQ(buf[1], 0);
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      int back[4] = {0, 0, 0, 0};
      shmem_int_iget(back, buf, 1, 4, 4, 1);
      EXPECT_EQ(back[0], 1);
      EXPECT_EQ(back[3], 4);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(ApiSurface, SizedPutGet) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::uint64_t*>(shmem_malloc(4 * 8));
    std::uint64_t src[4] = {1, 2, 3, 0xffffffffffffffffull};
    shmem_barrier_all();
    if (shmem_my_pe() == 0) shmem_put64(buf, src, 4, 1);
    shmem_barrier_all();
    if (shmem_my_pe() == 1) {
      EXPECT_EQ(buf[3], 0xffffffffffffffffull);
      std::uint64_t back[4];
      shmem_get64(back, buf, 4, 1);  // self get through the sized API
      EXPECT_EQ(back[0], 1u);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
}

TEST(ApiSurface, CallocZeroingDoesNotWipeImmediatePuts) {
  // Regression: the ring barrier releases PEs in order, so a fast PE can
  // put into a freshly calloc'd buffer before a slow PE even returns from
  // shmem_calloc. The zeroing must happen before the collective barrier,
  // or that delivery is wiped (originally caught by examples/histogram).
  Runtime rt(test_options(4));
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<long*>(shmem_calloc(4, sizeof(long)));
    // Immediately after calloc returns, everyone puts its stamp into every
    // other PE's slot — including 1-hop-right direct puts that land almost
    // instantly on a PE that was released from the barrier later.
    const long stamp = shmem_my_pe() + 1;
    for (int pe = 0; pe < 4; ++pe) {
      if (pe != shmem_my_pe()) shmem_long_p(&buf[shmem_my_pe()], stamp, pe);
    }
    shmem_barrier_all();
    for (int pe = 0; pe < 4; ++pe) {
      if (pe == shmem_my_pe()) continue;
      EXPECT_EQ(buf[pe], pe + 1) << "stamp from PE " << pe << " wiped";
    }
    shmem_finalize();
  });
}

TEST(ApiSurface, CallocZeroes) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<int*>(shmem_calloc(64, sizeof(int)));
    ASSERT_NE(buf, nullptr);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(buf[i], 0);
    shmem_finalize();
  });
}

TEST(ApiSurface, AlignReturnsAlignedSymmetricMemory) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    void* p = shmem_align(4096, 100);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(Runtime::current()->symmetric_offset(p) % 4096, 0u);
    shmem_finalize();
  });
}

TEST(ApiSurface, ReallocPreservesData) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* p = static_cast<int*>(shmem_malloc(8 * sizeof(int)));
    for (int i = 0; i < 8; ++i) p[i] = i * 3;
    auto* q = static_cast<int*>(shmem_realloc(p, 1024 * sizeof(int)));
    ASSERT_NE(q, nullptr);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(q[i], i * 3);
    shmem_finalize();
  });
}

TEST(ApiSurface, WaitUntilVariants) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* flag = static_cast<int*>(shmem_malloc(sizeof(int)));
    *flag = 0;
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      shmem_int_wait_until(flag, SHMEM_CMP_EQ, 7);
      EXPECT_EQ(*flag, 7);
    } else {
      Runtime::current()->runtime().engine().wait_for(sim::msec(1));
      shmem_int_p(flag, 7, 0);
    }
    shmem_barrier_all();
    EXPECT_EQ(shmem_int_test(flag, SHMEM_CMP_GE, 7),
              shmem_my_pe() == 0 ? 1 : 0);
    shmem_finalize();
  });
}

TEST(ApiSurface, FenceAndQuietCallable) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<int*>(shmem_malloc(sizeof(int)));
    shmem_int_p(buf, 1, 1 - shmem_my_pe());
    shmem_fence();
    shmem_int_p(buf, 2, 1 - shmem_my_pe());
    shmem_quiet();
    shmem_barrier_all();
    EXPECT_EQ(*buf, 2);
    shmem_finalize();
  });
}

}  // namespace
}  // namespace ntbshmem::shmem
