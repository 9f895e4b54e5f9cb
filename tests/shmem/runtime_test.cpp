// Runtime lifecycle, SPMD execution, pointer translation and determinism.
#include "shmem/runtime.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <vector>

#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using testing::test_options;

TEST(RuntimeTest, RunsOnePEProcessPerHost) {
  Runtime rt(test_options(3));
  std::atomic<int> ran{0};
  rt.run([&] {
    shmem_init();
    ++ran;
    shmem_finalize();
  });
  EXPECT_EQ(ran.load(), 3);
}

TEST(RuntimeTest, MyPeAndNPes) {
  Runtime rt(test_options(4));
  std::vector<int> seen(4, -1);
  rt.run([&] {
    shmem_init();
    EXPECT_EQ(shmem_n_pes(), 4);
    EXPECT_EQ(num_pes(), 4);
    EXPECT_EQ(my_pe(), shmem_my_pe());
    seen[static_cast<std::size_t>(shmem_my_pe())] = shmem_my_pe();
    shmem_finalize();
  });
  for (int pe = 0; pe < 4; ++pe) EXPECT_EQ(seen[static_cast<std::size_t>(pe)], pe);
}

TEST(RuntimeTest, ApiOutsidePeThrows) {
  EXPECT_THROW(shmem_my_pe(), std::logic_error);
}

TEST(RuntimeTest, ApiBeforeInitThrows) {
  Runtime rt(test_options(2));
  rt.run([&] {
    EXPECT_THROW(shmem_my_pe(), std::logic_error);
    shmem_init();
    EXPECT_THROW(shmem_init(), std::logic_error);  // double init
    shmem_finalize();
  });
}

TEST(RuntimeTest, MallocReturnsSymmetricOffsets) {
  Runtime rt(test_options(3));
  std::vector<std::uint64_t> offsets(3);
  rt.run([&] {
    shmem_init();
    void* p = shmem_malloc(1024);
    ASSERT_NE(p, nullptr);
    Context& c = *Runtime::current();
    offsets[static_cast<std::size_t>(c.pe())] = c.symmetric_offset(p);
    shmem_free(p);
    shmem_finalize();
  });
  EXPECT_EQ(offsets[0], offsets[1]);
  EXPECT_EQ(offsets[1], offsets[2]);
}

TEST(RuntimeTest, NonSymmetricPointerRejected) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    int local = 0;
    int dummy = 0;
    Context& c = *Runtime::current();
    EXPECT_THROW(c.putmem(&local, &dummy, sizeof(int), 0),
                 std::invalid_argument);
    shmem_finalize();
  });
}

TEST(RuntimeTest, ShmemPtrSemantics) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    void* p = shmem_malloc(64);
    EXPECT_EQ(shmem_ptr(p, shmem_my_pe()), p);
    EXPECT_EQ(shmem_ptr(p, 1 - shmem_my_pe()), nullptr);
    shmem_free(p);
    shmem_finalize();
  });
}

TEST(RuntimeTest, RejectsDegenerateConfigs) {
  EXPECT_THROW(Runtime(test_options(1)), std::invalid_argument);
  EXPECT_THROW(Runtime(test_options(0)), std::invalid_argument);
  EXPECT_THROW(Runtime(test_options(300)), std::invalid_argument);
}

TEST(RuntimeTest, RunReturnsVirtualDuration) {
  Runtime rt(test_options(2));
  const sim::Dur d = rt.run([&] {
    shmem_init();
    shmem_finalize();
  });
  // init + finalize barriers: at least several hundred microseconds.
  EXPECT_GT(d, sim::usec(100));
  EXPECT_LT(d, sim::msec(100));
}

TEST(RuntimeTest, RepeatedRunsShareState) {
  Runtime rt(test_options(2));
  std::vector<void*> bufs(2, nullptr);
  rt.run([&] {
    shmem_init();
    bufs[static_cast<std::size_t>(shmem_my_pe())] = shmem_malloc(64);
    shmem_finalize();
  });
  rt.run([&] {
    shmem_init();
    // Heap state persists; the buffer from run 1 is still translatable.
    Context& c = *Runtime::current();
    EXPECT_NO_THROW(
        c.symmetric_offset(bufs[static_cast<std::size_t>(shmem_my_pe())]));
    shmem_finalize();
  });
}

TEST(RuntimeTest, IdenticalWorkloadsAreDeterministic) {
  auto workload = [] {
    Runtime rt(test_options(3));
    return rt.run([&] {
      shmem_init();
      void* buf = shmem_malloc(4096);
      int target = (shmem_my_pe() + 1) % shmem_n_pes();
      std::vector<std::byte> data = testing::pattern(2048, shmem_my_pe());
      Runtime::current()->putmem(buf, data.data(), data.size(), target);
      shmem_barrier_all();
      shmem_free(buf);
      shmem_finalize();
    });
  };
  const sim::Dur first = workload();
  const sim::Dur second = workload();
  EXPECT_EQ(first, second);
}

// Tearing a Runtime down while a service daemon is blocked mid-frame: the
// daemon must unwind while the hub, fabric and transports it touches still
// exist. PE 0's 2-hop put is still being forwarded when run() returns, so
// the daemons are killed inside process_frame and close their spans on the
// way out (a heap-use-after-free under ASan if they outlive the hub).
TEST(RuntimeTest, TeardownUnwindsServicesBeforeTheirState) {
  for (const bool spans : {false, true}) {
    for (const bool causal : {false, true}) {
      for (const sim::Dur linger : {sim::usec(180), sim::usec(345)}) {
        RuntimeOptions opts =
            test_options(3, DataPath::kDma, fabric::RoutingMode::kRightOnly,
                         CompletionMode::kLocalDma);
        opts.obs.spans_enabled = spans;
        opts.obs.causal_enabled = causal;
        Runtime rt(opts);
        rt.run([&] {
          shmem_init();
          void* buf = shmem_malloc(64 * 1024);
          if (shmem_my_pe() == 0) {
            const auto data = testing::pattern(64 * 1024, 0);
            shmem_putmem(buf, data.data(), data.size(), 2);
            rt.engine().wait_for(linger);
          }
        });
        EXPECT_FALSE(rt.quiescent())
            << "the put must still be in flight at teardown (spans=" << spans
            << " causal=" << causal << " linger=" << linger << ")";
      }
    }
  }
}

// Resident set size of this process, from /proc/self/statm.
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

// Host DRAM is committed page by page as a run touches it: building a
// 64-host ring with 96 MiB arenas must not make 6 GiB resident.
TEST(RuntimeTest, ConstructionCommitsNoHostMemoryUpFront) {
  RuntimeOptions opts;
  opts.backend = backend::Kind::kSim;
  opts.npes = 64;
  const std::uint64_t before = resident_bytes();
  ASSERT_GT(before, 0u) << "cannot read /proc/self/statm";
  Runtime rt(opts);
  const std::uint64_t after = resident_bytes();
  const std::uint64_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, opts.host_memory_bytes)
      << "constructing 64 hosts made " << (grown >> 20) << " MiB resident";
}

TEST(RuntimeTest, InfoQueries) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    int major = 0;
    int minor = -1;
    shmem_info_get_version(&major, &minor);
    EXPECT_EQ(major, 1);
    EXPECT_GE(minor, 0);
    char name[SHMEM_MAX_NAME_LEN];
    shmem_info_get_name(name);
    EXPECT_GT(std::strlen(name), 0u);
    shmem_finalize();
  });
}

}  // namespace
}  // namespace ntbshmem::shmem
