// Schedule-digest auditor at the SHMEM level: the FNV digest of the
// engine's dispatched (time, seq, kind) stream must be bit-identical
// across repeated runs for every supported tuning — paper-faithful,
// fully pipelined, and pipelined+reliable — and the seeded schedule fuzzer
// (a tie-break permutation applied through the engine's branch hook) must
// perturb the schedule (digest changes) without touching anything
// SHMEM-visible (delivered heap contents, barrier counts).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "../sim/sim_test_util.hpp"
#include "shmem/api.hpp"
#include "shmem/runtime.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using sim::testing::SeededTiebreakHook;
using testing::pattern;

constexpr int kNpes = 4;
constexpr std::size_t kBlock = 256 * 1024;

RuntimeOptions digest_options(TransportTuning tuning) {
  RuntimeOptions opts;
  opts.npes = kNpes;
  opts.data_path = DataPath::kDma;
  opts.routing = fabric::RoutingMode::kRightOnly;
  opts.completion = CompletionMode::kFullDelivery;
  opts.tuning = tuning;
  opts.symheap_chunk_bytes = 2u << 20;
  opts.symheap_max_bytes = 16u << 20;
  opts.schedule_digest = true;
  return opts;
}

struct DigestRun {
  std::uint64_t digest = 0;
  std::uint64_t dispatches = 0;
  long long total_ns = 0;
  // Per-PE block received from the left neighbour after the ring exchange.
  std::vector<std::vector<std::byte>> received;
  std::uint64_t barriers = 0;
};

// Ring exchange: every PE puts its pattern one hop right, drains, then each
// PE snapshots what landed in its heap plus its transport barrier count.
// A non-zero `tiebreak_seed` installs the schedule fuzzer; it acts at
// dispatch time, so it also reorders the service daemons the Runtime
// constructor spawned.
DigestRun run_ring_exchange(const TransportTuning& tuning,
                            std::uint64_t tiebreak_seed = 0) {
  SeededTiebreakHook fuzz(tiebreak_seed);
  Runtime rt(digest_options(tuning));
  if (tiebreak_seed != 0) rt.engine().set_branch_hook(&fuzz);
  DigestRun r;
  r.received.resize(kNpes);
  std::vector<std::uint64_t> barriers(kNpes, 0);
  const sim::Dur d = rt.run([&] {
    shmem_init();
    const int me = shmem_my_pe();
    const int npes = shmem_n_pes();
    auto* buf = static_cast<std::byte*>(shmem_malloc(kBlock));
    const std::vector<std::byte> local = pattern(kBlock, me);
    shmem_barrier_all();
    shmem_putmem(buf, local.data(), local.size(), (me + 1) % npes);
    shmem_quiet();
    shmem_barrier_all();
    r.received[static_cast<std::size_t>(me)].assign(buf, buf + kBlock);
    shmem_barrier_all();
    barriers[static_cast<std::size_t>(me)] =
        Runtime::current()->transport().stats().barriers_completed;
    shmem_free(buf);
    shmem_finalize();
  });
  r.total_ns = static_cast<long long>(d);
  r.digest = rt.engine().schedule_digest().value();
  r.dispatches = rt.engine().schedule_digest().count();
  for (std::uint64_t b : barriers) r.barriers += b;
  return r;
}

void expect_ring_contents(const DigestRun& r) {
  for (int pe = 0; pe < kNpes; ++pe) {
    const int src = (pe + kNpes - 1) % kNpes;
    const auto want = pattern(kBlock, src);
    EXPECT_EQ(r.received[static_cast<std::size_t>(pe)], want)
        << "PE " << pe << " did not receive PE " << src << "'s block";
  }
}

TEST(ScheduleDigestShmem, PaperTuningDigestStableAcrossRuns) {
  const DigestRun a = run_ring_exchange(TransportTuning::paper());
  const DigestRun b = run_ring_exchange(TransportTuning::paper());
  EXPECT_NE(a.digest, 0u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.total_ns, b.total_ns);
  expect_ring_contents(a);
}

TEST(ScheduleDigestShmem, AllOnTuningDigestStableAcrossRuns) {
  const DigestRun a = run_ring_exchange(TransportTuning::all_on(4));
  const DigestRun b = run_ring_exchange(TransportTuning::all_on(4));
  EXPECT_NE(a.digest, 0u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.total_ns, b.total_ns);
  expect_ring_contents(a);
}

TEST(ScheduleDigestShmem, ReliableTuningDigestStableAcrossRuns) {
  const TransportTuning tuning =
      TransportTuning::reliable(TransportTuning::all_on(4));
  const DigestRun a = run_ring_exchange(tuning);
  const DigestRun b = run_ring_exchange(tuning);
  EXPECT_NE(a.digest, 0u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.total_ns, b.total_ns);
  expect_ring_contents(a);
}

TEST(ScheduleDigestShmem, TuningsProduceDistinctSchedules) {
  // The digest is sensitive enough to distinguish the data paths: the
  // paper-faithful and pipelined schedules are known to differ in timing
  // (golden constants), so their event streams — and digests — must too.
  const DigestRun paper = run_ring_exchange(TransportTuning::paper());
  const DigestRun all_on = run_ring_exchange(TransportTuning::all_on(4));
  EXPECT_NE(paper.digest, all_on.digest);
}

TEST(ScheduleDigestShmem, TiebreakPermutationIsScheduleVisibleOnly) {
  // A non-zero fuzzer seed permutes same-timestamp dispatch order, so the
  // digest must move; everything SHMEM-visible — the blocks each PE
  // received and the number of completed barriers — must not.
  const DigestRun base = run_ring_exchange(TransportTuning::all_on(4), 0);
  for (std::uint64_t seed : {0x9e3779b97f4a7c15ull, 42ull}) {
    const DigestRun perturbed =
        run_ring_exchange(TransportTuning::all_on(4), seed);
    EXPECT_NE(perturbed.digest, base.digest) << "seed " << seed;
    EXPECT_EQ(perturbed.received, base.received) << "seed " << seed;
    EXPECT_EQ(perturbed.barriers, base.barriers) << "seed " << seed;
    expect_ring_contents(perturbed);
    // Each perturbation seed is itself a deterministic schedule.
    const DigestRun again =
        run_ring_exchange(TransportTuning::all_on(4), seed);
    EXPECT_EQ(again.digest, perturbed.digest) << "seed " << seed;
    EXPECT_EQ(again.total_ns, perturbed.total_ns) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ntbshmem::shmem
