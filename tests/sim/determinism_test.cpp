// Determinism: the whole point of a cooperative DES over real threads is
// that two executions of the same workload produce identical schedules.
// This runs a moderately contended workload twice and compares the full
// completion-time vectors — and, since the schedule auditor (sim/audit.hpp)
// exists, the full dispatched (time, seq, kind) stream via its FNV digest.
#include <gtest/gtest.h>

#include <vector>

#include "sim/audit.hpp"
#include "sim/bandwidth.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/resource.hpp"
#include "sim_test_util.hpp"

namespace ntbshmem::sim {
namespace {

using testing::SeededTiebreakHook;

struct WorkloadResult {
  std::vector<Time> completion;
  std::uint64_t digest = 0;
  std::uint64_t dispatches = 0;
};

// The shared workload body, parameterised by the schedule-fuzzer seed
// (0 = no hook, exact FIFO order). Under a non-zero seed same-timestamp
// dispatches reorder, so timing may legally shift; what must hold is
// per-seed determinism and that no work is lost.
WorkloadResult run_digest_workload(std::uint64_t tiebreak_seed) {
  SeededTiebreakHook fuzz(tiebreak_seed);
  Engine engine;
  engine.enable_schedule_digest();
  if (tiebreak_seed != 0) engine.set_branch_hook(&fuzz);
  BandwidthResource link(engine, "link", 1e9);
  Resource mutex(engine, "mutex");
  Event gate(engine, "gate");
  WorkloadResult r;
  r.completion.assign(8, -1);
  bool open = false;

  for (int i = 0; i < 8; ++i) {
    engine.spawn("worker" + std::to_string(i), [&engine, &gate, &mutex, &link,
                                                &open, &r, i] {
      engine.wait_for(usec((i * 7) % 5 + 1));
      while (!open) gate.wait();
      {
        Resource::Guard guard(mutex);
        engine.wait_for(usec(3));
      }
      link.transfer(100'000 + static_cast<std::uint64_t>(i) * 37'000);
      r.completion[static_cast<std::size_t>(i)] = engine.now();
    });
  }
  engine.spawn("opener", [&] {
    engine.wait_for(usec(4));
    open = true;
    gate.notify_all();
  });
  engine.run();
  r.digest = engine.schedule_digest().value();
  r.dispatches = engine.schedule_digest().count();
  return r;
}

std::vector<Time> run_workload() {
  Engine engine;
  BandwidthResource link(engine, "link", 1e9);
  Resource mutex(engine, "mutex");
  Event gate(engine, "gate");
  std::vector<Time> completion(8, -1);
  bool open = false;

  for (int i = 0; i < 8; ++i) {
    engine.spawn("worker" + std::to_string(i), [&, i] {
      // Deterministic pseudo-varied think time derived from the index.
      engine.wait_for(usec((i * 7) % 5 + 1));
      while (!open) gate.wait();
      {
        Resource::Guard guard(mutex);
        engine.wait_for(usec(3));
      }
      link.transfer(100'000 + static_cast<std::uint64_t>(i) * 37'000);
      completion[static_cast<std::size_t>(i)] = engine.now();
    });
  }
  engine.spawn("opener", [&] {
    engine.wait_for(usec(4));
    open = true;
    gate.notify_all();
  });
  engine.run();
  return completion;
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalSchedules) {
  const auto first = run_workload();
  const auto second = run_workload();
  EXPECT_EQ(first, second);
  for (Time t : first) EXPECT_GT(t, 0);
}

TEST(DeterminismTest, RepeatedManyTimes) {
  const auto reference = run_workload();
  for (int rep = 0; rep < 10; ++rep) {
    EXPECT_EQ(run_workload(), reference) << "run " << rep;
  }
}

TEST(ScheduleDigestTest, DigestBitIdenticalAcrossRuns) {
  const auto reference = run_digest_workload(0);
  EXPECT_NE(reference.digest, 0u);
  EXPECT_GT(reference.dispatches, 0u);
  for (int rep = 0; rep < 5; ++rep) {
    const auto again = run_digest_workload(0);
    EXPECT_EQ(again.digest, reference.digest) << "run " << rep;
    EXPECT_EQ(again.dispatches, reference.dispatches) << "run " << rep;
    EXPECT_EQ(again.completion, reference.completion) << "run " << rep;
  }
}

TEST(ScheduleDigestTest, SeedZeroMatchesDigestDisabledSchedule) {
  // Enabling the auditor must be pure observation: the completion times with
  // the digest on (seed 0) must equal the plain run_workload() schedule.
  const auto audited = run_digest_workload(0);
  EXPECT_EQ(audited.completion, run_workload());
}

TEST(ScheduleDigestTest, TiebreakPermutationChangesDigestDeterministically) {
  const auto base = run_digest_workload(0);
  const auto permuted = run_digest_workload(0x9e3779b9u);
  EXPECT_NE(permuted.digest, base.digest);
  // Each seed is itself fully deterministic.
  EXPECT_EQ(run_digest_workload(0x9e3779b9u).digest, permuted.digest);
  // Distinct seeds explore distinct tie orders.
  const auto other = run_digest_workload(12345);
  EXPECT_NE(other.digest, base.digest);
  EXPECT_NE(other.digest, permuted.digest);
  EXPECT_EQ(run_digest_workload(12345).digest, other.digest);
}

TEST(ScheduleDigestTest, EveryWorkerStillCompletesUnderPermutation) {
  // A tie permutation may legally shift completion *times* (which worker
  // occupies which mutex slot changes, and transfer sizes differ per
  // worker) and even the dispatch count (a worker ordered before the opener
  // at the same timestamp takes an extra gate wait/wake round trip), but it
  // must never lose or deadlock work: all 8 workers finish at a positive
  // time under every seed.
  for (std::uint64_t seed : {0x9e3779b9ull, 12345ull, 0xdeadbeefull}) {
    const auto permuted = run_digest_workload(seed);
    for (std::size_t i = 0; i < permuted.completion.size(); ++i) {
      EXPECT_GT(permuted.completion[i], 0) << "seed " << seed << " worker " << i;
    }
  }
}

}  // namespace
}  // namespace ntbshmem::sim
