// Composition of the workload layer with the fault-injection engine and the
// reliability layer (PR 6), plus fault-free paper-mode golden times in the
// pipeline_test.cpp tradition: the workload scenarios ride the same
// transport as the figure benches, so their virtual times are pinned to the
// nanosecond and any drift means the data path changed.
#include <gtest/gtest.h>

#include "shmem/runtime.hpp"
#include "sim/fault.hpp"
#include "workload/scenarios.hpp"
#include "workload/slo.hpp"
#include "workload/spec.hpp"

namespace ntbshmem::workload {
namespace {

// Fully pinned paper-mode config: paper tuning, right-only ring, uniform
// link rate, schedule digest on (digest recording is required to be
// timing-neutral — PR 4's contract, re-checked here through a whole
// application workload).
shmem::RuntimeOptions paper_options(int npes) {
  shmem::RuntimeOptions opts;
  opts.npes = npes;
  opts.routing = fabric::RoutingMode::kRightOnly;
  opts.tuning = shmem::TransportTuning::paper();
  opts.schedule_digest = true;
  opts.symheap_chunk_bytes = 1 << 20;
  opts.symheap_max_bytes = 8u << 20;
  opts.link_dma_rates_Bps = {3.0e9};
  return opts;
}

KvSpec golden_kv() {
  KvSpec spec;
  spec.traffic.requests_per_pe = 32;
  spec.slots_per_pe = 16;
  return spec;
}

StencilSpec golden_stencil() {
  StencilSpec spec;
  spec.iterations = 3;
  spec.tile_rows = 8;
  spec.tile_cols = 8;
  return spec;
}

AllreduceSpec golden_allreduce() {
  AllreduceSpec spec;
  spec.steps = 2;
  spec.gradient_elems = 64;
  spec.groups = 2;
  return spec;
}

// Golden virtual times of the three scenarios on the paper-mode transport,
// captured at workload-layer introduction. Drift = the paper-faithful data
// path (or the determinism of the traffic engine) changed.
constexpr long long kGoldenKv4Pe_ns = 63'223'122;
constexpr long long kGoldenStencil4Pe_ns = 80'995'857;
constexpr long long kGoldenAllreduce4Pe_ns = 86'051'075;

TEST(WorkloadGolden, PaperModeKvTimeUnchanged) {
  shmem::Runtime rt(paper_options(4));
  const ScenarioReport run = run_kv(rt, golden_kv(), 11);
  EXPECT_EQ(run.elapsed_ns, kGoldenKv4Pe_ns);
  EXPECT_EQ(run.requests_issued, 4u * 32u);
  EXPECT_EQ(run.requests_completed, run.requests_issued);
  EXPECT_EQ(run.verify_errors, 0u);
}

TEST(WorkloadGolden, PaperModeStencilTimeUnchanged) {
  shmem::Runtime rt(paper_options(4));
  const ScenarioReport run = run_stencil(rt, golden_stencil(), 11);
  EXPECT_EQ(run.elapsed_ns, kGoldenStencil4Pe_ns);
  EXPECT_EQ(run.verify_errors, 0u);
}

TEST(WorkloadGolden, PaperModeAllreduceTimeUnchanged) {
  shmem::Runtime rt(paper_options(4));
  const ScenarioReport run = run_allreduce(rt, golden_allreduce(), 11);
  EXPECT_EQ(run.elapsed_ns, kGoldenAllreduce4Pe_ns);
  EXPECT_EQ(run.verify_errors, 0u);
}

// ---- Faults x workload -------------------------------------------------------

// Doorbell drops + a mid-run link outage, reliability on: the KV store must
// serve every request (no losses, no payload corruption, golden heap
// intact) — the end-to-end composition the reliability layer exists for.
TEST(WorkloadFaultsTest, KvSurvivesDoorbellDropsAndLinkFlap) {
  shmem::RuntimeOptions opts = paper_options(4);
  opts.routing = fabric::RoutingMode::kShortest;
  opts.tuning = shmem::TransportTuning::reliable();
  opts.resilient_links = true;
  opts.faults.doorbell_drop = 0.05;
  opts.faults.link_flaps.push_back(sim::LinkFlap{0, 1'000'000, 4'000'000});

  shmem::Runtime rt(opts);
  KvSpec spec;
  spec.traffic.requests_per_pe = 64;
  spec.slots_per_pe = 16;
  const ScenarioReport run = run_kv(rt, spec, 5);

  // Zero lost requests, zero corruption, all signals delivered.
  EXPECT_EQ(run.requests_issued, 4u * 64u);
  EXPECT_EQ(run.requests_completed, run.requests_issued);
  EXPECT_EQ(run.bytes_transferred, run.bytes_requested);
  EXPECT_EQ(run.signals_received, run.signals_sent);
  EXPECT_EQ(run.verify_errors, 0u);
  // The plan must actually have fired (otherwise this test proves nothing).
  EXPECT_GT(rt.faults().stats().doorbells_dropped, 0u);
  // And the artifact records what it survived.
  const SloReport slo = build_slo_report(rt, run, 5);
  EXPECT_EQ(slo.fault_plan, "doorbell_drop=0.050000000000000003,flaps=1");
  EXPECT_EQ(slo.tuning, "paper+reliable");
}

// Same plan, same seed => same digest: fault injection is part of the
// deterministic schedule, so faulty runs are as pinnable as clean ones.
TEST(WorkloadFaultsTest, FaultyRunsAreReproducible) {
  const auto run_once = [] {
    shmem::RuntimeOptions opts = paper_options(4);
    opts.routing = fabric::RoutingMode::kShortest;
    opts.tuning = shmem::TransportTuning::reliable();
    opts.resilient_links = true;
    opts.faults.doorbell_drop = 0.05;
    shmem::Runtime rt(opts);
    KvSpec spec;
    spec.traffic.requests_per_pe = 48;
    spec.slots_per_pe = 16;
    const ScenarioReport run = run_kv(rt, spec, 5);
    return std::pair<std::uint64_t, long long>(
        rt.engine().schedule_digest().value(), run.elapsed_ns);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// Allreduce across teams survives doorbell drops with reliability on and
// still produces the exact closed-form reduction.
TEST(WorkloadFaultsTest, AllreduceSurvivesDoorbellDrops) {
  shmem::RuntimeOptions opts = paper_options(4);
  opts.routing = fabric::RoutingMode::kShortest;
  opts.tuning = shmem::TransportTuning::reliable();
  opts.faults.doorbell_drop = 0.03;
  shmem::Runtime rt(opts);
  const ScenarioReport run = run_allreduce(rt, golden_allreduce(), 9);
  EXPECT_EQ(run.requests_completed, run.requests_issued);
  EXPECT_EQ(run.verify_errors, 0u);
}

}  // namespace
}  // namespace ntbshmem::workload
