// Determinism contract of the workload layer: (spec, seed) pins the whole
// run. Same seed => identical schedule digest and byte-identical SLO JSON
// for every scenario; different seeds reshuffle the traffic (digests/
// checksums diverge where the seed actually reaches the schedule) but can
// never lose work — the conservation counters are seed-invariant.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "shmem/runtime.hpp"
#include "workload/scenarios.hpp"
#include "workload/slo.hpp"
#include "workload/spec.hpp"

namespace ntbshmem::workload {
namespace {

shmem::RuntimeOptions small_options(int npes) {
  shmem::RuntimeOptions opts;
  opts.npes = npes;
  opts.routing = fabric::RoutingMode::kShortest;
  opts.schedule_digest = true;
  opts.symheap_chunk_bytes = 1 << 20;
  opts.symheap_max_bytes = 8u << 20;
  return opts;
}

KvSpec small_kv() {
  KvSpec spec;
  spec.traffic.requests_per_pe = 64;
  spec.slots_per_pe = 32;
  return spec;
}

StencilSpec small_stencil() {
  StencilSpec spec;
  spec.iterations = 4;
  spec.tile_rows = 8;
  spec.tile_cols = 8;
  return spec;
}

AllreduceSpec small_allreduce() {
  AllreduceSpec spec;
  spec.steps = 3;
  spec.gradient_elems = 128;
  spec.groups = 2;
  return spec;
}

struct RunResult {
  SloReport slo;
  std::string json;
};

template <typename Fn>
RunResult run_scenario(int npes, std::uint64_t seed, Fn&& fn) {
  shmem::Runtime rt(small_options(npes));
  const ScenarioReport run = fn(rt, seed);
  RunResult res;
  res.slo = build_slo_report(rt, run, seed);
  std::ostringstream out;
  write_slo_json(res.slo, out);
  res.json = out.str();
  return res;
}

RunResult run_kv_once(int npes, std::uint64_t seed) {
  return run_scenario(npes, seed, [](shmem::Runtime& rt, std::uint64_t s) {
    return run_kv(rt, small_kv(), s);
  });
}

RunResult run_stencil_once(int npes, std::uint64_t seed) {
  return run_scenario(npes, seed, [](shmem::Runtime& rt, std::uint64_t s) {
    return run_stencil(rt, small_stencil(), s);
  });
}

RunResult run_allreduce_once(int npes, std::uint64_t seed) {
  return run_scenario(npes, seed, [](shmem::Runtime& rt, std::uint64_t s) {
    return run_allreduce(rt, small_allreduce(), s);
  });
}

void expect_healthy(const SloReport& r, std::uint64_t expected_requests) {
  EXPECT_EQ(r.run.requests_issued, expected_requests);
  EXPECT_EQ(r.run.requests_completed, r.run.requests_issued);
  EXPECT_EQ(r.run.bytes_transferred, r.run.bytes_requested);
  EXPECT_EQ(r.run.signals_received, r.run.signals_sent);
  EXPECT_EQ(r.run.verify_errors, 0u);
  EXPECT_GT(r.schedule_dispatches, 0u);
}

TEST(WorkloadDeterminismTest, KvSameSeedIsBitIdentical) {
  const RunResult a = run_kv_once(4, 7);
  const RunResult b = run_kv_once(4, 7);
  EXPECT_EQ(a.slo.schedule_digest, b.slo.schedule_digest);
  EXPECT_EQ(a.slo.schedule_dispatches, b.slo.schedule_dispatches);
  EXPECT_EQ(a.json, b.json);
  expect_healthy(a.slo, 4 * 64);
}

TEST(WorkloadDeterminismTest, StencilSameSeedIsBitIdentical) {
  const RunResult a = run_stencil_once(4, 7);
  const RunResult b = run_stencil_once(4, 7);
  EXPECT_EQ(a.slo.schedule_digest, b.slo.schedule_digest);
  EXPECT_EQ(a.json, b.json);
  // 2x2 grid: 4 halo puts per PE per iteration.
  expect_healthy(a.slo, 4u * 4u * 4u);
}

TEST(WorkloadDeterminismTest, AllreduceSameSeedIsBitIdentical) {
  const RunResult a = run_allreduce_once(4, 7);
  const RunResult b = run_allreduce_once(4, 7);
  EXPECT_EQ(a.slo.schedule_digest, b.slo.schedule_digest);
  EXPECT_EQ(a.json, b.json);
  expect_healthy(a.slo, 4u * 3u);
}

TEST(WorkloadDeterminismTest, KvDifferentSeedsDivergeButConserve) {
  const RunResult a = run_kv_once(4, 1);
  const RunResult b = run_kv_once(4, 2);
  // The seed drives targets/ops/sizes, so the schedule must move.
  EXPECT_NE(a.slo.schedule_digest, b.slo.schedule_digest);
  EXPECT_NE(a.json, b.json);
  // ...but nothing is lost on either run, and the request count is pinned
  // by the spec, not the seed.
  expect_healthy(a.slo, 4 * 64);
  expect_healthy(b.slo, 4 * 64);
}

TEST(WorkloadDeterminismTest, AllreduceDifferentSeedsDivergeButConserve) {
  const RunResult a = run_allreduce_once(4, 1);
  const RunResult b = run_allreduce_once(4, 2);
  // The seeded compute delays shift every collective in time.
  EXPECT_NE(a.slo.schedule_digest, b.slo.schedule_digest);
  expect_healthy(a.slo, 4u * 3u);
  expect_healthy(b.slo, 4u * 3u);
  // The reduction result is seed-independent (gradients are a function of
  // pe/elem/step only).
  EXPECT_EQ(a.slo.run.checksum, b.slo.run.checksum);
}

TEST(WorkloadDeterminismTest, StencilDifferentSeedsChangeDataNotTraffic) {
  const RunResult a = run_stencil_once(4, 1);
  const RunResult b = run_stencil_once(4, 2);
  // The seed only shapes the initial field: the halo traffic (and so the
  // conservation counters) is identical, but the physics diverges.
  EXPECT_EQ(a.slo.run.requests_issued, b.slo.run.requests_issued);
  EXPECT_EQ(a.slo.run.bytes_requested, b.slo.run.bytes_requested);
  EXPECT_NE(a.slo.run.checksum, b.slo.run.checksum);
  expect_healthy(a.slo, 4u * 4u * 4u);
  expect_healthy(b.slo, 4u * 4u * 4u);
}

TEST(WorkloadDeterminismTest, OpenLoopArrivalsAreSeeded) {
  // Open-loop Poisson traffic must be exactly as reproducible as closed
  // loop: the gaps come from the arrival stream, not any clock.
  const auto run_open = [](std::uint64_t seed) {
    return run_scenario(4, seed, [](shmem::Runtime& rt, std::uint64_t s) {
      KvSpec spec = small_kv();
      spec.traffic.arrival = ArrivalProcess::kOpenPoisson;
      spec.traffic.rate_per_pe_hz = 50'000.0;
      return run_kv(rt, spec, s);
    });
  };
  const RunResult a = run_open(21);
  const RunResult b = run_open(21);
  const RunResult c = run_open(22);
  EXPECT_EQ(a.slo.schedule_digest, b.slo.schedule_digest);
  EXPECT_EQ(a.json, b.json);
  EXPECT_NE(a.slo.schedule_digest, c.slo.schedule_digest);
  expect_healthy(a.slo, 4 * 64);
  expect_healthy(c.slo, 4 * 64);
}

TEST(WorkloadDeterminismTest, SloJsonCarriesItsMetadata) {
  const RunResult a = run_kv_once(4, 7);
  EXPECT_EQ(a.slo.scenario, "kv");
  EXPECT_EQ(a.slo.hosts, 4);
  EXPECT_EQ(a.slo.seed, 7u);
  EXPECT_EQ(a.slo.fault_plan, "none");
  EXPECT_NE(a.json.find("\"schema\": \"ntbshmem-slo-v1\""), std::string::npos);
  EXPECT_NE(a.json.find("\"p999\""), std::string::npos);
  EXPECT_NE(a.json.find("\"utilization\""), std::string::npos);
  // Latency families: total + the four KV op kinds.
  ASSERT_EQ(a.slo.latencies.size(), 5u);
  EXPECT_EQ(a.slo.latencies[0].name, "total");
  std::uint64_t per_op = 0;
  for (std::size_t i = 1; i < a.slo.latencies.size(); ++i) {
    per_op += a.slo.latencies[i].count;
    EXPECT_LE(a.slo.latencies[i].p50, a.slo.latencies[i].p99);
    EXPECT_LE(a.slo.latencies[i].p99, a.slo.latencies[i].p999);
    EXPECT_LE(a.slo.latencies[i].p999, a.slo.latencies[i].max);
  }
  EXPECT_EQ(per_op, a.slo.latencies[0].count);
  EXPECT_EQ(per_op, a.slo.run.requests_completed);
}

}  // namespace
}  // namespace ntbshmem::workload
