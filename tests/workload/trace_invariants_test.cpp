// The CI trace-invariants gate in miniature: a faulty 16-host KV run with
// causal tracing on must export an ntbshmem-trace-v1 artifact that passes
// every tools/tracecheck invariant — doorbells all acked, retransmits
// bounded by the fault plan and linked to their original frame spans,
// credit discipline respected, link busy time consistent with the sampled
// utilization series — and the SLO report must carry the per-family
// critical-path attribution out of the same recorder.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "check.hpp"
#include "obs/causal.hpp"
#include "workload/scenarios.hpp"
#include "workload/slo.hpp"

namespace ntbshmem::workload {
namespace {

constexpr int kHosts = 16;
constexpr std::uint64_t kSeed = 0xCA05A1;

shmem::RuntimeOptions faulty_options() {
  shmem::RuntimeOptions opts;
  opts.npes = kHosts;
  opts.routing = fabric::RoutingMode::kShortest;
  opts.tuning = shmem::TransportTuning::reliable(
      shmem::TransportTuning::all_on());
  opts.resilient_links = true;
  opts.faults.doorbell_drop = 0.02;
  opts.faults.link_flaps.push_back(sim::LinkFlap{0, 2'000'000, 6'000'000});
  opts.fault_seed = kSeed;
  opts.obs.causal_enabled = true;
  opts.symheap_chunk_bytes = 1 << 20;
  opts.symheap_max_bytes = 8u << 20;
  return opts;
}

KvSpec small_kv() {
  KvSpec spec;
  spec.slots_per_pe = 32;
  spec.traffic.requests_per_pe = 96;
  return spec;
}

TEST(TraceInvariants, FaultyKvRunPassesEveryTracecheckInvariant) {
  shmem::Runtime rt(faulty_options());
  const ScenarioReport run = run_kv(rt, small_kv(), kSeed);
  EXPECT_GT(run.requests_completed, 0u);
  EXPECT_EQ(run.verify_errors, 0u);

  // The fault plan must have actually bitten, or this test gates nothing.
  std::uint64_t retransmits = 0;
  for (int h = 0; h < kHosts; ++h) {
    retransmits += rt.host_transport(h).stats().retransmits;
  }
  ASSERT_GT(rt.faults().stats().total(), 0u);
  ASSERT_GT(retransmits, 0u) << "no retransmits — raise the drop rate";

  std::ostringstream trace;
  rt.write_causal_trace(trace);
  const tracecheck::CheckResult result =
      tracecheck::check_trace_text(trace.str());
  for (const std::string& v : result.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.spans_checked, 0u);
  EXPECT_GT(result.links_checked, 0u);

  // Every retransmit span hangs off the frame it re-emitted, carrying the
  // original operation's trace across the recovery.
  std::uint64_t retransmit_spans = 0;
  for (const obs::CausalSpan& s : rt.obs().causal.spans()) {
    if (s.kind != obs::SpanKind::kRetransmit) continue;
    ++retransmit_spans;
    const obs::CausalSpan* p = rt.obs().causal.find(s.parent);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->kind, obs::SpanKind::kFrame);
    EXPECT_EQ(p->trace_id, s.trace_id);
  }
  EXPECT_EQ(retransmit_spans, retransmits);
  EXPECT_LE(retransmits, rt.retransmit_bound());

  // The SLO artifact carries the per-family critical path out of the same
  // recorder: the KV mix must at least attribute put and get time.
  const SloReport slo = build_slo_report(rt, run, kSeed);
  ASSERT_FALSE(slo.critical_path.empty());
  bool has_put = false;
  for (const obs::FamilyBreakdown& f : slo.critical_path) {
    EXPECT_GT(f.traces, 0u);
    EXPECT_FALSE(f.edge_ns.empty());
    if (f.family == "put") has_put = true;
  }
  EXPECT_TRUE(has_put);

  // And the serialized SLO JSON includes the section.
  std::ostringstream json;
  write_slo_json(slo, json);
  EXPECT_NE(json.str().find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.str().find("\"family\": \"put\""), std::string::npos);
}

TEST(TraceInvariants, ArtifactExportIsDeterministic) {
  std::string first;
  for (int i = 0; i < 2; ++i) {
    shmem::Runtime rt(faulty_options());
    run_kv(rt, small_kv(), kSeed);
    std::ostringstream trace;
    rt.write_causal_trace(trace);
    if (i == 0) {
      first = trace.str();
    } else {
      EXPECT_EQ(trace.str(), first) << "trace artifact is not reproducible";
    }
  }
}

}  // namespace
}  // namespace ntbshmem::workload
