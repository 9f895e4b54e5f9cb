// Unit tests for the causal cross-hop recorder (obs/causal.hpp): span
// identity and linkage, context propagation across hops, and the
// critical-path extraction the SLO artifact surfaces per op family.
#include "obs/causal.hpp"

#include <gtest/gtest.h>

namespace ntbshmem::obs {
namespace {

TEST(CausalRecorder, DisabledRecorderRecordsNothing) {
  CausalRecorder rec;
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.begin_root(SpanKind::kOp, 0, 0, 100), 0u);
  EXPECT_EQ(rec.begin(TraceCtx{1, 1, 0}, SpanKind::kFrame, 0, 0, 100), 0u);
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_FALSE(rec.ctx_of(0).valid());
}

TEST(CausalRecorder, NullCauseOpensNoSpan) {
  CausalRecorder rec;
  rec.set_enabled(true);
  EXPECT_EQ(rec.begin(TraceCtx{}, SpanKind::kFrame, 0, 0, 100), 0u);
  EXPECT_TRUE(rec.spans().empty());
  // end() of the null span id is a safe no-op.
  rec.end(0, 200);
}

TEST(CausalRecorder, RootAndChildLinkage) {
  CausalRecorder rec;
  rec.set_enabled(true);
  const std::uint64_t root =
      rec.begin_root(SpanKind::kOp, /*host=*/2, /*pe=*/5, /*t0=*/100,
                     kFamilyPut, 4096);
  ASSERT_EQ(root, 1u);
  const TraceCtx ctx = rec.ctx_of(root);
  EXPECT_TRUE(ctx.valid());
  EXPECT_EQ(ctx.trace_id, 1u);
  EXPECT_EQ(ctx.parent, root);
  EXPECT_EQ(ctx.hop, 0);

  const std::uint64_t child =
      rec.begin(ctx, SpanKind::kFrame, /*host=*/2, /*port=*/1, /*t0=*/120,
                /*a=*/7, /*b=*/3);
  ASSERT_EQ(child, 2u);
  rec.end(child, 150);
  rec.end(root, 160);

  const CausalSpan* c = rec.find(child);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->trace_id, 1u);
  EXPECT_EQ(c->parent, root);
  EXPECT_EQ(c->kind, SpanKind::kFrame);
  EXPECT_EQ(c->host, 2);
  EXPECT_EQ(c->port, 1);
  EXPECT_EQ(c->t0, 120);
  EXPECT_EQ(c->t1, 150);
  EXPECT_EQ(rec.find(root)->t1, 160);
  EXPECT_EQ(rec.find(root)->pe, 5);
  EXPECT_EQ(c->pe, -1);  // only op roots name their issuing PE
  // A second root starts a new trace.
  const std::uint64_t root2 =
      rec.begin_root(SpanKind::kOp, 0, 0, 200, kFamilyGet, 8);
  EXPECT_EQ(rec.find(root2)->trace_id, 2u);
}

TEST(CausalRecorder, HopRidesTheContext) {
  CausalRecorder rec;
  rec.set_enabled(true);
  const std::uint64_t root =
      rec.begin_root(SpanKind::kOp, 0, 0, 0, kFamilyPut, 1);
  TraceCtx fwd = rec.ctx_of(root);
  fwd.hop = 2;  // what a two-hop forward stamps into the wire context
  const std::uint64_t svc = rec.begin(fwd, SpanKind::kService, 2, 0, 50);
  EXPECT_EQ(rec.find(svc)->hop, 2);
  EXPECT_EQ(rec.ctx_of(svc).hop, 2);
}

TEST(CriticalPath, PicksTheLatestEndingChain) {
  CausalRecorder rec;
  rec.set_enabled(true);
  const std::uint64_t root =
      rec.begin_root(SpanKind::kOp, 0, 0, 0, kFamilyPut, 1);
  const TraceCtx rctx = rec.ctx_of(root);
  const std::uint64_t fa = rec.begin(rctx, SpanKind::kFrame, 0, 0, 10);
  const std::uint64_t fb = rec.begin(rctx, SpanKind::kFrame, 0, 1, 20);
  rec.end(fb, 30);
  const std::uint64_t svc =
      rec.begin(rec.ctx_of(fa), SpanKind::kService, 1, 0, 45);
  rec.end(fa, 40);
  rec.end(svc, 160);  // async leg outlives the op root
  const std::uint64_t dma = rec.begin(rec.ctx_of(fb), SpanKind::kDma, 0, 1, 50);
  rec.end(dma, 160);  // ties svc's end: the lower span id wins
  rec.end(root, 100);

  // The chain root -> fa -> svc ends last; fb and dma (off the chain) get
  // nothing.
  const std::vector<FamilyBreakdown> fams = critical_path_by_family(rec);
  ASSERT_EQ(fams.size(), 1u);
  EXPECT_EQ(fams[0].family, "put");
  EXPECT_EQ(fams[0].traces, 1u);
  EXPECT_EQ(fams[0].total_ns, 160u);
  const std::map<std::string, std::uint64_t> want = {
      {"op", 10},        // [0, 10) before the frame starts
      {"frame", 35},     // [10, 45) before the service starts
      {"service", 115},  // [45, 160)
  };
  EXPECT_EQ(fams[0].edge_ns, want);
}

TEST(CriticalPath, FamilyBreakdownAggregatesRoots) {
  CausalRecorder rec;
  rec.set_enabled(true);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t put =
        rec.begin_root(SpanKind::kOp, 0, 0, i * 1000, kFamilyPut, 64);
    const std::uint64_t f =
        rec.begin(rec.ctx_of(put), SpanKind::kFrame, 0, 0, i * 1000 + 10);
    rec.end(f, i * 1000 + 60);
    rec.end(put, i * 1000 + 50);
  }
  const std::uint64_t get =
      rec.begin_root(SpanKind::kOp, 1, 1, 5000, kFamilyGet, 8);
  rec.end(get, 5200);

  const std::vector<FamilyBreakdown> fams = critical_path_by_family(rec);
  ASSERT_EQ(fams.size(), 2u);  // name-sorted: get, put
  EXPECT_EQ(fams[0].family, "get");
  EXPECT_EQ(fams[0].traces, 1u);
  EXPECT_EQ(fams[0].total_ns, 200u);
  EXPECT_EQ(fams[1].family, "put");
  EXPECT_EQ(fams[1].traces, 2u);
  EXPECT_EQ(fams[1].total_ns, 120u);  // two chains of 60 each
  EXPECT_EQ(fams[1].edge_ns.at("op"), 20u);
  EXPECT_EQ(fams[1].edge_ns.at("frame"), 100u);
}

}  // namespace
}  // namespace ntbshmem::obs
