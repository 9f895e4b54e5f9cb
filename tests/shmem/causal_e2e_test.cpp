// End-to-end causal tracing (DESIGN.md §4h): one SHMEM operation must
// become one cause-linked span tree spanning every host it touched, the
// tree must be deterministic (golden-checkable), and recording must be
// exactly timing-neutral — the TraceCtx sidecar adds no wire bytes and no
// virtual time whether tracing is on or off.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chrome_events.hpp"
#include "obs/causal.hpp"
#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using obs::CausalSpan;
using obs::SpanKind;
using testing::pattern;
using testing::test_options;

constexpr std::size_t kBulk = 8 * 1024;

// PE 0 puts a chunked bulk buffer two hops away (kRightOnly on 3 hosts),
// so the trace must cross the intermediate forwarder.
void two_hop_put() {
  shmem_init();
  const int me = shmem_my_pe();
  auto* bulk = static_cast<std::byte*>(shmem_calloc(1, kBulk));
  if (me == 0) {
    const auto data = pattern(kBulk, 7);
    shmem_putmem(bulk, data.data(), data.size(), 2);
    shmem_quiet();
  }
  shmem_barrier_all();
  shmem_finalize();
}

RuntimeOptions causal_options() {
  RuntimeOptions opts = test_options(3);
  opts.tuning = TransportTuning::all_on();
  opts.obs.causal_enabled = true;
  return opts;
}

// All spans belonging to `trace`, in allocation (deterministic) order.
std::vector<CausalSpan> trace_spans(const Runtime& rt, std::uint64_t trace) {
  std::vector<CausalSpan> out;
  for (const CausalSpan& s : rt.obs().causal.spans()) {
    if (s.trace_id == trace) out.push_back(s);
  }
  return out;
}

// FNV-1a over an exported artifact: pins its exact bytes in one constant.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

const CausalSpan* find_root(const Runtime& rt, std::uint64_t family) {
  for (const CausalSpan& s : rt.obs().causal.spans()) {
    if (s.parent == 0 && s.kind == SpanKind::kOp && s.a == family) return &s;
  }
  return nullptr;
}

TEST(CausalE2E, TwoHopPutBuildsOneTreeAcrossAllThreeHosts) {
  Runtime rt(causal_options());
  rt.run(two_hop_put);

  const CausalSpan* root = find_root(rt, obs::kFamilyPut);
  ASSERT_NE(root, nullptr) << "no put root span recorded";
  EXPECT_EQ(root->host, 0);
  EXPECT_EQ(root->hop, 0);
  EXPECT_NE(root->t1, obs::kSpanOpen) << "put root never closed";

  const std::vector<CausalSpan> tree = trace_spans(rt, root->trace_id);
  ASSERT_GT(tree.size(), 4u);

  std::set<int> hosts;
  std::set<SpanKind> kinds;
  int max_hop = 0;
  for (const CausalSpan& s : tree) {
    hosts.insert(s.host);
    kinds.insert(s.kind);
    max_hop = std::max(max_hop, static_cast<int>(s.hop));
    if (s.parent != 0) {
      const CausalSpan* p = rt.obs().causal.find(s.parent);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(p->trace_id, s.trace_id)
          << "span " << s.id << " crossed into another trace";
      EXPECT_GE(s.t0, p->t0) << "span " << s.id << " predates its cause";
      EXPECT_GE(static_cast<int>(s.hop), static_cast<int>(p->hop))
          << "hop went backward at span " << s.id;
    }
  }
  // The put originated on host 0, was forwarded by host 1 and delivered on
  // host 2 — one tree covering all of them, with the hop count advancing.
  EXPECT_EQ(hosts, (std::set<int>{0, 1, 2}));
  EXPECT_GE(max_hop, 2);
  EXPECT_TRUE(kinds.count(SpanKind::kFrame)) << "no frame legs";
  EXPECT_TRUE(kinds.count(SpanKind::kService)) << "no receiver service legs";
  EXPECT_TRUE(kinds.count(SpanKind::kForward)) << "no forwarding leg";
  EXPECT_TRUE(kinds.count(SpanKind::kCopy)) << "no delivery copy";

  // Final delivery happened on host 2 …
  bool copy_on_target = false;
  // … and its end-to-end delivery ack came back to the origin's tree.
  bool ack_back_home = false;
  for (const CausalSpan& s : tree) {
    if (s.kind == SpanKind::kCopy && s.host == 2) copy_on_target = true;
    if (s.kind == SpanKind::kService && s.host == 0) ack_back_home = true;
  }
  EXPECT_TRUE(copy_on_target);
  EXPECT_TRUE(ack_back_home);
}

TEST(CausalE2E, TheTreeIsGoldenDeterministic) {
  Runtime a(causal_options());
  a.run(two_hop_put);
  Runtime b(causal_options());
  b.run(two_hop_put);

  const auto& sa = a.obs().causal.spans();
  const auto& sb = b.obs().causal.spans();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].id, sb[i].id);
    EXPECT_EQ(sa[i].trace_id, sb[i].trace_id);
    EXPECT_EQ(sa[i].parent, sb[i].parent);
    EXPECT_EQ(sa[i].kind, sb[i].kind);
    EXPECT_EQ(sa[i].host, sb[i].host);
    EXPECT_EQ(sa[i].port, sb[i].port);
    EXPECT_EQ(sa[i].hop, sb[i].hop);
    EXPECT_EQ(sa[i].t0, sb[i].t0);
    EXPECT_EQ(sa[i].t1, sb[i].t1);
    EXPECT_EQ(sa[i].a, sb[i].a);
    EXPECT_EQ(sa[i].b, sb[i].b);
  }
  // And the exported artifact is byte-identical.
  std::ostringstream ja, jb;
  a.write_causal_trace(ja);
  b.write_causal_trace(jb);
  EXPECT_EQ(ja.str(), jb.str());
  // Pinned across refactors of how spans are emitted: every span id,
  // parent link, timestamp and counter of the artifact stays put.
  EXPECT_EQ(fnv1a(ja.str()), 0xb808e47c41ba6d6aull);
}

TEST(CausalE2E, RecordingIsExactlyTimingNeutral) {
  RuntimeOptions on = causal_options();
  on.schedule_digest = true;
  RuntimeOptions off = on;
  off.obs.causal_enabled = false;

  Runtime rt_on(on);
  const sim::Dur d_on = rt_on.run(two_hop_put);
  Runtime rt_off(off);
  const sim::Dur d_off = rt_off.run(two_hop_put);

  EXPECT_TRUE(rt_off.obs().causal.spans().empty());
  EXPECT_FALSE(rt_on.obs().causal.spans().empty());
  EXPECT_EQ(d_on, d_off) << "causal recording perturbed virtual time";
  EXPECT_EQ(rt_on.engine().schedule_digest().value(),
            rt_off.engine().schedule_digest().value())
      << "causal recording perturbed the dispatch schedule";
}

TEST(CausalE2E, Torus16TreeBarrierLinksTokensIntoBarrierRoots) {
  RuntimeOptions opts = test_options(16, DataPath::kDma,
                                     fabric::RoutingMode::kShortest);
  opts.topology.kind = fabric::TopologyKind::kTorus2D;
  opts.topology.rows = 4;
  opts.topology.cols = 4;
  opts.obs.causal_enabled = true;
  Runtime rt(opts);
  rt.run([] {
    shmem_init();
    shmem_barrier_all();
    shmem_finalize();
  });

  // Every PE roots its own barrier span per barrier (init/finalize add
  // more); each root must close.
  std::size_t barrier_roots = 0;
  for (const CausalSpan& s : rt.obs().causal.spans()) {
    if (s.parent == 0 && s.a == obs::kFamilyBarrier) {
      ++barrier_roots;
      EXPECT_NE(s.t1, obs::kSpanOpen) << "barrier root " << s.id << " open";
    }
  }
  EXPECT_GE(barrier_roots, 16u);

  // A leader's tree must show its token crossing to a neighbour: the token
  // frame leg on the sending host and service/copy legs on the receiver,
  // all hanging off that one barrier root.
  const CausalSpan* root = find_root(rt, obs::kFamilyBarrier);
  ASSERT_NE(root, nullptr);
  std::set<int> hosts;
  bool token_frame = false;
  for (const CausalSpan& s : trace_spans(rt, root->trace_id)) {
    hosts.insert(s.host);
    if (s.kind == SpanKind::kFrame) token_frame = true;
  }
  EXPECT_GE(hosts.size(), 2u) << "barrier tokens never left the root host";
  EXPECT_TRUE(token_frame) << "no token frame leg in the barrier tree";
  std::ostringstream artifact;
  rt.write_causal_trace(artifact);
  EXPECT_EQ(fnv1a(artifact.str()), 0x41409038304ec75aull);
}

// Every Perfetto flow arrow needs its origin: each trace id that some rx
// service slice steps must have exactly one flow start at an op slice in
// the exported timeline. put-with-signal roots its signal leg as its own
// atomic op, and a direct getmem_nbi roots its own get; both must start
// their flows.
TEST(CausalE2E, EveryFlowStepHasExactlyOneStart) {
  RuntimeOptions opts = test_options(3);
  opts.obs.spans_enabled = true;
  opts.obs.causal_enabled = true;
  Runtime rt(opts);
  rt.run([] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_calloc(1, 256));
    auto* sig = static_cast<std::uint64_t*>(shmem_calloc(1, 8));
    if (shmem_my_pe() == 0) {
      const auto data = pattern(256, 3);
      shmem_putmem_signal(buf, data.data(), data.size(), sig, 1,
                          SHMEM_SIGNAL_SET, 2);
      std::vector<std::byte> got(256);
      shmem_getmem_nbi(got.data(), buf, got.size(), 1);
      shmem_quiet();
    }
    shmem_barrier_all();
    shmem_finalize();
  });

  std::ostringstream timeline;
  rt.write_chrome_trace(timeline);
  std::map<std::uint64_t, int> starts;
  std::set<std::uint64_t> stepped;
  for (const testing::ChromeEvent& e :
       testing::parse_chrome_events(timeline.str())) {
    if (e.ph == "s") ++starts[std::stoull(e.id)];
    if (e.ph == "t") stepped.insert(std::stoull(e.id));
  }
  ASSERT_FALSE(stepped.empty()) << "no flow arrows recorded";
  for (const std::uint64_t id : stepped) {
    EXPECT_EQ(starts[id], 1) << "flow " << id << " has steps but "
                             << starts[id] << " starts";
  }
  // The signal leg and the direct get_nbi each rooted a trace of their own.
  std::set<std::uint64_t> roots;
  for (const CausalSpan& s : rt.obs().causal.spans()) {
    if (s.parent == 0 && (s.a == obs::kFamilyAtomic || s.a == obs::kFamilyGet))
      roots.insert(s.trace_id);
  }
  EXPECT_EQ(roots.size(), 2u);
  for (const std::uint64_t trace : roots) EXPECT_EQ(starts[trace], 1);
}

// The causal context belongs to the simulated process, not to the host's
// transport: two co-resident PEs issue multi-hop puts of different sizes
// concurrently while the host's rx service handles inbound traffic, and
// every span each PE emits must land in that PE's own op tree.
TEST(CausalE2E, CoResidentPesKeepTheirOwnCause) {
  constexpr std::size_t kSmall = 96 * 1024;
  constexpr std::size_t kLarge = 160 * 1024;
  constexpr int kRounds = 3;
  RuntimeOptions opts = test_options(8);  // 4 hosts x 2 PEs, kRightOnly
  opts.pes_per_host = 2;
  opts.obs.causal_enabled = true;
  Runtime rt(opts);
  rt.run([] {
    shmem_init();
    auto* out = static_cast<std::byte*>(shmem_malloc(kLarge));
    auto* in = static_cast<std::byte*>(shmem_malloc(kLarge));
    const int me = shmem_my_pe();
    shmem_barrier_all();
    if (me == 0 || me == 1) {
      // Host 0's residents: two hops right to host 2, sizes by PE.
      const std::size_t n = me == 0 ? kSmall : kLarge;
      const auto data = pattern(n, me);
      for (int i = 0; i < kRounds; ++i) {
        shmem_putmem(in, data.data(), n, 4 + me);
      }
    } else if (me == 6 || me == 7) {
      // Host 3's residents feed host 0's rx service meanwhile (one hop).
      const auto data = pattern(64 * 1024, me);
      for (int i = 0; i < kRounds; ++i) {
        shmem_putmem(out, data.data(), data.size(), me - 6);
      }
    }
    shmem_quiet();
    shmem_barrier_all();
    shmem_finalize();
  });

  const auto& spans = rt.obs().causal.spans();
  auto is_put_root = [](const CausalSpan& s) {
    return s.parent == 0 && s.kind == SpanKind::kOp &&
           s.a == obs::kFamilyPut;
  };
  std::map<std::uint64_t, std::uint64_t> dma_bytes;  // root id -> sum
  std::map<std::uint64_t, int> frames;               // root id -> count
  std::map<std::uint64_t, int> host0_roots_by_size;  // bytes -> roots
  for (const CausalSpan& s : spans) {
    if (is_put_root(s) && s.host == 0) ++host0_roots_by_size[s.b];
    if (s.kind == SpanKind::kDma) dma_bytes[s.parent] += s.a;  // bytes
    if (s.host != 0) continue;
    if (s.kind != SpanKind::kFrame && s.kind != SpanKind::kCreditStall)
      continue;
    // Host 0 forwards nothing and answers with bare ack doorbells, so each
    // of its frames and credit stalls was issued by a resident PE inside a
    // put: its cause is that put's root.
    const CausalSpan* root = rt.obs().causal.find(s.parent);
    ASSERT_NE(root, nullptr) << "span " << s.id << " has no cause";
    EXPECT_TRUE(is_put_root(*root) && root->host == 0)
        << obs::span_kind_name(s.kind) << " span " << s.id
        << " escaped its PE's put tree (parent " << s.parent << ")";
    EXPECT_GE(s.t0, root->t0);
    if (s.kind == SpanKind::kFrame) ++frames[root->id];
  }
  EXPECT_EQ(host0_roots_by_size,
            (std::map<std::uint64_t, int>{{kSmall, kRounds},
                                          {kLarge, kRounds}}));
  for (const CausalSpan& s : spans) {
    if (!is_put_root(s)) continue;
    EXPECT_EQ(dma_bytes[s.id], s.b)
        << "put root " << s.id << " on host " << s.host
        << ": its dma children moved " << dma_bytes[s.id] << " bytes";
    // One staged sub-message per put: exactly one frame from host 0.
    if (s.host == 0) {
      EXPECT_EQ(frames[s.id], 1) << "put root " << s.id;
    }
  }
  // The scenario really interleaves: the PEs contended for the channel
  // credit, and host 0's rx service ran while one of their puts was open.
  std::size_t stalls = 0;
  std::size_t interleaved = 0;
  for (const CausalSpan& s : spans) {
    if (s.host != 0) continue;
    if (s.kind == SpanKind::kCreditStall) ++stalls;
    if (s.kind != SpanKind::kService) continue;
    for (const CausalSpan& r : spans) {
      if (is_put_root(r) && r.host == 0 && r.t0 < s.t0 && s.t0 < r.t1) {
        ++interleaved;
        break;
      }
    }
  }
  EXPECT_GT(stalls, 0u) << "the two PEs never contended for the credit";
  EXPECT_GT(interleaved, 0u) << "host 0's rx service never ran mid-put";
}

}  // namespace
}  // namespace ntbshmem::shmem
