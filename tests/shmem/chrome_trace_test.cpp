// The Perfetto timeline has one writer per transport span: every op,
// service and frame span of the causal recorder is drawn exactly once by
// Runtime::write_chrome_trace, on its host's named track, with its own
// start and end; op slices sit on the issuing PE's track; and every flow
// step has exactly one start.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "chrome_events.hpp"
#include "obs/causal.hpp"
#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using obs::CausalSpan;
using obs::SpanKind;
using testing::ChromeEvent;
using testing::pattern;
using testing::test_options;

// One slice or async span on the timeline.
struct Drawn {
  std::string process;
  std::string thread;
  std::string name;
  std::string cat;
  sim::Time t0 = 0;
  sim::Time t1 = obs::kSpanOpen;

  bool operator<(const Drawn& o) const {
    return std::tie(process, thread, name, cat, t0, t1) <
           std::tie(o.process, o.thread, o.name, o.cat, o.t0, o.t1);
  }
  bool operator==(const Drawn& o) const {
    return std::tie(process, thread, name, cat, t0, t1) ==
           std::tie(o.process, o.thread, o.name, o.cat, o.t0, o.t1);
  }
};

std::ostream& operator<<(std::ostream& os, const Drawn& d) {
  return os << d.process << "/" << d.thread << " " << d.cat << ":" << d.name
            << " [" << d.t0 << ", " << d.t1 << "]";
}

// Transport spans as the export draws them: B/E slices paired per track,
// frame_inflight b/e pairs by id; the rest of the timeline is left out.
std::vector<Drawn> drawn_spans(const std::vector<ChromeEvent>& events) {
  std::map<std::pair<std::string, std::string>, std::vector<Drawn>> stacks;
  std::map<std::string, Drawn> frames;
  std::vector<Drawn> out;
  for (const ChromeEvent& e : events) {
    const Drawn d{e.process, e.thread, e.name, e.cat, e.ts, obs::kSpanOpen};
    if (e.ph == "B") {
      stacks[{e.process, e.thread}].push_back(d);
    } else if (e.ph == "E") {
      std::vector<Drawn>& stack = stacks[{e.process, e.thread}];
      EXPECT_FALSE(stack.empty()) << "E without B: " << d;
      if (stack.empty()) continue;
      EXPECT_EQ(stack.back().name, e.name);
      stack.back().t1 = e.ts;
      out.push_back(stack.back());
      stack.pop_back();
    } else if (e.name == "frame_inflight" && e.ph == "b") {
      EXPECT_TRUE(frames.emplace(e.id, d).second) << "reused id " << e.id;
    } else if (e.name == "frame_inflight" && e.ph == "e") {
      const auto it = frames.find(e.id);
      EXPECT_NE(it, frames.end()) << "e without b: " << d;
      if (it == frames.end()) continue;
      it->second.t1 = e.ts;
      out.push_back(it->second);
      frames.erase(it);
    }
  }
  for (const auto& [track, stack] : stacks) {
    out.insert(out.end(), stack.begin(), stack.end());
  }
  for (const auto& [id, d] : frames) out.push_back(d);
  std::sort(out.begin(), out.end());
  return out;
}

// What the export must draw for the recorder's op, service and frame spans.
std::vector<Drawn> expected_spans(Runtime& rt) {
  const fabric::Topology& topo = rt.fabric().topology();
  std::vector<Drawn> out;
  for (const CausalSpan& s : rt.obs().causal.spans()) {
    const std::string host = "host" + std::to_string(s.host);
    const std::string port =
        s.port < 0 ? "" : topo.port(s.host, s.port).name;
    if (s.kind == SpanKind::kOp) {
      out.push_back({host, "pe" + std::to_string(s.pe),
                     obs::op_family_name(s.a),
                     s.a == obs::kFamilyBarrier ? "barrier" : "op", s.t0,
                     s.t1});
    } else if (s.kind == SpanKind::kService) {
      out.push_back({host, "rx_service@" + port, "process_frame", "frame",
                     s.t0, s.t1});
    } else if (s.kind == SpanKind::kFrame) {
      out.push_back({host, "frames_" + port, "frame_inflight", "frame", s.t0,
                     s.t1});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ChromeEvent> export_events(const Runtime& rt) {
  std::ostringstream out;
  rt.write_chrome_trace(out);
  return testing::parse_chrome_events(out.str());
}

// The checks both programs share; returns the op slices per PE track.
std::map<std::string, int> check_single_writer(Runtime& rt) {
  const std::vector<ChromeEvent> events = export_events(rt);
  const std::vector<Drawn> want = expected_spans(rt);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(drawn_spans(events), want);

  std::map<std::string, int> starts;
  std::set<std::string> stepped;
  for (const ChromeEvent& e : events) {
    if (e.ph == "s") ++starts[e.id];
    if (e.ph == "t") stepped.insert(e.id);
  }
  EXPECT_FALSE(stepped.empty());
  for (const std::string& id : stepped) {
    EXPECT_EQ(starts[id], 1) << "flow " << id;
  }

  std::map<std::string, int> ops_per_pe;
  for (const CausalSpan& s : rt.obs().causal.spans()) {
    if (s.kind != SpanKind::kOp) continue;
    EXPECT_EQ(s.host, s.pe / rt.options().pes_per_host)
        << "op root " << s.id << " names a PE of another host";
    if (s.a != obs::kFamilyBarrier) ++ops_per_pe["pe" + std::to_string(s.pe)];
  }
  return ops_per_pe;
}

TEST(ChromeTrace, EachTransportSpanIsDrawnOnceOnItsTrack) {
  RuntimeOptions opts = test_options(3);
  opts.obs.spans_enabled = true;
  Runtime rt(opts);
  rt.run([] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_calloc(1, 4096));
    auto* sig = static_cast<std::uint64_t*>(shmem_calloc(1, 8));
    if (shmem_my_pe() == 0) {
      const auto data = pattern(4096, 5);
      shmem_putmem(buf, data.data(), data.size(), 2);
      std::vector<std::byte> got(4096);
      shmem_getmem_nbi(got.data(), buf, got.size(), 1);
      shmem_putmem_signal(buf, data.data(), 256, sig, 1, SHMEM_SIGNAL_SET, 1);
      shmem_quiet();
    }
    shmem_barrier_all();
    shmem_finalize();
  });
  // Only PE 0 issued non-barrier ops: put, get_nbi, and put_signal's put
  // and atomic signal leg.
  const std::map<std::string, int> ops = check_single_writer(rt);
  EXPECT_EQ(ops, (std::map<std::string, int>{{"pe0", 4}}));
}

TEST(ChromeTrace, CoResidentPesDrawOnTheirOwnTracks) {
  RuntimeOptions opts = test_options(8);  // 4 hosts x 2 PEs
  opts.pes_per_host = 2;
  opts.obs.spans_enabled = true;
  Runtime rt(opts);
  rt.run([] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_calloc(1, 8192));
    const int me = shmem_my_pe();
    // Each PE puts once to its counterpart on the next host, sized by PE so
    // the two residents' ops differ.
    const auto data = pattern(1024 * static_cast<std::size_t>(me + 1), me);
    shmem_putmem(buf, data.data(), data.size(), (me + 2) % 8);
    shmem_quiet();
    shmem_barrier_all();
    shmem_finalize();
  });
  std::map<std::string, int> want;
  for (int pe = 0; pe < 8; ++pe) want["pe" + std::to_string(pe)] = 1;
  EXPECT_EQ(check_single_writer(rt), want);
}

}  // namespace
}  // namespace ntbshmem::shmem
