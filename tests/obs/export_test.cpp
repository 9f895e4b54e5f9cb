#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "json_check.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ntbshmem::obs {
namespace {

using testing::count_occurrences;
using testing::json_well_formed;

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

// Every export test leans on json_well_formed, so it must reject the
// classic serializer bugs, not merely parse what it is given.
TEST(JsonWellFormedTest, RejectsMalformedDocuments) {
  EXPECT_TRUE(json_well_formed(R"({"a": [1, -2.5e3, "x\n"], "b": null})"));
  EXPECT_FALSE(json_well_formed(R"({"a": [1, 2,]})"));  // trailing comma
  EXPECT_FALSE(json_well_formed(R"({"a": 1,})"));
  EXPECT_FALSE(json_well_formed(R"({"a": [1, 2})"));  // unbalanced bracket
  EXPECT_FALSE(json_well_formed(R"([{"a": 1])"));
  EXPECT_FALSE(json_well_formed(R"({"a": 1} x)"));  // trailing garbage
  EXPECT_FALSE(json_well_formed("[\"a\nb\"]"));  // raw newline in a string
  EXPECT_FALSE(json_well_formed("[+1]"));
  EXPECT_FALSE(json_well_formed("[1.]"));
  EXPECT_FALSE(json_well_formed("[nan]"));
}

// Hand-builds a tracer with every record kind, exports it, and checks the
// Chrome trace-event structure that Perfetto relies on.
TEST(ChromeTraceTest, ExportsAllRecordKindsAsWellFormedJson) {
  Tracer tr;
  tr.set_enabled(true);
  const TrackId pe0 = tr.track("host0", "pe0");
  const TrackId link = tr.track("fabric", "link0");
  const CategoryId cat = tr.category("op");
  const EventId put = tr.event("put");
  const EventId inflight = tr.event("frame_inflight");
  const EventId sample = tr.event("inflight_bytes");

  tr.instant(pe0, cat, put, 1200, 42.0);
  const std::uint64_t id = tr.next_async_id();
  tr.async_begin(link, cat, inflight, 1100, id);
  tr.async_end(link, cat, inflight, 1900, id);
  tr.counter(link, sample, 1300, 4096.0);
  tr.instant_detail(pe0, cat, put, 2000, "detail \"quoted\"\nline");

  std::ostringstream out;
  write_chrome_trace(tr, out);
  const std::string json = out.str();

  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);

  // Metadata: one process_name per distinct process, one thread_name per
  // track.
  EXPECT_EQ(count_occurrences(json, "\"name\":\"process_name\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"thread_name\""), 2u);
  EXPECT_NE(json.find("\"args\":{\"name\":\"host0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"fabric\"}"), std::string::npos);

  // One of each phase, with async ids matched and 1 ns resolution kept
  // (1100 ns -> ts 1.100 us). Slices come from causal spans only.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), 0u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"C\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"b\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"e\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"id\":\"" + std::to_string(id) + "\""),
            2u);
  EXPECT_NE(json.find("\"ts\":1.100"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.200"), std::string::npos);

  // Payloads: instant value, counter args keyed by event name, escaped
  // detail string.
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"inflight_bytes\":4096}"),
            std::string::npos);
  EXPECT_NE(json.find("detail \\\"quoted\\\"\\nline"), std::string::npos);
}

// Transport spans come from the causal recorder: an op root becomes a
// B/E slice with a flow start on its issuing PE's track, a service span a
// B/E slice with a flow step on its port's rx-service track, and a frame
// span an async b/e pair on its port's frame track, with an id past the
// tracer's. Every track the layout names is named, events or not.
TEST(ChromeTraceTest, DrawsCausalSpansOnTheirHostTracks) {
  Tracer tr;
  tr.set_enabled(true);
  const TrackId port = tr.track("host0", "host0.right");
  const CategoryId dma = tr.category("dma");
  const EventId write = tr.event("dma_write");
  const std::uint64_t dma_id = tr.next_async_id();
  tr.async_begin(port, dma, write, 1100, dma_id);
  tr.async_end(port, dma, write, 1300, dma_id);

  CausalRecorder rec;
  rec.set_enabled(true);
  const std::uint64_t put =
      rec.begin_root(SpanKind::kOp, /*host=*/0, /*pe=*/1, 1000, kFamilyPut, 64);
  const std::uint64_t frame =
      rec.begin(rec.ctx_of(put), SpanKind::kFrame, 0, /*port=*/0, 1200);
  const std::uint64_t svc =
      rec.begin(rec.ctx_of(frame), SpanKind::kService, 1, /*port=*/1, 1400);
  rec.end(put, 1500);
  rec.end(svc, 1600);
  rec.end(frame, 1700);
  // Opens as the put closes, and is still open at export.
  rec.begin_root(SpanKind::kOp, 0, 1, 1500, kFamilyBarrier, 0);
  // Not drawn: other kinds, and hosts the layout does not name.
  rec.end(rec.begin(rec.ctx_of(put), SpanKind::kDma, 0, 0, 1250), 1260);
  rec.begin_root(SpanKind::kOp, /*host=*/7, 14, 1800, kFamilyGet, 8);

  const std::vector<HostTracks> hosts = {{"host0", 0, 2, {"right", "left"}},
                                         {"host1", 2, 2, {"right", "left"}}};
  std::ostringstream out;
  write_chrome_trace(tr, rec, hosts, out);
  const std::string json = out.str();
  EXPECT_TRUE(json_well_formed(json)) << json;

  // Tracer track tid 1; host0 = pid 1 with pe0..frames_left at tids 2..7,
  // host1 = pid 2 at tids 8..13.
  EXPECT_EQ(count_occurrences(json, "\"name\":\"process_name\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"thread_name\""), 13u);
  for (const char* track : {"pe0", "pe1", "pe2", "pe3", "rx_service@right",
                            "rx_service@left", "frames_right",
                            "frames_left"}) {
    const std::string named = "\"args\":{\"name\":\"" + std::string(track);
    EXPECT_NE(json.find(named + "\"}"), std::string::npos) << track;
  }

  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), 3u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"s\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"t\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"b\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"e\""), 2u);
  // Position of the event line {<what>,"ts":<ts><where><rest>}.
  const auto find = [&](const std::string& what, const char* ts,
                        const std::string& where, const std::string& rest) {
    return json.find("{" + what + ",\"ts\":" + ts + where + rest + "}");
  };
  const std::string put_ev = "\"name\":\"put\",\"cat\":\"op\"";
  const std::string pe1 = ",\"pid\":1,\"tid\":3,\"ph\":";
  const std::size_t put_b = find(put_ev, "1.000", pe1, "\"B\"");
  const std::size_t put_s = find(put_ev, "1.000", pe1, "\"s\",\"id\":\"1\"");
  const std::size_t put_e = find(put_ev, "1.500", pe1, "\"E\"");
  const std::size_t barrier_b =
      find("\"name\":\"barrier\",\"cat\":\"barrier\"", "1.500", pe1, "\"B\"");
  ASSERT_NE(put_b, std::string::npos) << json;
  ASSERT_NE(put_s, std::string::npos) << json;
  ASSERT_NE(put_e, std::string::npos) << json;
  ASSERT_NE(barrier_b, std::string::npos) << json;
  // The flow record follows its slice's open; a slice ending when the next
  // opens closes first.
  EXPECT_LT(put_b, put_s);
  EXPECT_LT(put_e, barrier_b);
  const std::string svc_ev = "\"name\":\"process_frame\",\"cat\":\"frame\"";
  const std::string host1_rx_left = ",\"pid\":2,\"tid\":11,\"ph\":";
  EXPECT_NE(find(svc_ev, "1.400", host1_rx_left, "\"t\",\"id\":\"1\""),
            std::string::npos);
  EXPECT_NE(find(svc_ev, "1.600", host1_rx_left, "\"E\""), std::string::npos);
  // Frame span id 2 on frames_right, past the tracer's async id 1.
  const std::string frame_ev = "\"name\":\"frame_inflight\",\"cat\":\"frame\"";
  const std::string frames_right = ",\"pid\":1,\"tid\":6,\"ph\":";
  EXPECT_NE(find(frame_ev, "1.200", frames_right, "\"b\",\"id\":\"3\""),
            std::string::npos);
  EXPECT_NE(find(frame_ev, "1.700", frames_right, "\"e\",\"id\":\"3\""),
            std::string::npos);
}

TEST(ChromeTraceTest, EmptyTracerExportsEmptyEventArray) {
  Tracer tr;
  std::ostringstream out;
  write_chrome_trace(tr, out);
  EXPECT_TRUE(json_well_formed(out.str())) << out.str();
  EXPECT_EQ(count_occurrences(out.str(), "\"ph\":"), 0u);
}

TEST(ChromeTraceTest, ExportIsDeterministic) {
  const auto build_and_export = [] {
    Tracer tr;
    tr.set_enabled(true);
    const TrackId t = tr.track("host0", "pe0");
    const CategoryId cat = tr.category("op");
    const EventId ev = tr.event("put");
    tr.async_begin(t, cat, ev, 10, tr.next_async_id());
    tr.instant(t, cat, ev, 15, 1.0);
    tr.async_end(t, cat, ev, 20, 1);
    std::ostringstream out;
    write_chrome_trace(tr, out);
    return out.str();
  };
  EXPECT_EQ(build_and_export(), build_and_export());
}

TEST(MetricsExportTest, JsonDumpIsWellFormedAndComplete) {
  MetricsRegistry reg;
  reg.counter("host0.port.doorbells_rung")->add(7);
  reg.gauge("host0.port.credits")->set(2.0);
  reg.histogram("host0.port.dma_transfer_bytes")->record(4096);
  reg.register_probe("host0.transport.puts_issued", [] { return 3.0; });

  std::ostringstream out;
  write_metrics_json(reg.snapshot(), out, 0);
  const std::string json = out.str();

  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"host0.port.doorbells_rung\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"host0.port.credits\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"host0.transport.puts_issued\": 3"),
            std::string::npos);
  // Histograms export as an object with the full distribution.
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":4096"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
}

}  // namespace
}  // namespace ntbshmem::obs
