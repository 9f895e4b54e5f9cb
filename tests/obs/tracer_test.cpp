#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "obs/ids.hpp"

namespace ntbshmem::obs {
namespace {

TEST(InternerTest, SameNameSameId) {
  Interner in;
  const auto a = in.id("dma");
  const auto b = in.id("doorbell");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.id("dma"), a);
  EXPECT_EQ(in.id("doorbell"), b);
  EXPECT_EQ(in.size(), 2u);
}

TEST(InternerTest, IdsAreDenseAndNamesRoundTrip) {
  Interner in;
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(in.id("name" + std::to_string(i)), i);
  }
  // Interning 100 names forced several rehashes of the map; cached ids and
  // reverse lookup must have survived them.
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(in.name(i), "name" + std::to_string(i));
    EXPECT_EQ(in.id(in.name(i)), i);
  }
}

TEST(TracerTest, TrackRegistrationIsIdempotent) {
  Tracer tr;
  const TrackId a = tr.track("host0", "pe0");
  const TrackId b = tr.track("host0", "rx_service");
  const TrackId c = tr.track("host1", "pe0");  // same name, other process
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_EQ(tr.track("host0", "pe0"), a);
  EXPECT_EQ(tr.tracks().size(), 3u);
  EXPECT_EQ(tr.tracks()[a].process, "host0");
  EXPECT_EQ(tr.tracks()[a].name, "pe0");
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tr;
  const TrackId t = tr.track("host0", "pe0");
  const CategoryId cat = tr.category("op");
  const EventId ev = tr.event("put");
  ASSERT_FALSE(tr.enabled());  // off is the default: benches must not pay
  tr.instant(t, cat, ev, 30, 1.0);
  tr.counter(t, ev, 40, 2.0);
  tr.async_begin(t, cat, ev, 50, 1);
  tr.async_end(t, cat, ev, 60, 1);
  tr.instant_detail(t, cat, ev, 70, "detail");
  EXPECT_EQ(tr.total_records(), 0u);
}

TEST(TracerTest, SpanNestingIsPreservedInRecordOrder) {
  Tracer tr;
  tr.set_enabled(true);
  const TrackId t = tr.track("host0", "pe0");
  const CategoryId cat = tr.category("op");
  const EventId outer = tr.event("barrier");
  const EventId inner = tr.event("put");
  tr.async_begin(t, cat, outer, 100, 1);
  tr.async_begin(t, cat, inner, 110, 2);
  tr.async_end(t, cat, inner, 120, 2);
  tr.async_end(t, cat, outer, 130, 1);

  const auto& recs = tr.tracks()[t].records;
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].kind, RecordKind::kAsyncBegin);
  EXPECT_EQ(recs[0].event, outer);
  EXPECT_EQ(recs[1].kind, RecordKind::kAsyncBegin);
  EXPECT_EQ(recs[1].event, inner);
  EXPECT_EQ(recs[2].kind, RecordKind::kAsyncEnd);
  EXPECT_EQ(recs[2].event, inner);
  EXPECT_EQ(recs[3].kind, RecordKind::kAsyncEnd);
  EXPECT_EQ(recs[3].event, outer);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LE(recs[i - 1].t, recs[i].t);  // sim time is monotonic per track
  }
}

TEST(TracerTest, RecordsLandOnTheirOwnTracks) {
  Tracer tr;
  tr.set_enabled(true);
  const TrackId a = tr.track("host0", "pe0");
  const TrackId b = tr.track("host1", "pe1");
  const CategoryId cat = tr.category("op");
  const EventId ev = tr.event("put");
  tr.instant(a, cat, ev, 1);
  tr.instant(b, cat, ev, 2);
  tr.instant(a, cat, ev, 3);
  EXPECT_EQ(tr.tracks()[a].records.size(), 2u);
  EXPECT_EQ(tr.tracks()[b].records.size(), 1u);
  EXPECT_EQ(tr.total_records(), 3u);
}

TEST(TracerTest, AsyncIdsStartAtOneAndIncrement) {
  Tracer tr;
  EXPECT_EQ(tr.next_async_id(), 1u);
  EXPECT_EQ(tr.next_async_id(), 2u);
  EXPECT_EQ(tr.next_async_id(), 3u);
}

TEST(TracerTest, InstantDetailStoresStringSideTable) {
  Tracer tr;
  tr.set_enabled(true);
  const TrackId t = tr.track("host0", "pe0");
  const CategoryId cat = tr.category("fault");
  const EventId ev = tr.event("inject");
  tr.instant_detail(t, cat, ev, 5, "drop doorbell bit 3");
  tr.instant(t, cat, ev, 6);

  const auto& recs = tr.tracks()[t].records;
  ASSERT_EQ(recs.size(), 2u);
  ASSERT_NE(recs[0].detail, kNoDetail);
  EXPECT_EQ(tr.detail(recs[0].detail), "drop doorbell bit 3");
  EXPECT_EQ(recs[1].detail, kNoDetail);
}

TEST(TracerTest, CounterSamplesCarryValues) {
  Tracer tr;
  tr.set_enabled(true);
  const TrackId t = tr.track("fabric", "link0");
  const EventId ev = tr.event("inflight_bytes");
  tr.counter(t, ev, 10, 4096.0);
  tr.counter(t, ev, 20, 0.0);
  const auto& recs = tr.tracks()[t].records;
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].kind, RecordKind::kCounter);
  EXPECT_DOUBLE_EQ(recs[0].value, 4096.0);
  EXPECT_DOUBLE_EQ(recs[1].value, 0.0);
}

}  // namespace
}  // namespace ntbshmem::obs
