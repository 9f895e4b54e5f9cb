// Protocol-log assertions over the always-on per-host flight recorders: the
// logged event stream must obey the transport's invariants — barrier starts
// precede barrier ends on every host and round, every frame sent on a link
// is received by its peer, fault recovery leaves an audit trail, and each
// host's log is in time order.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using obs::FlightCode;
using obs::FlightRecord;
using testing::pattern;
using testing::test_options;

// Host `host`'s complete log, oldest first (flights register in host order).
// The runs below are small enough that no ring wraps.
std::vector<FlightRecord> host_log(const Runtime& rt, int host) {
  const obs::FlightRecorder& rec =
      *rt.obs().flights.at(static_cast<std::size_t>(host)).second;
  std::vector<FlightRecord> log = rec.recent();
  EXPECT_EQ(log.size(), rec.total()) << "host" << host << " log wrapped";
  return log;
}

std::vector<FlightRecord> with_code(const std::vector<FlightRecord>& log,
                                    FlightCode code) {
  std::vector<FlightRecord> out;
  for (const FlightRecord& r : log) {
    if (r.code == static_cast<std::uint16_t>(code)) out.push_back(r);
  }
  return out;
}

// Detail strings of the fault instants on the hub tracer's fault track.
std::vector<std::string> fault_instants(const Runtime& rt) {
  const obs::Tracer& tracer = rt.obs().tracer;
  std::vector<std::string> details;
  for (const obs::Tracer::Track& track : tracer.tracks()) {
    if (track.process != "trace" || track.name != "fault") continue;
    for (const obs::TraceRecord& r : track.records) {
      details.push_back(tracer.detail(r.detail));
    }
  }
  return details;
}

TEST(TraceTest, BarrierStartsPrecedeEndsPerHostAndRound) {
  Runtime rt(test_options(3));
  rt.run([&] {
    shmem_init();
    for (int i = 0; i < 3; ++i) shmem_barrier_all();
    shmem_finalize();
  });
  // Per host, the barrier signal stream must alternate start, end, start, ...
  for (int host = 0; host < 3; ++host) {
    int starts = 0;
    int ends = 0;
    for (const FlightRecord& r :
         with_code(host_log(rt, host), FlightCode::kBarrierRx)) {
      if (r.b == 0) {
        EXPECT_EQ(starts, ends) << "two starts without an end on host " << host;
        ++starts;
      } else {
        EXPECT_EQ(starts, ends + 1) << "end without a start on host " << host;
        ++ends;
      }
    }
    EXPECT_EQ(starts, ends);
    EXPECT_GT(starts, 0) << "host " << host << " saw no barrier signals";
  }
}

TEST(TraceTest, EveryReceivedFrameWasSentEarlier) {
  Runtime rt(test_options(3));
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(8192));
    const auto data = pattern(4096, 1);
    if (shmem_my_pe() == 0) {
      shmem_putmem(buf, data.data(), data.size(), 2);  // multi-hop
      std::vector<std::byte> sink(1024);
      shmem_getmem(sink.data(), buf, sink.size(), 1);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
  // Conservation per link: the frame ids host h sent through port p are
  // exactly the ids its peer received through the other end of the cable,
  // and each arrival has a matching emission no later than it.
  const fabric::Topology& topo = rt.fabric().topology();
  std::size_t frames = 0;
  for (int h = 0; h < rt.num_hosts(); ++h) {
    const auto tx = with_code(host_log(rt, h), FlightCode::kFrameTx);
    for (int p = 0; p < topo.degree(h); ++p) {
      const int peer = topo.peer_host(h, p);
      const int peer_port = topo.peer_port(h, p);
      std::multiset<std::uint64_t> sent;
      std::multiset<std::uint64_t> received;
      for (const FlightRecord& r : tx) {
        if (r.a == p) sent.insert(r.c);
      }
      for (const FlightRecord& r :
           with_code(host_log(rt, peer), FlightCode::kFrameRx)) {
        if (r.a != peer_port) continue;
        received.insert(r.c);
        bool sent_earlier = false;
        for (const FlightRecord& s : tx) {
          sent_earlier |= s.a == p && s.c == r.c && s.t <= r.t;
        }
        EXPECT_TRUE(sent_earlier) << "host" << peer << " received frame "
                                  << r.c << " before host" << h << " sent it";
      }
      EXPECT_EQ(sent, received) << "link host" << h << " port " << p;
      frames += sent.size();
    }
  }
  EXPECT_GT(frames, 0u);
}

TEST(TraceTest, OpsAreRecordedWithSizes) {
  Runtime rt(test_options(2));
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(1024));
    const auto data = pattern(512, 2);
    if (shmem_my_pe() == 0) {
      shmem_putmem(buf, data.data(), data.size(), 1);
    }
    shmem_barrier_all();
    shmem_finalize();
  });
  bool found = false;
  for (const FlightRecord& r : with_code(host_log(rt, 0), FlightCode::kPut)) {
    if (r.a == 1 && r.b == 512) found = true;  // target PE 1, 512 bytes
  }
  EXPECT_TRUE(found);
}

TEST(TraceTest, FaultAndRetryEventsAreCategorized) {
  // A lost data doorbell under the reliable tuning must leave an audit
  // trail: the injection in the fault plan's stats and on the exported
  // timeline, the timeout + retransmit in host 0's log, and a clean run
  // records none of them.
  RuntimeOptions opts = test_options(3);
  opts.tuning = TransportTuning::reliable(TransportTuning{});
  opts.obs.spans_enabled = true;
  auto workload = [] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(4096));
    const auto data = pattern(4096, 4);
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      shmem_putmem(buf, data.data(), data.size(), 1);
      shmem_quiet();
    }
    shmem_barrier_all();
    shmem_finalize();
  };
  Runtime rt(opts);
  rt.faults().arm_one_shot(sim::FaultPlan::Site::kDoorbell, "host0.right:0");
  rt.run(workload);
  EXPECT_EQ(rt.faults().stats().doorbells_dropped, 1u);
  EXPECT_EQ(rt.faults().stats().total(), 1u);
  EXPECT_EQ(fault_instants(rt),
            std::vector<std::string>{"doorbell drop host0.right:0"});
  const auto log = host_log(rt, 0);
  EXPECT_GE(with_code(log, FlightCode::kAckTimeout).size(), 1u);
  EXPECT_GE(with_code(log, FlightCode::kRetransmit).size(), 1u)
      << "recovery actions must be logged on the sender";

  Runtime clean(opts);
  clean.run(workload);
  EXPECT_EQ(clean.faults().stats().total(), 0u);
  EXPECT_TRUE(fault_instants(clean).empty());
  for (int host = 0; host < clean.num_hosts(); ++host) {
    const auto clean_log = host_log(clean, host);
    EXPECT_TRUE(with_code(clean_log, FlightCode::kAckTimeout).empty());
    EXPECT_TRUE(with_code(clean_log, FlightCode::kRetransmit).empty());
  }
}

TEST(TraceTest, TimestampsAreMonotonic) {
  Runtime rt(test_options(3));
  rt.run([&] {
    shmem_init();
    shmem_barrier_all();
    shmem_finalize();
  });
  for (int host = 0; host < rt.num_hosts(); ++host) {
    const auto log = host_log(rt, host);
    EXPECT_FALSE(log.empty());
    sim::Time last = 0;
    for (const FlightRecord& r : log) {
      EXPECT_GE(r.t, last) << "host " << host;
      last = r.t;
    }
  }
}

}  // namespace
}  // namespace ntbshmem::shmem
