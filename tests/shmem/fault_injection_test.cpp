// Targeted fault injection against the transport: without the reliability
// layer every injected fault must fail fast and diagnosably (deadlock or
// thrown error, never silent corruption); with TransportTuning::reliable()
// the same faults are absorbed — retransmit on lost doorbells and lost
// acks, NAK + retransmit on corrupted headers, descriptor retry on DMA
// errors — and the payload still arrives intact.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "shmem/api.hpp"
#include "shmem_test_util.hpp"
#include "sim/fault.hpp"

namespace ntbshmem::shmem {
namespace {

using testing::pattern;
using testing::test_options;

RuntimeOptions reliable_options(int npes) {
  RuntimeOptions opts = test_options(npes);
  opts.tuning = TransportTuning::reliable();
  return opts;
}

// One 4 KiB put PE0 -> PE1 (single hop right on link0-1), quiet, verify.
void one_hop_put(bool* content_ok = nullptr) {
  auto* buf = static_cast<std::byte*>(shmem_malloc(4096));
  shmem_barrier_all();
  if (shmem_my_pe() == 0) {
    const auto data = pattern(4096, 3);
    shmem_putmem(buf, data.data(), data.size(), 1);
    shmem_quiet();
  }
  shmem_barrier_all();
  if (shmem_my_pe() == 1 && content_ok != nullptr) {
    const auto want = pattern(4096, 3);
    *content_ok = std::memcmp(buf, want.data(), want.size()) == 0;
  }
  shmem_finalize();
}

// ---- Negative paths: reliability OFF must fail fast, not hang silently ----

TEST(FaultNegativePath, DroppedDataDoorbellDeadlocksWithoutReliability) {
  Runtime rt(test_options(3));
  // Lose the put frame's notify doorbell (kDbDmaPut = bit 0): the receiver
  // never sees the frame, the sender's quiet waits for a delivery ack that
  // cannot come, and the engine reports the no-progress state.
  rt.faults().arm_one_shot(sim::FaultPlan::Site::kDoorbell, "host0.right:0");
  EXPECT_THROW(rt.run([&] {
                 shmem_init();
                 one_hop_put();
               }),
               sim::SimDeadlock);
  EXPECT_EQ(rt.faults().stats().doorbells_dropped, 1u);
}

TEST(FaultNegativePath, DmaDescriptorErrorThrowsWithoutReliability) {
  Runtime rt(test_options(3));
  rt.faults().arm_one_shot(sim::FaultPlan::Site::kDma, "host0.right");
  EXPECT_THROW(rt.run([&] {
                 shmem_init();
                 one_hop_put();
               }),
               std::runtime_error);
  EXPECT_EQ(rt.faults().stats().dma_errors, 1u);
}

TEST(FaultNegativePath, RetryBudgetExhaustionThrowsUnrecoverable) {
  // Every (re)transmitted doorbell is dropped: with a bounded retry budget
  // the channel must give up with an error instead of retrying forever.
  RuntimeOptions opts = reliable_options(3);
  opts.tuning.reliability.ack_timeout = 200'000;  // keep virtual time small
  opts.tuning.reliability.max_retries = 3;
  Runtime rt(opts);
  rt.faults().arm_one_shot(sim::FaultPlan::Site::kDoorbell, "host0.right:0",
                           100);
  EXPECT_THROW(rt.run([&] {
                 shmem_init();
                 one_hop_put();
               }),
               std::runtime_error);
  EXPECT_GE(rt.host_transport(0).stats().retransmits, 3u);
}

TEST(FaultNegativePath, InvalidReliabilityParamsAreRejected) {
  RuntimeOptions opts = reliable_options(3);
  opts.tuning.reliability.ack_timeout = 0;
  EXPECT_THROW(Runtime rt(opts), std::invalid_argument);
  opts = reliable_options(3);
  opts.tuning.reliability.backoff = 0.5;
  EXPECT_THROW(Runtime rt(opts), std::invalid_argument);
  opts = reliable_options(3);
  opts.tuning.reliability.max_retries = 0;
  EXPECT_THROW(Runtime rt(opts), std::invalid_argument);
}

// ---- Recovery paths: reliability ON absorbs the same faults ---------------

TEST(FaultRecovery, LostDataDoorbellIsRetransmitted) {
  Runtime rt(reliable_options(3));
  rt.faults().arm_one_shot(sim::FaultPlan::Site::kDoorbell, "host0.right:0");
  bool ok = false;
  rt.run([&] {
    shmem_init();
    one_hop_put(&ok);
  });
  EXPECT_TRUE(ok);
  const TransportStats& s = rt.host_transport(0).stats();
  EXPECT_GE(s.ack_timeouts, 1u);
  EXPECT_GE(s.retransmits, 1u);
  // Every emission, the retransmitted one included, was retired by an ack.
  EXPECT_TRUE(rt.host_transport(0).quiescent())
      << rt.host_transport(0).pending_summary();
  EXPECT_EQ(rt.faults().stats().doorbells_dropped, 1u);
}

TEST(FaultRecovery, LostAckDoorbellTriggersDuplicateAndReack) {
  Runtime rt(reliable_options(3));
  // The receiver acks a frame from its left neighbour through its own left
  // port (kDbAck = bit 4); dropping that doorbell forces the sender to
  // retransmit a frame the receiver already accepted.
  rt.faults().arm_one_shot(sim::FaultPlan::Site::kDoorbell, "host1.left:4");
  bool ok = false;
  rt.run([&] {
    shmem_init();
    one_hop_put(&ok);
  });
  EXPECT_TRUE(ok);
  EXPECT_GE(rt.host_transport(0).stats().retransmits, 1u);
  EXPECT_GE(rt.host_transport(1).stats().frames_duplicate_dropped, 1u);
}

TEST(FaultRecovery, CorruptedHeaderIsNakdAndRetransmitted) {
  Runtime rt(reliable_options(3));
  // Flip bits in the first header register written through host0's right
  // ScratchPad: the receiver's frame checksum must reject it and NAK.
  rt.faults().arm_one_shot(sim::FaultPlan::Site::kScratchpad, "host0.right");
  bool ok = false;
  rt.run([&] {
    shmem_init();
    one_hop_put(&ok);
  });
  EXPECT_TRUE(ok);
  EXPECT_GE(rt.host_transport(1).stats().frames_corrupt_dropped, 1u);
  EXPECT_GE(rt.host_transport(1).stats().naks_sent, 1u);
  EXPECT_GE(rt.host_transport(0).stats().naks_received, 1u);
  EXPECT_GE(rt.host_transport(0).stats().retransmits, 1u);
  EXPECT_EQ(rt.faults().stats().scratchpads_corrupted, 1u);
}

TEST(FaultRecovery, DmaDescriptorErrorIsRetried) {
  Runtime rt(reliable_options(3));
  rt.faults().arm_one_shot(sim::FaultPlan::Site::kDma, "host0.right");
  bool ok = false;
  rt.run([&] {
    shmem_init();
    one_hop_put(&ok);
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(rt.host_transport(0).stats().dma_retries, 1u);
  EXPECT_EQ(rt.faults().stats().dma_errors, 1u);
  // A descriptor retry is invisible to the frame layer: no retransmits.
  EXPECT_EQ(rt.host_transport(0).stats().retransmits, 0u);
}

TEST(FaultRecovery, DelayedInterruptOnlySlowsDelivery) {
  auto timed_run = [](bool delay_irq) {
    Runtime rt(test_options(3));
    if (delay_irq) {
      rt.faults().arm_one_shot(sim::FaultPlan::Site::kIrq, "host1.irq");
    }
    bool ok = false;
    const sim::Dur d = rt.run([&] {
      shmem_init();
      one_hop_put(&ok);
    });
    EXPECT_TRUE(ok);
    if (delay_irq) {
      EXPECT_EQ(rt.faults().stats().irq_delays, 1u);
    }
    return d;
  };
  const sim::Dur base = timed_run(false);
  const sim::Dur delayed = timed_run(true);
  EXPECT_GT(delayed, base) << "a coalesced vector must cost virtual time";
}

TEST(FaultRecovery, TlpReplayChargesLinkTimeWithoutDataLoss) {
  auto timed_run = [](bool replay) {
    Runtime rt(test_options(3));
    if (replay) {
      rt.faults().arm_one_shot(sim::FaultPlan::Site::kTlp, "link0-1.a2b");
    }
    bool ok = false;
    const sim::Dur d = rt.run([&] {
      shmem_init();
      one_hop_put(&ok);
    });
    EXPECT_TRUE(ok);
    if (replay) {
      EXPECT_EQ(rt.faults().stats().tlp_replays, 1u);
    }
    return d;
  };
  const sim::Dur base = timed_run(false);
  const sim::Dur replayed = timed_run(true);
  // The replay penalty lands on the wire: the run gets slower by at least
  // one DLLP replay round, and the data still arrives bit-exact.
  EXPECT_GE(replayed - base, 30 * sim::kUs);
}

TEST(FaultRecovery, ReliableModeIsQuiescentWithoutFaults) {
  // With reliability on but nothing injected, the retry machinery must not
  // fire at all (no spurious timeouts from a mis-sized ack_timeout).
  Runtime rt(reliable_options(3));
  bool ok = false;
  rt.run([&] {
    shmem_init();
    one_hop_put(&ok);
  });
  EXPECT_TRUE(ok);
  for (int h = 0; h < 3; ++h) {
    const TransportStats& s = rt.host_transport(h).stats();
    EXPECT_EQ(s.retransmits, 0u) << "host " << h;
    EXPECT_EQ(s.ack_timeouts, 0u) << "host " << h;
    EXPECT_EQ(s.naks_sent, 0u) << "host " << h;
    EXPECT_EQ(s.frames_corrupt_dropped, 0u) << "host " << h;
  }
  EXPECT_EQ(rt.faults().stats().total(), 0u);
}

}  // namespace
}  // namespace ntbshmem::shmem
