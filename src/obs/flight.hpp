// Always-on flight recorder: a bounded per-host ring of fixed-size event
// records that costs one masked store per event and never allocates on the
// hot path. Unlike the span Tracer it is NOT gated on an enabled flag — it
// runs in every configuration (including the paper-mode golden runs, which
// stay bit-identical because logging never touches the simulation engine) —
// so when a fault-injection recovery fails or a fuzz seed trips an assert,
// the last N protocol events per host are already in memory and can be
// dumped next to the failure artifact without re-running anything.
//
// Records are deliberately tiny (24 bytes, POD): a virtual timestamp, a
// FlightCode, and three untyped operands whose meaning is per-code (see the
// table in DESIGN.md §4h). dump_flight() renders a ring human-readably,
// oldest first, with the drop count of everything the ring evicted.
//
// The ring is one fixed-size, trivially copyable object, so the same type
// serves both backends: the sim transport embeds one per host, and the shm
// backend embeds one per PE in its shared segment, where a zero-filled
// mapping already holds an empty ring and the parent reads the children's
// rings in place after the run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace ntbshmem::obs {

enum class FlightCode : std::uint16_t {
  kPut = 1,          // a: target_pe, b: bytes
  kGet = 2,          // a: source_pe, b: bytes
  kAtomic = 3,       // a: target_pe, b: atomic op
  kBarrier = 4,      // a: pe
  kFrameTx = 5,      // a: port, b: doorbell bit, c: frame id/seq
  kFrameRx = 6,      // a: port, b: frame kind, c: frame id/seq
  kAck = 7,          // a: port, b: seq
  kNak = 8,          // a: port, b: seq
  kRetransmit = 9,   // a: port, b: retry count, c: seq
  kAckTimeout = 10,  // a: port, b: retry count, c: seq
  kCreditStall = 11, // a: port, c: stall ns
  kDmaError = 12,    // a: port, b: retry count
  kChecksumDrop = 13,// a: port, c: expected checksum
  kDupDrop = 14,     // a: port, b: seq
  kOooDrop = 15,     // a: port, b: got seq, c: expected seq
  kBarrierToken = 16,// a: origin pe, b: direction (0 up, 1 down)
  kDeliveryAck = 17, // a: origin pe, c: op id
  kBarrierRx = 18,   // a: port, b: 0 ring start / tree up, 1 end / down
};

// Stable lowercase names for dumps.
const char* flight_code_name(FlightCode code);

struct FlightRecord {
  sim::Time t = 0;
  std::uint16_t code = 0;
  std::uint16_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
};
static_assert(sizeof(FlightRecord) == 24, "flight records must stay compact");

class FlightRecorder {
 public:
  // Records retained (power of two: masked indexing on the hot path).
  static constexpr std::size_t kCapacity = 512;

  void log(sim::Time t, FlightCode code, std::uint16_t a = 0,
           std::uint32_t b = 0, std::uint64_t c = 0) {
    FlightRecord& r = ring_[static_cast<std::size_t>(head_) & (kCapacity - 1)];
    r.t = t;
    r.code = static_cast<std::uint16_t>(code);
    r.a = a;
    r.b = b;
    r.c = c;
    ++head_;
  }

  // Retained records, oldest first.
  std::vector<FlightRecord> recent() const;
  std::uint64_t total() const { return head_; }
  void clear() { head_ = 0; }

 private:
  std::uint64_t head_ = 0;  // total records ever logged
  std::array<FlightRecord, kCapacity> ring_{};
};
static_assert(std::is_trivially_copyable_v<FlightRecorder>,
              "flight rings live in shared memory");

// Human-readable dump: one "[t=...ns] code a=%u b=%u c=%llu" line per
// retained record, oldest first, headed by `name` and the evicted count.
void dump_flight(const FlightRecorder& rec, std::string_view name,
                 std::ostream& out);

}  // namespace ntbshmem::obs
