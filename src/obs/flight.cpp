#include "obs/flight.hpp"

namespace ntbshmem::obs {

const char* flight_code_name(FlightCode code) {
  switch (code) {
    case FlightCode::kPut: return "put";
    case FlightCode::kGet: return "get";
    case FlightCode::kAtomic: return "atomic";
    case FlightCode::kBarrier: return "barrier";
    case FlightCode::kFrameTx: return "frame_tx";
    case FlightCode::kFrameRx: return "frame_rx";
    case FlightCode::kAck: return "ack";
    case FlightCode::kNak: return "nak";
    case FlightCode::kRetransmit: return "retransmit";
    case FlightCode::kAckTimeout: return "ack_timeout";
    case FlightCode::kCreditStall: return "credit_stall";
    case FlightCode::kDmaError: return "dma_error";
    case FlightCode::kChecksumDrop: return "checksum_drop";
    case FlightCode::kDupDrop: return "dup_drop";
    case FlightCode::kOooDrop: return "ooo_drop";
    case FlightCode::kBarrierToken: return "barrier_token";
    case FlightCode::kDeliveryAck: return "delivery_ack";
    case FlightCode::kBarrierRx: return "barrier_rx";
  }
  return "unknown";
}

std::vector<FlightRecord> FlightRecorder::recent() const {
  const std::uint64_t n = head_ < kCapacity ? head_ : kCapacity;
  std::vector<FlightRecord> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = head_ - n; i < head_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i) & (kCapacity - 1)]);
  }
  return out;
}

void dump_flight(const FlightRecorder& rec, std::string_view name,
                 std::ostream& out) {
  const std::vector<FlightRecord> records = rec.recent();
  const std::uint64_t evicted = rec.total() - records.size();
  out << "=== flight recorder " << name << ": " << records.size()
      << " records retained, " << evicted << " evicted ===\n";
  for (const FlightRecord& r : records) {
    out << "[t=" << r.t << "ns] "
        << flight_code_name(static_cast<FlightCode>(r.code)) << " a=" << r.a
        << " b=" << r.b << " c=" << r.c << "\n";
  }
}

}  // namespace ntbshmem::obs
