// Wire formats of the NTB transport.
//
// Link layer — FrameHeader: one frame is delivered per ScratchPad+Doorbell
// handshake (paper Fig. 2: SrcId, DestId, Address Offset, Data Size,
// Send/Receive flag written to the ScratchPad registers, then a doorbell
// interrupt). A frame either notifies of data already placed by DMA
// (direct Put into the symmetric window), announces a whole staged message
// in the receiver's bypass buffer, carries one chunk of a service-forwarded
// message, or is a payload-free Get request.
//
// Network layer — MessageHeader: the first bytes of every staged/chunked
// logical message; carries the end-to-end operation (Put delivery, Get
// response, atomic request/response, delivery acknowledgement) so
// intermediate hosts can forward without understanding the operation.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>

#include "ntb/ntb_port.hpp"

namespace ntbshmem::shmem {

// ---- Doorbell bit assignment (paper §III-B1 plus the flow-control ack,
// which Fig. 5 calls "Release Interrupt") -----------------------------------
enum DoorbellBit : int {
  kDbDmaPut = 0,        // DOORBELL_DMAPUT: data frame notify
  kDbDmaGet = 1,        // DOORBELL_DMAGET: get-request frame notify
  kDbBarrierStart = 2,  // DOORBELL_BARRIER_START
  kDbBarrierEnd = 3,    // DOORBELL_BARRIER_END
  kDbAck = 4,           // frame consumed; releases the ScratchPad channel
  kDbNak = 5,           // reliability: checksum/order reject; payload-free,
                        // asks the sender to retransmit its oldest frame
};

// ---- Link layer ------------------------------------------------------------

enum class FrameKind : std::uint8_t {
  kDirectPut = 1,  // data already DMA'd into the receiver's symmetric heap
  kStaged = 2,     // whole logical message in the receiver's staging buffer
  kChunk = 3,      // one chunk of a logical message in the staging buffer
  kGetRequest = 4, // payload-free: fields describe the requested region
};

struct FrameHeader {
  FrameKind kind = FrameKind::kDirectPut;
  std::uint8_t origin_pe = 0;  // frame-level source (the sending host's PE)
  std::uint8_t target_pe = 0;  // final destination PE of the operation
  std::uint8_t flags = 0;      // reliability on: per-channel sequence number
  std::uint32_t id = 0;   // op id (direct put / get request) or message id
  std::uint64_t a = 0;    // heap offset | chunk offset within message
  std::uint32_t b = 0;    // data size | chunk size
  std::uint32_t c = 0;    // total message size (chunks) | spare
  std::uint32_t d = 0;    // spare

  // Pack into ScratchPad registers 0..6 (reg 7 is the receiver-owned
  // ack/status register).
  std::array<std::uint32_t, 7> pack() const;
  static FrameHeader unpack(const std::array<std::uint32_t, 7>& regs);
};

inline constexpr int kFrameRegs = 7;
inline constexpr int kAckReg = 7;  // receiver writes consumption status here

// ---- Reliable delivery (opt-in; TransportTuning::reliability) --------------
//
// With reliability on, the sender writes frame_checksum(regs 0..6) into the
// receiver bank's reg 7 alongside the header (one extra posted write — paid
// only when the feature is enabled, keeping the paper path bit-identical),
// and the ack doorbell carries a redundantly encoded cumulative sequence
// number written into the *sender* bank's reg 7. A corrupted ack word fails
// unpack_ack_word and is ignored; the retransmit timeout recovers.

// 32-bit FNV-1a over the packed header registers; detects the ScratchPad
// corruption fault (a CRC stand-in — any damaged reg flips the sum).
std::uint32_t frame_checksum(const std::array<std::uint32_t, 7>& regs);

inline constexpr std::uint32_t kAckMagic = 0xAC5A0000u;

// Cumulative ack word: magic | seq | ~seq. The duplicated sequence byte is
// the redundancy that lets the receiver-side of the ack path survive the
// same register corruption faults as data frames.
constexpr std::uint32_t pack_ack_word(std::uint8_t seq) {
  return kAckMagic | (static_cast<std::uint32_t>(seq) << 8) |
         static_cast<std::uint32_t>(seq ^ 0xffu);
}
constexpr bool unpack_ack_word(std::uint32_t word, std::uint8_t* seq) {
  if ((word & 0xffff0000u) != kAckMagic) return false;
  const auto s = static_cast<std::uint8_t>((word >> 8) & 0xffu);
  if ((word & 0xffu) != static_cast<std::uint32_t>(s ^ 0xffu)) return false;
  *seq = s;
  return true;
}

// ---- Network layer ---------------------------------------------------------

enum class MsgOp : std::uint8_t {
  kPut = 1,             // payload -> target's symmetric heap at heap_offset
  kGetResponse = 2,     // payload -> requester's pending-get buffer (op_id)
  kAtomicRequest = 3,   // execute atomic on target's heap word
  kAtomicResponse = 4,  // old value back to the requester (op_id)
  kDeliveryAck = 5,     // end-to-end ack of op_id back to the origin
  kBarrierToken = 6,    // tree-barrier token (operand1: 0 = up, 1 = down)
};

// Bit flags carried by MessageHeader::flags.
enum MessageFlags : std::uint8_t {
  // Atomic request wants no AtomicResponse (signal/fire-and-forget ops);
  // delivery is still acknowledged under kFullDelivery completion.
  kMsgFlagNoReply = 1 << 0,
};

enum class AtomicOp : std::uint8_t {
  kAdd = 1,
  kFetchAdd = 2,
  kInc = 3,
  kFetchInc = 4,
  kCompareSwap = 5,
  kSwap = 6,
  kFetch = 7,
  kSet = 8,
  kAnd = 9,
  kOr = 10,
  kXor = 11,
};

// Ops that return the target's previous value; atomic_post (fire and
// forget) rejects them.
constexpr bool is_fetching(AtomicOp op) {
  return op == AtomicOp::kFetch || op == AtomicOp::kFetchAdd ||
         op == AtomicOp::kFetchInc || op == AtomicOp::kCompareSwap ||
         op == AtomicOp::kSwap;
}

// The operand every atomic must name, on both backends: a 4- or 8-byte word
// at a naturally aligned heap offset. Throws std::invalid_argument.
inline void check_amo_operand(std::uint64_t heap_offset, std::uint8_t width) {
  if (width != 4 && width != 8) {
    throw std::invalid_argument("atomic width must be 4 or 8");
  }
  if (heap_offset % width != 0) {
    throw std::invalid_argument("atomic heap offset must be naturally aligned");
  }
}

// Fixed-size message header serialized at offset 0 of every staged/chunked
// logical message; payload follows immediately.
struct MessageHeader {
  MsgOp op = MsgOp::kPut;
  std::uint8_t origin_pe = 0;
  std::uint8_t target_pe = 0;
  std::uint8_t width = 0;        // atomic operand width (4 or 8)
  std::uint32_t op_id = 0;
  std::uint64_t heap_offset = 0;
  std::uint32_t payload_len = 0;
  std::uint8_t atomic_op = 0;    // AtomicOp for atomic requests
  std::uint8_t flags = 0;        // MessageFlags
  std::uint8_t pad[2] = {0, 0};
  std::uint64_t operand1 = 0;    // atomic value / cas desired
  std::uint64_t operand2 = 0;    // cas expected / response old value

  // Causal trace context (obs::TraceCtx, flattened). Lives in what used to
  // be the 24 bytes of on-wire padding between the 40-byte header and the
  // kMessageHeaderBytes slot, so the wire size is unchanged and — because
  // the pad was zero-filled — the bytes are identical when causal tracing
  // is off (all three fields stay 0).
  std::uint64_t trace_id = 0;    // causal tree identity (0 = none)
  std::uint64_t parent_span = 0; // causal parent span id at the origin
  std::uint8_t hop = 0;          // store-and-forward hops taken so far
  std::uint8_t pad2[7] = {0, 0, 0, 0, 0, 0, 0};
};
static_assert(sizeof(MessageHeader) == 64);

inline constexpr std::uint64_t kMessageHeaderBytes = 64;  // padded on wire

void write_message_header(std::span<std::byte> dst, const MessageHeader& h);
MessageHeader read_message_header(std::span<const std::byte> src);

}  // namespace ntbshmem::shmem
