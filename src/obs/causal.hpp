// Causal cross-hop tracing: the third half of the observability subsystem.
//
// The device Tracer (trace.hpp) answers "what was this port or link doing at
// time t"; the CausalRecorder answers "why", and its op, service and frame
// spans are also the transport's Perfetto slices. Every top-level SHMEM
// operation opens a *root* causal span; every frame emission, retransmit,
// interrupt delivery, service dispatch, DMA window write, credit stall and
// store-and-forward hop opens a child span linked to its cause — across hosts,
// because the transport carries a compact TraceCtx with each frame (see
// DESIGN.md §4h for the modelled on-wire encoding). One shmem_put that crosses
// three hosts becomes one tree whose leaves are the final delivery events, and
// because the DES is deterministic the tree is golden-checkable bit for bit.
//
// Cost model: identical to the Tracer. Every record method first checks
// enabled() and returns immediately when causal recording is off, and
// recording never touches the simulation engine, so enabling it cannot
// perturb virtual time. TraceCtx values ride *beside* the modelled wire
// (a zero-cost adapter sidecar on NtbPort), so the disabled path adds no
// header bytes and no register writes.
//
// Offline consumers: critical_path_by_family() extracts each tree's longest
// cause chain with per-edge attribution (credit stall vs DMA vs IRQ delay
// vs retransmit) and aggregates it per op family for the ntbshmem-slo-v1
// artifact; tools/tracecheck asserts causal invariants over the exported
// ntbshmem-trace-v1 JSON.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace ntbshmem::obs {

// Compact trace context propagated with every frame: enough for the
// receiver to attach its spans to the sender's tree. trace_id == 0 is the
// null context (causal recording off, or a frame outside any operation).
struct TraceCtx {
  std::uint64_t trace_id = 0;  // tree identity, allocated at the root
  std::uint64_t parent = 0;    // causal parent span id on the sending side
  std::uint8_t hop = 0;        // store-and-forward hops taken so far

  bool valid() const { return trace_id != 0; }
};

enum class SpanKind : std::uint8_t {
  kOp = 1,          // root: one SHMEM operation (family in `a`)
  kFrame = 2,       // one frame emission: open at doorbell, closed at ack
  kRetransmit = 3,  // timer- or NAK-driven re-emission of a kFrame parent
  kIrq = 4,         // doorbell latch -> service dispatch (IRQ + queue delay)
  kService = 5,     // receiver-side frame processing (rx service)
  kDma = 6,         // window DMA of one message's payload segments
  kCreditStall = 7, // sender blocked waiting for a ScratchPad channel credit
  kForward = 8,     // store-and-forward re-emission toward the next hop
  kCopy = 9,        // staging-buffer copy / reassembly work
};

// Stable lowercase names used by the JSON export and tools/tracecheck.
const char* span_kind_name(SpanKind kind);

// Op families carried in a root span's `a` field (and named in the SLO
// artifact's critical-path section).
inline constexpr std::uint64_t kFamilyPut = 1;
inline constexpr std::uint64_t kFamilyGet = 2;
inline constexpr std::uint64_t kFamilyAtomic = 3;
inline constexpr std::uint64_t kFamilyBarrier = 4;
const char* op_family_name(std::uint64_t family);

// Sentinel for a span that was never closed (tracecheck flags these; a
// kFrame left open is precisely "a doorbell with no matching ack").
inline constexpr sim::Time kSpanOpen = -1;

struct CausalSpan {
  std::uint64_t id = 0;        // 1-based, allocation order (deterministic)
  std::uint64_t trace_id = 0;  // tree this span belongs to
  std::uint64_t parent = 0;    // 0 = root
  SpanKind kind = SpanKind::kOp;
  std::int16_t host = -1;      // host the span executed on (-1 = unknown)
  std::int16_t port = -1;      // port index within the host (-1 = none)
  std::int16_t pe = -1;        // issuing PE of an op root (-1 = none)
  std::uint8_t hop = 0;        // hops from the origin host
  sim::Time t0 = 0;
  sim::Time t1 = kSpanOpen;
  std::uint64_t a = 0;  // kind-specific: op family | frame seq | msg id
  std::uint64_t b = 0;  // kind-specific: doorbell bit | bytes | retry count
};

class CausalRecorder {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a root span issued by PE `pe` on `host`, with a freshly
  // allocated trace id. Returns the span id (0 while disabled — all other
  // methods treat span/ctx 0 as null).
  std::uint64_t begin_root(SpanKind kind, int host, int pe, sim::Time t0,
                           std::uint64_t a = 0, std::uint64_t b = 0);

  // Opens a child span caused by `cause` (no-op null span when the recorder
  // is disabled or the cause is the null context).
  std::uint64_t begin(const TraceCtx& cause, SpanKind kind, int host, int port,
                      sim::Time t0, std::uint64_t a = 0, std::uint64_t b = 0);

  void end(std::uint64_t span, sim::Time t1);

  // The context to hand to effects caused by `span` (null for span 0).
  TraceCtx ctx_of(std::uint64_t span) const;

  const std::deque<CausalSpan>& spans() const { return spans_; }
  const CausalSpan* find(std::uint64_t id) const;

 private:
  bool enabled_ = false;
  std::uint64_t next_trace_ = 1;
  std::deque<CausalSpan> spans_;  // spans_[id - 1], ids are allocation order
};

// ---- Critical-path extraction ----------------------------------------------

struct FamilyBreakdown {
  std::string family;        // "put" | "get" | "atomic" | "barrier"
  std::uint64_t traces = 0;  // number of root spans aggregated
  std::uint64_t total_ns = 0;
  // span-kind name -> summed attributed ns (std::map: deterministic order).
  std::map<std::string, std::uint64_t> edge_ns;
};

// Critical paths of every op root, aggregated per op family; families
// sorted by name. Empty when the recorder saw no roots. A root's critical
// path is the chain from the root to its latest-ending descendant (ties go
// to the lower span id), and each span on it is attributed the part of the
// chain's wall time not already covered by its on-chain descendant (an
// exclusive-time back-walk; open spans count as zero-length). One pass over
// the id-ordered spans finds every root's chain, so the cost is linear in
// the spans plus the chain lengths.
std::vector<FamilyBreakdown> critical_path_by_family(const CausalRecorder& rec);

}  // namespace ntbshmem::obs
