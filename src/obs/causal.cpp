#include "obs/causal.hpp"

#include <algorithm>

namespace ntbshmem::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "op";
    case SpanKind::kFrame: return "frame";
    case SpanKind::kRetransmit: return "retransmit";
    case SpanKind::kIrq: return "irq";
    case SpanKind::kService: return "service";
    case SpanKind::kDma: return "dma";
    case SpanKind::kCreditStall: return "credit_stall";
    case SpanKind::kForward: return "forward";
    case SpanKind::kCopy: return "copy";
  }
  return "unknown";
}

const char* op_family_name(std::uint64_t family) {
  switch (family) {
    case kFamilyPut: return "put";
    case kFamilyGet: return "get";
    case kFamilyAtomic: return "atomic";
    case kFamilyBarrier: return "barrier";
  }
  return "other";
}

std::uint64_t CausalRecorder::begin_root(SpanKind kind, int host, int pe,
                                         sim::Time t0, std::uint64_t a,
                                         std::uint64_t b) {
  if (!enabled_) return 0;
  CausalSpan s;
  s.id = spans_.size() + 1;
  s.trace_id = next_trace_++;
  s.parent = 0;
  s.kind = kind;
  s.host = static_cast<std::int16_t>(host);
  s.port = -1;
  s.pe = static_cast<std::int16_t>(pe);
  s.hop = 0;
  s.t0 = t0;
  s.a = a;
  s.b = b;
  spans_.push_back(s);
  return s.id;
}

std::uint64_t CausalRecorder::begin(const TraceCtx& cause, SpanKind kind,
                                    int host, int port, sim::Time t0,
                                    std::uint64_t a, std::uint64_t b) {
  if (!enabled_ || !cause.valid()) return 0;
  CausalSpan s;
  s.id = spans_.size() + 1;
  s.trace_id = cause.trace_id;
  s.parent = cause.parent;
  s.kind = kind;
  s.host = static_cast<std::int16_t>(host);
  s.port = static_cast<std::int16_t>(port);
  s.hop = cause.hop;
  s.t0 = t0;
  s.a = a;
  s.b = b;
  spans_.push_back(s);
  return s.id;
}

void CausalRecorder::end(std::uint64_t span, sim::Time t1) {
  if (span == 0 || span > spans_.size()) return;
  spans_[span - 1].t1 = t1;
}

TraceCtx CausalRecorder::ctx_of(std::uint64_t span) const {
  if (span == 0 || span > spans_.size()) return {};
  const CausalSpan& s = spans_[span - 1];
  return {s.trace_id, s.id, s.hop};
}

const CausalSpan* CausalRecorder::find(std::uint64_t id) const {
  if (id == 0 || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

namespace {

// A span that was never closed contributes no duration (its start time
// still anchors the chain).
sim::Time end_of(const CausalSpan& s) {
  return s.t1 == kSpanOpen ? s.t0 : s.t1;
}

}  // namespace

std::vector<FamilyBreakdown> critical_path_by_family(
    const CausalRecorder& rec) {
  // Spans are id-ordered and parents precede children, so one forward pass
  // gives every span its op root and every root its latest-ending span.
  const auto& spans = rec.spans();
  std::vector<std::uint64_t> root_of(spans.size() + 1, 0);  // 0: no op root
  std::vector<std::uint64_t> leaf_of(spans.size() + 1, 0);  // by root id
  for (const CausalSpan& s : spans) {
    if (s.parent == 0) {
      if (s.kind == SpanKind::kOp) root_of[s.id] = leaf_of[s.id] = s.id;
      continue;
    }
    if (s.parent >= s.id) continue;
    const std::uint64_t root = root_of[s.parent];
    if (root == 0) continue;
    root_of[s.id] = root;
    if (end_of(s) > end_of(*rec.find(leaf_of[root]))) leaf_of[root] = s.id;
  }

  std::map<std::string, FamilyBreakdown> by_family;
  for (const CausalSpan& root : spans) {
    if (root.parent != 0 || root.kind != SpanKind::kOp) continue;
    FamilyBreakdown& fb = by_family[op_family_name(root.a)];
    if (fb.family.empty()) fb.family = op_family_name(root.a);
    fb.traces += 1;
    // Walk the chain leaf -> root; each span owns the part of [its start,
    // cursor] not already claimed by its on-chain descendant.
    const CausalSpan* s = rec.find(leaf_of[root.id]);
    const sim::Time leaf_end = end_of(*s);
    fb.total_ns += static_cast<std::uint64_t>(
        std::max<sim::Dur>(0, leaf_end - root.t0));
    for (sim::Time cursor = leaf_end;; s = rec.find(s->parent)) {
      fb.edge_ns[span_kind_name(s->kind)] +=
          static_cast<std::uint64_t>(std::max<sim::Dur>(0, cursor - s->t0));
      cursor = std::min(cursor, s->t0);
      if (s->id == root.id) break;
    }
  }
  std::vector<FamilyBreakdown> out;
  out.reserve(by_family.size());
  for (auto& [name, fb] : by_family) out.push_back(std::move(fb));
  return out;
}

}  // namespace ntbshmem::obs
