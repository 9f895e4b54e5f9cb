#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>

namespace ntbshmem::obs {
namespace {

// Chrome trace timestamps are microseconds; sim time is integer ns. Three
// decimals keep full 1 ns resolution.
std::string ts_us(sim::Time t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(t) / 1000.0);
  return buf;
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Perfetto name and category of an op-root or service slice.
struct SliceLabel {
  const char* name;
  const char* cat;
};
SliceLabel slice_label(const CausalSpan& s) {
  if (s.kind == SpanKind::kService) return {"process_frame", "frame"};
  return {op_family_name(s.a), s.a == kFamilyBarrier ? "barrier" : "op"};
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(const Tracer& tracer, const CausalRecorder& causal,
                        const std::vector<HostTracks>& hosts,
                        std::ostream& out) {
  // Rows: the tracer's tracks (tid = index + 1), then each host's PE,
  // rx-service and frame tracks.
  std::vector<std::pair<std::string, std::string>> rows;  // (process, name)
  for (const auto& tr : tracer.tracks()) rows.emplace_back(tr.process, tr.name);
  std::vector<std::size_t> first_row;  // per host: its first PE track
  for (const HostTracks& h : hosts) {
    first_row.push_back(rows.size());
    for (int i = 0; i < h.pes; ++i) {
      rows.emplace_back(h.name, "pe" + std::to_string(h.first_pe + i));
    }
    for (const std::string& port : h.ports) {
      rows.emplace_back(h.name, "rx_service@" + port);
    }
    for (const std::string& port : h.ports) {
      rows.emplace_back(h.name, "frames_" + port);
    }
  }

  // Stable pid per distinct process name, in first-seen row order.
  std::map<std::string, int> pids;
  std::vector<std::pair<std::string, int>> pid_order;
  for (const auto& [process, name] : rows) {
    if (pids.emplace(process, static_cast<int>(pids.size()) + 1).second) {
      pid_order.emplace_back(process, pids.at(process));
    }
  }

  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& body) {
    if (!first) out << ",";
    first = false;
    out << "\n" << body;
  };

  for (const auto& [proc, pid] : pid_order) {
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" +
         json_escape(proc) + "\"}}");
  }
  std::vector<std::string> row_ids;  // ",\"pid\":P,\"tid\":T" per row
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string pid = std::to_string(pids.at(rows[i].first));
    const std::string tid = std::to_string(i + 1);
    emit("{\"ph\":\"M\",\"pid\":" + pid + ",\"tid\":" + tid +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         json_escape(rows[i].second) + "\"}}");
    row_ids.push_back(",\"pid\":" + pid + ",\"tid\":" + tid);
  }
  const auto head = [&](std::string_view name, std::string_view cat,
                        sim::Time t, std::size_t row) {
    return "{\"name\":\"" + json_escape(name) + "\",\"cat\":\"" +
           json_escape(cat) + "\",\"ts\":" + ts_us(t) + row_ids[row];
  };

  std::uint64_t max_async_id = 0;
  for (std::size_t i = 0; i < tracer.tracks().size(); ++i) {
    for (const auto& rec : tracer.tracks()[i].records) {
      const std::string& name = tracer.events().name(rec.event);
      std::string body =
          head(name, tracer.categories().name(rec.category), rec.t, i);
      switch (rec.kind) {
        case RecordKind::kInstant: {
          body += ",\"ph\":\"i\",\"s\":\"t\"";
          std::string args;
          if (rec.value != 0.0) args += "\"value\":" + fmt_double(rec.value);
          if (rec.detail != kNoDetail) {
            if (!args.empty()) args += ",";
            args += "\"detail\":\"" + json_escape(tracer.detail(rec.detail)) +
                    "\"";
          }
          if (!args.empty()) body += ",\"args\":{" + args + "}";
          body += "}";
          break;
        }
        case RecordKind::kCounter:
          body += ",\"ph\":\"C\",\"args\":{\"" + json_escape(name) +
                  "\":" + fmt_double(rec.value) + "}}";
          break;
        case RecordKind::kAsyncBegin:
          max_async_id = std::max(max_async_id, rec.id);
          body += ",\"ph\":\"b\",\"id\":\"" + std::to_string(rec.id) + "\"}";
          break;
        case RecordKind::kAsyncEnd:
          body += ",\"ph\":\"e\",\"id\":\"" + std::to_string(rec.id) + "\"}";
          break;
      }
      emit(body);
    }
  }

  // Causal spans in id (= start time) order. Op and service slices nest
  // per track: before a slice opens, close every open one on its track
  // that ended by then. Other kinds, and hosts, PEs or ports off the
  // layout, are not drawn.
  std::vector<std::vector<const CausalSpan*>> open(rows.size());
  const auto close_until = [&](std::size_t row, sim::Time t) {
    std::vector<const CausalSpan*>& stack = open[row];
    while (!stack.empty() && stack.back()->t1 != kSpanOpen &&
           stack.back()->t1 <= t) {
      const SliceLabel l = slice_label(*stack.back());
      emit(head(l.name, l.cat, stack.back()->t1, row) + ",\"ph\":\"E\"}");
      stack.pop_back();
    }
  };
  for (const CausalSpan& s : causal.spans()) {
    const auto h = static_cast<std::size_t>(s.host);
    if (s.host < 0 || h >= hosts.size()) continue;
    const int pes = hosts[h].pes;
    const int ports = static_cast<int>(hosts[h].ports.size());
    const int pe = s.pe - hosts[h].first_pe;
    const bool on_port = s.port >= 0 && s.port < ports;
    int offset = -1;
    if (s.kind == SpanKind::kOp && pe >= 0 && pe < pes) offset = pe;
    if (s.kind == SpanKind::kService && on_port) offset = pes + s.port;
    if (s.kind == SpanKind::kFrame && on_port) offset = pes + ports + s.port;
    if (offset < 0) continue;
    const std::size_t row = first_row[h] + static_cast<std::size_t>(offset);
    if (s.kind == SpanKind::kFrame) {
      // Frame lifetimes overlap (one per credit): an async pair whose id
      // follows the tracer's.
      const std::string id =
          ",\"id\":\"" + std::to_string(max_async_id + s.id) + "\"}";
      emit(head("frame_inflight", "frame", s.t0, row) + ",\"ph\":\"b\"" + id);
      if (s.t1 != kSpanOpen) {
        emit(head("frame_inflight", "frame", s.t1, row) + ",\"ph\":\"e\"" +
             id);
      }
      continue;
    }
    close_until(row, s.t0);
    const SliceLabel l = slice_label(s);
    const std::string open_head = head(l.name, l.cat, s.t0, row);
    emit(open_head + ",\"ph\":\"B\"}");
    // The flow record binds to the slice just opened.
    emit(open_head + ",\"ph\":\"" + (s.kind == SpanKind::kOp ? "s" : "t") +
         "\",\"id\":\"" + std::to_string(s.trace_id) + "\"}");
    open[row].push_back(&s);
  }
  for (std::size_t row = 0; row < rows.size(); ++row) {
    close_until(row, std::numeric_limits<sim::Time>::max());
  }
  out << "\n]}\n";
}

void write_chrome_trace(const Tracer& tracer, std::ostream& out) {
  write_chrome_trace(tracer, CausalRecorder{}, {}, out);
}

namespace {

void write_row_json(const MetricRow& row, std::ostream& out) {
  switch (row.kind) {
    case MetricRow::Kind::kCounter:
    case MetricRow::Kind::kGauge:
    case MetricRow::Kind::kProbe:
      out << fmt_double(row.value);
      break;
    case MetricRow::Kind::kHistogram: {
      out << "{\"count\":" << fmt_double(row.value) << ",\"sum\":"
          << row.hist_sum << ",\"min\":" << row.hist_min
          << ",\"max\":" << row.hist_max << ",\"buckets\":[";
      for (std::size_t b = 0; b < row.hist_buckets.size(); ++b) {
        if (b != 0) out << ",";
        out << row.hist_buckets[b];
      }
      out << "]}";
      break;
    }
  }
}

}  // namespace

void write_metrics_json(const Snapshot& snap, std::ostream& out, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2(static_cast<std::size_t>(indent) + 2, ' ');
  out << pad << "{\n" << pad2 << "\"metrics\": {";
  for (std::size_t i = 0; i < snap.rows.size(); ++i) {
    if (i != 0) out << ",";
    out << "\n" << pad2 << "  \"" << json_escape(snap.rows[i].name) << "\": ";
    write_row_json(snap.rows[i], out);
  }
  out << "\n" << pad2 << "}\n" << pad << "}\n";
}

}  // namespace ntbshmem::obs
