#include "workload/slo.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace ntbshmem::workload {
namespace {

// Fixed-format doubles keep the serialization byte-stable across runs (the
// determinism tests diff whole files). %.17g round-trips exactly.
std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_f6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

SloLatency latency_from_row(std::string name, const obs::MetricRow& row) {
  SloLatency l;
  l.name = std::move(name);
  l.count = static_cast<std::uint64_t>(row.value);
  l.min = row.hist_min;
  l.max = row.hist_max;
  l.mean = l.count == 0 ? 0.0
                        : static_cast<double>(row.hist_sum) /
                              static_cast<double>(l.count);
  l.p50 = obs::percentile_of(row, 0.50);
  l.p90 = obs::percentile_of(row, 0.90);
  l.p99 = obs::percentile_of(row, 0.99);
  l.p999 = obs::percentile_of(row, 0.999);
  return l;
}

}  // namespace

std::string topology_name(const fabric::TopologySpec& spec) {
  switch (spec.kind) {
    case fabric::TopologyKind::kRing:
      return "ring";
    case fabric::TopologyKind::kChordal: {
      std::string s = "chordal";
      for (const int skip : spec.skips) {
        s.append("+").append(std::to_string(skip));
      }
      return s;
    }
    case fabric::TopologyKind::kTorus2D:
      return std::string("torus2d-")
          .append(std::to_string(spec.rows))
          .append("x")
          .append(std::to_string(spec.cols));
    case fabric::TopologyKind::kFullMesh:
      return "fullmesh";
  }
  return "unknown";
}

std::string tuning_name(const shmem::TransportTuning& tuning) {
  std::string s = tuning.pipelined() || tuning.topology_collectives
                      ? "pipelined"
                      : "paper";
  if (tuning.reliability.enabled) s += "+reliable";
  return s;
}

std::string fault_plan_name(const sim::FaultSpec& faults) {
  if (!faults.any()) return "none";
  std::string s;
  const auto add = [&](const char* tag, double p) {
    if (p <= 0.0) return;
    if (!s.empty()) s += ",";
    s.append(tag).append("=").append(fmt_g(p));
  };
  add("doorbell_drop", faults.doorbell_drop);
  add("scratchpad_corrupt", faults.scratchpad_corrupt);
  add("dma_error", faults.dma_error);
  add("tlp_drop", faults.tlp_drop);
  add("tlp_corrupt", faults.tlp_corrupt);
  add("irq_delay", faults.irq_delay);
  if (!faults.link_flaps.empty()) {
    if (!s.empty()) s += ",";
    s += "flaps=" + std::to_string(faults.link_flaps.size());
  }
  return s;
}

SloReport build_slo_report(shmem::Runtime& rt, const ScenarioReport& run,
                           std::uint64_t seed) {
  SloReport r;
  r.scenario = run.scenario;
  // The shm backend has no simulated fabric: latencies are wall-clock and
  // the sim-only metadata (topology/tuning/fault plan) does not apply.
  const bool sim = rt.has_fabric();
  r.backend = sim ? "fibers" : "shm";
  r.clock = sim ? "virtual" : "wall";
  r.topology = sim ? topology_name(rt.options().topology) : "none";
  r.tuning = sim ? tuning_name(rt.options().tuning) : "none";
  r.fault_plan = sim ? fault_plan_name(rt.options().faults) : "none";
  r.seed = seed;
  r.hosts = rt.num_hosts();
  r.run = run;

  const double elapsed_s =
      run.elapsed_ns > 0 ? static_cast<double>(run.elapsed_ns) * 1e-9 : 0.0;
  if (elapsed_s > 0.0) {
    r.goodput_rps =
        static_cast<double>(run.requests_completed) / elapsed_s;
    r.goodput_MBps =
        static_cast<double>(run.bytes_transferred) / elapsed_s / 1e6;
  }

  const obs::Snapshot snap = rt.obs().metrics.snapshot();
  // "workload.<scenario>.latency_ns" is the "total" family;
  // "workload.<scenario>.<op>.latency_ns" are the per-op families. Snapshot
  // rows are name-sorted, so the family order is deterministic.
  const std::string prefix = "workload." + run.scenario + ".";
  const std::string suffix = ".latency_ns";
  if (const obs::MetricRow* row = snap.find(prefix + "latency_ns")) {
    r.latencies.push_back(latency_from_row("total", *row));
  }
  for (const obs::MetricRow& row : snap.rows) {
    if (row.kind != obs::MetricRow::Kind::kHistogram) continue;
    if (row.name.size() <= prefix.size() + suffix.size()) continue;
    if (row.name.compare(0, prefix.size(), prefix) != 0) continue;
    if (row.name.compare(row.name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
      continue;
    }
    const std::string op = row.name.substr(
        prefix.size(), row.name.size() - prefix.size() - suffix.size());
    r.latencies.push_back(latency_from_row(op, row));
  }

  if (sim) {
    fabric::Fabric& fab = rt.fabric();
    for (int i = 0; i < fab.num_links(); ++i) {
      pcie::Link& link = fab.link(i);
      SloLink l;
      l.name = link.name();
      const auto dir_bytes = [&](const char* dir) -> std::uint64_t {
        const obs::MetricRow* row = snap.find(l.name + dir);
        return row == nullptr ? 0 : static_cast<std::uint64_t>(row->value);
      };
      l.bytes = dir_bytes(".a2b.bytes") + dir_bytes(".b2a.bytes");
      const double capacity =
          2.0 * link.config().effective_Bps() * elapsed_s;
      l.utilization =
          capacity > 0.0 ? static_cast<double>(l.bytes) / capacity : 0.0;
      r.links.push_back(std::move(l));
    }
  }

  r.critical_path = obs::critical_path_by_family(rt.obs().causal);

  if (rt.engine().schedule_digest_enabled()) {
    r.schedule_digest = rt.engine().schedule_digest().value();
    r.schedule_dispatches = rt.engine().schedule_digest().count();
  }
  return r;
}

void write_slo_json(const SloReport& r, std::ostream& out) {
  using obs::json_escape;
  out << "{\n";
  out << "  \"schema\": \"ntbshmem-slo-v1\",\n";
  out << "  \"scenario\": \"" << json_escape(r.scenario) << "\",\n";
  out << "  \"backend\": \"" << json_escape(r.backend) << "\",\n";
  out << "  \"clock\": \"" << json_escape(r.clock) << "\",\n";
  out << "  \"topology\": \"" << json_escape(r.topology) << "\",\n";
  out << "  \"tuning\": \"" << json_escape(r.tuning) << "\",\n";
  out << "  \"fault_plan\": \"" << json_escape(r.fault_plan) << "\",\n";
  out << "  \"seed\": " << r.seed << ",\n";
  out << "  \"hosts\": " << r.hosts << ",\n";
  out << "  \"requests\": {\"issued\": " << r.run.requests_issued
      << ", \"completed\": " << r.run.requests_completed << "},\n";
  out << "  \"bytes\": {\"requested\": " << r.run.bytes_requested
      << ", \"transferred\": " << r.run.bytes_transferred << "},\n";
  out << "  \"verify_errors\": " << r.run.verify_errors << ",\n";
  out << "  \"signals\": {\"sent\": " << r.run.signals_sent
      << ", \"received\": " << r.run.signals_received << "},\n";
  out << "  \"checksum\": " << fmt_g(r.run.checksum) << ",\n";
  out << "  \"elapsed_ns\": " << r.run.elapsed_ns << ",\n";
  out << "  \"goodput\": {\"requests_per_sec\": " << fmt_f6(r.goodput_rps)
      << ", \"MBps\": " << fmt_f6(r.goodput_MBps) << "},\n";

  out << "  \"latency_ns\": [";
  for (std::size_t i = 0; i < r.latencies.size(); ++i) {
    const SloLatency& l = r.latencies[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(l.name)
        << "\", \"count\": " << l.count << ", \"min\": " << l.min
        << ", \"max\": " << l.max << ", \"mean\": " << fmt_f6(l.mean)
        << ", \"p50\": " << l.p50 << ", \"p90\": " << l.p90
        << ", \"p99\": " << l.p99 << ", \"p999\": " << l.p999 << "}";
  }
  out << (r.latencies.empty() ? "],\n" : "\n  ],\n");

  out << "  \"links\": [";
  for (std::size_t i = 0; i < r.links.size(); ++i) {
    const SloLink& l = r.links[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(l.name)
        << "\", \"bytes\": " << l.bytes
        << ", \"utilization\": " << fmt_f6(l.utilization) << "}";
  }
  out << (r.links.empty() ? "],\n" : "\n  ],\n");

  out << "  \"critical_path\": [";
  for (std::size_t i = 0; i < r.critical_path.size(); ++i) {
    const obs::FamilyBreakdown& f = r.critical_path[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"family\": \"" << json_escape(f.family)
        << "\", \"traces\": " << f.traces << ", \"total_ns\": " << f.total_ns
        << ", \"edges_ns\": {";
    bool first = true;
    for (const auto& [kind, ns] : f.edge_ns) {
      out << (first ? "" : ", ") << "\"" << json_escape(kind) << "\": " << ns;
      first = false;
    }
    out << "}}";
  }
  out << (r.critical_path.empty() ? "],\n" : "\n  ],\n");

  char digest[32];
  std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, r.schedule_digest);
  out << "  \"schedule_digest\": \"" << digest << "\",\n";
  out << "  \"schedule_dispatches\": " << r.schedule_dispatches << "\n";
  out << "}\n";
}

}  // namespace ntbshmem::workload
