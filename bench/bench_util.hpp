// Shared helpers for the figure-reproduction benches.
//
// Each bench binary does two things:
//   1. prints the paper-style table for its figure: one row per request
//      size, one column per series — the same layout as the gnuplot data
//      behind the paper's plots, and
//   2. understands the observability flags (ObsCli below):
//        --trace-out=FILE    Chrome trace-event JSON of the last sim run
//        --metrics-out=FILE  metrics snapshot (JSON) of the last sim run
//        --causal-out=FILE   ntbshmem-trace-v1 causal trace of the last run
//                            (the tools/tracecheck input)
//      Any other argument stops the binary before it simulates anything,
//      so a mistyped flag cannot silently run the default experiment.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "obs/export.hpp"
#include "shmem/runtime.hpp"
#include "sim/time.hpp"

namespace ntbshmem::bench {

// The request-size axis used by every experiment in the paper (Figs. 8-10).
inline std::vector<std::uint64_t> paper_sizes() {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t s = 1_KiB; s <= 512_KiB; s *= 2) sizes.push_back(s);
  return sizes;
}

inline double to_MBps(std::uint64_t bytes, sim::Dur elapsed) {
  if (elapsed <= 0) return 0.0;
  return Bps_to_MBps(static_cast<double>(bytes) / sim::to_seconds(elapsed));
}

// Observability CLI shared by every bench binary. main() calls
// parse_args() first (after stripping any flags of its own); each bench's
// options factory calls apply() so runtimes record spans when a trace was
// asked for; each measurement calls capture() before its Runtime dies.
// Benches run many sequential runtimes — the last captured run is what
// lands on disk, written at exit by report().
class ObsCli {
 public:
  static ObsCli& instance() {
    static ObsCli cli;
    return cli;
  }

  // Takes the observability flags. Any other argument is one no parser in
  // the binary knows: name it and exit with status 2.
  void parse_args(int argc, char** argv) {
    bool unknown = false;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("--trace-out=", 0) == 0) {
        trace_path_ = std::string(arg.substr(12));
      } else if (arg.rfind("--metrics-out=", 0) == 0) {
        metrics_path_ = std::string(arg.substr(14));
      } else if (arg.rfind("--causal-out=", 0) == 0) {
        causal_path_ = std::string(arg.substr(13));
      } else {
        std::cerr << argv[0] << ": unknown argument " << arg << "\n";
        unknown = true;
      }
    }
    if (unknown) std::exit(2);
  }

  bool tracing() const { return !trace_path_.empty(); }
  bool causal() const { return !causal_path_.empty(); }
  bool active() const {
    return tracing() || causal() || !metrics_path_.empty();
  }

  void apply(shmem::RuntimeOptions& opts) const {
    if (tracing()) opts.obs.spans_enabled = true;
    if (causal()) opts.obs.causal_enabled = true;
  }

  // Variant for the link-level benches that drive a bare sim::Engine +
  // fabric::Fabric without a shmem::Runtime: attach `hub` to the engine
  // before constructing the fabric (components cache instrument pointers
  // at construction), keeping `hub` alive past the fabric.
  void apply(sim::Engine& engine, obs::Hub& hub) const {
    if (tracing()) hub.tracer.set_enabled(true);
    engine.attach_obs(&hub);
  }

  void capture(shmem::Runtime& rt) {
    if (causal()) {
      std::ofstream out(causal_path_);
      rt.write_causal_trace(out);
      captured_causal_ = true;
    }
    if (tracing()) {
      std::ofstream out(trace_path_);
      rt.write_chrome_trace(out);
      captured_trace_ = true;
    }
    capture_metrics(rt.obs());
  }

  // Bare-fabric runs: the tracer is the whole timeline.
  void capture(obs::Hub& hub) {
    if (tracing()) {
      std::ofstream out(trace_path_);
      obs::write_chrome_trace(hub.tracer, out);
      captured_trace_ = true;
    }
    capture_metrics(hub);
  }

  void report() const {
    if (captured_trace_) std::cout << "wrote trace " << trace_path_ << "\n";
    if (captured_causal_) {
      std::cout << "wrote causal trace " << causal_path_ << "\n";
    }
    if (captured_metrics_) {
      std::cout << "wrote metrics " << metrics_path_ << "\n";
    }
  }

 private:
  ObsCli() = default;

  void capture_metrics(obs::Hub& hub) {
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      obs::write_metrics_json(hub.metrics.snapshot(), out, /*indent=*/2);
      captured_metrics_ = true;
    }
  }

  std::string trace_path_;
  std::string metrics_path_;
  std::string causal_path_;
  bool captured_trace_ = false;
  bool captured_causal_ = false;
  bool captured_metrics_ = false;
};

// Self-describing artifact metadata stamped into every bench JSON file:
// which simulator backend produced the numbers, on what fabric, and from
// what seed — so an artifact alone (no CI log context) is reproducible.
// Sweeps that cover several topologies name the swept set ("ring+torus2d");
// per-sample `mode` strings carry the specific point.
struct RunMeta {
  std::string backend;  // "fibers": the sim engine's process mechanism
  std::string topology;
  std::uint64_t seed = 0;
};

// Counter context for a bench's JSON output: sums the named per-host
// transport metrics of one finished run so throughput samples carry the
// protocol accounting (stall time, retransmits) that explains them.
struct RunCounters {
  std::uint64_t credit_stall_ns = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t dma_bytes = 0;

  static RunCounters from(shmem::Runtime& rt) {
    const obs::Snapshot snap = rt.obs().metrics.snapshot();
    RunCounters c;
    c.credit_stall_ns =
        static_cast<std::uint64_t>(snap.total(".transport.credit_stall_ns"));
    c.retransmits =
        static_cast<std::uint64_t>(snap.total(".transport.retransmits"));
    c.frames_sent =
        static_cast<std::uint64_t>(snap.total(".transport.frames_sent"));
    c.dma_bytes = static_cast<std::uint64_t>(snap.total(".dma_bytes"));
    return c;
  }
};

// One row of a bench's machine-readable output. The schema is shared by
// every ablation bench that writes JSON (bench_ablation_pipeline.json set
// the shape, plots and CI regression tracking consume it):
//   {"bench", "workload", "samples": [{"mode", "bytes", "hops",
//    "virtual_ns", "MBps", "metrics": {credit_stall_ns, retransmits,
//    frames_sent, dma_bytes}}]}
// Benches reuse the axes loosely — "hops" is the ring/tree distance for a
// data-path bench and the host count for a scale sweep; "mode" names the
// series (tuning knob, topology, ...).
struct JsonSample {
  std::string mode;
  std::uint64_t bytes = 0;
  int hops = 0;
  long long virtual_ns = 0;
  double MBps = 0.0;
  RunCounters counters;
};

inline void write_bench_json(const std::string& path, std::string_view bench,
                             std::string_view workload, const RunMeta& meta,
                             const std::vector<JsonSample>& samples) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"" << bench << "\",\n"
      << "  \"workload\": \"" << workload << "\",\n"
      << "  \"backend\": \"" << obs::json_escape(meta.backend) << "\",\n"
      << "  \"topology\": \"" << obs::json_escape(meta.topology) << "\",\n"
      << "  \"seed\": " << meta.seed << ",\n  \"samples\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const JsonSample& s = samples[i];
    out << "    {\"mode\": \"" << s.mode << "\", \"bytes\": " << s.bytes
        << ", \"hops\": " << s.hops << ", \"virtual_ns\": " << s.virtual_ns
        << ", \"MBps\": " << s.MBps
        << ", \"metrics\": {\"credit_stall_ns\": " << s.counters.credit_stall_ns
        << ", \"retransmits\": " << s.counters.retransmits
        << ", \"frames_sent\": " << s.counters.frames_sent
        << ", \"dma_bytes\": " << s.counters.dma_bytes << "}}"
        << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

// One row of an engine-scale sweep (bench_sim_engine). Unlike JsonSample,
// the interesting axis is wall-clock, not modelled bandwidth: the sweep
// measures the simulator itself, so each sample carries real elapsed time,
// dispatch throughput and the allocator counters that explain it.
struct ScaleSample {
  std::string mode;  // "<backend>-<topology>" or "<backend>-stack<KiB>"
  int hosts = 0;
  int rounds = 0;
  long long virtual_ns = 0;
  double wall_ms = 0.0;
  std::uint64_t dispatches = 0;
  double events_per_sec = 0.0;
  std::uint64_t callback_slots_created = 0;
  std::uint64_t callbacks_scheduled = 0;
  std::uint64_t fiber_stack_kib = 0;
};

inline void write_scale_json(const std::string& path, std::string_view bench,
                             std::string_view workload, const RunMeta& meta,
                             const std::vector<ScaleSample>& samples) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"" << bench << "\",\n"
      << "  \"workload\": \"" << workload << "\",\n"
      << "  \"backend\": \"" << obs::json_escape(meta.backend) << "\",\n"
      << "  \"topology\": \"" << obs::json_escape(meta.topology) << "\",\n"
      << "  \"seed\": " << meta.seed << ",\n  \"samples\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ScaleSample& s = samples[i];
    out << "    {\"mode\": \"" << s.mode << "\", \"hosts\": " << s.hosts
        << ", \"rounds\": " << s.rounds << ", \"virtual_ns\": " << s.virtual_ns
        << ", \"wall_ms\": " << s.wall_ms << ", \"dispatches\": " << s.dispatches
        << ", \"events_per_sec\": " << s.events_per_sec
        << ", \"callback_slots_created\": " << s.callback_slots_created
        << ", \"callbacks_scheduled\": " << s.callbacks_scheduled
        << ", \"fiber_stack_kib\": " << s.fiber_stack_kib << "}"
        << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace ntbshmem::bench
