// ntbperf: the repository benchmark's measuring program.
//
// Drives one benchmark workload through the public shmem::Runtime and
// workload::run_* entry points, repeating the identical (workload, seed,
// size) run until the wall-clock budget is spent, and writes every repeat's
// raw measurements as one JSON document. perfbench/run.py turns those into
// the benchmark's metrics and checks them; this program only measures.
//
//   ntbperf --workload NAME --seed S --size N --out FILE
//           [--seconds T] [--min-repeats K] [--record 0|1] [--trace-out FILE]
//
//   --size        KV requests per PE, or allreduce steps
//   --seconds     repeat until this much wall time has passed (default 0)
//   --min-repeats repeat at least this often (default 1)
//   --record 1    causal span recording on the sim backend (span tracing on
//                 shm, which has no causal recorder); the benchmark's
//                 "traced run"
//   --trace-out   write the last repeat's ntbshmem-trace-v1 artifact
//
// Every repeat builds a fresh Runtime, so a repeat is the full user-visible
// cost: construction, the scenario, the SLO report and destruction. Each of
// the four is bracketed by a wall-clock span recorded in the output.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "shmem/runtime.hpp"
#include "workload/scenarios.hpp"
#include "workload/slo.hpp"

namespace {

using namespace ntbshmem;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t size = 0;
  double seconds = 0.0;
  int min_repeats = 1;
  bool record = false;
  std::string out;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why +
      "\nusage: ntbperf --workload NAME --seed S --size N --out FILE "
      "[--seconds T] [--min-repeats K] [--record 0|1] [--trace-out FILE]");
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = std::stoull(val);
    } else if (flag == "--size") {
      a.size = std::stoull(val);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(val);
    } else if (flag == "--min-repeats") {
      a.min_repeats = std::stoi(val);
    } else if (flag == "--record") {
      a.record = val == "1";
    } else if (flag == "--out") {
      a.out = val;
    } else if (flag == "--trace-out") {
      a.trace_out = val;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (a.workload.empty() || a.out.empty() || a.size == 0) {
    usage("--workload, --out and a positive --size are required");
  }
  return a;
}

int shm_pes() {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return cores >= 4 ? 4 : (cores >= 2 ? static_cast<int>(cores) : 2);
}

// The three workloads. Topology, tuning and traffic shape are fixed here;
// only the seed and the run length come from the command line.
shmem::RuntimeOptions make_options(const Args& a) {
  shmem::RuntimeOptions o;
  if (a.workload == "shm_kv4") {
    o.backend = backend::Kind::kShm;
    o.npes = shm_pes();
    o.obs.spans_enabled = a.record;
    return o;
  }
  o.backend = backend::Kind::kSim;
  o.npes = 16;
  o.link_dma_rates_Bps.clear();  // uniform links
  o.schedule_digest = true;
  o.tuning = shmem::TransportTuning::all_on();
  o.obs.causal_enabled = a.record;
  if (a.workload == "sim_kv_ring16") {
    o.topology.kind = fabric::TopologyKind::kRing;
    o.routing = fabric::RoutingMode::kShortest;
  } else if (a.workload == "sim_allreduce_torus16") {
    o.topology.kind = fabric::TopologyKind::kTorus2D;
    o.topology.rows = 4;
    o.topology.cols = 4;
    o.routing = fabric::RoutingMode::kDimensionOrder;
    o.tuning.topology_collectives = true;
  } else {
    usage("unknown workload " + a.workload);
  }
  return o;
}

workload::ScenarioReport run_scenario(shmem::Runtime& rt, const Args& a) {
  if (a.workload == "sim_allreduce_torus16") {
    workload::AllreduceSpec spec;  // 4096 floats = 16 KiB gradients
    spec.steps = static_cast<int>(a.size);
    spec.groups = 2;
    return workload::run_allreduce(rt, spec, a.seed);
  }
  workload::KvSpec spec;  // Zipf-0.99, 70/15/10/5 mix, 64-1024 B values
  spec.traffic.arrival = workload::ArrivalProcess::kClosedLoop;
  spec.traffic.requests_per_pe = a.size;
  return workload::run_kv(rt, spec, a.seed);
}

// Per-layer totals summed over every host/port/link instance.
const std::vector<std::pair<const char*, std::vector<const char*>>>
    kCounterSuffixes = {
        {"scratchpad_writes", {".scratchpad_writes"}},
        {"doorbells", {".doorbells_rung"}},
        {"dma_descriptors", {".dma_descriptors"}},
        {"dma_bytes", {".dma_bytes"}},
        {"pio_bytes", {".pio_bytes"}},
        {"link_bytes", {".a2b.bytes", ".b2a.bytes"}},
        {"tlps", {".a2b.tlps", ".b2a.tlps"}},
        {"tlp_replays", {".tlp_replays"}},
        {"irq_raised", {".irq.raised"}},
        {"irq_delivered", {".irq.delivered"}},
        {"irq_masked_latched", {".irq.masked_latched"}},
        {"messages_forwarded", {".transport.messages_forwarded"}},
        {"bytes_forwarded", {".transport.bytes_forwarded"}},
        {"frames_sent", {".transport.frames_sent"}},
        {"credit_stalls", {".transport.credit_stalls"}},
        {"credit_stall_ns", {".transport.credit_stall_ns"}},
        {"delivery_acks", {".transport.delivery_acks_sent"}},
        {"retransmits", {".transport.retransmits"}},
        {"shm_doorbell_sleeps", {".shm.doorbell_sleeps"}},
};

struct Span {
  std::string name;
  int repeat = 0;
  double t0_s = 0.0;
  double t1_s = 0.0;
};

struct Repeat {
  double ctor_s = 0, run_s = 0, report_s = 0, dtor_s = 0;
  workload::ScenarioReport run;
  workload::SloReport slo;
  std::uint64_t dispatches = 0;
  sim::Engine::AllocStats alloc;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t barrier_p50_ns = 0;
  double child_cpu_s = 0;
  long child_nvcsw = 0, child_nivcsw = 0;
};

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::uint64_t merged_p50(const obs::Snapshot& snap, std::string_view suffix) {
  obs::Histogram merged;
  for (const obs::MetricRow& row : snap.rows) {
    if (row.kind != obs::MetricRow::Kind::kHistogram) continue;
    if (!row.name.ends_with(suffix)) continue;
    merged.absorb(row.hist_buckets.data(), row.hist_buckets.size(),
                  static_cast<std::uint64_t>(row.value), row.hist_sum,
                  row.hist_min, row.hist_max);
  }
  return merged.percentile(0.50);
}

Repeat run_repeat(const Args& a, const shmem::RuntimeOptions& opts,
                  int index, Clock::time_point epoch, std::vector<Span>* spans) {
  Repeat r;
  const auto span = [&](const char* name, Clock::time_point t0,
                        Clock::time_point t1) {
    spans->push_back(Span{name, index, secs(t0 - epoch), secs(t1 - epoch)});
    return secs(t1 - t0);
  };
  rusage ru0{}, ru1{};
  getrusage(RUSAGE_CHILDREN, &ru0);

  std::optional<shmem::Runtime> rt;
  const auto t0 = Clock::now();
  rt.emplace(opts);
  const auto t1 = Clock::now();
  r.ctor_s = span("runtime_ctor", t0, t1);

  const std::uint64_t d0 = rt->engine().dispatch_count();
  const auto t2 = Clock::now();
  r.run = run_scenario(*rt, a);
  const auto t3 = Clock::now();
  r.run_s = span("scenario", t2, t3);
  r.dispatches = rt->engine().dispatch_count() - d0;
  r.alloc = rt->engine().alloc_stats();

  const obs::Snapshot snap = rt->obs().metrics.snapshot();
  for (const auto& [key, suffixes] : kCounterSuffixes) {
    double sum = 0;
    for (const char* s : suffixes) sum += snap.total(s);
    r.counters[key] = static_cast<std::uint64_t>(sum);
  }
  r.barrier_p50_ns = merged_p50(snap, ".transport.barrier_latency_ns");

  const auto t4 = Clock::now();
  r.slo = workload::build_slo_report(*rt, r.run, a.seed);
  const auto t5 = Clock::now();
  r.report_s = span("slo_report", t4, t5);

  if (!a.trace_out.empty()) {  // every repeat rewrites it; the last one stays
    std::ofstream out(a.trace_out);
    rt->write_causal_trace(out);
    if (!out) throw std::runtime_error("cannot write " + a.trace_out);
  }

  const auto t6 = Clock::now();
  rt.reset();
  const auto t7 = Clock::now();
  r.dtor_s = span("runtime_dtor", t6, t7);

  getrusage(RUSAGE_CHILDREN, &ru1);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  r.child_cpu_s = tv(ru1.ru_utime) + tv(ru1.ru_stime) - tv(ru0.ru_utime) -
                  tv(ru0.ru_stime);
  r.child_nvcsw = ru1.ru_nvcsw - ru0.ru_nvcsw;
  r.child_nivcsw = ru1.ru_nivcsw - ru0.ru_nivcsw;
  return r;
}

// ---- JSON output --------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void write_repeat(std::ostream& o, const Repeat& r) {
  const workload::ScenarioReport& run = r.run;
  o << "    {\"ctor_s\": " << num(r.ctor_s) << ", \"run_s\": " << num(r.run_s)
    << ", \"report_s\": " << num(r.report_s)
    << ", \"dtor_s\": " << num(r.dtor_s)
    << ", \"child_cpu_s\": " << num(r.child_cpu_s)
    << ", \"child_nvcsw\": " << r.child_nvcsw
    << ", \"child_nivcsw\": " << r.child_nivcsw << ",\n";
  // Everything below is a pure function of (workload, seed, size) on the
  // sim backend: run.py requires it to repeat exactly.
  char digest[32];
  std::snprintf(digest, sizeof(digest), "0x%016" PRIx64,
                r.slo.schedule_digest);
  o << "     \"model\": {\"issued\": " << run.requests_issued
    << ", \"completed\": " << run.requests_completed
    << ", \"verify_errors\": " << run.verify_errors
    << ", \"signals_sent\": " << run.signals_sent
    << ", \"signals_received\": " << run.signals_received
    << ", \"bytes_transferred\": " << run.bytes_transferred
    << ", \"checksum\": " << num(run.checksum)
    << ", \"elapsed_ns\": " << run.elapsed_ns
    << ", \"schedule_digest\": " << str(digest)
    << ", \"digest_dispatches\": " << r.slo.schedule_dispatches
    << ", \"dispatches\": " << r.dispatches
    << ", \"callbacks_scheduled\": " << r.alloc.callbacks_scheduled
    << ", \"callback_slots_created\": " << r.alloc.callback_slots_created
    << ", \"barrier_latency_p50_ns\": " << r.barrier_p50_ns;
  double util_max = 0;
  for (const workload::SloLink& l : r.slo.links) {
    if (l.utilization > util_max) util_max = l.utilization;
  }
  o << ", \"link_util_max\": " << num(util_max) << ",\n      \"counters\": {";
  bool first = true;
  for (const auto& [k, v] : r.counters) {
    o << (first ? "" : ", ") << str(k) << ": " << v;
    first = false;
  }
  o << "},\n      \"latency_ns\": {";
  first = true;
  for (const workload::SloLatency& l : r.slo.latencies) {
    o << (first ? "" : ", ") << str(l.name) << ": {\"count\": " << l.count
      << ", \"p50\": " << l.p50 << ", \"p99\": " << l.p99
      << ", \"p999\": " << l.p999 << ", \"max\": " << l.max << "}";
    first = false;
  }
  o << "},\n      \"critical_path_ns\": {";
  std::map<std::string, std::uint64_t> edges;
  std::uint64_t traces = 0;
  for (const obs::FamilyBreakdown& f : r.slo.critical_path) {
    traces += f.traces;
    for (const auto& [kind, ns] : f.edge_ns) edges[kind] += ns;
  }
  o << "\"traces\": " << traces;
  for (const auto& [kind, ns] : edges) o << ", " << str(kind) << ": " << ns;
  o << "}}}";
}

void write_result(const Args& a, const shmem::RuntimeOptions& opts,
                  const std::vector<Repeat>& repeats,
                  const std::vector<Span>& spans) {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  utsname uts{};
  uname(&uts);

  std::ofstream o(a.out);
  o << "{\n  \"schema\": \"ntbperf-v1\",\n";
  o << "  \"env\": {\"build_type\": " << str(NTBPERF_BUILD_TYPE)
    << ", \"compiler\": " << str(NTBPERF_CXX_COMPILER)
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"kernel\": " << str(std::string(uts.sysname) + " " + uts.release)
    << ", \"workload\": " << str(a.workload) << ", \"seed\": " << a.seed
    << ", \"size\": " << a.size << ", \"pes\": " << opts.npes
    << ", \"hosts\": " << opts.num_hosts()
    << ", \"host_memory_bytes\": " << opts.host_memory_bytes
    << ", \"symheap_max_bytes\": " << opts.symheap_max_bytes
    << ", \"backend\": " << str(repeats.front().slo.backend)
    << ", \"clock\": " << str(repeats.front().slo.clock)
    << ", \"topology\": " << str(repeats.front().slo.topology)
    << ", \"tuning\": " << str(repeats.front().slo.tuning)
    << ", \"record\": " << (a.record ? "true" : "false") << "},\n";
  o << "  \"peak_rss_kib\": {\"self\": " << self.ru_maxrss
    << ", \"children\": " << children.ru_maxrss << "},\n";
  o << "  \"repeats\": [\n";
  for (std::size_t i = 0; i < repeats.size(); ++i) {
    write_repeat(o, repeats[i]);
    o << (i + 1 < repeats.size() ? ",\n" : "\n");
  }
  o << "  ],\n  \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    o << (i == 0 ? "\n" : ",\n") << "    {\"name\": " << str(s.name)
      << ", \"repeat\": " << s.repeat << ", \"t0_s\": " << num(s.t0_s)
      << ", \"t1_s\": " << num(s.t1_s) << "}";
  }
  o << "\n  ]\n}\n";
  if (!o) throw std::runtime_error("cannot write " + a.out);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const shmem::RuntimeOptions opts = make_options(a);
    const auto epoch = Clock::now();
    const auto budget = std::chrono::duration<double>(a.seconds);
    std::vector<Repeat> repeats;
    std::vector<Span> spans;
    do {
      repeats.push_back(run_repeat(a, opts, static_cast<int>(repeats.size()),
                                   epoch, &spans));
    } while (static_cast<int>(repeats.size()) < a.min_repeats ||
             Clock::now() - epoch < budget);
    write_result(a, opts, repeats, spans);
  } catch (const std::exception& e) {
    std::cerr << "ntbperf: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
