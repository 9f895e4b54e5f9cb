// SLO workload driver: runs the src/workload scenarios (sharded KV serving,
// 2-D halo-exchange stencil, hierarchical-allreduce training step) on the
// simulated NTB fabric and writes one "ntbshmem-slo-v1" JSON artifact per
// run — percentile latencies out of the log2 histograms, goodput, per-link
// utilization, and the schedule digest that pins the run bit-for-bit.
//
// Flags (besides bench_util.hpp's observability flags; any other argument,
// any value outside what is listed, and --fault-plan other than none with
// --backend=shm are errors: exit 2, named):
//   --scenario=kv|stencil|allreduce|all   what to run (default all)
//   --backend=sim|shm                     data-path backend (default sim);
//                                         shm runs each PE as a real forked
//                                         process over a POSIX shared-memory
//                                         heap and reports wall-clock
//                                         latencies ("clock": "wall")
//   --hosts=N                             PE/host count (default 16)
//   --seed=S                              workload seed (default 42)
//   --requests=N                          KV requests per PE (default 16384)
//   --iterations=N                        stencil iterations (default 32)
//   --steps=N                             allreduce steps (default 16)
//   --arrival=closed|fixed|poisson        KV arrival process (default closed)
//   --rate=HZ                             open-loop per-PE rate (default 20000)
//   --topology=ring|chordal|torus|fullmesh  fabric (default ring)
//   --tuning=paper|pipelined              transport tuning (default pipelined)
//   --fault-plan=none|drop|flaky          fault injection (default none)
//   --out-prefix=PATH                     artifact prefix (default
//                                         bench_workload); files are named
//                                         <prefix>.<scenario>.json
//
// A fault plan other than `none` switches the transport's reliable-delivery
// layer on and makes links resilient — the composition the PR 6 fault tests
// pin; the KV report must still show zero verify errors and full request
// conservation.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "shmem/runtime.hpp"
#include "workload/scenarios.hpp"
#include "workload/slo.hpp"

namespace ntbshmem::bench {
namespace {

struct Cli {
  std::string scenario = "all";
  std::string backend = "sim";
  int hosts = 16;
  std::uint64_t seed = 42;
  std::uint64_t requests = 16384;
  int iterations = 32;
  int steps = 16;
  std::string arrival = "closed";
  double rate = 20'000.0;
  std::string topology = "ring";
  std::string tuning = "pipelined";
  std::string fault_plan = "none";
  std::string out_prefix = "bench_workload";
};

Cli g_cli;

// Whole-string number: "", "12x", "1.5" for an int and out-of-range
// values all fail.
template <typename T>
bool parse_number(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool one_of(std::string_view v, std::initializer_list<std::string_view> set) {
  return std::find(set.begin(), set.end(), v) != set.end();
}

// Takes this binary's own flags out of argv, leaving the rest for ObsCli. A
// malformed or unknown value is named and exits 2 before anything runs.
void parse_cli(int* argc, char** argv) {
  int out = 1;
  bool bad = false;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view v;
    const auto is = [&](std::string_view flag) {
      if (arg.rfind(flag, 0) != 0) return false;
      v = arg.substr(flag.size());
      return true;
    };
    bool ok = true;
    if (is("--scenario=")) {
      ok = one_of(v, {"kv", "stencil", "allreduce", "all"});
      g_cli.scenario = std::string(v);
    } else if (is("--backend=")) {
      ok = one_of(v, {"sim", "shm"});
      g_cli.backend = std::string(v);
    } else if (is("--hosts=")) {
      ok = parse_number(v, &g_cli.hosts) && g_cli.hosts > 0;
    } else if (is("--seed=")) {
      ok = parse_number(v, &g_cli.seed);
    } else if (is("--requests=")) {
      ok = parse_number(v, &g_cli.requests);
    } else if (is("--iterations=")) {
      ok = parse_number(v, &g_cli.iterations) && g_cli.iterations > 0;
    } else if (is("--steps=")) {
      ok = parse_number(v, &g_cli.steps) && g_cli.steps > 0;
    } else if (is("--arrival=")) {
      ok = one_of(v, {"closed", "fixed", "poisson"});
      g_cli.arrival = std::string(v);
    } else if (is("--rate=")) {
      ok = parse_number(v, &g_cli.rate) && std::isfinite(g_cli.rate) &&
           g_cli.rate > 0.0;
    } else if (is("--topology=")) {
      ok = one_of(v, {"ring", "chordal", "torus", "fullmesh"});
      g_cli.topology = std::string(v);
    } else if (is("--tuning=")) {
      ok = one_of(v, {"paper", "pipelined"});
      g_cli.tuning = std::string(v);
    } else if (is("--fault-plan=")) {
      ok = one_of(v, {"none", "drop", "flaky"});
      g_cli.fault_plan = std::string(v);
    } else if (is("--out-prefix=")) {
      g_cli.out_prefix = std::string(v);
    } else {
      argv[out++] = argv[i];
    }
    if (!ok) {
      std::cerr << argv[0] << ": bad value " << arg << "\n";
      bad = true;
    }
  }
  *argc = out;
  // A combination each value allows alone but the shm backend cannot run:
  // it has no simulated fabric to inject faults into.
  if (g_cli.backend == "shm" && g_cli.fault_plan != "none") {
    std::cerr << argv[0] << ": --fault-plan=" << g_cli.fault_plan
              << " requires --backend=sim (the shm backend has no simulated "
                 "fabric to inject faults into)\n";
    bad = true;
  }
  if (bad) std::exit(2);
}

// Widest rows x cols split of n (rows <= cols), for --topology=torus.
void torus_shape(int n, int* rows, int* cols) {
  int r = 1;
  for (int d = 2; d * d <= n; ++d) {
    if (n % d == 0) r = d;
  }
  *rows = r;
  *cols = n / r;
}

// parse_cli has checked every value, so each chain's last branch is the
// one value left.
shmem::RuntimeOptions make_options(const Cli& cli) {
  shmem::RuntimeOptions opts;
  opts.npes = cli.hosts;

  if (cli.backend == "shm") {
    // Real forked processes over the POSIX shared-memory segment: no
    // simulated fabric, so the topology/tuning knobs do not apply (parse_cli
    // rejects a fault plan).
    opts.backend = ntbshmem::backend::Kind::kShm;
    ObsCli::instance().apply(opts);
    return opts;
  }

  opts.link_dma_rates_Bps.clear();  // uniform links for clean utilization
  opts.schedule_digest = true;      // pin every artifact to its schedule

  if (cli.topology == "ring") {
    opts.topology.kind = fabric::TopologyKind::kRing;
    opts.routing = fabric::RoutingMode::kShortest;
  } else if (cli.topology == "chordal") {
    opts.topology.kind = fabric::TopologyKind::kChordal;
    opts.topology.skips = {cli.hosts >= 8 ? cli.hosts / 4 : 2};
    opts.routing = fabric::RoutingMode::kShortest;
  } else if (cli.topology == "torus") {
    opts.topology.kind = fabric::TopologyKind::kTorus2D;
    torus_shape(cli.hosts, &opts.topology.rows, &opts.topology.cols);
    opts.routing = fabric::RoutingMode::kDimensionOrder;
  } else {
    opts.topology.kind = fabric::TopologyKind::kFullMesh;
    opts.routing = fabric::RoutingMode::kShortest;
  }

  if (cli.tuning == "paper") {
    opts.tuning = shmem::TransportTuning::paper();
  } else {
    opts.tuning = shmem::TransportTuning::all_on();
    opts.tuning.topology_collectives = cli.topology != "ring";
  }

  if (cli.fault_plan == "none") {
    // nothing injected; tuning untouched
  } else if (cli.fault_plan == "drop") {
    opts.faults.doorbell_drop = 0.02;
    opts.faults.dma_error = 0.01;
    opts.tuning = shmem::TransportTuning::reliable(opts.tuning);
    opts.resilient_links = true;
  } else {
    opts.faults.doorbell_drop = 0.01;
    opts.faults.link_flaps.push_back(
        sim::LinkFlap{0, 2'000'000, 6'000'000});  // 4 ms outage on link 0
    opts.tuning = shmem::TransportTuning::reliable(opts.tuning);
    opts.resilient_links = true;
  }
  // --trace-out/--causal-out switch span/causal recording on for the run.
  ObsCli::instance().apply(opts);
  return opts;
}

workload::TrafficSpec make_traffic(const Cli& cli) {
  workload::TrafficSpec tr;
  tr.requests_per_pe = cli.requests;
  tr.rate_per_pe_hz = cli.rate;
  if (cli.arrival == "closed") {
    tr.arrival = workload::ArrivalProcess::kClosedLoop;
  } else if (cli.arrival == "fixed") {
    tr.arrival = workload::ArrivalProcess::kOpenFixed;
  } else {
    tr.arrival = workload::ArrivalProcess::kOpenPoisson;
  }
  return tr;
}

workload::SloReport run_one(const std::string& scenario,
                            const shmem::RuntimeOptions& opts, const Cli& cli) {
  shmem::Runtime rt(opts);
  workload::ScenarioReport run;
  if (scenario == "kv") {
    workload::KvSpec spec;
    spec.traffic = make_traffic(cli);
    run = workload::run_kv(rt, spec, cli.seed);
  } else if (scenario == "stencil") {
    workload::StencilSpec spec;
    spec.iterations = cli.iterations;
    run = workload::run_stencil(rt, spec, cli.seed);
  } else {
    workload::AllreduceSpec spec;
    spec.steps = cli.steps;
    spec.groups = opts.npes % 2 == 0 ? 2 : 1;
    run = workload::run_allreduce(rt, spec, cli.seed);
  }
  // Last run wins: the trace/causal/metrics artifacts land once at exit.
  ObsCli::instance().capture(rt);
  return workload::build_slo_report(rt, run, cli.seed);
}

void print_report(const workload::SloReport& r) {
  Table t("SLO: " + r.scenario + " on " + std::to_string(r.hosts) +
              " hosts (" + r.topology + ", " + r.tuning +
              ", faults=" + r.fault_plan + ")",
          {"family", "count", "p50 us", "p99 us", "p999 us", "max us"});
  for (const workload::SloLatency& l : r.latencies) {
    t.add_row(l.name,
              {static_cast<double>(l.count),
               static_cast<double>(l.p50) / 1000.0,
               static_cast<double>(l.p99) / 1000.0,
               static_cast<double>(l.p999) / 1000.0,
               static_cast<double>(l.max) / 1000.0});
  }
  t.print(std::cout);
  std::cout << "  requests " << r.run.requests_completed << "/"
            << r.run.requests_issued << ", verify_errors "
            << r.run.verify_errors << ", goodput " << r.goodput_rps
            << " req/s, " << r.goodput_MBps << " MB/s\n";
}

void write_report(const workload::SloReport& r, const std::string& path) {
  std::ofstream out(path);
  workload::write_slo_json(r, out);
  std::cout << "wrote " << path << "\n";
}

std::vector<std::string> scenario_list() {
  if (g_cli.scenario == "all") return {"kv", "stencil", "allreduce"};
  return {g_cli.scenario};
}

void run_all() {
  for (const std::string& sc : scenario_list()) {
    const workload::SloReport r = run_one(sc, make_options(g_cli), g_cli);
    print_report(r);
    write_report(r, g_cli.out_prefix + "." + sc + ".json");
  }
}

}  // namespace
}  // namespace ntbshmem::bench

int main(int argc, char** argv) {
  ntbshmem::bench::parse_cli(&argc, argv);
  ntbshmem::bench::ObsCli::instance().parse_args(argc, argv);
  ntbshmem::bench::run_all();
  ntbshmem::bench::ObsCli::instance().report();
  return 0;
}
