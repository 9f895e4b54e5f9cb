// Engine scale sweep: the fiber-backed engine at 16..1024 hosts.
//
// Every other bench measures the *model* (virtual time of a transfer).
// This one measures the *simulator*: wall-clock and dispatch throughput of
// the DES core itself, on a workload shaped like the fabric sweeps that
// motivated the fiber engine — per-host processes exchanging neighbour
// notifications on a ring or 2-D torus, synchronising through a tree-style
// barrier every round, with pooled timer callbacks churning throughout.
//
// Reported per (topology, hosts):
//   * wall_ms          — real time for spawn + run,
//   * events_per_sec   — Engine::dispatch_count() / wall seconds,
//   * callback_slots_created vs callbacks_scheduled — the slot pool's
//                        allocation savings (slots << scheduled),
//   * a fiber stack-size ablation at the 256-host ring point
//     (NTBSHMEM_FIBER_STACK_KiB respun via setenv between engines).
//
// Environment knobs (CI's sim-scale job caps the sweep):
//   NTBSHMEM_SCALE_HOSTS          comma list, default "16,64,256,1024"
//   NTBSHMEM_SCALE_ROUNDS         rounds per run, default 30
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace ntbshmem::bench {
namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

std::vector<int> host_counts() {
  std::vector<int> hosts;
  const char* v = std::getenv("NTBSHMEM_SCALE_HOSTS");
  std::string s = (v != nullptr && *v != '\0') ? v : "16,64,256,1024";
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const int n = std::atoi(s.substr(pos, comma - pos).c_str());
    if (n > 1) hosts.push_back(n);
    pos = comma + 1;
  }
  return hosts;
}

// Neighbour sets: who each host notifies every round. In-degree equals
// out-degree for both shapes, which is what the predicate loops rely on.
std::vector<std::vector<int>> ring_out(int n) {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = {(i + 1) % n};
  return out;
}

std::vector<std::vector<int>> torus_out(int n) {
  int side = static_cast<int>(std::lround(std::sqrt(static_cast<double>(n))));
  while (side > 1 && n % side != 0) --side;  // fall back to a fat ring
  const int rows = n / side;
  std::vector<std::vector<int>> out(static_cast<std::size_t>(n));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < side; ++c) {
      const int i = r * side + c;
      out[static_cast<std::size_t>(i)] = {r * side + (c + 1) % side,
                                          ((r + 1) % rows) * side + c};
    }
  }
  return out;
}

// Counter barrier over an Event: correctness relies only on the engine
// serializing processes (the predicate is re-checked before every wait).
struct SimBarrier {
  explicit SimBarrier(sim::Engine& e, int n)
      : ev(e, "bar"), parties(n) {}
  sim::Event ev;
  int parties;
  int arrived = 0;
  std::uint64_t gen = 0;

  void arrive() {
    const std::uint64_t my = gen;
    if (++arrived == parties) {
      arrived = 0;
      ++gen;
      ev.notify_all();
    } else {
      while (gen == my) ev.wait();
    }
  }
};

struct ScaleResult {
  long long virtual_ns = 0;
  double wall_ms = 0.0;
  std::uint64_t dispatches = 0;
  std::uint64_t slots_created = 0;
  std::uint64_t cbs_scheduled = 0;
};

ScaleResult measure(const std::vector<std::vector<int>>& out, int rounds) {
  const int n = static_cast<int>(out.size());
  sim::Engine engine;
  std::vector<std::unique_ptr<sim::Event>> ev;
  std::vector<std::uint64_t> inbox(static_cast<std::size_t>(n), 0);
  ev.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    ev.push_back(std::make_unique<sim::Event>(engine, name));
  }
  SimBarrier barrier(engine, n);
  std::uint64_t cb_fires = 0;
  const std::uint64_t indegree = out[0].size();  // regular topologies only

  const auto wall0 = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    engine.spawn(name, [&, i] {
      const auto ui = static_cast<std::size_t>(i);
      for (int r = 0; r < rounds; ++r) {
        // Timer churn through the pooled callback path, staggered so the
        // run queue holds a spread of deadlines, not one instant.
        engine.call_after(50 + (i % 7) * 10, [&cb_fires] { ++cb_fires; });
        engine.wait_for(10 + (i % 5));
        for (int nb : out[ui]) {
          ++inbox[static_cast<std::size_t>(nb)];
          ev[static_cast<std::size_t>(nb)]->notify_all();
        }
        const std::uint64_t want =
            static_cast<std::uint64_t>(r + 1) * indegree;
        while (inbox[ui] < want) ev[ui]->wait();
        // Service-poll phase: transport daemons in the real fabric progress
        // by yield loops, and a yield is the purest switch cost — one
        // reschedule plus one context handoff per step.
        for (int s = 0; s < 6; ++s) engine.yield();
        barrier.arrive();
      }
    });
  }
  engine.run();
  const auto wall1 = std::chrono::steady_clock::now();

  ScaleResult res;
  res.virtual_ns = static_cast<long long>(engine.now());
  res.wall_ms =
      std::chrono::duration<double, std::milli>(wall1 - wall0).count();
  res.dispatches = engine.dispatch_count();
  res.slots_created = engine.alloc_stats().callback_slots_created;
  res.cbs_scheduled = engine.alloc_stats().callbacks_scheduled;
  return res;
}

ScaleSample to_sample(const ScaleResult& r, std::string mode, int hosts,
                      int rounds, std::uint64_t stack_kib) {
  ScaleSample s;
  s.mode = std::move(mode);
  s.hosts = hosts;
  s.rounds = rounds;
  s.virtual_ns = r.virtual_ns;
  s.wall_ms = r.wall_ms;
  s.dispatches = r.dispatches;
  s.events_per_sec = r.wall_ms > 0 ? 1e3 * static_cast<double>(r.dispatches) /
                                         r.wall_ms
                                   : 0.0;
  s.callback_slots_created = r.slots_created;
  s.callbacks_scheduled = r.cbs_scheduled;
  s.fiber_stack_kib = stack_kib;
  return s;
}

std::vector<ScaleSample> sweep() {
  const int rounds = env_int("NTBSHMEM_SCALE_ROUNDS", 30);
  std::vector<ScaleSample> samples;
  for (int hosts : host_counts()) {
    for (const char* topo : {"ring", "torus"}) {
      const auto out =
          std::string(topo) == "ring" ? ring_out(hosts) : torus_out(hosts);
      const ScaleResult fib = measure(out, rounds);
      samples.push_back(to_sample(fib, std::string("fibers-") + topo, hosts,
                                  rounds,
                                  sim::Fiber::default_stack_bytes() / 1024));
    }
  }
  // Fiber stack-size ablation at the 256-host ring point: the switch cost
  // is stack-size independent (only the mmap at first resume grows), which
  // the flat wall times demonstrate.
  const int ab_hosts = 256;
  for (const char* kib : {"64", "256", "1024"}) {
    setenv("NTBSHMEM_FIBER_STACK_KiB", kib, 1);
    const ScaleResult r = measure(ring_out(ab_hosts), rounds);
    samples.push_back(to_sample(r, std::string("fibers-stack") + kib + "KiB",
                                ab_hosts, rounds,
                                std::strtoull(kib, nullptr, 10)));
  }
  unsetenv("NTBSHMEM_FIBER_STACK_KiB");
  return samples;
}

void print_report(const std::vector<ScaleSample>& samples) {
  Table t("Simulator scale sweep: wall-clock per topology "
          "(spawn + full run)",
          {"Hosts / mode", "Wall ms", "Mevents/s", "Slots", "Callbacks"});
  for (const ScaleSample& s : samples) {
    t.add_row(std::to_string(s.hosts) + " " + s.mode,
              {s.wall_ms, s.events_per_sec / 1e6,
               static_cast<double>(s.callback_slots_created),
               static_cast<double>(s.callbacks_scheduled)});
  }
  t.print(std::cout);
}

void BM_EngineScaleFibers(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int rounds = env_int("NTBSHMEM_SCALE_ROUNDS", 30);
  for (auto _ : state) {
    const ScaleResult r = measure(ring_out(hosts), rounds);
    state.counters["Mevents/s"] =
        r.wall_ms > 0
            ? static_cast<double>(r.dispatches) / (r.wall_ms * 1e3)
            : 0.0;
  }
}

}  // namespace
}  // namespace ntbshmem::bench

BENCHMARK(ntbshmem::bench::BM_EngineScaleFibers)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  ntbshmem::bench::ObsCli::instance().parse_args(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const auto samples = ntbshmem::bench::sweep();
  ntbshmem::bench::print_report(samples);
  ntbshmem::bench::write_scale_json(
      "bench_sim_engine.json", "sim_engine_scale",
      "per-host neighbour exchange + tree barrier + pooled timer churn; "
      "ring and torus at 16..1024 hosts",
      {"fibers", "ring+torus2d", 0},
      samples);
  ntbshmem::bench::ObsCli::instance().report();
  return 0;
}
