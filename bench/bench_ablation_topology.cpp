// Ablation A9: fabric topology vs collective latency and multi-hop bandwidth.
//
// The paper's switchless ring pays O(n) for every barrier (two doorbell
// circulations) and up to n-1 store-and-forward hops per put. This bench
// sweeps the fabric generators — ring (paper-faithful), chordal ring,
// 2-D torus, full mesh — at 4/8/16 hosts and reports
//   * barrier latency: one shmem_barrier_all after a warmup barrier,
//   * put bandwidth: put+quiet from PE 0 to the routing-farthest PE.
// Ring rows keep the paper protocol (right-only routing, doorbell
// circulation); the richer topologies route shortest-path (dimension-order
// on the torus) with the tree collectives. The headline row is the 4x4
// torus barrier beating the 16-host ring barrier.
//
// Writes bench_ablation_topology.json (cwd) in the shared ablation schema.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "shmem/api.hpp"
#include "shmem/runtime.hpp"

namespace ntbshmem::bench {
namespace {

using namespace ntbshmem::shmem;

const std::vector<int>& host_counts() {
  static const std::vector<int> kCounts = {4, 8, 16};
  return kCounts;
}

struct TopoMode {
  const char* name;
  fabric::TopologyKind kind;
};

std::vector<TopoMode> modes() {
  return {
      {"ring", fabric::TopologyKind::kRing},
      {"chordal", fabric::TopologyKind::kChordal},
      {"torus2d", fabric::TopologyKind::kTorus2D},
      {"mesh", fabric::TopologyKind::kFullMesh},
  };
}

// Widest torus factorisation rows x cols = n with rows <= cols.
bool torus_shape(int n, int* rows, int* cols) {
  for (int r = static_cast<int>(std::sqrt(static_cast<double>(n))); r >= 2;
       --r) {
    if (n % r == 0) {
      *rows = r;
      *cols = n / r;
      return true;
    }
  }
  return false;
}

// Fills the topology/routing/collective options for `mode` at `n` hosts;
// false when the generator has no instance at this size.
bool configure(const TopoMode& mode, int n, RuntimeOptions& opts) {
  opts.npes = n;
  opts.topology.kind = mode.kind;
  switch (mode.kind) {
    case fabric::TopologyKind::kRing:
      // Paper protocol: right-only routing, doorbell ring barrier.
      opts.routing = fabric::RoutingMode::kRightOnly;
      return true;
    case fabric::TopologyKind::kChordal:
      if (n < 5) return false;  // stride-2 chord needs n - 2 > 2
      opts.topology.skips = {2};
      opts.routing = fabric::RoutingMode::kShortest;
      opts.tuning.topology_collectives = true;
      return true;
    case fabric::TopologyKind::kTorus2D: {
      int rows = 0, cols = 0;
      if (!torus_shape(n, &rows, &cols)) return false;
      opts.topology.rows = rows;
      opts.topology.cols = cols;
      opts.routing = fabric::RoutingMode::kDimensionOrder;
      opts.tuning.topology_collectives = true;
      return true;
    }
    case fabric::TopologyKind::kFullMesh:
      opts.routing = fabric::RoutingMode::kShortest;
      opts.tuning.topology_collectives = true;
      return true;
  }
  return false;
}

RuntimeOptions base_options() {
  RuntimeOptions opts;
  opts.data_path = DataPath::kDma;
  opts.completion = CompletionMode::kFullDelivery;
  opts.link_dma_rates_Bps = {3.0e9};
  ObsCli::instance().apply(opts);
  return opts;
}

struct Measurement {
  sim::Dur barrier = 0;    // one barrier_all, post-warmup
  sim::Dur put_quiet = 0;  // put+quiet to the farthest PE
  int far_hops = 0;        // routing hops to that PE
  RunCounters counters;
};

Measurement measure(const TopoMode& mode, int n, std::uint64_t bytes) {
  RuntimeOptions opts = base_options();
  if (!configure(mode, n, opts)) return {};
  Runtime rt(opts);
  // Farthest host by routing distance (ties to the lowest host id).
  const fabric::RoutingTable& routes = rt.fabric().routing(opts.routing);
  int far = 1, far_hops = 0;
  for (int h = 1; h < n; ++h) {
    if (routes.hops(0, h) > far_hops) {
      far = h;
      far_hops = routes.hops(0, h);
    }
  }
  Measurement meas;
  meas.far_hops = far_hops;
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(2u << 20));
    std::vector<std::byte> local(bytes, std::byte{0x7a});
    shmem_barrier_all();  // warmup: services drained, heaps aligned
    sim::Engine& eng = Runtime::current()->runtime().engine();
    const sim::Time b0 = eng.now();
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      meas.barrier = eng.now() - b0;
      const sim::Time t0 = eng.now();
      shmem_putmem(buf, local.data(), local.size(), far);
      shmem_quiet();
      meas.put_quiet = eng.now() - t0;
    }
    shmem_barrier_all();
    shmem_finalize();
  });
  meas.counters = RunCounters::from(rt);
  ObsCli::instance().capture(rt);
  return meas;
}

std::vector<JsonSample> sweep() {
  constexpr std::uint64_t kPutBytes = 1_MiB;
  std::vector<JsonSample> samples;
  for (const TopoMode& m : modes()) {
    for (const int n : host_counts()) {
      RuntimeOptions probe = base_options();
      if (!configure(m, n, probe)) continue;
      const Measurement meas = measure(m, n, kPutBytes);
      const std::string tag = std::string(m.name) + "/n" + std::to_string(n);
      // Barrier row: bytes 0, "hops" carries the host count.
      samples.push_back(JsonSample{tag + "/barrier", 0, n,
                                   static_cast<long long>(meas.barrier), 0.0,
                                   meas.counters});
      // Put row: "hops" is the routing distance of the farthest PE.
      samples.push_back(JsonSample{tag + "/put", kPutBytes, meas.far_hops,
                                   static_cast<long long>(meas.put_quiet),
                                   to_MBps(kPutBytes, meas.put_quiet),
                                   meas.counters});
    }
  }
  return samples;
}

void print_tables(const std::vector<JsonSample>& samples) {
  Table bt("Ablation A9: barrier latency (us) by topology and host count",
           {"Topology", "4 hosts", "8 hosts", "16 hosts"});
  Table pt("Ablation A9: 1 MiB put+quiet MB/s to the farthest PE",
           {"Topology", "4 hosts", "8 hosts", "16 hosts"});
  for (const TopoMode& m : modes()) {
    std::vector<double> brow, prow;
    for (const int n : host_counts()) {
      const std::string tag = std::string(m.name) + "/n" + std::to_string(n);
      double bus = 0, mbps = 0;
      for (const JsonSample& s : samples) {
        if (s.mode == tag + "/barrier") {
          bus = static_cast<double>(s.virtual_ns) / 1000.0;
        } else if (s.mode == tag + "/put") {
          mbps = s.MBps;
        }
      }
      brow.push_back(bus);
      prow.push_back(mbps);
    }
    bt.add_row(m.name, brow);
    pt.add_row(m.name, prow);
  }
  bt.print(std::cout);
  std::cout << '\n';
  pt.print(std::cout);
}

}  // namespace
}  // namespace ntbshmem::bench

int main(int argc, char** argv) {
  ntbshmem::bench::ObsCli::instance().parse_args(argc, argv);
  const auto samples = ntbshmem::bench::sweep();
  ntbshmem::bench::print_tables(samples);
  ntbshmem::bench::write_bench_json(
      "bench_ablation_topology.json", "ablation_topology",
      "barrier_all latency and 1 MiB put+quiet across fabric topologies",
      {"fibers",
       "ring+chordal+torus2d+fullmesh",
       ntbshmem::shmem::RuntimeOptions{}.fault_seed},
      samples);
  ntbshmem::bench::ObsCli::instance().report();
  return 0;
}
