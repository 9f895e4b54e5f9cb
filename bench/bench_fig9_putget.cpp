// Fig. 9 reproduction: OpenSHMEM Put/Get latency and throughput over the
// 3-host NTB ring, four configurations — {DMA, memcpy} x {1 hop, 2 hops} —
// for request sizes 1KB..512KB.
//
// Completion discipline is the paper prototype's (kLocalDma): Put latency
// is the one-sided local-completion time, which is why it is insensitive
// to hop count, while Get must wait for the data to traverse the ring and
// come back through the chunked bypass path.
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "shmem/api.hpp"
#include "shmem/runtime.hpp"

namespace ntbshmem::bench {
namespace {

using namespace ntbshmem::shmem;

constexpr int kReps = 8;

RuntimeOptions fig9_options(DataPath path) {
  RuntimeOptions opts;
  opts.npes = 3;
  opts.data_path = path;
  opts.completion = CompletionMode::kLocalDma;  // paper prototype discipline
  opts.routing = fabric::RoutingMode::kRightOnly;
  ObsCli::instance().apply(opts);
  return opts;
}

struct PutGetSample {
  sim::Dur put_latency = 0;
  sim::Dur get_latency = 0;
};

// Average per-op Put and Get latency from PE0 to the PE `hops` to its
// right, with a settle gap between operations so each op is measured in
// isolation (per-op latency, as the paper reports).
PutGetSample measure(DataPath path, int hops, std::uint64_t size) {
  Runtime rt(fig9_options(path));
  PutGetSample sample;
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(512 * 1024));
    std::vector<std::byte> local(size, std::byte{0x7e});
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      sim::Engine& eng = Runtime::current()->runtime().engine();
      const int target = hops;  // rightward: PE1 = 1 hop, PE2 = 2 hops
      sim::Dur put_total = 0;
      sim::Dur get_total = 0;
      for (int r = 0; r < kReps; ++r) {
        sim::Time t0 = eng.now();
        shmem_putmem(buf, local.data(), local.size(), target);
        put_total += eng.now() - t0;
        eng.wait_for(sim::msec(30));  // drain in-flight forwarding
      }
      for (int r = 0; r < kReps; ++r) {
        sim::Time t0 = eng.now();
        shmem_getmem(local.data(), buf, local.size(), target);
        get_total += eng.now() - t0;
        eng.wait_for(sim::msec(5));
      }
      sample.put_latency = put_total / kReps;
      sample.get_latency = get_total / kReps;
    } else {
      // Keep remote PEs alive until PE0 finishes: the barrier below blocks
      // until every PE arrives, and their service threads do the work.
    }
    shmem_barrier_all();
    shmem_finalize();
  });
  ObsCli::instance().capture(rt);
  return sample;
}

struct Series {
  DataPath path;
  int hops;
  const char* name;
};

const Series kSeries[] = {
    {DataPath::kDma, 1, "DMA 1 hop"},
    {DataPath::kDma, 2, "DMA 2 hops"},
    {DataPath::kMemcpy, 1, "memcpy 1 hop"},
    {DataPath::kMemcpy, 2, "memcpy 2 hops"},
};

void print_tables() {
  const auto sizes = paper_sizes();
  // results[series][size index]
  std::vector<std::vector<PutGetSample>> results(4);
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::uint64_t size : sizes) {
      results[s].push_back(measure(kSeries[s].path, kSeries[s].hops, size));
    }
  }

  Table put_lat("Fig 9(a) Latency of OpenSHMEM Put (us)",
                {"Request Size", kSeries[0].name, kSeries[1].name,
                 kSeries[2].name, kSeries[3].name});
  Table get_lat("Fig 9(b) Latency of OpenSHMEM Get (us)",
                {"Request Size", kSeries[0].name, kSeries[1].name,
                 kSeries[2].name, kSeries[3].name});
  Table put_bw("Fig 9(c) Throughput of OpenSHMEM Put (MB/s)",
               {"Request Size", kSeries[0].name, kSeries[1].name,
                kSeries[2].name, kSeries[3].name});
  Table get_bw("Fig 9(d) Throughput of OpenSHMEM Get (MB/s)",
               {"Request Size", kSeries[0].name, kSeries[1].name,
                kSeries[2].name, kSeries[3].name});

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<double> pl;
    std::vector<double> gl;
    std::vector<double> pb;
    std::vector<double> gb;
    for (std::size_t s = 0; s < 4; ++s) {
      const PutGetSample& r = results[s][i];
      pl.push_back(sim::to_us(r.put_latency));
      gl.push_back(sim::to_us(r.get_latency));
      pb.push_back(to_MBps(sizes[i], r.put_latency));
      gb.push_back(to_MBps(sizes[i], r.get_latency));
    }
    put_lat.add_row(format_size(sizes[i]), pl);
    get_lat.add_row(format_size(sizes[i]), gl);
    put_bw.add_row(format_size(sizes[i]), pb);
    get_bw.add_row(format_size(sizes[i]), gb);
  }
  put_lat.print(std::cout);
  get_lat.print(std::cout);
  put_bw.print(std::cout);
  get_bw.print(std::cout);
}

}  // namespace
}  // namespace ntbshmem::bench

int main(int argc, char** argv) {
  ntbshmem::bench::ObsCli::instance().parse_args(argc, argv);
  ntbshmem::bench::print_tables();
  ntbshmem::bench::ObsCli::instance().report();
  return 0;
}
