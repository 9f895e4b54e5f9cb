// Fig. 10 reproduction: latency of shmem_barrier_all() when called right
// after a Put of varying size, four configurations ({DMA, memcpy} x
// {1 hop, 2 hops}), on the 3-host ring.
//
// As in the paper's prototype, the barrier checks only that locally issued
// DMA completed (CompletionMode::kLocalDma): the measured latency is the
// Fig. 6 doorbell circulation itself, which is why the curves sit in the
// 1-2.5 ms band and stay flat as the put size grows.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "shmem/api.hpp"
#include "shmem/runtime.hpp"

namespace ntbshmem::bench {
namespace {

using namespace ntbshmem::shmem;

constexpr int kReps = 6;

RuntimeOptions fig10_options(DataPath path) {
  RuntimeOptions opts;
  opts.npes = 3;
  opts.data_path = path;
  opts.completion = CompletionMode::kLocalDma;
  opts.routing = fabric::RoutingMode::kRightOnly;
  ObsCli::instance().apply(opts);
  return opts;
}

// Average latency of shmem_barrier_all() measured at PE0, called right
// after PE0 puts `size` bytes to the PE `hops` to its right.
sim::Dur measure(DataPath path, int hops, std::uint64_t size) {
  Runtime rt(fig10_options(path));
  sim::Dur total = 0;
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(512 * 1024));
    std::vector<std::byte> local(size, std::byte{0x3c});
    shmem_barrier_all();
    sim::Engine& eng = Runtime::current()->runtime().engine();
    for (int r = 0; r < kReps; ++r) {
      if (shmem_my_pe() == 0) {
        shmem_putmem(buf, local.data(), local.size(), hops);
      }
      const sim::Time t0 = eng.now();
      shmem_barrier_all();
      if (shmem_my_pe() == 0) total += eng.now() - t0;
      // Let forwarded traffic drain so successive rounds are independent.
      eng.wait_for(sim::msec(30));
    }
    shmem_finalize();
  });
  ObsCli::instance().capture(rt);
  return total / kReps;
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

void print_table() {
  const auto sizes = paper_sizes();
  Table t("Fig 10 Latency of shmem_barrier_all after Put (us)",
          {"Request Size", kSeries[0].name, kSeries[1].name, kSeries[2].name,
           kSeries[3].name});
  for (std::uint64_t size : sizes) {
    std::vector<double> row;
    for (const Series& s : kSeries) {
      row.push_back(sim::to_us(measure(s.path, s.hops, size)));
    }
    t.add_row(format_size(size), row);
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace ntbshmem::bench

int main(int argc, char** argv) {
  ntbshmem::bench::ObsCli::instance().parse_args(argc, argv);
  ntbshmem::bench::print_table();
  ntbshmem::bench::ObsCli::instance().report();
  return 0;
}
