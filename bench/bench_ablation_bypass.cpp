// Ablation A3: bypass-buffer chunk size (the Fig. 4 design knob).
//
// Service-context forwarding and Get responses move in bypass_chunk_bytes
// units, each paying a full ScratchPad+Doorbell handshake. This sweep shows
// the per-chunk handshake dominating Get latency at small chunks and
// saturating once the chunk amortizes the interrupt path — the design
// trade-off behind the paper's order-of-magnitude Put/Get asymmetry.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "shmem/api.hpp"
#include "shmem/runtime.hpp"

namespace ntbshmem::bench {
namespace {

using namespace ntbshmem::shmem;

constexpr std::uint64_t kGetBytes = 256_KiB;
constexpr int kReps = 4;

RuntimeOptions options(std::uint64_t chunk) {
  RuntimeOptions opts;
  opts.npes = 3;
  opts.completion = CompletionMode::kLocalDma;
  opts.timing.bypass_chunk_bytes = chunk;
  ObsCli::instance().apply(opts);
  return opts;
}

// Average latency of a 256KB Get at 1 and 2 hops for the given chunk size.
std::pair<sim::Dur, sim::Dur> measure(std::uint64_t chunk) {
  Runtime rt(options(chunk));
  sim::Dur get1 = 0;
  sim::Dur get2 = 0;
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(kGetBytes));
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      sim::Engine& eng = Runtime::current()->runtime().engine();
      std::vector<std::byte> sink(kGetBytes);
      for (int r = 0; r < kReps; ++r) {
        sim::Time t0 = eng.now();
        shmem_getmem(sink.data(), buf, sink.size(), 1);
        get1 += eng.now() - t0;
        t0 = eng.now();
        shmem_getmem(sink.data(), buf, sink.size(), 2);
        get2 += eng.now() - t0;
      }
    }
    shmem_barrier_all();
    shmem_finalize();
  });
  ObsCli::instance().capture(rt);
  return {get1 / kReps, get2 / kReps};
}

void print_table() {
  Table t("Ablation A3: 256KB Get latency vs bypass chunk size (us)",
          {"Chunk", "Get 1 hop", "Get 2 hops", "Get 1 hop MB/s"});
  for (std::uint64_t chunk = 2_KiB; chunk <= 64_KiB; chunk *= 2) {
    const auto [g1, g2] = measure(chunk);
    t.add_row(format_size(chunk),
              {sim::to_us(g1), sim::to_us(g2), to_MBps(kGetBytes, g1)});
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
