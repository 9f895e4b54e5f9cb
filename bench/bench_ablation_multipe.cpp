// Ablation A5: PEs per host (the multi-tenant extension).
//
// Co-resident PEs share their host's two NTB adapters and service threads.
// This sweep keeps 3 hosts fixed and scales pes_per_host, with every PE
// streaming puts to the PE with the same local rank on the right-hand
// host. Intra-host communication cost and adapter contention both surface:
// aggregate cross-host throughput saturates once the shared ScratchPad
// channel serializes the co-residents' notify frames.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "shmem/api.hpp"
#include "shmem/runtime.hpp"

namespace ntbshmem::bench {
namespace {

using namespace ntbshmem::shmem;

constexpr int kHosts = 3;
constexpr std::uint64_t kBlock = 128_KiB;
constexpr int kReps = 4;

RuntimeOptions options(int per_host) {
  RuntimeOptions opts;
  opts.npes = kHosts * per_host;
  opts.pes_per_host = per_host;
  opts.completion = CompletionMode::kLocalDma;
  ObsCli::instance().apply(opts);
  return opts;
}

// Aggregate cross-host put throughput (MB/s) with `per_host` PEs per host.
double measure(int per_host) {
  Runtime rt(options(per_host));
  sim::Dur elapsed = 0;
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(kBlock));
    std::vector<std::byte> payload(kBlock, std::byte{0x66});
    shmem_barrier_all();
    sim::Engine& eng = Runtime::current()->runtime().engine();
    const int me = shmem_my_pe();
    // Same local rank on the right-hand host.
    const int target = (me + per_host) % (kHosts * per_host);
    const sim::Time t0 = eng.now();
    for (int r = 0; r < kReps; ++r) {
      shmem_putmem(buf, payload.data(), payload.size(), target);
    }
    if (me == 0) elapsed = eng.now() - t0;  // all PEs run in lockstep-ish
    shmem_barrier_all();
    shmem_finalize();
  });
  ObsCli::instance().capture(rt);
  // All PEs stream concurrently; normalize by the slowest observed window.
  return to_MBps(kBlock * kReps * static_cast<std::uint64_t>(kHosts) *
                     static_cast<std::uint64_t>(per_host),
                 elapsed);
}

void print_table() {
  Table t("Ablation A5: aggregate cross-host put throughput vs PEs/host "
          "(3 hosts, 128KB puts)",
          {"PEs per host", "Total PEs", "Aggregate MB/s", "Per-PE MB/s"});
  for (int per_host : {1, 2, 4, 8}) {
    const double agg = measure(per_host);
    t.add_row(std::to_string(per_host),
              {static_cast<double>(kHosts * per_host), agg,
               agg / (kHosts * per_host)});
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
