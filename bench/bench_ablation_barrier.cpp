// Ablation A2: barrier algorithm comparison (paper §III-B4).
//
// The paper argues a centralized barrier "is not suitable since it is hard
// to make a centralized shared counter in the switchless interconnect
// network" and picks a ring start/end doorbell circulation instead. This
// bench measures all three on rings of 2..8 hosts:
//   * paper ring (doorbell start/end circulation, Fig. 6),
//   * centralized (atomic counter on PE 0 + release fan-out — every token
//     is a full transport round trip over the ring),
//   * dissemination (log2(n) pairwise token rounds over the transport).
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "shmem/api.hpp"
#include "shmem/collectives.hpp"

namespace ntbshmem::bench {
namespace {

using namespace ntbshmem::shmem;

constexpr int kReps = 5;

RuntimeOptions options(int npes) {
  RuntimeOptions opts;
  opts.npes = npes;
  opts.completion = CompletionMode::kLocalDma;
  ObsCli::instance().apply(opts);
  return opts;
}

sim::Dur measure(int npes, BarrierAlgorithm alg) {
  Runtime rt(options(npes));
  sim::Dur total = 0;
  rt.run([&] {
    shmem_init();
    Context& c = *Runtime::current();
    barrier_all(c, alg);  // warm-up: align PEs
    sim::Engine& eng = c.runtime().engine();
    for (int r = 0; r < kReps; ++r) {
      const sim::Time t0 = eng.now();
      barrier_all(c, alg);
      if (c.pe() == 0) total += eng.now() - t0;
    }
    shmem_finalize();
  });
  ObsCli::instance().capture(rt);
  return total / kReps;
}

void print_table() {
  Table t("Ablation A2: shmem_barrier_all latency by algorithm (us)",
          {"Hosts", "Paper ring (Fig.6)", "Centralized", "Dissemination"});
  for (int hosts = 2; hosts <= 8; ++hosts) {
    t.add_row(std::to_string(hosts),
              {sim::to_us(measure(hosts, BarrierAlgorithm::kPaperRing)),
               sim::to_us(measure(hosts, BarrierAlgorithm::kCentralized)),
               sim::to_us(measure(hosts, BarrierAlgorithm::kDissemination))});
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
