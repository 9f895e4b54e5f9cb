// Ablation A4: software/hardware tuning what-ifs.
//
// The paper closes with "the reduction of the latency overhead should be
// done in future work". This bench quantifies the two obvious levers on
// the same workloads the paper measures:
//   * fast_interrupts(): a busy-polling service thread (wake 150us -> 20us)
//     and leaner ISR path — pure software change;
//   * gen4_fabric(): PCIe Gen4 cables and a doubled DMA engine — hardware
//     refresh, software unchanged.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "shmem/api.hpp"
#include "shmem/runtime.hpp"

namespace ntbshmem::bench {
namespace {

using namespace ntbshmem::shmem;

struct Preset {
  const char* name;
  TimingParams timing;
};

RuntimeOptions options(const TimingParams& timing) {
  RuntimeOptions opts;
  opts.npes = 3;
  opts.timing = timing;
  opts.completion = CompletionMode::kLocalDma;
  // Uniform link rate so the presets differ only in the studied knobs.
  opts.link_dma_rates_Bps = {timing.dma_rate_Bps};
  ObsCli::instance().apply(opts);
  return opts;
}

struct Sample {
  double barrier_us;
  double put512_us;
  double get256_us_1hop;
};

Sample measure(const TimingParams& timing) {
  Runtime rt(options(timing));
  Sample s{};
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(512 * 1024));
    std::vector<std::byte> local(512 * 1024, std::byte{0x44});
    shmem_barrier_all();
    sim::Engine& eng = Runtime::current()->runtime().engine();
    if (shmem_my_pe() == 0) {
      sim::Time t0 = eng.now();
      shmem_putmem(buf, local.data(), 512 * 1024, 1);
      s.put512_us = sim::to_us(eng.now() - t0);
      eng.wait_for(sim::msec(20));
      std::vector<std::byte> sink(256 * 1024);
      t0 = eng.now();
      shmem_getmem(sink.data(), buf, sink.size(), 1);
      s.get256_us_1hop = sim::to_us(eng.now() - t0);
    }
    shmem_barrier_all();
    const sim::Time t0 = eng.now();
    shmem_barrier_all();
    if (shmem_my_pe() == 0) s.barrier_us = sim::to_us(eng.now() - t0);
    shmem_finalize();
  });
  ObsCli::instance().capture(rt);
  return s;
}

void print_table() {
  const Preset presets[] = {
      {"paper testbed", paper_testbed()},
      {"fast interrupts (sw)", fast_interrupts()},
      {"PCIe Gen4 (hw)", gen4_fabric()},
  };
  Table t("Ablation A4: tuning what-ifs on the 3-host ring",
          {"Preset", "Barrier us", "Put 512KB us", "Get 256KB us (1 hop)"});
  for (const Preset& p : presets) {
    const Sample s = measure(p.timing);
    t.add_row(p.name, {s.barrier_us, s.put512_us, s.get256_us_1hop});
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
