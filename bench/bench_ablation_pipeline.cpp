// Ablation A6: the pipelined NTB data path (TransportTuning).
//
// Sweeps the three pipelining levers — ScratchPad frame credits, overlapped
// DMA segment setup, cut-through forwarding — one at a time and combined,
// against the paper-faithful baseline, for put+quiet across 1..3 ring hops
// at 64 KiB / 256 KiB / 1 MiB. The paper row must keep reproducing the
// Fig. 9-era numbers exactly (asserted by shmem_pipeline_test); the all-on
// row is the headline: >= 2x 3-hop 1 MiB virtual-time bandwidth.
//
// Besides the human-readable table this bench writes
// bench_ablation_pipeline.json (cwd) with every sample, for plots and CI
// regression tracking.
#include <cstdint>
#include <fstream>
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

struct Mode {
  const char* name;
  TransportTuning tuning;
};

std::vector<Mode> modes() {
  TransportTuning credits;
  credits.tx_credits = 4;
  TransportTuning overlap;
  overlap.overlap_segment_setup = true;
  TransportTuning cut_through;
  cut_through.cut_through_forwarding = true;
  return {
      {"paper", TransportTuning::paper()},
      {"credits=4", credits},
      {"overlap-setup", overlap},
      {"cut-through", cut_through},
      {"all-on", TransportTuning::all_on(4)},
  };
}

RuntimeOptions options(const TransportTuning& tuning) {
  RuntimeOptions opts;
  opts.npes = 5;
  opts.data_path = DataPath::kDma;
  opts.routing = fabric::RoutingMode::kRightOnly;
  opts.completion = CompletionMode::kFullDelivery;
  opts.tuning = tuning;
  opts.link_dma_rates_Bps = {3.0e9};
  ObsCli::instance().apply(opts);
  return opts;
}

struct Measurement {
  sim::Dur put_quiet = 0;
  RunCounters counters;
};

// put `bytes` from PE 0 to the PE `hops` rightward, then quiet; returns the
// put+quiet virtual time plus the run's transport counters.
Measurement measure(const TransportTuning& tuning, std::uint64_t bytes,
                    int hops) {
  Runtime rt(options(tuning));
  Measurement meas;
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(2u << 20));
    std::vector<std::byte> local(bytes, std::byte{0x6b});
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      sim::Engine& eng = Runtime::current()->runtime().engine();
      const sim::Time t0 = eng.now();
      shmem_putmem(buf, local.data(), local.size(), hops);
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
  std::vector<JsonSample> samples;
  for (const Mode& m : modes()) {
    for (const std::uint64_t bytes : {64_KiB, 256_KiB, 1_MiB}) {
      for (int hops = 1; hops <= 3; ++hops) {
        const Measurement meas = measure(m.tuning, bytes, hops);
        samples.push_back(JsonSample{m.name, bytes, hops,
                                     static_cast<long long>(meas.put_quiet),
                                     to_MBps(bytes, meas.put_quiet),
                                     meas.counters});
      }
    }
  }
  return samples;
}

void print_tables(const std::vector<JsonSample>& samples) {
  for (const std::uint64_t bytes : {64_KiB, 256_KiB, 1_MiB}) {
    Table t("Ablation A6: pipelined data path, put+quiet MB/s at " +
                std::to_string(bytes / 1024) + " KiB (5-host ring)",
            {"Mode", "1 hop", "2 hops", "3 hops"});
    for (const Mode& m : modes()) {
      std::vector<double> row;
      for (int hops = 1; hops <= 3; ++hops) {
        for (const JsonSample& s : samples) {
          if (s.mode == m.name && s.bytes == bytes && s.hops == hops) {
            row.push_back(s.MBps);
          }
        }
      }
      t.add_row(m.name, row);
    }
    t.print(std::cout);
    std::cout << '\n';
  }
}

}  // namespace
}  // namespace ntbshmem::bench

int main(int argc, char** argv) {
  ntbshmem::bench::ObsCli::instance().parse_args(argc, argv);
  const auto samples = ntbshmem::bench::sweep();
  ntbshmem::bench::print_tables(samples);
  ntbshmem::bench::write_bench_json(
      "bench_ablation_pipeline.json", "ablation_pipeline",
      "put+quiet, 5-host right-only ring, full delivery",
      {"fibers", "ring",
       ntbshmem::shmem::RuntimeOptions{}.fault_seed},
      samples);
  ntbshmem::bench::ObsCli::instance().report();
  return 0;
}
