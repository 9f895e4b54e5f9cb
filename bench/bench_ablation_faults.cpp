// Ablation A7: goodput vs injected fault rate under the reliable transport.
//
// The paper's prototype fails fast on any delivery fault; the reliability
// layer (ReliabilityParams) buys fault tolerance with retransmit timers.
// This bench quantifies the price: a fixed 2 MiB neighbour-put workload
// runs under increasing doorbell-loss probability (the dominant loss mode
// of the ScratchPad handshake — a lost notify or ack doorbell strands a
// frame until the timer fires), with proportional header-corruption and
// per-TLP loss riding along, reporting delivered goodput, retransmits and
// injected-fault counts. The ack timeout is tuned to 500us — the paper
// testbed's worst-case ack round trip is ~320us — so one loss costs about
// one timeout, not the 5 ms default meant for conservative deployments.
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "shmem/api.hpp"
#include "shmem/runtime.hpp"

namespace ntbshmem::bench {
namespace {

using namespace ntbshmem::shmem;

constexpr std::size_t kChunk = 256 * 1024;
constexpr int kRounds = 8;  // 2 MiB of goodput per measured run

RuntimeOptions options(double loss) {
  RuntimeOptions opts;
  opts.npes = 3;
  opts.completion = CompletionMode::kFullDelivery;
  opts.tuning = TransportTuning::reliable(TransportTuning{});
  opts.tuning.reliability.ack_timeout = 500'000;  // 500us (see header)
  opts.link_dma_rates_Bps = {3.0e9};
  opts.faults.doorbell_drop = loss;
  opts.faults.scratchpad_corrupt = loss / 5.0;  // header hits -> NAK path
  opts.faults.tlp_drop = loss / 10.0;           // link-layer losses ride along
  ObsCli::instance().apply(opts);
  return opts;
}

struct Sample {
  double goodput_MBps = 0;   // virtual-time goodput of the 1 MiB stream
  double put_quiet_us = 0;   // total put+quiet time
  std::uint64_t retransmits = 0;
  std::uint64_t faults = 0;
  bool content_ok = false;
};

Sample measure(double loss) {
  Runtime rt(options(loss));
  Sample s;
  rt.run([&] {
    shmem_init();
    auto* buf = static_cast<std::byte*>(shmem_malloc(kChunk));
    std::vector<std::byte> local(kChunk);
    for (std::size_t i = 0; i < kChunk; ++i) {
      local[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 0) {
      sim::Engine& eng = Runtime::current()->runtime().engine();
      const sim::Time t0 = eng.now();
      for (int r = 0; r < kRounds; ++r) {
        shmem_putmem(buf, local.data(), local.size(), 1);
        shmem_quiet();
      }
      s.put_quiet_us = sim::to_us(eng.now() - t0);
    }
    shmem_barrier_all();
    if (shmem_my_pe() == 1) {
      s.content_ok = std::memcmp(buf, local.data(), local.size()) == 0;
    }
    shmem_finalize();
  });
  const double bytes = static_cast<double>(kChunk) * kRounds;
  s.goodput_MBps = bytes / s.put_quiet_us;  // B/us == MB/s
  for (int h = 0; h < 3; ++h) {
    s.retransmits += rt.host_transport(h).stats().retransmits;
  }
  s.faults = rt.faults().stats().total();
  ObsCli::instance().capture(rt);
  return s;
}

constexpr double kLossRates[] = {0.0, 0.001, 0.01, 0.05, 0.1};

void print_table() {
  Table t("Ablation A7: goodput vs doorbell-loss rate (reliable transport, "
          "2 MiB neighbour put)",
          {"Loss rate", "Goodput MB/s", "Put+quiet us", "Retransmits",
           "Faults injected"});
  for (const double loss : kLossRates) {
    const Sample s = measure(loss);
    if (!s.content_ok) {
      std::cerr << "A7: CORRUPTED DELIVERY at loss=" << loss << "\n";
    }
    t.add_row(loss == 0.0 ? "0 (baseline)" : std::to_string(loss),
              {s.goodput_MBps, s.put_quiet_us,
               static_cast<double>(s.retransmits),
               static_cast<double>(s.faults)});
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
