#include "common/timing_params.hpp"

namespace ntbshmem {

TimingParams paper_testbed() { return TimingParams{}; }

TimingParams fast_interrupts() {
  TimingParams p;
  p.service_wake = 20'000;  // 20us: what a busy-polling service thread buys
  p.intr_delivery = 5'000;
  return p;
}

TimingParams gen4_fabric() {
  TimingParams p;
  p.pcie_gen = 4;
  p.dma_rate_Bps = 6.0e9;
  p.host_bus_Bps = 10.4e9;
  return p;
}

}  // namespace ntbshmem
