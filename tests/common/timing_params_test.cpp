#include "common/timing_params.hpp"

#include <gtest/gtest.h>

namespace ntbshmem {
namespace {

TEST(TimingPresetsTest, PresetsDifferInTheStudiedKnobs) {
  const TimingParams paper = paper_testbed();
  const TimingParams fast = fast_interrupts();
  const TimingParams gen4 = gen4_fabric();
  EXPECT_LT(fast.service_wake, paper.service_wake);
  EXPECT_LT(fast.intr_delivery, paper.intr_delivery);
  EXPECT_EQ(fast.dma_rate_Bps, paper.dma_rate_Bps);
  EXPECT_GT(gen4.dma_rate_Bps, paper.dma_rate_Bps);
  EXPECT_EQ(gen4.service_wake, paper.service_wake);
  EXPECT_EQ(gen4.pcie_gen, 4);
}

}  // namespace
}  // namespace ntbshmem
