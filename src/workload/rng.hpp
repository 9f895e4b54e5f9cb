// Seeded random streams and samplers for the workload layer.
//
// Streams are keyed exactly like sim::FaultPlan's decision streams: each
// (seed, key) pair owns an independent splitmix64 sequence whose state is
// derived from the workload seed and an FNV-1a hash of a stable string key
// ("kv.target.pe12"). Two properties follow:
//   * determinism — same seed + same per-stream draw sequence => identical
//     traffic, bit for bit, regardless of what other streams do;
//   * isolation — adding draws on one PE's op stream never perturbs another
//     PE's arrivals, so scenarios compose without re-seeding rituals.
// No wall clock, no std::random_device, no std::mt19937 (its sequence is
// specified, but seeding through seed_seq is easy to get wrong silently) —
// the detlint no-wallclock-entropy rule stays clean by construction.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/fnv.hpp"
#include "common/splitmix.hpp"

namespace ntbshmem::workload {

// One independent splitmix64 stream.
class Stream {
 public:
  Stream(std::uint64_t seed, std::string_view key)
      : state_(seed ^ fnv::fold_bytes(fnv::kOffset, key)) {}

  std::uint64_t next_u64() { return splitmix::next(state_); }

  // Uniform double in [0, 1), 53 bits of mantissa.
  double next_unit() { return splitmix::unit(next_u64()); }

  // Uniform integer in [0, n). Modulo bias is < n / 2^64 — irrelevant for
  // the n <= a few thousand this layer draws (PEs, slots, size points).
  std::uint64_t next_below(std::uint64_t n) {
    return n <= 1 ? 0 : next_u64() % n;
  }

  // Exponential with the given mean (Poisson inter-arrival gaps).
  double next_exp(double mean) {
    // 1 - unit is in (0, 1], so the log is finite.
    return -mean * std::log(1.0 - next_unit());
  }

 private:
  std::uint64_t state_;
};

// Weighted discrete sampler over indices 0..n-1 (target ranks, op mixes,
// size points). Sampling is a binary search over the precomputed CDF:
// O(log n) per draw, exact, and allocation-free after construction.
class DiscreteSampler {
 public:
  explicit DiscreteSampler(const std::vector<double>& weights)
      : cdf_(weights.size()) {
    double mass = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] < 0.0) {
        throw std::invalid_argument("DiscreteSampler: negative weight");
      }
      mass += weights[i];
      cdf_[i] = mass;
    }
    if (cdf_.empty() || mass <= 0.0) {
      throw std::invalid_argument("DiscreteSampler: no positive weight");
    }
    for (double& c : cdf_) c /= mass;
    cdf_.back() = 1.0;
  }

  std::size_t sample(Stream& s) const {
    const double u = s.next_unit();
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] <= u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace ntbshmem::workload
