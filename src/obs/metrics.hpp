// Per-layer metrics registry: named monotonic counters, gauges and
// log2-bucketed histograms, registered once by each component (NtbPort,
// pcie::Link, host::InterruptController, shmem::Transport) and snapshotable
// at any sim time.
//
// Design notes:
//  - Instruments are owned by the registry (deque storage: handed-out
//    pointers stay valid as more instruments register). Components hold raw
//    pointers for +=-style hot-path updates — one pointer deref, no lookup.
//  - Components constructed without a registry (direct unit tests) get the
//    shared null instruments, so instrumentation code never branches on
//    "do I have a registry?".
//  - Probes are pull-style gauges: a callback sampled at snapshot() time,
//    used to expose pre-existing stats structs (e.g. TransportStats) without
//    double-counting.
//  - snapshot() returns rows sorted by name so exports are deterministic.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ntbshmem::obs {

// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta) { value_ += delta; }
  void inc() { ++value_; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Last-written value (levels: credits available, queue depth, ...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Log2-bucketed histogram of non-negative integer samples (latencies in ns,
// transfer sizes in bytes). Bucket b holds values v with bit_width(v) == b:
// bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2,3}, bucket 3 = {4..7}, ...
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width of uint64 is 0..64

  void record(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  static std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  // Inclusive value range covered by a bucket.
  static std::uint64_t bucket_lo(std::size_t b) {
    return b <= 1 ? (b == 0 ? 0 : 1) : (std::uint64_t{1} << (b - 1));
  }
  static std::uint64_t bucket_hi(std::size_t b) {
    if (b == 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  std::uint64_t bucket(std::size_t b) const { return buckets_[b]; }
  // Highest non-empty bucket + 1 (0 when empty) — export only what exists.
  std::size_t used_buckets() const;

  // Quantile estimate (q in [0,1]) by linear interpolation inside the
  // containing log2 bucket, clamped to the recorded min/max so exact-sample
  // extremes (p0/p100) come back exact. 0 on an empty histogram.
  std::uint64_t percentile(double q) const;

  // Merges another histogram's exported state in (bucket-wise exact;
  // count/sum exact; min/max exact) — how the shm backend folds each forked
  // PE's registry back into the parent's after a run. `buckets` holds the
  // first `nbuckets` buckets (used_buckets() of the source), the rest are
  // zero.
  void absorb(const std::uint64_t* buckets, std::size_t nbuckets,
              std::uint64_t count, std::uint64_t sum, std::uint64_t min,
              std::uint64_t max);

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

struct MetricRow {
  enum class Kind { kCounter, kGauge, kHistogram, kProbe };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;  // counter/gauge/probe sample; histogram count
  // Histogram-only detail (empty otherwise).
  std::uint64_t hist_sum = 0;
  std::uint64_t hist_min = 0;
  std::uint64_t hist_max = 0;
  std::vector<std::uint64_t> hist_buckets;  // used_buckets() entries
};

struct Snapshot {
  std::vector<MetricRow> rows;  // sorted by name

  const MetricRow* find(std::string_view name) const;
  // Sum of all counter/probe rows whose name ends with `suffix` — merges a
  // per-host family like "host*.transport.retransmits" into one number.
  double total(std::string_view suffix) const;
};

// Percentile over exported histogram buckets (MetricRow::hist_buckets): the
// same interpolation as Histogram::percentile but computable from a
// snapshot/JSON round-trip, where only the bucket counts survive. `count`
// is the total sample count, `min`/`max` the recorded extremes.
std::uint64_t percentile_from_buckets(const std::vector<std::uint64_t>& buckets,
                                      std::uint64_t count, std::uint64_t min,
                                      std::uint64_t max, double q);

// Convenience overload for a snapshot row (0 for non-histogram rows).
std::uint64_t percentile_of(const MetricRow& row, double q);

class MetricsRegistry {
 public:
  // Registration is idempotent per name: re-registering returns the same
  // instrument (components torn down and rebuilt against one registry
  // accumulate, which is what cross-run totals want; use a fresh registry
  // per Runtime otherwise).
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);
  // Pull-style gauge evaluated at snapshot() time.
  void register_probe(std::string_view name, std::function<double()> fn);

  Snapshot snapshot() const;

  std::size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size() +
           probes_.size();
  }

  // Shared write-sink instruments for components built without a registry;
  // never read, so concurrent ownership by many components is fine.
  static Counter* null_counter();
  static Gauge* null_gauge();
  static Histogram* null_histogram();

 private:
  template <typename T>
  struct Named {
    std::string name;
    T instrument;
  };
  struct Probe {
    std::string name;
    std::function<double()> fn;
  };

  template <typename T>
  T* find_or_add(std::deque<Named<T>>& store, std::string_view name);

  std::deque<Named<Counter>> counters_;
  std::deque<Named<Gauge>> gauges_;
  std::deque<Named<Histogram>> histograms_;
  std::deque<Probe> probes_;
};

}  // namespace ntbshmem::obs
