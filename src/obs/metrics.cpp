#include "obs/metrics.hpp"

#include <algorithm>

namespace ntbshmem::obs {

std::size_t Histogram::used_buckets() const {
  std::size_t n = kBuckets;
  while (n > 0 && buckets_[n - 1] == 0) --n;
  return n;
}

std::uint64_t percentile_from_buckets(const std::vector<std::uint64_t>& buckets,
                                      std::uint64_t count, std::uint64_t min,
                                      std::uint64_t max, double q) {
  if (count == 0 || buckets.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // The recorded extremes are exact; the buckets only resolve interior
  // quantiles (a one-sample bucket would otherwise report its upper edge).
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Rank of the wanted sample, 1-based: q = 0 -> first sample, q = 1 -> last.
  const double rank = 1.0 + q * static_cast<double>(count - 1);
  double cum = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double next = cum + static_cast<double>(buckets[b]);
    if (rank <= next) {
      // Linear interpolation across the bucket's value range by the rank's
      // position within the bucket population.
      const double lo = static_cast<double>(Histogram::bucket_lo(b));
      const double hi = static_cast<double>(Histogram::bucket_hi(b));
      const double frac =
          (rank - cum) / static_cast<double>(buckets[b]);  // (0, 1]
      double v = lo + (hi - lo) * frac;
      // The recorded extremes are exact; never report outside them.
      v = std::clamp(v, static_cast<double>(min), static_cast<double>(max));
      return static_cast<std::uint64_t>(v);
    }
    cum = next;
  }
  return max;
}

std::uint64_t percentile_of(const MetricRow& row, double q) {
  if (row.kind != MetricRow::Kind::kHistogram) return 0;
  return percentile_from_buckets(row.hist_buckets,
                                 static_cast<std::uint64_t>(row.value),
                                 row.hist_min, row.hist_max, q);
}

std::uint64_t Histogram::percentile(double q) const {
  std::vector<std::uint64_t> buckets(buckets_, buckets_ + used_buckets());
  return percentile_from_buckets(buckets, count_, min(), max_, q);
}

void Histogram::absorb(const std::uint64_t* buckets, std::size_t nbuckets,
                       std::uint64_t count, std::uint64_t sum,
                       std::uint64_t min, std::uint64_t max) {
  if (count == 0) return;
  for (std::size_t b = 0; b < nbuckets && b < kBuckets; ++b) {
    buckets_[b] += buckets[b];
  }
  if (count_ == 0 || min < min_) min_ = min;
  if (max > max_) max_ = max;
  count_ += count;
  sum_ += sum;
}

const MetricRow* Snapshot::find(std::string_view name) const {
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), name,
      [](const MetricRow& row, std::string_view key) { return row.name < key; });
  if (it == rows.end() || it->name != name) return nullptr;
  return &*it;
}

double Snapshot::total(std::string_view suffix) const {
  double sum = 0.0;
  for (const auto& row : rows) {
    if (row.name.size() >= suffix.size() &&
        std::string_view{row.name}.substr(row.name.size() - suffix.size()) ==
            suffix) {
      sum += row.value;
    }
  }
  return sum;
}

template <typename T>
T* MetricsRegistry::find_or_add(std::deque<Named<T>>& store,
                                std::string_view name) {
  for (auto& entry : store) {
    if (entry.name == name) return &entry.instrument;
  }
  store.push_back(Named<T>{std::string(name), T{}});
  return &store.back().instrument;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  return find_or_add(counters_, name);
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  return find_or_add(gauges_, name);
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  return find_or_add(histograms_, name);
}

void MetricsRegistry::register_probe(std::string_view name,
                                     std::function<double()> fn) {
  for (auto& probe : probes_) {
    if (probe.name == name) {
      probe.fn = std::move(fn);  // component rebuilt: newest source wins
      return;
    }
  }
  probes_.push_back(Probe{std::string(name), std::move(fn)});
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  snap.rows.reserve(instrument_count());
  for (const auto& entry : counters_) {
    MetricRow row;
    row.name = entry.name;
    row.kind = MetricRow::Kind::kCounter;
    row.value = static_cast<double>(entry.instrument.value());
    snap.rows.push_back(std::move(row));
  }
  for (const auto& entry : gauges_) {
    MetricRow row;
    row.name = entry.name;
    row.kind = MetricRow::Kind::kGauge;
    row.value = entry.instrument.value();
    snap.rows.push_back(std::move(row));
  }
  for (const auto& entry : histograms_) {
    MetricRow row;
    row.name = entry.name;
    row.kind = MetricRow::Kind::kHistogram;
    row.value = static_cast<double>(entry.instrument.count());
    row.hist_sum = entry.instrument.sum();
    row.hist_min = entry.instrument.min();
    row.hist_max = entry.instrument.max();
    const std::size_t used = entry.instrument.used_buckets();
    row.hist_buckets.reserve(used);
    for (std::size_t b = 0; b < used; ++b) {
      row.hist_buckets.push_back(entry.instrument.bucket(b));
    }
    snap.rows.push_back(std::move(row));
  }
  for (const auto& probe : probes_) {
    MetricRow row;
    row.name = probe.name;
    row.kind = MetricRow::Kind::kProbe;
    row.value = probe.fn ? probe.fn() : 0.0;
    snap.rows.push_back(std::move(row));
  }
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const MetricRow& a, const MetricRow& b) { return a.name < b.name; });
  return snap;
}

// The shared null instruments are write-only sinks: unregistered components
// add into them and nothing ever reads the accumulated garbage back, so the
// mutable statics cannot feed state into any schedule decision.

Counter* MetricsRegistry::null_counter() {
  // detlint:allow(no-mutable-static): write-only null instrument, never read
  static Counter sink;
  return &sink;
}

Gauge* MetricsRegistry::null_gauge() {
  // detlint:allow(no-mutable-static): write-only null instrument, never read
  static Gauge sink;
  return &sink;
}

Histogram* MetricsRegistry::null_histogram() {
  // detlint:allow(no-mutable-static): write-only null instrument, never read
  static Histogram sink;
  return &sink;
}

}  // namespace ntbshmem::obs
