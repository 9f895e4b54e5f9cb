// Calendar-queue scheduler for the discrete-event engine.
//
// Replaces the binary-heap run queue with a rotating bucketed wheel plus an
// overflow ladder, the classic O(1)-amortized structure for DES event sets
// (R. Brown, CACM 1988; ladder refinement after Tang et al.). The hot path
// of the simulator — schedule at `now + small delta`, dispatch the nearest
// event — becomes an append to a small per-bucket heap and a short cursor
// walk instead of an O(log n) sift through one global heap.
//
// Layout
//   * Wheel: kBuckets buckets, each `1 << width_shift_` ns wide. The wheel
//     covers the chunk window [win_lo_, win_lo_ + kBuckets), where an
//     item's *chunk* is `time >> width_shift_`. Window size == bucket count,
//     so within the window chunk -> bucket is a bijection and a bucket never
//     mixes two different chunks.
//   * Bucket: a std::vector maintained as a binary min-heap on the full
//     dispatch key, so same-bucket items still pop in exact key order.
//   * Overflow ladder: items beyond the window land in rung
//     floor(log2(delta_chunks / kBuckets)) — geometrically wider rungs for
//     geometrically farther futures. Each rung is an unsorted vector with
//     its min/max timestamp tracked; far-future items cost O(1) to park.
//
// Re-anchoring: when the wheel drains, the window jumps to the chunk of the
// earliest remaining item and every rung whose minimum falls inside the new
// window is poured back through place(). Re-inserted items only ever move
// to the wheel or a *nearer* rung, so each item migrates at most
// O(#rungs) times over its lifetime.
//
// Bucket width policy: the width adapts only at re-anchor time (the wheel
// is empty, so re-chunking is safe) to the spread of the rung being poured:
// width = 2^ceil(log2(span / (kBuckets/2))), clamped to
// [2^kMinWidthShift, 2^kMaxWidthShift]. A dense pour spreads across the
// wheel instead of piling into one bucket; a sparse pour widens the window
// instead of spinning the cursor over empty buckets.
//
// Dispatch-order invariance (the property the schedule digests pin): the
// dispatch key (t, tie, seq) is a total order, and pop_min() provably
// returns its global minimum —
//   1. ladder items always have t >= window end (enforced at insert and
//      restored after every re-anchor), so the wheel holds the minimum;
//   2. buckets are visited in ascending chunk order (the cursor rewinds
//      whenever an insert lands behind it), and chunks partition time, so
//      the first non-empty bucket holds the minimum;
//   3. within a bucket the heap pops the exact key minimum.
// Hence the dispatch sequence is bit-identical to the former global binary
// heap for every workload, independent of bucket count or width — those
// only move work between the cursor walk and the per-bucket heaps.
//
// Preconditions: item times are non-negative, and no pushed time precedes
// the most recently popped time (the engine clamps `t < now` to `now`).
// Pushes below the current window origin (legal before the first pop after
// the queue went empty, e.g. timers registered out of order) trigger a full
// rebuild — rare by construction and O(size) when it happens.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

namespace ntbshmem::sim {

// Item must expose a non-negative `.t` (int64 ns). `After(a, b)` returns
// true when `a` dispatches after `b` — the same comparator shape a
// std::priority_queue min-queue uses, so the engine's tie-break comparator
// drops in unchanged.
template <class Item, class After>
class CalendarQueue {
 public:
  CalendarQueue() : rungs_(kMaxRungs) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(Item item) {
    const std::uint64_t c = chunk_of(item.t);
    if (size_ == 0) {
      win_lo_ = c;
      cursor_ = c;
    } else if (c < win_lo_) {
      rebuild_below(c);
    }
    ++size_;
    place(std::move(item));
  }

  // Removes and returns the item with the smallest (t, tie, seq) key.
  Item pop_min() {
    assert(size_ > 0);
    while (wheel_count_ == 0) re_anchor();
    while (wheel_[cursor_ & kMask].empty()) {
      ++cursor_;
      assert(cursor_ < win_lo_ + kBuckets);
    }
    std::vector<Item>& b = wheel_[cursor_ & kMask];
    std::pop_heap(b.begin(), b.end(), after_);
    Item item = std::move(b.back());
    b.pop_back();
    --wheel_count_;
    --size_;
    return item;
  }

  // Visits every queued item in unspecified order (wheel buckets are
  // heap-ordered, rungs unsorted). Used by order-insensitive state hashing:
  // the caller must fold items with a commutative combine so the queue's
  // physical layout (which varies with push history) cannot leak into the
  // hash.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const std::vector<Item>& b : wheel_) {
      for (const Item& item : b) fn(item);
    }
    for (const Rung& r : rungs_) {
      for (const Item& item : r.items) fn(item);
    }
  }

  // Structure diagnostics (tests + bench reporting).
  std::uint64_t re_anchor_count() const { return re_anchors_; }

 private:
  static constexpr int kBucketBits = 9;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::uint64_t kMask = kBuckets - 1;
  static constexpr int kMinWidthShift = 4;   // 16 ns buckets
  static constexpr int kMaxWidthShift = 40;  // ~18-minute buckets
  static constexpr int kInitialWidthShift = 12;  // ~4 us buckets
  static constexpr std::size_t kMaxRungs = 56;   // covers 64-bit chunk deltas

  struct Rung {
    std::vector<Item> items;
    std::int64_t min_t = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_t = std::numeric_limits<std::int64_t>::min();
  };

  std::uint64_t chunk_of(std::int64_t t) const {
    assert(t >= 0);
    return static_cast<std::uint64_t>(t) >> width_shift_;
  }

  static std::size_t rung_index(std::uint64_t delta_chunks) {
    assert(delta_chunks >= kBuckets);
    const std::size_t idx = static_cast<std::size_t>(
        std::bit_width(delta_chunks >> kBucketBits) - 1);
    return std::min(idx, kMaxRungs - 1);
  }

  // Inserts without size bookkeeping or window (re)initialisation; shared
  // by push(), re_anchor() pours and rebuild_below().
  void place(Item item) {
    const std::uint64_t c = chunk_of(item.t);
    assert(c >= win_lo_);
    if (c - win_lo_ < kBuckets) {
      std::vector<Item>& b = wheel_[c & kMask];
      b.push_back(std::move(item));
      std::push_heap(b.begin(), b.end(), after_);
      ++wheel_count_;
      if (c < cursor_) cursor_ = c;
    } else {
      Rung& r = rungs_[rung_index(c - win_lo_)];
      r.min_t = std::min(r.min_t, item.t);
      r.max_t = std::max(r.max_t, item.t);
      r.items.push_back(std::move(item));
    }
  }

  // The wheel drained but rungs still hold items: move the window to the
  // earliest remaining item, re-fit the bucket width to the nearest rung's
  // spread, and pour every rung that now overlaps the window.
  void re_anchor() {
    assert(wheel_count_ == 0 && size_ > 0);
    ++re_anchors_;
    std::int64_t min_t = std::numeric_limits<std::int64_t>::max();
    std::int64_t near_max = std::numeric_limits<std::int64_t>::min();
    for (const Rung& r : rungs_) {
      if (r.items.empty()) continue;
      if (r.min_t < min_t) {
        min_t = r.min_t;
        near_max = r.max_t;
      }
    }
    assert(min_t != std::numeric_limits<std::int64_t>::max());
    // Width policy: fit the nearest rung's span across half the wheel. A
    // zero-span pour (single far timer) keeps the current width rather than
    // collapsing the window.
    if (near_max > min_t) {
      const std::uint64_t span =
          static_cast<std::uint64_t>(near_max - min_t) >> (kBucketBits - 1);
      width_shift_ = std::clamp(static_cast<int>(std::bit_width(span)),
                                kMinWidthShift, kMaxWidthShift);
    }
    win_lo_ = chunk_of(min_t);
    cursor_ = win_lo_;
    const std::uint64_t win_end_chunk = win_lo_ + kBuckets;
    for (Rung& r : rungs_) {
      if (r.items.empty() || chunk_of(r.min_t) >= win_end_chunk) continue;
      pour(r);
    }
    assert(wheel_count_ > 0);  // the min item always lands in the wheel
  }

  void pour(Rung& r) {
    std::vector<Item> drained;
    drained.swap(r.items);
    r.min_t = std::numeric_limits<std::int64_t>::max();
    r.max_t = std::numeric_limits<std::int64_t>::min();
    for (Item& item : drained) place(std::move(item));
  }

  // An insert arrived below the window origin (only possible before the
  // first pop since the queue went empty): rebase the window and re-place
  // everything currently held.
  void rebuild_below(std::uint64_t c) {
    std::vector<Item> all;
    all.reserve(size_);
    for (std::vector<Item>& b : wheel_) {
      for (Item& item : b) all.push_back(std::move(item));
      b.clear();
    }
    wheel_count_ = 0;
    for (Rung& r : rungs_) {
      for (Item& item : r.items) all.push_back(std::move(item));
      r.items.clear();
      r.min_t = std::numeric_limits<std::int64_t>::max();
      r.max_t = std::numeric_limits<std::int64_t>::min();
    }
    win_lo_ = c;
    cursor_ = c;
    for (Item& item : all) place(std::move(item));
  }

  After after_{};
  int width_shift_ = kInitialWidthShift;
  std::uint64_t win_lo_ = 0;   // lowest chunk the wheel currently covers
  std::uint64_t cursor_ = 0;   // next chunk pop_min() will inspect
  std::size_t wheel_count_ = 0;
  std::size_t size_ = 0;
  std::uint64_t re_anchors_ = 0;
  std::array<std::vector<Item>, kBuckets> wheel_;
  std::vector<Rung> rungs_;
};

}  // namespace ntbshmem::sim
