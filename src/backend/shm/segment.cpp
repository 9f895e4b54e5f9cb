#include "backend/shm/segment.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace ntbshmem::backend {

namespace {

constexpr std::size_t kPage = 4096;

std::size_t page_align(std::size_t n) { return (n + kPage - 1) & ~(kPage - 1); }

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("shm segment: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

Segment::Segment(int npes, std::uint64_t heap_slice_bytes)
    : npes_(npes), slice_(page_align(heap_slice_bytes)) {
  controls_off_ = page_align(sizeof(SegmentHeader));
  heaps_off_ = page_align(controls_off_ +
                          static_cast<std::size_t>(npes_) * sizeof(PeControl));
  total_ = heaps_off_ + static_cast<std::size_t>(npes_) * slice_;

  // One shared anonymous mapping: every child forked later inherits it,
  // and with no name there is nothing to unlink or to leak if the run is
  // killed.
  void* map = mmap(nullptr, total_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) fail("mmap of " + std::to_string(total_) + " bytes");
  base_ = static_cast<std::byte*>(map);

  // A pre-fault, not a zero-fill: a fresh anonymous mapping already reads
  // as zero. Writing every page commits the segment here, in the parent,
  // before fork. Left to first touch, the forked PEs allocate those pages
  // concurrently inside the timed run; measured on shm_kv4 (4 PEs, Release,
  // 4 cores), setup fell from 0.095 to 0.0001 s but requests/s fell 17-21%
  // and p99 latency rose 16-18% (DESIGN.md §4j).
  std::memset(base_, 0, total_);
  SegmentHeader& h = header();
  h.magic = kSegmentMagic;
  h.npes = static_cast<std::uint32_t>(npes_);
  h.heap_slice_bytes = slice_;
}

Segment::~Segment() {
  if (base_ != nullptr) munmap(base_, total_);
}

PeControl& Segment::pe(int pe) {
  if (pe < 0 || pe >= npes_) {
    throw std::out_of_range("shm segment: PE out of range");
  }
  return *reinterpret_cast<PeControl*>(
      base_ + controls_off_ + static_cast<std::size_t>(pe) * sizeof(PeControl));
}

std::span<std::byte> Segment::heap(int pe) {
  if (pe < 0 || pe >= npes_) {
    throw std::out_of_range("shm segment: PE out of range");
  }
  return {base_ + heaps_off_ + static_cast<std::size_t>(pe) * slice_, slice_};
}

}  // namespace ntbshmem::backend
