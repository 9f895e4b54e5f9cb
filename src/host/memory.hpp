// Per-host physical memory arena.
//
// Each simulated host owns a flat byte arena standing in for its DRAM.
// Regions are carved out for the symmetric heap chunks, bypass buffers and
// scratch areas; NTB BAR windows translate into (host, region, offset)
// targets, mirroring the BAR/translation-register scheme of Fig. 1.
//
// An owned arena is one anonymous private mapping that the kernel commits
// page by page on first touch: a host pays only for the pages a run
// writes, and untouched pages read as zero. A PROT_NONE guard page follows
// the last page, so a write that escapes the bounds checks past the end
// faults in every build (DESIGN.md §4f).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

namespace ntbshmem::host {

// A carved-out slice of a host's arena. Plain value type; the arena owns
// the storage.
struct Region {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  bool valid() const { return size > 0; }
};

class OutOfMemory : public std::runtime_error {
 public:
  explicit OutOfMemory(const std::string& what) : std::runtime_error(what) {}
};

class MemoryArena {
 public:
  // Reserves `capacity_bytes` of zero pages. Throws OutOfMemory, naming the
  // arena and the size, when the mapping cannot be made.
  explicit MemoryArena(std::uint64_t capacity_bytes, std::string name = "ram");

  // View mode: the arena carves regions out of externally owned storage
  // instead of allocating its own — how the shm backend places each PE's
  // symmetric heap inside the mmap'ed segment (DESIGN.md §4j). The view
  // must outlive the arena; the arena never frees or grows it.
  explicit MemoryArena(std::span<std::byte> view, std::string name = "view");
  ~MemoryArena();
  // The arena owns its mapping: no copies, no moves.
  MemoryArena(const MemoryArena&) = delete;
  MemoryArena& operator=(const MemoryArena&) = delete;

  // Bump-allocates `size` bytes at `align` alignment. Throws OutOfMemory.
  Region allocate(std::uint64_t size, std::uint64_t align = 64);

  std::uint64_t capacity() const { return mem_.size(); }
  std::uint64_t used() const { return next_; }

  // Raw access to a region's bytes (bounds-checked).
  std::span<std::byte> bytes(const Region& region);
  std::span<const std::byte> bytes(const Region& region) const;
  // Sub-span at (region, offset, len).
  std::span<std::byte> bytes(const Region& region, std::uint64_t offset,
                             std::uint64_t len);
  std::span<const std::byte> bytes(const Region& region, std::uint64_t offset,
                                   std::uint64_t len) const;

 private:
  void check(const Region& region, std::uint64_t offset,
             std::uint64_t len) const;

  std::string name_;
  void* map_base_ = nullptr;    // owned mode only (view mode: null)
  std::size_t map_bytes_ = 0;   // whole pages, guard page included
  std::span<std::byte> mem_;    // the mapping's head (owned) or the view
  std::uint64_t next_ = 0;
};

}  // namespace ntbshmem::host
