// Symmetric heap (paper §III-B2, Fig. 3).
//
// Symmetric data objects live at identical *virtual offsets* on every PE.
// The heap grows in fixed-size chunks allocated on demand from the host's
// memory arena; the chunks are physically scattered but virtually
// concatenated, exactly as the paper describes its mmap-chunk scheme.
// Because shmem_malloc/free are collective and every PE performs the same
// allocation sequence, layouts stay identical across PEs — asserted by
// tests/shmem/symheap_test.cpp.
//
// The allocator is a first-fit free list with coalescing; allocations may
// span chunk boundaries (the virtual space is contiguous), and pieces()
// decomposes a virtual range into the physical (region, offset) fragments a
// transfer must touch.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "host/memory.hpp"

namespace ntbshmem::shmem {

class SymmetricHeap {
 public:
  static constexpr std::uint64_t kDefaultAlign = 64;

  SymmetricHeap(host::MemoryArena& arena, std::uint64_t chunk_bytes,
                std::uint64_t max_bytes);

  // Returns the virtual offset of a new block, or nullopt when the heap
  // cannot grow further (shmem_malloc then returns NULL, per spec).
  std::optional<std::uint64_t> allocate(std::uint64_t size,
                                        std::uint64_t align = kDefaultAlign);

  // Frees a block previously returned by allocate. Throws on a bad offset.
  void free(std::uint64_t offset);

  // Grows/shrinks a block, moving (and copying contents) if needed.
  std::optional<std::uint64_t> reallocate(std::uint64_t offset,
                                          std::uint64_t new_size);

  // Size of the live allocation that starts at `offset`.
  std::uint64_t allocation_size(std::uint64_t offset) const;

  // ---- Address mapping ------------------------------------------------------
  // Local pointer for a virtual offset (the PE's own copy of the object).
  std::byte* ptr(std::uint64_t offset);
  const std::byte* ptr(std::uint64_t offset) const;
  // Reverse mapping: pointer inside any chunk -> virtual offset.
  std::optional<std::uint64_t> offset_of(const void* p) const;

  // Physical fragments covering the virtual range [offset, offset+len).
  struct Piece {
    host::Region region;       // arena region of the chunk
    std::uint64_t region_off;  // start within the region
    std::uint64_t len;
    std::uint64_t virt_off;    // corresponding virtual offset
  };
  std::vector<Piece> pieces(std::uint64_t offset, std::uint64_t len) const;
  // Throws std::out_of_range unless [offset, offset+len) lies inside the
  // heap.
  void check_range(std::uint64_t offset, std::uint64_t len) const;

  // Local bulk access (splits across chunks internally).
  void write(std::uint64_t offset, std::span<const std::byte> src);
  void read(std::uint64_t offset, std::span<std::byte> dst) const;

  // ---- Introspection ---------------------------------------------------------
  std::uint64_t chunk_bytes() const { return chunk_bytes_; }
  std::size_t chunk_count() const { return chunks_.size(); }
  std::uint64_t virtual_size() const {
    return chunk_bytes_ * chunks_.size();
  }
  // Live allocations as sorted (virtual offset, length) pairs — lets the
  // model checker hash exactly the bytes applications can observe, skipping
  // freed regions and unallocated chunk tails.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> allocation_ranges()
      const {
    return {allocations_.begin(), allocations_.end()};
  }

 private:
  bool grow();  // appends one chunk; false when at max_bytes
  std::optional<std::uint64_t> find_fit(std::uint64_t size,
                                        std::uint64_t align) const;
  void take(std::uint64_t offset, std::uint64_t size);
  void insert_free(std::uint64_t offset, std::uint64_t size);

  host::MemoryArena& arena_;
  std::uint64_t chunk_bytes_;
  std::uint64_t max_bytes_;
  std::vector<host::Region> chunks_;
  // offset -> length; both maps keyed by virtual offset.
  std::map<std::uint64_t, std::uint64_t> free_list_;
  std::map<std::uint64_t, std::uint64_t> allocations_;
};

}  // namespace ntbshmem::shmem
