#include "shmem/symheap.hpp"

#include <cstring>
#include <stdexcept>

namespace ntbshmem::shmem {

SymmetricHeap::SymmetricHeap(host::MemoryArena& arena,
                             std::uint64_t chunk_bytes,
                             std::uint64_t max_bytes)
    : arena_(arena), chunk_bytes_(chunk_bytes), max_bytes_(max_bytes) {
  if (chunk_bytes_ == 0 || max_bytes_ < chunk_bytes_) {
    throw std::invalid_argument("SymmetricHeap: bad chunk/max sizes");
  }
}

bool SymmetricHeap::grow() {
  if (virtual_size() + chunk_bytes_ > max_bytes_) return false;
  // Chunks are physically scattered in the arena but appended to the
  // virtual space, so earlier offsets stay stable (paper Fig. 3).
  chunks_.push_back(arena_.allocate(chunk_bytes_, 4096));
  insert_free(virtual_size() - chunk_bytes_, chunk_bytes_);
  return true;
}

void SymmetricHeap::insert_free(std::uint64_t offset, std::uint64_t size) {
  if (size == 0) return;
  auto next = free_list_.lower_bound(offset);
  // Coalesce with the previous block if adjacent.
  if (next != free_list_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      offset = prev->first;
      size += prev->second;
      free_list_.erase(prev);
    }
  }
  // Coalesce with the next block if adjacent.
  if (next != free_list_.end() && offset + size == next->first) {
    size += next->second;
    free_list_.erase(next);
  }
  free_list_[offset] = size;
}

std::optional<std::uint64_t> SymmetricHeap::find_fit(std::uint64_t size,
                                                     std::uint64_t align) const {
  for (const auto& [off, len] : free_list_) {
    const std::uint64_t start = (off + align - 1) & ~(align - 1);
    if (start + size <= off + len) return start;
  }
  return std::nullopt;
}

void SymmetricHeap::take(std::uint64_t offset, std::uint64_t size) {
  // Carve [offset, offset+size) out of the free block containing it.
  auto it = free_list_.upper_bound(offset);
  if (it == free_list_.begin()) throw std::logic_error("take: no free block");
  --it;
  const std::uint64_t block_off = it->first;
  const std::uint64_t block_len = it->second;
  if (offset < block_off || offset + size > block_off + block_len) {
    throw std::logic_error("take: range not inside free block");
  }
  free_list_.erase(it);
  if (offset > block_off) free_list_[block_off] = offset - block_off;
  const std::uint64_t tail = (block_off + block_len) - (offset + size);
  if (tail > 0) free_list_[offset + size] = tail;
}

std::optional<std::uint64_t> SymmetricHeap::allocate(std::uint64_t size,
                                                     std::uint64_t align) {
  if (size == 0) size = 1;  // zero-byte mallocs get a distinct block
  if (align == 0 || (align & (align - 1)) != 0) {
    throw std::invalid_argument("SymmetricHeap: alignment must be power of 2");
  }
  for (;;) {
    if (auto start = find_fit(size, align)) {
      take(*start, size);
      allocations_[*start] = size;
      return start;
    }
    if (!grow()) return std::nullopt;
  }
}

void SymmetricHeap::free(std::uint64_t offset) {
  auto it = allocations_.find(offset);
  if (it == allocations_.end()) {
    throw std::invalid_argument("SymmetricHeap::free: unknown offset " +
                                std::to_string(offset));
  }
  insert_free(it->first, it->second);
  allocations_.erase(it);
}

std::uint64_t SymmetricHeap::allocation_size(std::uint64_t offset) const {
  auto it = allocations_.find(offset);
  if (it == allocations_.end()) {
    throw std::invalid_argument("SymmetricHeap: unknown allocation offset");
  }
  return it->second;
}

std::optional<std::uint64_t> SymmetricHeap::reallocate(std::uint64_t offset,
                                                       std::uint64_t new_size) {
  const std::uint64_t old_size = allocation_size(offset);
  if (new_size <= old_size) return offset;  // shrink in place (keep block)
  auto new_off = allocate(new_size);
  if (!new_off) return std::nullopt;
  // Copy the old contents (may span chunks on both sides).
  std::vector<std::byte> tmp(old_size);
  read(offset, tmp);
  write(*new_off, tmp);
  free(offset);
  return new_off;
}

std::vector<SymmetricHeap::Piece> SymmetricHeap::pieces(
    std::uint64_t offset, std::uint64_t len) const {
  check_range(offset, len);
  std::vector<Piece> out;
  std::uint64_t cur = offset;
  std::uint64_t left = len;
  while (left > 0) {
    const std::uint64_t chunk_idx = cur / chunk_bytes_;
    const std::uint64_t intra = cur % chunk_bytes_;
    const std::uint64_t n = std::min(left, chunk_bytes_ - intra);
    out.push_back(Piece{chunks_[chunk_idx], intra, n, cur});
    cur += n;
    left -= n;
  }
  return out;
}

void SymmetricHeap::check_range(std::uint64_t offset,
                                std::uint64_t len) const {
  if (offset > virtual_size() || len > virtual_size() - offset) {
    throw std::out_of_range("SymmetricHeap: range beyond heap end");
  }
}

std::byte* SymmetricHeap::ptr(std::uint64_t offset) {
  if (offset >= virtual_size()) {
    throw std::out_of_range("SymmetricHeap: offset beyond heap end");
  }
  const std::uint64_t chunk_idx = offset / chunk_bytes_;
  const std::uint64_t intra = offset % chunk_bytes_;
  return arena_.bytes(chunks_[chunk_idx], intra, 1).data();
}

const std::byte* SymmetricHeap::ptr(std::uint64_t offset) const {
  return const_cast<SymmetricHeap*>(this)->ptr(offset);
}

std::optional<std::uint64_t> SymmetricHeap::offset_of(const void* p) const {
  const auto* bp = static_cast<const std::byte*>(p);
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const auto span =
        const_cast<host::MemoryArena&>(arena_).bytes(chunks_[i]);
    if (bp >= span.data() && bp < span.data() + span.size()) {
      return static_cast<std::uint64_t>(i) * chunk_bytes_ +
             static_cast<std::uint64_t>(bp - span.data());
    }
  }
  return std::nullopt;
}

void SymmetricHeap::write(std::uint64_t offset, std::span<const std::byte> src) {
  std::uint64_t done = 0;
  for (const Piece& piece : pieces(offset, src.size())) {
    auto dst = arena_.bytes(piece.region, piece.region_off, piece.len);
    std::memcpy(dst.data(), src.data() + done, piece.len);
    done += piece.len;
  }
}

void SymmetricHeap::read(std::uint64_t offset, std::span<std::byte> dst) const {
  std::uint64_t done = 0;
  for (const Piece& piece : pieces(offset, dst.size())) {
    auto src = const_cast<host::MemoryArena&>(arena_).bytes(
        piece.region, piece.region_off, piece.len);
    std::memcpy(dst.data() + done, src.data(), piece.len);
    done += piece.len;
  }
}

}  // namespace ntbshmem::shmem
