#include "sim/audit.hpp"

namespace ntbshmem::sim {

std::uint64_t splitmix64_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void ScheduleDigest::reset() {
  hash_ = fnv::kOffset;
  count_ = 0;
}

void ScheduleDigest::mix(Time t, std::uint64_t seq, DispatchKind kind) {
  hash_ = fnv::fold_u64(hash_, static_cast<std::uint64_t>(t));
  hash_ = fnv::fold_u64(hash_, seq);
  hash_ = fnv::fold(hash_, static_cast<std::uint8_t>(kind));
  ++count_;
}

}  // namespace ntbshmem::sim
