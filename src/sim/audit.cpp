#include "sim/audit.hpp"

namespace ntbshmem::sim {

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
