#include "obs/trace.hpp"

namespace ntbshmem::obs {

TrackId Tracer::track(std::string_view process, std::string_view name) {
  // The key joins the pair with a separator that cannot appear in component
  // names (unit separator); interning the key gives a stable dense TrackId.
  std::string key;
  key.reserve(process.size() + 1 + name.size());
  key.append(process);
  key.push_back('\x1f');
  key.append(name);
  const TrackId id = track_keys_.id(key);
  if (static_cast<std::size_t>(id) == tracks_.size()) {
    Track t;
    t.process.assign(process);
    t.name.assign(name);
    tracks_.push_back(std::move(t));
  }
  return id;
}

void Tracer::instant_detail(TrackId track, CategoryId cat, EventId ev,
                            sim::Time t, std::string detail) {
  if (!enabled_) return;
  const auto idx = static_cast<std::uint32_t>(details_.size());
  details_.push_back(std::move(detail));
  push(track, {t, RecordKind::kInstant, cat, ev, 0, 0.0, idx});
}

void Tracer::push(TrackId track, TraceRecord rec) {
  tracks_.at(static_cast<std::size_t>(track)).records.push_back(rec);
}

std::size_t Tracer::total_records() const {
  std::size_t n = 0;
  for (const auto& tr : tracks_) n += tr.records.size();
  return n;
}

}  // namespace ntbshmem::obs
