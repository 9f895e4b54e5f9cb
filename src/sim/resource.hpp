// Counted FIFO resource (count == 1 gives a fair mutex).
//
// Used for serialized hardware the model must arbitrate: the per-link
// ScratchPad register bank, DMA descriptor slots, bypass staging capacity.
// Fairness is strict FIFO so that the simulation stays deterministic and no
// simulated host can starve another.
#pragma once

#include <cstddef>
#include <deque>
#include <string>

#include "sim/engine.hpp"

namespace ntbshmem::sim {

class Resource {
 public:
  Resource(Engine& engine, std::string name, std::size_t count = 1)
      : engine_(engine), name_(std::move(name)), available_(count),
        capacity_(count) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  // Blocks the calling process until a unit is available (FIFO order).
  void acquire();
  // Non-blocking attempt; returns true on success.
  bool try_acquire();
  // Releases one unit; hands it directly to the longest waiter if any.
  void release();

  std::size_t available() const { return available_; }
  std::size_t capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

  // RAII ownership of one unit.
  class Guard {
   public:
    explicit Guard(Resource& r) : resource_(&r) { r.acquire(); }
    ~Guard() {
      if (resource_ != nullptr) resource_->release();
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard(Guard&& other) noexcept : resource_(other.resource_) {
      other.resource_ = nullptr;
    }

   private:
    Resource* resource_;
  };

 private:
  Engine& engine_;
  std::string name_;
  std::size_t available_;
  std::size_t capacity_;
  std::deque<Process*> waiters_;
};

}  // namespace ntbshmem::sim
