// Condition-style event for simulated processes.
//
// A process blocks on an Event until another process (or an inline
// callback such as an interrupt-delivery timer) notifies it. Events carry
// no payload; the usual idiom is a predicate loop:
//
//   while (!mailbox.has_work()) mailbox.event.wait();
//
// Determinism: notify_all wakes waiters in FIFO order at the current
// virtual time, preserving the (time, sequence) total order of the engine.
#pragma once

#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace ntbshmem::sim {

class Event {
 public:
  explicit Event(Engine& engine, std::string name = "event")
      : engine_(engine), name_(std::move(name)) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  // Blocks the current process until notified.
  void wait();

  // Wakes every waiter, longest-waiting first. Callable from process or
  // scheduler (callback) context. No-op when nobody waits.
  void notify_all();

  const std::string& name() const { return name_; }
  Engine& engine() const { return engine_; }

 private:
  Engine& engine_;
  std::string name_;
  std::vector<Process*> waiters_;  // FIFO: in the order they blocked
};

}  // namespace ntbshmem::sim
