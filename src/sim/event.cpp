#include "sim/event.hpp"

namespace ntbshmem::sim {

void Event::wait() {
  Process* p = engine_.require_current("Event::wait");
  waiters_.push_back(p);
  engine_.block_current(p, &name_);
}

void Event::notify_all() {
  // wake only queues, so no waiter runs (or re-waits) while the list is
  // walked.
  for (Process* p : waiters_) engine_.wake(p);
  waiters_.clear();
}

}  // namespace ntbshmem::sim
