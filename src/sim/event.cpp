#include "sim/event.hpp"

namespace ntbshmem::sim {

void Event::wait() {
  Process* p = engine_.require_current("Event::wait");
  p->waiting_on_ = this;
  waiters_.push_back(p);
  p->block();
}

void Event::notify_all() {
  // schedule_process only queues, so no waiter runs (or re-waits) while
  // the list is walked.
  for (Process* p : waiters_) {
    p->waiting_on_ = nullptr;
    engine_.schedule_process(engine_.now(), p);
  }
  waiters_.clear();
}

}  // namespace ntbshmem::sim
