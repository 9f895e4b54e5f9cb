#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/fnv.hpp"
#include "sim/bandwidth.hpp"
#include "sim/branch.hpp"

namespace ntbshmem::sim {

namespace {
// The process currently executing on this OS thread: maintained across
// every switch on the engine thread, and doubles as the argument channel
// into a fresh fiber's trampoline, which ucontext cannot pass parameters to.
// detlint:allow(no-mutable-static): per-OS-thread identity binding for the serialized process model; set/cleared on every handoff, never carries state across runs
thread_local Process* t_current_process = nullptr;
}  // namespace

Process* current_process() noexcept { return t_current_process; }

// ---- Process ---------------------------------------------------------------

Process::Process(Engine& engine, std::string name, std::function<void()> body,
                 bool daemon)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)),
      daemon_(daemon) {}

void Process::run_body_and_finish() {
  if (!killed_) {
    try {
      body_();
    } catch (const ProcessKilled&) {
      // Normal shutdown path: unwound cleanly.
    } catch (...) {
      if (!engine_.first_error_) {
        engine_.first_error_ = std::current_exception();
      }
    }
  }
  mark_finished();
}

void Process::mark_finished() {
  finished_ = true;
  body_ = nullptr;  // release captures promptly — engines run many processes
  if (!daemon_) {
    assert(engine_.live_nondaemon_ > 0);
    engine_.live_nondaemon_--;
  }
  assert(engine_.live_count_ > 0);
  engine_.live_count_--;
}

void Process::fiber_trampoline() {
  Process* p = t_current_process;  // stashed by Engine::resume pre-switch
  Fiber::on_entry(*p->fiber_);
  p->run_body_and_finish();
  p->fiber_->set_exiting();
  Fiber::switch_to(*p->fiber_, p->engine_.sched_fiber_);
  std::abort();  // a dead fiber can never be resumed
}

void Process::block() {
  if (killed_) {
    // Shutdown already reached this process. If we are unwinding (a
    // destructor called back into the engine while ProcessKilled is in
    // flight), silently return so cleanup can finish; otherwise raise.
    if (std::uncaught_exceptions() == kill_base_) throw ProcessKilled{};
    return;
  }
  Fiber::switch_to(*fiber_, engine_.sched_fiber_);
  epoch_++;  // consume: any still-queued wake-up for the old epoch is stale
  if (killed_ && std::uncaught_exceptions() == kill_base_) {
    throw ProcessKilled{};
  }
}

// ---- CallbackHandle --------------------------------------------------------

void CallbackHandle::cancel() {
  if (engine_ != nullptr) engine_->cancel_callback(slot_, gen_);
}

// ---- Engine ----------------------------------------------------------------

Engine::Engine() : fiber_stack_bytes_(Fiber::default_stack_bytes()) {}

Engine::~Engine() { shutdown(); }

FlowTimers& Engine::flow_timers() {
  if (!flow_timers_) flow_timers_ = std::make_unique<FlowTimers>(*this);
  return *flow_timers_;
}

Process& Engine::spawn(std::string name, std::function<void()> body,
                       bool daemon) {
  auto proc = std::unique_ptr<Process>(
      new Process(*this, std::move(name), std::move(body), daemon));
  Process* p = proc.get();
  processes_.push_back(std::move(proc));
  if (!daemon) live_nondaemon_++;
  live_count_++;
  // First resume happens through the normal queue so spawn order == start
  // order at equal times.
  push(QueueItem{now_, next_seq_++, p, p->epoch_, 0});
  return *p;
}

void Engine::push(const QueueItem& item) {
  queue_.push_back(item);
  std::push_heap(queue_.begin(), queue_.end(), QueueCmp{});
}

Engine::QueueItem Engine::pop_min() {
  std::pop_heap(queue_.begin(), queue_.end(), QueueCmp{});
  const QueueItem item = queue_.back();
  queue_.pop_back();
  return item;
}

std::uint32_t Engine::acquire_slot() {
  if (!cb_free_.empty()) {
    const std::uint32_t slot = cb_free_.back();
    cb_free_.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(cb_slots_.size());
  cb_slots_.emplace_back();
  alloc_stats_.callback_slots_created++;
  return slot;
}

void Engine::retire_slot(std::uint32_t slot) {
  CallbackSlot& s = cb_slots_[slot];
  s.fn = nullptr;
  s.cancelled = false;
  s.gen++;  // any outstanding handle or queue entry is now stale
  cb_free_.push_back(slot);
}

void Engine::cancel_callback(std::uint32_t slot, std::uint64_t gen) {
  if (slot >= cb_slots_.size()) return;
  CallbackSlot& s = cb_slots_[slot];
  if (s.gen != gen) return;  // already fired or recycled — idempotent no-op
  s.cancelled = true;
}

CallbackHandle Engine::call_at(Time t, std::function<void()> fn) {
  if (t < now_) t = now_;
  const std::uint32_t slot = acquire_slot();
  CallbackSlot& s = cb_slots_[slot];
  s.fn = std::move(fn);
  s.cancelled = false;
  alloc_stats_.callbacks_scheduled++;
  push(QueueItem{t, next_seq_++, nullptr, s.gen, slot});
  return CallbackHandle(this, slot, s.gen);
}

CallbackHandle Engine::call_after(Dur d, std::function<void()> fn) {
  return call_at(now_ + d, std::move(fn));
}

void Engine::schedule_process(Time t, Process* p) {
  if (t < now_) t = now_;
  push(QueueItem{t, next_seq_++, p, p->epoch_, 0});
}

void Engine::resume(Process* p) {
  t_current_process = p;
  if (!p->started_) {
    p->started_ = true;
    p->fiber_ = std::make_unique<Fiber>(&Process::fiber_trampoline,
                                        fiber_stack_bytes_);
  }
  Fiber::switch_to(sched_fiber_, *p->fiber_);
  t_current_process = nullptr;
  // Release the stack (and TSan handle) as soon as a process ends, not at
  // engine teardown — scale runs retire thousands of processes.
  if (p->finished_ && p->fiber_) p->fiber_->release_dead();
}

bool Engine::item_stale(const QueueItem& item) {
  if (item.process == nullptr) {
    CallbackSlot& s = cb_slots_[item.cb_slot];
    if (s.gen != item.epoch_or_gen) return true;  // slot already recycled
    if (s.cancelled) {
      retire_slot(item.cb_slot);
      return true;
    }
    return false;
  }
  return item.process->finished() || item.epoch_or_gen != item.process->epoch_;
}

bool Engine::pop_runnable(QueueItem* out) {
  while (!queue_.empty()) {
    QueueItem item = pop_min();
    assert(item.t >= now_);
    if (item_stale(item)) continue;
    *out = item;
    return true;
  }
  return false;
}

bool Engine::next_dispatch(QueueItem* out) {
  if (hook_ == nullptr) return pop_runnable(out);
  QueueItem first;
  if (!pop_runnable(&first)) return false;
  // Collect every runnable item queued for the same instant. Items are
  // popped in (t, seq) order, so frontier index 0 is exactly what the
  // unhooked dispatcher would run next.
  std::vector<QueueItem> frontier;
  frontier.push_back(first);
  while (!queue_.empty()) {
    QueueItem item = pop_min();
    if (item_stale(item)) continue;
    if (item.t != first.t) {
      push(item);  // overshot into the next instant
      break;
    }
    frontier.push_back(item);
  }
  std::size_t pick = 0;
  if (frontier.size() > 1) {
    pick = hook_->choose_dispatch(frontier.size());
    if (pick >= frontier.size()) {
      throw std::logic_error("BranchHook::choose_dispatch returned " +
                             std::to_string(pick) + " for a frontier of " +
                             std::to_string(frontier.size()));
    }
  }
  // Non-chosen items go back with their ORIGINAL (t, seq) keys: the
  // residual frontier keeps its relative order and is re-offered on the
  // next dispatch.
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    if (i != pick) push(frontier[i]);
  }
  *out = frontier[pick];
  return true;
}

void Engine::run() {
  if (current() != nullptr) {
    throw std::logic_error("Engine::run() called from inside a process");
  }
  while (live_nondaemon_ > 0) {
    QueueItem item;
    if (!next_dispatch(&item)) throw_deadlock();
    if (item.process == nullptr) {
      CallbackSlot& s = cb_slots_[item.cb_slot];
      now_ = item.t;
      dispatch_count_++;
      if (digest_enabled_) digest_.mix(now_, item.seq, DispatchKind::kCallback);
      // Move out and retire before invoking: the callback may itself
      // schedule (and thus reuse) slots.
      std::function<void()> fn = std::move(s.fn);
      retire_slot(item.cb_slot);
      fn();
      continue;
    }
    Process* p = item.process;
    now_ = item.t;
    dispatch_count_++;
    if (digest_enabled_) digest_.mix(now_, item.seq, DispatchKind::kProcess);
    resume(p);
    if (first_error_) {
      auto err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
}

namespace {

std::uint64_t fnv_mix_str(std::uint64_t h, const std::string& s) {
  // Terminator byte: "ab"+"c" != "a"+"bc".
  return fnv::fold(fnv::fold_bytes(h, s), 0xff);
}

}  // namespace

std::uint64_t Engine::state_hash() const {
  // Per-item hashes are folded with XOR *and* ADD: both are commutative
  // (the heap's physical layout must not matter), and the pair is
  // far harder to cancel than XOR alone (two identical items XOR to zero
  // but still sum). Times are hashed relative to now_ so the same pending
  // work at a different absolute time still collides — the checker prunes
  // on logical state, not wall position.
  std::uint64_t xored = 0;
  std::uint64_t summed = 0;
  std::uint64_t items = 0;
  for (const QueueItem& item : queue_) {
    if (item.process == nullptr) {
      const CallbackSlot& s = cb_slots_[item.cb_slot];
      if (s.gen != item.epoch_or_gen || s.cancelled) continue;  // stale
    } else if (item.process->finished() ||
               item.epoch_or_gen != item.process->epoch_) {
      continue;  // stale
    }
    std::uint64_t h = fnv::kOffset;
    h = fnv::fold_u64(h, static_cast<std::uint64_t>(item.t - now_));
    h = fnv::fold_u64(h, item.process == nullptr ? 1u : 2u);
    if (item.process != nullptr) h = fnv_mix_str(h, item.process->name());
    xored ^= h;
    summed += h;
    ++items;
  }
  std::uint64_t acc = fnv::kOffset;
  acc = fnv::fold_u64(acc, xored);
  acc = fnv::fold_u64(acc, summed);
  acc = fnv::fold_u64(acc, items);
  // Process control state, in spawn order (deterministic across replays of
  // the same workload). Epochs and seq counters are excluded on purpose.
  for (const auto& p : processes_) {
    std::uint64_t h = fnv::kOffset;
    h = fnv_mix_str(h, p->name_);
    h = fnv::fold_u64(h, (p->started_ ? 1u : 0u) | (p->finished_ ? 2u : 0u) |
                            (p->daemon_ ? 4u : 0u));
    if (p->waiting_on_ != nullptr) h = fnv_mix_str(h, *p->waiting_on_);
    acc = fnv::fold_u64(acc, h);
  }
  return acc;
}

void Engine::throw_deadlock() {
  std::ostringstream oss;
  oss << "simulation deadlock at t=" << now_ << "ns; blocked processes:";
  for (const auto& p : processes_) {
    if (p->finished() || p->daemon()) continue;
    oss << " [" << p->name();
    if (p->waiting_on_ != nullptr) oss << " waiting on " << *p->waiting_on_;
    oss << "]";
  }
  throw SimDeadlock(oss.str());
}

void Engine::wait_until(Time t) {
  Process* p = require_current("wait_until");
  if (t < now_) t = now_;
  // An entry at t itself holds a smaller seq and dispatches first. The
  // front may be stale; then the wait takes the queue like any other.
  if (hook_ == nullptr && !p->killed_ &&
      (queue_.empty() || queue_.front().t > t)) {
    const std::uint64_t seq = next_seq_++;
    now_ = t;
    dispatch_count_++;
    if (digest_enabled_) digest_.mix(now_, seq, DispatchKind::kProcess);
    p->epoch_++;  // as block() does on resume
    return;
  }
  schedule_process(t, p);
  p->block();
}

void Engine::wait_for(Dur d) { wait_until(now_ + d); }

void Engine::yield() {
  Process* p = require_current("yield");
  schedule_process(now_, p);
  p->block();
}

Process* Engine::require_current(const char* op) const {
  Process* p = current();
  if (p == nullptr) {
    throw std::logic_error(std::string("Engine::") + op +
                           " called outside a process of this engine");
  }
  return p;
}

void Engine::shutdown() {
  // Kill every unfinished process: mark, resume, let ProcessKilled unwind
  // its stack so RAII cleanup runs; the process finishes for good.
  for (auto& p : processes_) {
    if (p->finished()) continue;
    p->killed_ = true;
    // The exception count is per OS thread, shared by every fiber: an
    // exception unwinding the caller (an owner destroyed during a throw)
    // already counts here and is no sign of the process's own unwinding.
    p->kill_base_ = std::uncaught_exceptions();
    if (!p->started_) {
      // Never entered its fiber — nothing to unwind, no stack was built.
      p->mark_finished();
    } else {
      resume(p.get());
    }
    assert(p->finished());
  }
  // Fiber stacks were released as each process finished.
}

}  // namespace ntbshmem::sim
