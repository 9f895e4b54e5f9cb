// Cooperative discrete-event engine with fiber-backed processes.
//
// Each simulated actor (an OpenSHMEM PE, an NTB service thread, a DMA
// engine) is a `Process`: a cooperative execution context the engine
// serializes so that exactly one process runs at a time and the virtual
// clock only advances between process steps. This gives us:
//
//   * blocking APIs with the same shape as the real OpenSHMEM library
//     (shmem_getmem blocks its calling PE),
//   * deterministic execution: the run queue dispatches in (time, sequence)
//     order, so identical workloads produce identical schedules, and
//   * zero wall-clock dependence: the virtual clock is driven purely by the
//     timing model.
//
// Processes are stackful ucontext fibers with guard-paged stacks
// (sim/fiber.hpp), all on the engine's one OS thread. A process switch is
// one user-space context swap, so the engine scales to thousands of
// processes (1024-host fabric sweeps; bench_sim_engine). The run queue is
// one binary min-heap on (time, seq); seq is unique, so the order is total.
//
// The engine also supports inline callbacks (`call_at`/`call_after`) that
// run in scheduler context without a context switch — used for interrupt
// delivery, DMA completion and bandwidth-resource bookkeeping. Callback
// state is pooled: the hot path (a DMA completion timer re-armed per
// segment) recycles a slot instead of heap-allocating per callback.
//
// Thread-safety: none needed. All processes are serialized by
// construction; engine state is only ever touched by the single active
// context.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/audit.hpp"
#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace ntbshmem::obs {
struct Hub;
}  // namespace ntbshmem::obs

namespace ntbshmem::sim {

class BranchHook;
class Engine;
class FaultPlan;
class FlowTimers;

// Thrown (once) inside a process when the engine shuts down while the
// process is still blocked; unwinds the process stack so RAII cleanup runs.
struct ProcessKilled {};

// Raised by Engine::run() when no timed work remains but non-daemon
// processes are still blocked on events — i.e. the simulation can never
// make progress again.
class SimDeadlock : public std::runtime_error {
 public:
  explicit SimDeadlock(const std::string& what) : std::runtime_error(what) {}
};

class Process {
 public:
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  bool finished() const { return finished_; }
  bool daemon() const { return daemon_; }
  Engine& engine() const { return engine_; }

  // Opaque process-local binding slot for upper layers (the SHMEM runtime
  // parks its per-PE Context here). Process-local, NOT thread-local: every
  // process shares the engine's OS thread, so identity that must follow a
  // process across blocks has to live on the Process itself.
  void set_user_binding(void* b) { user_binding_ = b; }
  void* user_binding() const { return user_binding_; }

  // Current-cause slot: the causal span (an obs::CausalRecorder id; 0 =
  // none) whatever this process is doing right now was caused by. Kept
  // per process for the same reason as the user binding: co-resident PEs
  // and a host's service daemons interleave on one transport, and each of
  // them has its own cause.
  void set_cause(std::uint64_t span) { cause_ = span; }
  std::uint64_t cause() const { return cause_; }

 private:
  friend class Engine;

  Process(Engine& engine, std::string name, std::function<void()> body,
          bool daemon);

  // Yields control back to the scheduler; returns when rescheduled.
  void block();
  // Runs the body with the shared exception protocol, then does the
  // finished-process accounting.
  void run_body_and_finish();
  void mark_finished();
  // Fiber entry point; reads the process to start from the engine's
  // current-process binding (set by Engine::resume before the switch).
  static void fiber_trampoline();

  Engine& engine_;
  std::string name_;
  std::function<void()> body_;  // consumed on start; empty afterwards
  bool daemon_;
  bool finished_ = false;
  bool started_ = false;
  bool killed_ = false;
  // std::uncaught_exceptions() when shutdown killed the process: block()
  // raises ProcessKilled only at this count, and a count above it means
  // the process's own stack is unwinding.
  int kill_base_ = 0;
  // Incremented every time the process is actually resumed; queue entries
  // carry the epoch they were created under so a stale entry (a second
  // wake-up queued for a process that already resumed) is skipped.
  std::uint64_t epoch_ = 0;
  // Name of what the process is blocked on (an Event, a transfer stage):
  // deadlock diagnostics and state_hash.
  const std::string* waiting_on_ = nullptr;
  // Created lazily on first resume (a process killed before it ever ran
  // needs no stack); stack released eagerly on finish.
  std::unique_ptr<Fiber> fiber_;
  void* user_binding_ = nullptr;  // see set_user_binding()
  std::uint64_t cause_ = 0;       // see set_cause()
};

// The process currently executing on the calling OS thread, or nullptr in
// scheduler/callback context: the binding is set just before a process runs
// and cleared when it yields.
Process* current_process() noexcept;

// Handle for a scheduled inline callback; cancel() is idempotent and safe
// after the callback has fired. The handle indexes the engine's pooled
// slot table with a generation tag, so it must not outlive the engine
// (every current holder — bandwidth timers, transport retransmit timers —
// already lives inside the engine's lifetime).
class CallbackHandle {
 public:
  CallbackHandle() = default;
  void cancel();
  bool valid() const { return engine_ != nullptr; }

 private:
  friend class Engine;
  CallbackHandle(Engine* engine, std::uint32_t slot, std::uint64_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  // Creates a process; it is scheduled to start at the current time.
  // Daemon processes (service threads) do not keep run() alive.
  Process& spawn(std::string name, std::function<void()> body,
                 bool daemon = false);

  // Runs until every non-daemon process has finished. Throws SimDeadlock if
  // progress becomes impossible; rethrows the first exception escaping any
  // process body. May be called repeatedly (daemons persist between runs).
  void run();

  // Schedules `fn` to run in scheduler context at time `t` (>= now).
  CallbackHandle call_at(Time t, std::function<void()> fn);
  CallbackHandle call_after(Dur d, std::function<void()> fn);

  // ---- Process-context operations (must run inside a spawned process) ----
  // Timed waits. When the wake-up would be the very next dispatch anyway
  // (no branch hook, the process is not being killed, and nothing is queued
  // at or before `t`), the process continues in place: seq, clock,
  // dispatch count, digest and epoch advance exactly as a resume would,
  // without the queue round trip or the two fiber switches.
  void wait_until(Time t);
  void wait_for(Dur d);
  // Reschedules the current process at the current time, after everything
  // already queued for this instant.
  void yield();

  // The process currently executing on this engine (nullptr in scheduler
  // context / outside the simulation).
  Process* current() const {
    Process* p = current_process();
    return p != nullptr && &p->engine() == this ? p : nullptr;
  }

  // Number of processes that have been spawned but not finished. O(1):
  // maintained at spawn/finish, consulted by deadlock diagnostics and
  // tests.
  std::size_t live_processes() const { return live_count_; }

  // Total queue items actually dispatched (processes resumed + callbacks
  // fired; stale wake-ups and cancelled callbacks excluded — the same
  // stream the schedule digest folds). Drives events/sec in
  // bench_sim_engine.
  std::uint64_t dispatch_count() const { return dispatch_count_; }

  // Usable stack size for this engine's fibers (NTBSHMEM_FIBER_STACK_KiB,
  // read once at construction).
  std::size_t fiber_stack_bytes() const { return fiber_stack_bytes_; }

  // ---- Allocation accounting ------------------------------------------------
  // The callback pool's whole point: slots_created stays O(peak
  // concurrency) while callbacks_scheduled grows with the workload. The
  // old implementation heap-allocated once per scheduled callback.
  struct AllocStats {
    std::uint64_t callback_slots_created = 0;
    std::uint64_t callbacks_scheduled = 0;
  };
  const AllocStats& alloc_stats() const { return alloc_stats_; }

  // ---- Fault injection ------------------------------------------------------
  // Attaches a fault plan that hardware models consult at their injection
  // sites (nullptr detaches). The engine does not own the plan; it must
  // outlive the simulation. No plan attached (or an all-zero plan) means
  // every site is a no-op.
  void attach_faults(FaultPlan* plan) { faults_ = plan; }
  FaultPlan* faults() const { return faults_; }

  // ---- Observability --------------------------------------------------------
  // Attaches the tracing/metrics hub that components consult at construction
  // (nullptr detaches). Like the fault plan, the hub is not owned and must
  // outlive the simulation; no hub attached means components fall back to
  // the shared null instruments — the zero-cost path.
  void attach_obs(obs::Hub* hub) { obs_ = hub; }
  obs::Hub* obs() const { return obs_; }

  // ---- Schedule auditing ----------------------------------------------------
  // Opt-in FNV digest of the dispatched (time, seq, kind) event stream; see
  // sim/audit.hpp. Enabling resets the accumulator. Zero-cost when off.
  void enable_schedule_digest() {
    digest_enabled_ = true;
    digest_.reset();
  }
  bool schedule_digest_enabled() const { return digest_enabled_; }
  const ScheduleDigest& schedule_digest() const { return digest_; }

  // ---- Exploration and schedule fuzzing (sim/branch.hpp, tools/mck) --------
  // Installs a branch hook that picks among same-timestamp runnable queue
  // items instead of the seq FIFO order (nullptr detaches — the default,
  // zero-cost path). With a hook installed the dispatcher collects the
  // whole same-timestamp runnable frontier before each dispatch and asks
  // the hook to choose; a hook that always returns 0 reproduces the unhooked
  // schedule exactly (same dispatch order, same digests). A seeded random
  // hook is the schedule fuzzer: SHMEM-visible state must not move under it
  // (DESIGN.md §4d). The hook is not owned and must outlive the run.
  void set_branch_hook(BranchHook* hook) { hook_ = hook; }

  // Order-insensitive FNV hash of the engine's schedulable state: every
  // non-stale queue item folded as (t - now, kind, process name) with a
  // commutative combine (so the heap's physical layout, which depends on
  // push history, cannot leak in), plus each live process's (name, started,
  // name of what it waits on).
  // Path-dependent counters (seq, epoch, dispatch_count) are deliberately
  // excluded so that two interleavings reaching the same logical state
  // collide — that collision is exactly what lets the model checker prune
  // revisits. Used by mck together with the transport/heap hashes.
  std::uint64_t state_hash() const;

  // Kills every unfinished process (ProcessKilled unwinds each stack so
  // RAII cleanup runs). Idempotent; invoked by the destructor, public so
  // owners can tear processes down while their captured state still lives.
  void shutdown();

  // ---- Low-level primitives for building synchronization objects ----------
  // (used by Event/Resource/BandwidthResource; not for application code)

  // Returns the current process, throwing std::logic_error (naming `op`)
  // when called outside a process of this engine.
  Process* require_current(const char* op) const;
  // Enqueues a wake-up for `p` at time `t` tagged with its current epoch.
  // The wake-up is ignored if `p` is resumed by other means first.
  void schedule_process(Time t, Process* p);
  // Parks `p` (must be the current process) until schedule_process resumes
  // it — the building block for custom blocking primitives. `waiting_on`
  // names what it waits on (deadlock reports, state_hash) until wake().
  void block_current(Process* p, const std::string* waiting_on = nullptr) {
    p->waiting_on_ = waiting_on;
    p->block();
  }
  // Clears `p`'s waiting_on name and queues its wake-up at now().
  void wake(Process* p) {
    p->waiting_on_ = nullptr;
    schedule_process(now_, p);
  }
  // The seq the next queue push or in-place continuation takes. Two pushes
  // with nothing in between hold consecutive keys (FlowTimers).
  std::uint64_t next_seq() const { return next_seq_; }
  // The completion timers shared by this engine's BandwidthResources
  // (sim/bandwidth.hpp), created on first use.
  FlowTimers& flow_timers();

 private:
  friend class Process;
  friend class CallbackHandle;

  struct QueueItem {
    Time t;
    std::uint64_t seq;  // unique: same-time entries dispatch FIFO
    // nullptr means the entry is a pooled callback (cb_slot below).
    Process* process = nullptr;
    // Process epoch when process != nullptr; callback slot generation
    // otherwise — either way, a staleness tag checked at dispatch.
    std::uint64_t epoch_or_gen = 0;
    std::uint32_t cb_slot = 0;
  };
  // "a dispatches after b": std::push_heap/pop_heap with this comparator
  // keep the (t, seq) minimum at queue_.front().
  struct QueueCmp {
    bool operator()(const QueueItem& a, const QueueItem& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  void push(const QueueItem& item);
  QueueItem pop_min();

  // Pooled storage behind call_at; see CallbackHandle. `gen` bumps when the
  // slot is recycled, so stale handles and queue entries are no-ops.
  struct CallbackSlot {
    std::function<void()> fn;
    std::uint64_t gen = 0;
    bool cancelled = false;
  };
  std::uint32_t acquire_slot();
  void retire_slot(std::uint32_t slot);
  void cancel_callback(std::uint32_t slot, std::uint64_t gen);

  // Transfers control to `p` and waits until it yields back.
  void resume(Process* p);
  [[noreturn]] void throw_deadlock();

  // True when the item can no longer dispatch (recycled/cancelled callback
  // slot, finished process, stale epoch). Retires cancelled callback slots
  // as a side effect, exactly like the old inline dispatch loop did.
  bool item_stale(const QueueItem& item);
  // Pops queue items until a non-stale one is found; false when drained.
  bool pop_runnable(QueueItem* out);
  // The dispatcher front end: without a hook, pop_runnable; with a hook,
  // collect the same-timestamp runnable frontier, let the hook choose, and
  // re-queue the rest with their original keys.
  bool next_dispatch(QueueItem* out);

  std::size_t fiber_stack_bytes_;
  // The scheduler side of every fiber switch: the engine thread's own
  // context.
  Fiber sched_fiber_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatch_count_ = 0;
  std::vector<QueueItem> queue_;  // binary min-heap under QueueCmp
  std::vector<std::unique_ptr<Process>> processes_;
  std::size_t live_nondaemon_ = 0;
  std::size_t live_count_ = 0;
  // std::deque: references stay valid while slots are appended mid-run.
  std::deque<CallbackSlot> cb_slots_;
  std::vector<std::uint32_t> cb_free_;
  AllocStats alloc_stats_;
  BranchHook* hook_ = nullptr;
  FaultPlan* faults_ = nullptr;
  obs::Hub* obs_ = nullptr;
  std::exception_ptr first_error_;
  bool digest_enabled_ = false;
  ScheduleDigest digest_;
  std::unique_ptr<FlowTimers> flow_timers_;
};

}  // namespace ntbshmem::sim
