// Stackful fibers for the discrete-event engine.
//
// A Fiber is a user-space execution context: its own guard-paged stack plus
// saved registers. The engine backs every simulated Process with one, so a
// process step costs a user-space context swap instead of the two
// kernel-mediated semaphore round-trips of an OS-thread-per-process engine.
// There is deliberately no scheduling here — the engine decides who runs;
// Fiber only implements the mechanics.
//
// Switch mechanics: on x86-64 the hot switch is a hand-rolled swap of the
// System-V callee-saved registers plus the FP control words (~30 ns).
// glibc's swapcontext would also save/restore the signal mask, a
// rt_sigprocmask(2) round-trip per switch that dominates an engine dispatch
// (~0.3 us each way — measured, it was the whole hot path). The
// simulation never touches per-fiber signal masks, so nothing is lost.
// Other architectures fall back to ucontext swapcontext, correct but slow.
//
// Stacks are mmap'd with a PROT_NONE guard page at the low (growth) end,
// so runaway recursion faults immediately instead of corrupting a
// neighbouring fiber's stack. The usable size defaults to 256 KiB and is
// tunable via NTBSHMEM_FIBER_STACK_KiB (read once per Engine).
//
// Sanitizer integration: under -fsanitize=thread every switch is announced
// with __tsan_switch_to_fiber so TSan tracks the fiber's happens-before
// state instead of flagging the stack swap; under -fsanitize=address the
// __sanitizer_{start,finish}_switch_fiber pair keeps ASan's fake-stack and
// stack-bounds bookkeeping coherent across swaps. Both compile to nothing
// in plain builds.
#pragma once

#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)
#define NTBSHMEM_FIBER_FAST_SWITCH 1
#else
#include <ucontext.h>
#endif

namespace ntbshmem::sim {

class Fiber {
 public:
  // Plain function pointer so makecontext needs no argument marshalling;
  // the caller smuggles context through thread-local state (the engine uses
  // its existing current-process binding).
  using Entry = void (*)();

  // Adopts the calling OS thread's native context as a fiber (the
  // scheduler side of every switch). Allocates no stack.
  Fiber();

  // Creates a suspended fiber that runs `entry` on its own guard-paged
  // stack of `stack_bytes` usable bytes (rounded up to whole pages) when
  // first switched to. `entry` must never return: it must end by switching
  // away after set_exiting().
  Fiber(Entry entry, std::size_t stack_bytes);

  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Transfers control from `from` (which must be the running fiber) to
  // `to`. Returns when another switch_to() targets `from` again.
  static void switch_to(Fiber& from, Fiber& to);

  // Must be the first statement of an Entry function: completes the
  // sanitizer half of the switch that entered the fiber.
  static void on_entry(Fiber& self);

  // Marks this fiber as never running again. The next switch_to() away
  // from it releases its ASan fake-stack state.
  void set_exiting() { exiting_ = true; }

  // Frees the stack mapping and TSan fiber handle of a fiber that has
  // switched away for the last time. Idempotent; must not be called on the
  // running fiber. Also invoked by the destructor.
  void release_dead();

  // Usable stack size for new fibers: NTBSHMEM_FIBER_STACK_KiB (clamped to
  // >= 16 KiB) or 256 KiB when unset/unparsable.
  static std::size_t default_stack_bytes();

 private:
#if defined(NTBSHMEM_FIBER_FAST_SWITCH)
  // Saved stack pointer; the callee-saved registers, FP control words and
  // resume address live on the fiber's own stack (see fiber.cpp layout).
  void* sp_ = nullptr;
#else
  ucontext_t ctx_{};
#endif
  void* map_base_ = nullptr;   // mmap base; guard page at the low end
  std::size_t map_size_ = 0;   // guard + usable
  void* stack_lo_ = nullptr;   // usable stack bottom (above the guard)
  std::size_t usable_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* asan_fake_stack_ = nullptr;
  bool exiting_ = false;
  bool thread_fiber_ = false;
};

}  // namespace ntbshmem::sim
