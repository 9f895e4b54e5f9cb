// Discrete-event-simulation backend: the backend::Backend/Channel facade
// over the existing NTB ring fabric and shmem::Transport. Pure adapter — it
// forwards every operation to the host transport unchanged (same domains,
// same origin-PE plumbing, same engine waits), so the DES golden times stay
// bit-identical to the pre-seam runtime (asserted by the workload
// determinism tests).
#pragma once

#include <vector>

#include "backend/backend.hpp"

namespace ntbshmem::shmem {
class Transport;
}

namespace ntbshmem::backend {

class DesBackend : public Backend {
 public:
  // Bound after Runtime built the fabric/transports (the backend facade
  // does not own them; Runtime's construction order is unchanged).
  explicit DesBackend(shmem::Runtime& rt) : rt_(&rt) {}

  host::MemoryArena& heap_arena(int pe) override;
  std::pair<std::uint64_t, std::uint64_t> heap_geometry() const override;
  std::unique_ptr<Channel> make_channel(int pe) override;
  sim::Dur run(shmem::Runtime& rt,
               const std::function<void()>& pe_main) override;
  std::span<std::byte> pe_scratch(int pe) override;
  sim::Time now_ns() override;
  void wait_until_ns(sim::Time t) override;
  void wait_for_ns(sim::Dur d) override;

 private:
  shmem::Runtime* rt_;
  // Per-PE report scratch: ordinary process memory — the DES run loop and
  // its caller share one address space, publication is a plain store.
  std::vector<std::vector<std::byte>> scratch_;
};

// Per-PE adapter over the origin host's shmem::Transport.
class DesChannel : public Channel {
 public:
  DesChannel(shmem::Runtime& rt, shmem::Transport& transport, int pe)
      : rt_(&rt), transport_(&transport), pe_(pe) {}

  void put(std::uint64_t heap_offset, std::span<const std::byte> src,
           int target_pe, int domain) override;
  void get(std::uint64_t heap_offset, std::span<std::byte> dst,
           int source_pe) override;
  void get_nbi(std::uint64_t heap_offset, std::span<std::byte> dst,
               int source_pe, int domain) override;
  void put_signal(std::uint64_t heap_offset, std::span<const std::byte> src,
                  std::uint64_t signal_offset, std::uint64_t signal_value,
                  shmem::AtomicOp signal_op, int target_pe,
                  int domain) override;
  std::uint64_t atomic(shmem::AtomicOp op, std::uint64_t heap_offset,
                       int target_pe, std::uint8_t width,
                       std::uint64_t operand1, std::uint64_t operand2) override;
  void atomic_post(shmem::AtomicOp op, std::uint64_t heap_offset,
                   int target_pe, std::uint8_t width, std::uint64_t operand1,
                   int domain) override;
  void quiet(int domain) override;
  void fence() override;
  void barrier() override;
  void wait_heap_change() override;
  int allocate_domain() override;
  void yield(sim::Dur pacing) override;

 private:
  shmem::Runtime* rt_;
  shmem::Transport* transport_;
  int pe_;
};

}  // namespace ntbshmem::backend
