#include "backend/des/des_backend.hpp"

#include <string>

#include "fabric/fabric.hpp"
#include "host/memory.hpp"
#include "shmem/runtime.hpp"
#include "shmem/transport.hpp"

namespace ntbshmem::backend {

// ---- DesBackend -------------------------------------------------------------

host::MemoryArena& DesBackend::heap_arena(int pe) {
  const int host = pe / rt_->options().pes_per_host;
  return rt_->fabric().host(host).memory();
}

std::pair<std::uint64_t, std::uint64_t> DesBackend::heap_geometry() const {
  return {rt_->options().symheap_chunk_bytes, rt_->options().symheap_max_bytes};
}

std::unique_ptr<Channel> DesBackend::make_channel(int pe) {
  return std::make_unique<DesChannel>(
      *rt_, rt_->host_transport(pe / rt_->options().pes_per_host), pe);
}

sim::Dur DesBackend::run(shmem::Runtime& rt,
                         const std::function<void()>& pe_main) {
  sim::Engine& engine = rt.engine();
  const sim::Time start = engine.now();
  for (int pe = 0; pe < rt.npes(); ++pe) {
    shmem::Context* ctx = &rt.context(pe);
    engine.spawn("pe" + std::to_string(pe), [ctx, &pe_main] {
      shmem::CurrentContextBinder bind(ctx);
      pe_main();
    });
  }
  engine.run();
  return engine.now() - start;
}

std::span<std::byte> DesBackend::pe_scratch(int pe) {
  if (scratch_.empty()) {
    scratch_.assign(static_cast<std::size_t>(rt_->npes()),
                    std::vector<std::byte>(kPeScratchBytes));
  }
  return scratch_.at(static_cast<std::size_t>(pe));
}

sim::Time DesBackend::now_ns() { return rt_->engine().now(); }
void DesBackend::wait_until_ns(sim::Time t) { rt_->engine().wait_until(t); }
void DesBackend::wait_for_ns(sim::Dur d) { rt_->engine().wait_for(d); }

// ---- DesChannel -------------------------------------------------------------

void DesChannel::put(std::uint64_t heap_offset, std::span<const std::byte> src,
                     int target_pe, int domain) {
  transport_->put(heap_offset, src, target_pe, pe_, domain);
}

void DesChannel::get(std::uint64_t heap_offset, std::span<std::byte> dst,
                     int source_pe) {
  transport_->get(heap_offset, dst, source_pe, pe_);
}

void DesChannel::get_nbi(std::uint64_t heap_offset, std::span<std::byte> dst,
                         int source_pe, int domain) {
  transport_->get_nbi(heap_offset, dst, source_pe, pe_, domain);
}

void DesChannel::put_signal(std::uint64_t heap_offset,
                            std::span<const std::byte> src,
                            std::uint64_t signal_offset,
                            std::uint64_t signal_value,
                            shmem::AtomicOp signal_op, int target_pe,
                            int domain) {
  transport_->put_signal(heap_offset, src, signal_offset, signal_value,
                         signal_op, target_pe, pe_, domain);
}

std::uint64_t DesChannel::atomic(shmem::AtomicOp op, std::uint64_t heap_offset,
                                 int target_pe, std::uint8_t width,
                                 std::uint64_t operand1,
                                 std::uint64_t operand2) {
  return transport_->atomic(op, heap_offset, target_pe, width, operand1,
                            operand2, pe_);
}

void DesChannel::atomic_post(shmem::AtomicOp op, std::uint64_t heap_offset,
                             int target_pe, std::uint8_t width,
                             std::uint64_t operand1, int domain) {
  transport_->atomic_post(op, heap_offset, target_pe, width, operand1, pe_,
                          domain);
}

void DesChannel::quiet(int domain) { transport_->quiet(domain); }
void DesChannel::fence() { transport_->fence(); }
void DesChannel::barrier() { transport_->barrier(pe_); }
void DesChannel::wait_heap_change() { transport_->wait_heap_change(); }
int DesChannel::allocate_domain() { return transport_->allocate_domain(); }
void DesChannel::yield(sim::Dur pacing) { rt_->engine().wait_for(pacing); }

}  // namespace ntbshmem::backend
