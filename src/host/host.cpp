#include "host/host.hpp"

namespace ntbshmem::host {

Host::Host(sim::Engine& engine, HostId id, const TimingParams& timing,
           int num_vectors)
    : engine_(engine),
      id_(id),
      name_("host" + std::to_string(id)),
      memory_(kArenaBytes, name_ + ".ram"),
      bus_(engine, name_ + ".bus", timing.host_bus_Bps),
      interrupts_(engine, name_ + ".irq", timing.intr_delivery,
                  timing.isr_handling, num_vectors) {}

}  // namespace ntbshmem::host
