// Backend selection for the OpenSHMEM runtime (DESIGN.md §4j).
//
// Two backends implement the data path behind shmem/api.hpp:
//   kSim — the discrete-event simulated NTB ring fabric (the default, and
//          the only backend with virtual time, fault injection, tracing and
//          the model checker);
//   kShm — real fork()ed processes over one shared-memory segment: puts are
//          memcpy through the mapped peer heap, doorbells are futexes, and
//          every latency is a wall-clock number.
// The caller names the backend in RuntimeOptions::backend.
//
// This header is dependency-free on purpose: RuntimeOptions embeds the enum
// without pulling the backend interfaces into every options consumer.
#pragma once

namespace ntbshmem::backend {

enum class Kind : int {
  kSim,
  kShm,
};

inline const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSim: return "sim";
    case Kind::kShm: return "shm";
  }
  return "unknown";
}

}  // namespace ntbshmem::backend
