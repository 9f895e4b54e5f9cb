// A simulated compute node of the switchless cluster.
//
// Matches the paper's testbed node: a single-CPU host with DRAM, a memory
// bus shared by the NTB DMA traffic, an interrupt controller, and (added
// by the fabric) two NTB host adapters. One OpenSHMEM PE runs per host,
// as in the paper's 3-node prototype. The bus rate and the interrupt path
// come from the one calibration table, TimingParams; every host's DRAM is
// a kArenaBytes reservation that costs only the pages a run touches
// (DESIGN.md §4f).
#pragma once

#include <cstdint>
#include <string>

#include "common/timing_params.hpp"
#include "host/interrupt.hpp"
#include "host/memory.hpp"
#include "sim/bandwidth.hpp"
#include "sim/engine.hpp"

namespace ntbshmem::host {

using HostId = int;

// Every host's arena for heap chunks, staging areas and scratch space.
inline constexpr std::uint64_t kArenaBytes = 96ull << 20;

class Host {
 public:
  // `num_vectors`: interrupt vectors the controller exposes, 16 per NTB
  // adapter. The default covers the paper's two-adapter ring host; the
  // fabric raises it for higher-degree topologies (torus, mesh).
  Host(sim::Engine& engine, HostId id, const TimingParams& timing,
       int num_vectors = InterruptController::kNumVectors);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  HostId id() const { return id_; }
  const std::string& name() const { return name_; }
  sim::Engine& engine() const { return engine_; }

  MemoryArena& memory() { return memory_; }
  const MemoryArena& memory() const { return memory_; }
  // Memory-bus bandwidth shared by all DMA traffic entering/leaving DRAM.
  sim::BandwidthResource& bus() { return bus_; }
  InterruptController& interrupts() { return interrupts_; }

 private:
  sim::Engine& engine_;
  HostId id_;
  std::string name_;
  MemoryArena memory_;
  sim::BandwidthResource bus_;
  InterruptController interrupts_;
};

}  // namespace ntbshmem::host
