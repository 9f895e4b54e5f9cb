// Calibration constants for the simulated PCIe NTB testbed.
//
// Every latency/bandwidth constant used by the simulator lives here, with a
// comment tying it to the measured band in the paper (IPDPSW'19, Figs. 8-10)
// that it reproduces. The goal of calibration is *shape fidelity*: which
// configuration wins, by roughly what factor, and where curves flatten —
// not the authors' absolute microseconds (their testbed is physical PLX
// PEX 8749/8733 hardware; ours is a model).
//
// See DESIGN.md §1 for the substitution rationale and EXPERIMENTS.md for the
// per-figure calibration notes.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace ntbshmem {

// All durations are integer nanoseconds (the simulator clock tick).
using DurationNs = std::int64_t;

constexpr DurationNs operator""_ns_d(unsigned long long v) {
  return static_cast<DurationNs>(v);
}
constexpr DurationNs operator""_us_d(unsigned long long v) {
  return static_cast<DurationNs>(v) * 1000;
}
constexpr DurationNs operator""_ms_d(unsigned long long v) {
  return static_cast<DurationNs>(v) * 1000 * 1000;
}

struct TimingParams {
  // ---- PCIe wire (Gen3 x8, the paper's fabric cables) ---------------------
  // Effective cable bandwidth after 128b/130b encoding and TLP framing is
  // computed by pcie::LinkConfig; these are only the inputs.
  int pcie_gen = 3;
  int pcie_lanes = 8;
  // Max TLP payload, used for framing-efficiency math (typical root ports).
  std::uint32_t pcie_max_payload = 256;

  // ---- Host memory subsystem ----------------------------------------------
  // Per-host memory bus capacity shared by all NTB DMA traffic terminating
  // at or originating from that host. Chosen so that a host doing one TX and
  // one RX stream simultaneously (the Fig. 8 "Ring" configuration) squeezes
  // each stream ~10-15% below its solo rate — the contention dip the paper
  // attributes to "connection overheads on both sides of the NTB ports".
  double host_bus_Bps = 5.2e9;

  // ---- NTB DMA engine (PLX PEX 8749/8733 block DMA) ------------------------
  // Peak engine rate. The paper measures 20-30 Gbps (2.5-3.75 GB/s) raw
  // transfer depending on chipset; per-link overrides in the fabric config
  // reproduce the per-pair spread of Fig. 8(a-c).
  double dma_rate_Bps = 3.0e9;
  // Descriptor setup/completion overhead on the raw (pre-mapped window,
  // polled completion) path used by the Fig. 8 experiment. Dominates small
  // transfers, giving the throughput-vs-size ramp.
  DurationNs dma_setup = 3_us_d;

  // ---- PIO ("memcpy") path -------------------------------------------------
  // CPU stores through the mapped window: posted writes, write-combining,
  // ~order 100 MB/s on this class of hardware. Calibrated so a 512 KB
  // memcpy-mode Put lands in the paper's 4-5 ms band (Fig. 9a).
  double pio_write_Bps = 125e6;
  // One 32-bit ScratchPad/Doorbell register access (PCIe round trip).
  DurationNs reg_access = 400_ns_d;

  // ---- Interrupt path ------------------------------------------------------
  // Doorbell write -> MSI -> kernel ISR entry on the peer.
  DurationNs intr_delivery = 15_us_d;
  // Fixed ISR bookkeeping before the service thread is notified.
  DurationNs isr_handling = 5_us_d;
  // Latency for the per-host NTB service thread ("Sleep & Wait" in Fig. 5)
  // to be scheduled after a notification. This is the dominant per-hop cost
  // of the barrier protocol; 6 signal hops on the 3-host ring lands
  // shmem_barrier_all in the paper's 1.0-2.5 ms band (Fig. 10).
  DurationNs service_wake = 150_us_d;

  // ---- OpenSHMEM data path -------------------------------------------------
  // Application-context transfers (Put, and the first hop of a multi-hop
  // Put) move through a driver-programmed translation window in segments:
  // each segment pays a driver call that programs the DMA descriptor and the
  // LUT translation entry. This per-segment cost is what pulls the shmem-path
  // Put throughput down to the paper's ~350 MB/s plateau (Fig. 9c) even
  // though the raw link does ~3 GB/s (Fig. 8).
  std::uint64_t lut_segment_bytes = 64_KiB;
  DurationNs segment_setup = 150_us_d;
  // With overlapped segment setup (TransportTuning::overlap_segment_setup)
  // the bulk of segment i+1's setup is charged concurrently with segment
  // i's DMA, but a residual per-segment cost — handing the prefetched
  // descriptor to the engine and bumping the ring tail — cannot be hidden.
  // Unused on the paper-faithful serial path.
  DurationNs segment_prefetch_overhead = 2_us_d;

  // Service-thread-context transfers (store-and-forward of multi-hop traffic
  // and all Get responses) cannot reprogram translation windows from ISR
  // context; they use the pre-mapped bypass buffer in small chunks, each
  // requiring a full ScratchPad+Doorbell handshake. This chunked handshake
  // is why Get is an order of magnitude slower than Put in the paper
  // (Fig. 9b/9d) and why it scales with hop count.
  std::uint64_t bypass_chunk_bytes = 8_KiB;
  // Staging capacity per host for in-flight forwarded messages.
  std::uint64_t bypass_buffer_bytes = 1_MiB;

  // Generic library-call bookkeeping (argument checks, offset translation).
  DurationNs sw_overhead = 2_us_d;

  // CPU-driven local DRAM-to-DRAM copy rate (service thread moving payloads
  // between the bypass staging buffer, reassembly memory and the symmetric
  // heap).
  double local_copy_Bps = 4.0e9;
};

// The default-constructed TimingParams reproduces the paper's testbed.
// Presets for sensitivity studies:
TimingParams paper_testbed();       // == TimingParams{}
TimingParams fast_interrupts();     // service_wake 20us: "tuned driver" study
TimingParams gen4_fabric();         // PCIe Gen4 x8 what-if

}  // namespace ntbshmem
