// Runtime configuration for the OpenSHMEM-over-NTB library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "backend/kind.hpp"
#include "common/timing_params.hpp"
#include "common/units.hpp"
#include "fabric/fabric.hpp"
#include "host/host.hpp"
#include "sim/fault.hpp"

namespace ntbshmem::shmem {

// How bulk data crosses the NTB window (the paper's §IV comparison).
enum class DataPath : int {
  kDma,     // NTB block-DMA engine ("RDMA" in the paper)
  kMemcpy,  // CPU stores through the mapped window ("memcpy")
};

// Barrier/quiet completion discipline.
//
// kLocalDma reproduces the paper's prototype: the barrier only checks that
// locally issued DMA has completed, so a multi-hop Put may still be in
// flight in an intermediate host's bypass buffer when the barrier releases
// (the paper's Fig. 10 latencies are only achievable this way). kFullDelivery
// is the spec-correct discipline: quiet/barrier wait for end-to-end delivery
// acknowledgements of every outstanding remote write.
enum class CompletionMode : int {
  kFullDelivery,  // default: correct OpenSHMEM semantics
  kLocalDma,      // paper-prototype mode, used by the Fig. 10 bench
};

// Reliable-delivery layer of the transport (opt-in; off reproduces the
// paper's fail-fast protocol bit-identically). With reliability enabled
// every frame carries a per-channel sequence number (FrameHeader::flags) and
// a 32-bit header checksum (ScratchPad reg 7); the receiver is go-back-N —
// it accepts only the next expected sequence, re-acks duplicates, NAKs
// checksum rejects and drops out-of-order arrivals — and the sender
// retransmits on NAK or ack timeout, doubling the timeout per retry. The
// retry ladder itself (growth factor, retransmit and descriptor-retry
// budgets) is fixed in the transport (shmem/transport.hpp).
struct ReliabilityParams {
  bool enabled = false;
  // Virtual time from doorbell ring to first retransmit. Must comfortably
  // exceed the worst-case ack round trip (interrupt delivery + service-wake
  // + register reads + ack write) or the link sees spurious — harmless but
  // noisy — retransmits.
  DurationNs ack_timeout = 5'000'000;  // 5 ms
};

// Transport pipelining knobs (the §III data-path optimisations that go
// beyond the paper's prototype). The default-constructed block is
// paper-faithful — one ScratchPad frame in flight per direction, serial
// per-segment LUT setup, full store-and-forward at every hop — so every
// figure bench reproduces the paper unless a bench opts in explicitly.
struct TransportTuning {
  // ScratchPad frame credits per TX direction. 1 reproduces the paper's
  // one-frame-in-flight handshake; N>1 models a double-buffered ScratchPad
  // bank (the receiving adapter latches the header bank per doorbell), so a
  // second frame's header/payload staging overlaps the previous frame's
  // in-flight ACK. The bypass staging buffer is partitioned into N slots,
  // one owned per credit, so in-flight payloads never collide.
  int tx_credits = 1;
  // Overlap segment i+1's LUT/descriptor setup with segment i's DMA in the
  // application fast path (window_write): models descriptor prefetch in the
  // NTB DMA engine. The first segment still pays the full serial setup.
  bool overlap_segment_setup = false;
  // Cut-through forwarding: an intermediate host begins forwarding a
  // chunked multi-hop message as soon as its first chunk (which carries the
  // network header) is reassembled, instead of store-and-forwarding the
  // whole message at every hop.
  bool cut_through_forwarding = false;

  // Topology-aware collectives: barrier runs as a token tree over the
  // routing graph instead of the paper's doorbell ring-walk, and
  // broadcast/reduce relay through a hop-ordered tree instead of linear
  // root-to-member loops. Opt-in on ring-like topologies (the default off
  // keeps the paper's protocol bit-identical); non-ring topologies always
  // use the tree barrier because the doorbell circulation assumes a ring.
  bool topology_collectives = false;

  // Retry/retransmit layer; orthogonal to the pipelining knobs (it is a
  // robustness feature, not a performance one, so all_on() leaves it off —
  // fault workloads opt in explicitly via reliable()).
  ReliabilityParams reliability;

  bool pipelined() const {
    return tx_credits > 1 || overlap_segment_setup || cut_through_forwarding;
  }

  static TransportTuning paper() { return TransportTuning{}; }
  static TransportTuning all_on(int credits = 4) {
    TransportTuning t;
    t.tx_credits = credits;
    t.overlap_segment_setup = true;
    t.cut_through_forwarding = true;
    return t;
  }
  // `base` with the reliable-delivery layer switched on.
  static TransportTuning reliable(TransportTuning base) {
    base.reliability.enabled = true;
    return base;
  }
  static TransportTuning reliable() { return reliable(TransportTuning{}); }
};

// Observability layer (src/obs). The runtime always owns an obs::Hub and
// attaches it to the engine, so the metric counters are registered (an
// increment is one pointer-deref add); recording happens only when a switch
// below asks for it, and never moves virtual time.
struct ObsOptions {
  // The Perfetto timeline (Runtime::write_chrome_trace). Its transport
  // slices are drawn from causal spans, so this records those too.
  bool spans_enabled = false;
  // Causal cross-hop tracing (obs::CausalRecorder): op-rooted span trees
  // linked across hosts/ports/retransmits, exported by
  // Runtime::write_causal_trace as ntbshmem-trace-v1 and feeding the SLO
  // artifact's critical paths. Recording allocates.
  bool causal_enabled = false;
};

struct RuntimeOptions {
  // Data-path backend: the simulated NTB fabric (kSim) or real fork()ed
  // processes over a shared-memory segment (kShm) (DESIGN.md §4j). All
  // fabric, timing, fault and tuning knobs below apply to the sim backend
  // only.
  backend::Kind backend = backend::Kind::kSim;
  int npes = 3;  // total PEs
  // PEs per host (block mapping: PE p lives on host p / pes_per_host). The
  // paper's prototype is 1:1; higher values are the multi-tenant extension:
  // co-resident PEs share the host's NTB adapters and service threads and
  // communicate through a local shared-memory path.
  int pes_per_host = 1;
  TimingParams timing;
  // Fabric wiring diagram (default: the paper's ring). Non-ring topologies
  // require a compatible routing mode — kShortest works everywhere,
  // kDimensionOrder only on kTorus2D, kRightOnly only on ring-like
  // fabrics (validated at Runtime construction).
  fabric::TopologySpec topology;
  fabric::RoutingMode routing = fabric::RoutingMode::kRightOnly;
  DataPath data_path = DataPath::kDma;
  CompletionMode completion = CompletionMode::kFullDelivery;
  TransportTuning tuning;  // paper-faithful by default

  // Symmetric heap: fixed-size chunks allocated on demand and virtually
  // concatenated (paper Fig. 3).
  std::uint64_t symheap_chunk_bytes = 4_MiB;
  std::uint64_t symheap_max_bytes = 32_MiB;

  // Per-host arena backing heap chunks, staging areas and scratch space:
  // one size for every run, reserved but committed only on first touch.
  static constexpr std::uint64_t host_memory_bytes = host::kArenaBytes;

  // Per-link DMA-rate spread (see FabricConfig); empty -> timing default.
  std::vector<double> link_dma_rates_Bps = {3.0e9, 2.6e9, 2.8e9};

  // Ports wait for link retraining instead of failing fast — lets a
  // workload survive transient cable flaps (fault-injection tests).
  bool resilient_links = false;

  // Fault injection: probabilities/schedules consulted by every layer's
  // injection sites (sim::FaultPlan). The runtime always constructs and
  // attaches a plan — an all-zero spec injects nothing and is exactly
  // timing-neutral — so targeted tests can arm one-shot faults on
  // Runtime::faults() without any configuration. Barrier doorbell bits are
  // excluded from drop injection (reliable control path; DESIGN.md §4b).
  sim::FaultSpec faults;
  std::uint64_t fault_seed = 0x5eedf00d;

  // Typed span tracing + metrics (Runtime::obs(), exported via obs/export).
  ObsOptions obs;

  // Schedule auditing (sim/audit.hpp). `schedule_digest` folds every engine
  // dispatch into an FNV accumulator readable via
  // engine().schedule_digest(); it is switched on before any service
  // process spawns, so it covers the whole run. Schedule fuzzing is a
  // seeded sim::BranchHook installed on engine() (DESIGN.md §4d).
  bool schedule_digest = false;

  int num_hosts() const {
    return pes_per_host > 0 ? npes / pes_per_host : 0;
  }

  fabric::FabricConfig fabric_config() const {
    fabric::FabricConfig cfg;
    cfg.num_hosts = num_hosts();
    cfg.topology = topology;
    cfg.timing = timing;
    cfg.link_dma_rates_Bps = link_dma_rates_Bps;
    cfg.resilient_links = resilient_links;
    return cfg;
  }
};

}  // namespace ntbshmem::shmem
