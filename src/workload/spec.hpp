// Workload specifications: the knobs that shape synthetic traffic.
//
// A TrafficSpec describes how many requests each PE issues and how they
// arrive (open- vs closed-loop, fixed or Poisson gaps). Where they go and
// what they are is fixed by the KV scenario itself (scenarios.cpp):
// Zipf-0.99 target PEs, a 70/15/10/5 get/put/ctx-put_nbi/put-with-signal
// mix and 64/256/1024-byte values. Scenario specs embed a TrafficSpec plus
// their own shape parameters.
//
// Everything is plain data, and every random draw comes from a stream keyed
// by a stable string (rng.hpp), so a (spec, seed) pair pins the whole
// traffic trace.
#pragma once

#include <cstdint>

namespace ntbshmem::workload {

// How requests enter the system.
//  * kClosedLoop: the next request is issued as soon as the previous one
//    completes — measures capacity (goodput at saturation).
//  * kOpenFixed: requests arrive every 1/rate seconds of sim time whether
//    or not earlier ones finished; latency is measured from the scheduled
//    arrival, so queueing delay counts — measures SLO under load.
//  * kOpenPoisson: like kOpenFixed with exponential gaps drawn from the
//    PE's seeded arrival stream (no wall clock anywhere).
enum class ArrivalProcess : std::uint8_t {
  kClosedLoop,
  kOpenFixed,
  kOpenPoisson,
};

struct TrafficSpec {
  std::uint64_t requests_per_pe = 1024;

  ArrivalProcess arrival = ArrivalProcess::kClosedLoop;
  // Open-loop arrival rate per PE (requests per second of sim time).
  double rate_per_pe_hz = 20'000.0;
};

// ---- Scenario shapes ---------------------------------------------------------

// Sharded key-value store: PE p owns slots [0, slots_per_pe) of shard p;
// key = target_pe * slots_per_pe + slot. Values are a pure function of the
// key (pattern bytes), so any interleaving of writers leaves the heap in a
// verifiable state and every get can validate its payload inline.
struct KvSpec {
  TrafficSpec traffic;
  int slots_per_pe = 256;
};

// 2-D halo-exchange stencil (Jacobi) on the widest rows x cols
// factorisation of npes, torus-wrapped. Each iteration puts four halo
// edges (put_nbi + quiet), barriers, then relaxes the interior. The
// per-iteration latency is the SLO sample.
struct StencilSpec {
  int iterations = 32;
  int tile_rows = 32;
  int tile_cols = 32;
};

// Allreduce-dominated training step: world splits into `groups` strided
// data-parallel teams; each step draws a seeded compute time (backward-pass
// skew, exponential with a 200 us mean), sum-reduces the gradient inside
// the group, then the group leaders reduce across groups and broadcast back
// down. Per-step latency is the SLO sample.
struct AllreduceSpec {
  int steps = 16;
  int gradient_elems = 4096;  // floats
  int groups = 2;
};

}  // namespace ntbshmem::workload
