// Application scenarios written against the SHMEM API, driven by the
// seeded traffic engine. Each scenario:
//   * runs SPMD inside an existing shmem::Runtime (the caller owns the
//     options — backend, topology, tuning, faults),
//   * samples per-request latency from the runtime's clock into its
//     MetricsRegistry log2 histograms under "workload.<scenario>.latency_ns"
//     (plus per-op families for the KV engine), and
//   * returns a ScenarioReport whose conservation counters are seed-
//     invariant and whose payloads are verified inline.
#pragma once

#include "shmem/runtime.hpp"
#include "workload/spec.hpp"
#include "workload/traffic.hpp"

namespace ntbshmem::workload {

// Sharded key-value store. Requires npes >= 2. Serves
// traffic.requests_per_pe requests on every PE: Zipf-0.99 target shard,
// uniform slot, a 70/15/10/5 get / put / ctx put_nbi (batches of 4) /
// put-with-signal mix, and 64 / 256 / 1024-byte values weighted 1:2:1.
// Values are a pure function of the key, so gets verify their payload
// inline and the final heap is checked slot by slot on every PE.
ScenarioReport run_kv(shmem::Runtime& rt, const KvSpec& spec,
                      std::uint64_t seed);

// 2-D torus-wrapped Jacobi halo exchange on the widest rows x cols
// factorisation of npes. Requests are halo puts (4 per PE per iteration);
// the latency histogram samples whole iterations. The report checksum is
// the global tile sum, reduced over SHMEM_TEAM_WORLD and identical on
// every PE.
ScenarioReport run_stencil(shmem::Runtime& rt, const StencilSpec& spec,
                           std::uint64_t seed);

// Hierarchical allreduce training step over strided teams. Requires
// npes % spec.groups == 0. Each step: seeded compute delay, in-group
// sum-reduce, cross-group reduce on the leader team, broadcast back down
// the group. Gradients are exact small integers, so every PE verifies the
// full reduction against the closed form each step.
ScenarioReport run_allreduce(shmem::Runtime& rt, const AllreduceSpec& spec,
                             std::uint64_t seed);

}  // namespace ntbshmem::workload
