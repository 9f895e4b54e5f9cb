#include "workload/scenarios.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "backend/backend.hpp"
#include "obs/metrics.hpp"
#include "shmem/api.hpp"
#include "shmem/teams.hpp"
#include "workload/rng.hpp"

namespace ntbshmem::workload {
namespace {

using namespace ntbshmem::shmem;

// POD wire image of one PE's ScenarioReport counters, published through the
// backend's pe_scratch mailbox at the end of each PE body. Under the shm
// backend the PE bodies run in forked processes, so by-reference lambda
// captures are copy-on-write ghosts — the mailbox is the only road a PE's
// results travel back on, and using it unconditionally keeps the sim and
// shm paths byte-for-byte the same code.
struct ReportWire {
  std::uint64_t requests_issued;
  std::uint64_t requests_completed;
  std::uint64_t bytes_requested;
  std::uint64_t bytes_transferred;
  std::uint64_t verify_errors;
  std::uint64_t signals_sent;
  std::uint64_t signals_received;
  double checksum;
};
static_assert(std::is_trivially_copyable_v<ReportWire>,
              "ReportWire crosses a fork boundary as raw bytes");
static_assert(sizeof(ReportWire) <= backend::kPeScratchBytes,
              "ReportWire must fit the per-PE scratch mailbox");

void publish_report(Runtime& rt, int pe, const ScenarioReport& mine) {
  const ReportWire w{mine.requests_issued,   mine.requests_completed,
                     mine.bytes_requested,   mine.bytes_transferred,
                     mine.verify_errors,     mine.signals_sent,
                     mine.signals_received,  mine.checksum};
  std::memcpy(rt.pe_scratch(pe).data(), &w, sizeof(w));
}

// Sums the per-PE wire images into the scenario total. When
// `compare_checksums`, every PE's checksum must equal PE 0's (the scenarios
// compute it via a world reduction, so divergence is a verification error).
ScenarioReport collect_reports(Runtime& rt, const std::string& name,
                               sim::Dur elapsed, bool compare_checksums) {
  ScenarioReport total;
  total.scenario = name;
  for (int pe = 0; pe < rt.npes(); ++pe) {
    ReportWire w;
    std::memcpy(&w, rt.pe_scratch(pe).data(), sizeof(w));
    total.requests_issued += w.requests_issued;
    total.requests_completed += w.requests_completed;
    total.bytes_requested += w.bytes_requested;
    total.bytes_transferred += w.bytes_transferred;
    total.verify_errors += w.verify_errors;
    total.signals_sent += w.signals_sent;
    total.signals_received += w.signals_received;
    if (pe == 0) {
      total.checksum = w.checksum;
    } else if (compare_checksums && w.checksum != total.checksum) {
      ++total.verify_errors;
    }
  }
  total.elapsed_ns = static_cast<long long>(elapsed);
  return total;
}

// Value byte of key `key` at offset `i`: a pure function of the key, so
// every writer of a key writes identical bytes (any interleaving leaves the
// heap verifiable) and every reader can check its payload inline.
std::uint8_t kv_value_byte(std::uint64_t key, std::uint64_t i) {
  return static_cast<std::uint8_t>((key * 131 + i * 17 + 7) & 0xff);
}

// The KV request kinds, in the order of their weights in the mix below.
// kCtxPutNbi issues put_nbi on the PE's private communication context and
// completes batches with shmem_ctx_quiet — the contexts-under-load path
// nothing else exercises.
enum class OpKind : std::size_t {
  kGet,
  kPut,
  kCtxPutNbi,
  kPutSignal,
};

// Value sizes in bytes (small-object serving), ascending: a slot holds the
// last.
constexpr std::uint64_t kValueBytes[] = {64, 256, 1024};
constexpr std::uint64_t kSlotBytes = kValueBytes[2];

// Outstanding put_nbi requests per private context before a ctx_quiet
// completes the batch.
constexpr std::size_t kNbiBatch = 4;

// Mean of the allreduce's exponential per-step compute time, sim ns.
constexpr double kComputeMeanNs = 200'000.0;

// Zipf weights 1/(r+1)^0.99 (the YCSB default skew) of the npes-1 target
// ranks. The issuing PE is collapsed out of the rank space (rank >= me
// shifts up by one), so rank 0 — the hot spot — is PE 0 for everyone except
// PE 0 itself.
std::vector<double> zipf_weights(int npes) {
  std::vector<double> w(static_cast<std::size_t>(npes - 1));
  for (std::size_t r = 0; r < w.size(); ++r) {
    w[r] = 1.0 / std::pow(static_cast<double>(r + 1), 0.99);
  }
  return w;
}

// Widest rows x cols factorisation of n with rows <= cols (rows may be 1).
void grid_shape(int n, int* rows, int* cols) {
  int r = static_cast<int>(std::sqrt(static_cast<double>(n)));
  for (; r > 1; --r) {
    if (n % r == 0) break;
  }
  *rows = r < 1 ? 1 : r;
  *cols = n / *rows;
}

}  // namespace

ScenarioReport run_kv(shmem::Runtime& rt, const KvSpec& spec,
                      std::uint64_t seed) {
  const int npes = rt.npes();
  if (npes < 2) {
    throw std::invalid_argument("run_kv: needs at least 2 PEs");
  }
  const auto slots = static_cast<std::uint64_t>(spec.slots_per_pe);
  if (slots == 0) {
    throw std::invalid_argument("run_kv: empty shard");
  }

  obs::MetricsRegistry& reg = rt.obs().metrics;
  obs::Histogram* h_total = reg.histogram("workload.kv.latency_ns");
  obs::Histogram* h_get = reg.histogram("workload.kv.get.latency_ns");
  obs::Histogram* h_put = reg.histogram("workload.kv.put.latency_ns");
  obs::Histogram* h_nbi = reg.histogram("workload.kv.put_nbi.latency_ns");
  obs::Histogram* h_sig = reg.histogram("workload.kv.put_signal.latency_ns");

  const TrafficSpec& tr = spec.traffic;
  const DiscreteSampler target_sampler(zipf_weights(npes));
  // Read-heavy serving mix, weights in OpKind order.
  const DiscreteSampler op_sampler({0.70, 0.15, 0.10, 0.05});
  const DiscreteSampler size_sampler({0.25, 0.50, 0.25});

  const sim::Dur elapsed = rt.run([&] {
    shmem_init();
    const int me = shmem_my_pe();
    const std::string pe_tag = ".pe" + std::to_string(me);
    Runtime& wrt = Runtime::current()->runtime();
    ScenarioReport mine;

    auto* shard = static_cast<std::byte*>(shmem_malloc(slots * kSlotBytes));
    auto* sigs = static_cast<std::uint64_t*>(
        shmem_calloc(static_cast<std::size_t>(npes), sizeof(std::uint64_t)));

    // Initialise every slot to its key pattern: writes are then idempotent
    // and the final heap is byte-checkable regardless of write interleaving.
    for (std::uint64_t slot = 0; slot < slots; ++slot) {
      const std::uint64_t key =
          static_cast<std::uint64_t>(me) * slots + slot;
      for (std::uint64_t i = 0; i < kSlotBytes; ++i) {
        shard[slot * kSlotBytes + i] =
            static_cast<std::byte>(kv_value_byte(key, i));
      }
    }
    shmem_barrier_all();

    Stream target_stream(seed, "kv.target" + pe_tag);
    Stream op_stream(seed, "kv.op" + pe_tag);
    Stream size_stream(seed, "kv.size" + pe_tag);
    Stream slot_stream(seed, "kv.slot" + pe_tag);
    ArrivalClock arrivals(tr, seed, "kv.arrival" + pe_tag, wrt.clock_now());

    shmem_ctx_t ctx = SHMEM_CTX_INVALID;
    shmem_ctx_create(SHMEM_CTX_PRIVATE, &ctx);

    // In-flight put_nbi batch: issue times plus per-request staging buffers
    // (the source of a put_nbi must stay live until the ctx_quiet).
    struct Pending {
      sim::Time issued;
      std::uint64_t bytes;
    };
    std::vector<Pending> pending;
    std::vector<std::vector<std::byte>> staging(kNbiBatch);
    const auto flush = [&] {
      if (pending.empty()) return;
      shmem_ctx_quiet(ctx);
      for (const Pending& p : pending) {
        const auto lat =
            static_cast<std::uint64_t>(wrt.clock_now() - p.issued);
        h_total->record(lat);
        h_nbi->record(lat);
        ++mine.requests_completed;
        mine.bytes_transferred += p.bytes;
      }
      pending.clear();
    };

    std::vector<std::byte> scratch(kSlotBytes);
    for (std::uint64_t k = 0; k < tr.requests_per_pe; ++k) {
      const sim::Time scheduled = arrivals.next(wrt);
      const auto rank = static_cast<int>(target_sampler.sample(target_stream));
      const int target = rank < me ? rank : rank + 1;
      const std::uint64_t slot = slot_stream.next_below(slots);
      const std::uint64_t key =
          static_cast<std::uint64_t>(target) * slots + slot;
      const auto op = static_cast<OpKind>(op_sampler.sample(op_stream));
      const std::uint64_t size = kValueBytes[size_sampler.sample(size_stream)];
      std::byte* remote = shard + slot * kSlotBytes;

      ++mine.requests_issued;
      mine.bytes_requested += size;

      const auto done = [&](obs::Histogram* h_op) {
        const auto lat =
            static_cast<std::uint64_t>(wrt.clock_now() - scheduled);
        h_total->record(lat);
        h_op->record(lat);
        ++mine.requests_completed;
        mine.bytes_transferred += size;
      };

      switch (op) {
        case OpKind::kGet: {
          shmem_getmem(scratch.data(), remote, size, target);
          for (std::uint64_t i = 0; i < size; ++i) {
            if (scratch[i] != static_cast<std::byte>(kv_value_byte(key, i))) {
              ++mine.verify_errors;
              break;
            }
          }
          done(h_get);
          break;
        }
        case OpKind::kPut: {
          for (std::uint64_t i = 0; i < size; ++i) {
            scratch[i] = static_cast<std::byte>(kv_value_byte(key, i));
          }
          shmem_putmem(remote, scratch.data(), size, target);
          done(h_put);
          break;
        }
        case OpKind::kCtxPutNbi: {
          std::vector<std::byte>& src = staging[pending.size()];
          src.resize(size);
          for (std::uint64_t i = 0; i < size; ++i) {
            src[i] = static_cast<std::byte>(kv_value_byte(key, i));
          }
          shmem_ctx_putmem_nbi(ctx, remote, src.data(), size, target);
          pending.push_back(Pending{scheduled, size});
          if (pending.size() >= staging.size()) flush();
          break;
        }
        case OpKind::kPutSignal: {
          for (std::uint64_t i = 0; i < size; ++i) {
            scratch[i] = static_cast<std::byte>(kv_value_byte(key, i));
          }
          shmem_putmem_signal(remote, scratch.data(), size,
                              &sigs[static_cast<std::size_t>(me)], 1,
                              SHMEM_SIGNAL_ADD, target);
          ++mine.signals_sent;
          done(h_sig);
          break;
        }
      }
    }
    flush();
    shmem_ctx_destroy(ctx);
    shmem_quiet();
    shmem_barrier_all();

    // Conservation: every put-with-signal that completed anywhere must have
    // landed in exactly one receiver's per-sender signal word.
    for (int j = 0; j < npes; ++j) {
      mine.signals_received += sigs[static_cast<std::size_t>(j)];
    }
    // Golden heap: every slot must still hold its key pattern byte-for-byte
    // (writes are idempotent by construction).
    for (std::uint64_t slot = 0; slot < slots; ++slot) {
      const std::uint64_t key =
          static_cast<std::uint64_t>(me) * slots + slot;
      for (std::uint64_t i = 0; i < kSlotBytes; ++i) {
        if (shard[slot * kSlotBytes + i] !=
            static_cast<std::byte>(kv_value_byte(key, i))) {
          ++mine.verify_errors;
          break;
        }
      }
    }
    shmem_barrier_all();
    shmem_free(sigs);
    shmem_free(shard);
    publish_report(wrt, me, mine);
    shmem_finalize();
  });

  return collect_reports(rt, "kv", elapsed, /*compare_checksums=*/false);
}

ScenarioReport run_stencil(shmem::Runtime& rt, const StencilSpec& spec,
                           std::uint64_t seed) {
  const int npes = rt.npes();
  int rows = 0, cols = 0;
  grid_shape(npes, &rows, &cols);
  const int tr = spec.tile_rows, tc = spec.tile_cols;
  if (tr < 1 || tc < 1 || spec.iterations < 1) {
    throw std::invalid_argument("run_stencil: bad tile/iteration shape");
  }

  obs::Histogram* h_iter =
      rt.obs().metrics.histogram("workload.stencil.latency_ns");

  const bool vertical = rows > 1;   // exchange north/south halos
  const bool horizontal = cols > 1; // exchange east/west halos

  const sim::Dur elapsed = rt.run([&] {
    shmem_init();
    const int me = shmem_my_pe();
    Runtime& wrt = Runtime::current()->runtime();
    ScenarioReport mine;
    const int r = me / cols, c = me % cols;
    const int north = ((r - 1 + rows) % rows) * cols + c;
    const int south = ((r + 1) % rows) * cols + c;
    const int west = r * cols + (c - 1 + cols) % cols;
    const int east = r * cols + (c + 1) % cols;

    const auto utr = static_cast<std::size_t>(tr);
    const auto utc = static_cast<std::size_t>(tc);
    // Tiles with a ghost ring; symmetric halo inboxes.
    const std::size_t pitch = utc + 2;
    std::vector<double> tile_a((utr + 2) * pitch, 0.0);
    std::vector<double> tile_b((utr + 2) * pitch, 0.0);
    auto* north_in = static_cast<double*>(shmem_malloc(utc * sizeof(double)));
    auto* south_in = static_cast<double*>(shmem_malloc(utc * sizeof(double)));
    auto* west_in = static_cast<double*>(shmem_malloc(utr * sizeof(double)));
    auto* east_in = static_cast<double*>(shmem_malloc(utr * sizeof(double)));

    Stream init(seed, "stencil.init.pe" + std::to_string(me));
    auto at = [&](std::vector<double>& t, std::size_t i,
                  std::size_t j) -> double& { return t[i * pitch + j]; };
    for (std::size_t i = 1; i <= utr; ++i) {
      for (std::size_t j = 1; j <= utc; ++j) {
        at(tile_a, i, j) = init.next_unit();
      }
    }
    shmem_barrier_all();

    std::vector<double> top(utc), bottom(utc), left(utr), right(utr);
    std::vector<double>* cur = &tile_a;
    std::vector<double>* nxt = &tile_b;
    for (int it = 0; it < spec.iterations; ++it) {
      const sim::Time t0 = wrt.clock_now();
      // Pack and push halos (put_nbi batch completed by one quiet).
      if (vertical) {
        for (std::size_t j = 0; j < utc; ++j) {
          top[j] = at(*cur, 1, j + 1);
          bottom[j] = at(*cur, utr, j + 1);
        }
        shmem_putmem_nbi(south_in, top.data(), utc * sizeof(double), north);
        shmem_putmem_nbi(north_in, bottom.data(), utc * sizeof(double), south);
        mine.requests_issued += 2;
        mine.bytes_requested += 2 * utc * sizeof(double);
      }
      if (horizontal) {
        for (std::size_t i = 0; i < utr; ++i) {
          left[i] = at(*cur, i + 1, 1);
          right[i] = at(*cur, i + 1, utc);
        }
        shmem_putmem_nbi(east_in, left.data(), utr * sizeof(double), west);
        shmem_putmem_nbi(west_in, right.data(), utr * sizeof(double), east);
        mine.requests_issued += 2;
        mine.bytes_requested += 2 * utr * sizeof(double);
      }
      shmem_quiet();
      mine.requests_completed = mine.requests_issued;
      mine.bytes_transferred = mine.bytes_requested;
      shmem_barrier_all();

      // Fill ghosts from the inboxes (reflective when the grid is flat in
      // a dimension) and relax the interior.
      for (std::size_t j = 1; j <= utc; ++j) {
        at(*cur, 0, j) = vertical ? north_in[j - 1] : at(*cur, 1, j);
        at(*cur, utr + 1, j) = vertical ? south_in[j - 1] : at(*cur, utr, j);
      }
      for (std::size_t i = 1; i <= utr; ++i) {
        at(*cur, i, 0) = horizontal ? west_in[i - 1] : at(*cur, i, 1);
        at(*cur, i, utc + 1) = horizontal ? east_in[i - 1] : at(*cur, i, utc);
      }
      for (std::size_t i = 1; i <= utr; ++i) {
        for (std::size_t j = 1; j <= utc; ++j) {
          at(*nxt, i, j) =
              0.25 * (at(*cur, i - 1, j) + at(*cur, i + 1, j) +
                      at(*cur, i, j - 1) + at(*cur, i, j + 1));
        }
      }
      std::swap(cur, nxt);
      h_iter->record(static_cast<std::uint64_t>(wrt.clock_now() - t0));
      // Everyone must be done reading its inboxes before the next round of
      // puts may overwrite them.
      shmem_barrier_all();
    }

    // Global checksum: identical on every PE (world-team reduction).
    auto* local = static_cast<double*>(shmem_malloc(sizeof(double)));
    auto* global = static_cast<double*>(shmem_malloc(sizeof(double)));
    *local = 0.0;
    for (std::size_t i = 1; i <= utr; ++i) {
      for (std::size_t j = 1; j <= utc; ++j) *local += at(*cur, i, j);
    }
    shmem_double_sum_reduce(SHMEM_TEAM_WORLD, global, local, 1);
    mine.checksum = *global;
    if (!std::isfinite(*global)) ++mine.verify_errors;
    shmem_free(global);
    shmem_free(local);
    shmem_free(east_in);
    shmem_free(west_in);
    shmem_free(south_in);
    shmem_free(north_in);
    publish_report(wrt, me, mine);
    shmem_finalize();
  });

  return collect_reports(rt, "stencil", elapsed, /*compare_checksums=*/true);
}

ScenarioReport run_allreduce(shmem::Runtime& rt, const AllreduceSpec& spec,
                             std::uint64_t seed) {
  const int npes = rt.npes();
  const int groups = spec.groups;
  if (groups < 1 || npes % groups != 0) {
    throw std::invalid_argument(
        "run_allreduce: npes must be a multiple of groups");
  }
  const auto elems = static_cast<std::size_t>(spec.gradient_elems);
  if (elems == 0 || spec.steps < 1) {
    throw std::invalid_argument("run_allreduce: bad gradient/step shape");
  }

  obs::Histogram* h_step =
      rt.obs().metrics.histogram("workload.allreduce.latency_ns");

  // Closed form of the global gradient sum: gradients are exact small
  // integers, so float addition is exact in any association order.
  double pe_term = 0.0;
  for (int p = 0; p < npes; ++p) pe_term += static_cast<double>(p % 8);

  const sim::Dur elapsed = rt.run([&] {
    shmem_init();
    const int me = shmem_my_pe();
    Runtime& wrt = Runtime::current()->runtime();
    ScenarioReport mine;
    const int g = me % groups;

    // Data-parallel group teams {g, g+groups, ...} and the leader team
    // {0..groups-1}; group team index 0 IS the group's leader, so the two
    // levels stitch together without translation tables.
    shmem_team_t group_team = SHMEM_TEAM_INVALID;
    shmem_team_t leader_team = SHMEM_TEAM_INVALID;
    for (int gi = 0; gi < groups; ++gi) {
      shmem_team_t t = SHMEM_TEAM_INVALID;
      shmem_team_split_strided(SHMEM_TEAM_WORLD, gi, groups, npes / groups,
                               nullptr, 0, &t);
      if (gi == g) group_team = t;
    }
    shmem_team_split_strided(SHMEM_TEAM_WORLD, 0, 1, groups, nullptr, 0,
                             &leader_team);

    auto* grad = static_cast<float*>(shmem_malloc(elems * sizeof(float)));
    auto* acc = static_cast<float*>(shmem_malloc(elems * sizeof(float)));
    auto* acc2 = static_cast<float*>(shmem_malloc(elems * sizeof(float)));
    auto* out = static_cast<float*>(shmem_malloc(elems * sizeof(float)));
    Stream compute(seed, "allreduce.compute.pe" + std::to_string(me));
    shmem_barrier_all();

    for (int step = 0; step < spec.steps; ++step) {
      const sim::Time t0 = wrt.clock_now();
      // Backward-pass skew: seeded exponential compute time.
      wrt.clock_wait_for(
          static_cast<sim::Dur>(compute.next_exp(kComputeMeanNs)));
      for (std::size_t i = 0; i < elems; ++i) {
        grad[i] = static_cast<float>(static_cast<std::size_t>(me % 8) +
                                     (i % 16) +
                                     static_cast<std::size_t>(step % 4));
      }
      ++mine.requests_issued;
      mine.bytes_requested += elems * sizeof(float);

      // Level 1: reduce inside the data-parallel group.
      shmem_float_sum_reduce(group_team, acc, grad, elems);
      // Level 2: group leaders reduce across groups.
      if (me < groups) {
        shmem_float_sum_reduce(leader_team, acc2, acc, elems);
      }
      // Broadcast the global sum back down the group (root = leader).
      shmem_broadcastmem(group_team, out, acc2, elems * sizeof(float), 0);

      for (std::size_t i = 0; i < elems; ++i) {
        const double expect =
            pe_term + static_cast<double>(npes) *
                          static_cast<double>((i % 16) +
                                              (static_cast<std::size_t>(step) % 4));
        if (static_cast<double>(out[i]) != expect) {
          ++mine.verify_errors;
          break;
        }
      }
      ++mine.requests_completed;
      mine.bytes_transferred += elems * sizeof(float);
      h_step->record(static_cast<std::uint64_t>(wrt.clock_now() - t0));
    }

    double sum = 0.0;
    for (std::size_t i = 0; i < elems; ++i) sum += static_cast<double>(out[i]);
    mine.checksum = sum;

    shmem_barrier_all();
    shmem_free(out);
    shmem_free(acc2);
    shmem_free(acc);
    shmem_free(grad);
    // Destroy is collective over each team: members only.
    if (leader_team != SHMEM_TEAM_INVALID) shmem_team_destroy(leader_team);
    shmem_team_destroy(group_team);
    publish_report(wrt, me, mine);
    shmem_finalize();
  });

  return collect_reports(rt, "allreduce", elapsed, /*compare_checksums=*/true);
}

}  // namespace ntbshmem::workload
