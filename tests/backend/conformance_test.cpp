// Cross-backend conformance (DESIGN.md §4j): the same SPMD programs run on
// the DES sim backend (engine fibers over the simulated NTB fabric) and the
// shm backend (real fork()ed processes over a POSIX shared-memory segment)
// and must leave byte-identical symmetric-heap contents. Each program hashes
// every symmetric object it owns at the end of the PE body and publishes the
// hash through the backend's pe_scratch mailbox — the one result channel
// that survives both fibers and fork — and the harness compares the per-PE
// hashes across backends. The KV test is the acceptance gate: >= 100k
// requests at 4 PEs, final heap equal to the golden key pattern on both
// sides (run_kv checks every byte inline), with every conservation counter
// identical because the traffic streams are seeded, not timed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.hpp"
#include "backend/kind.hpp"
#include "shmem/api.hpp"
#include "shmem/runtime.hpp"
#include "shmem/teams.hpp"
#include "workload/scenarios.hpp"
#include "workload/spec.hpp"

namespace ntbshmem::backend {
namespace {

using namespace ntbshmem::shmem;

// ---- Harness ----------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
constexpr std::uint64_t kFnvSeed = 1469598103934665603ull;

// Publishes this PE's content hash through the pe_scratch mailbox (the only
// road out of a forked shm PE).
void publish_hash(std::uint64_t h) {
  Runtime& rt = Runtime::current()->runtime();
  std::memcpy(rt.pe_scratch(shmem_my_pe()).data(), &h, sizeof(h));
}

RuntimeOptions options_for(Kind kind, int npes) {
  RuntimeOptions opts;
  opts.backend = kind;
  opts.npes = npes;
  opts.symheap_chunk_bytes = 1u << 20;
  opts.symheap_max_bytes = 4u << 20;
  return opts;
}

std::vector<std::uint64_t> run_and_collect(Kind kind, int npes,
                                           const std::function<void()>& body) {
  Runtime rt(options_for(kind, npes));
  rt.run(body);
  std::vector<std::uint64_t> hashes(static_cast<std::size_t>(npes), 0);
  for (int pe = 0; pe < npes; ++pe) {
    std::memcpy(&hashes[static_cast<std::size_t>(pe)],
                rt.pe_scratch(pe).data(), sizeof(std::uint64_t));
  }
  return hashes;
}

void expect_backends_agree(int npes, const std::function<void()>& body) {
  const std::vector<std::uint64_t> sim =
      run_and_collect(Kind::kSim, npes, body);
  const std::vector<std::uint64_t> shm =
      run_and_collect(Kind::kShm, npes, body);
  ASSERT_EQ(sim.size(), shm.size());
  for (std::size_t pe = 0; pe < sim.size(); ++pe) {
    EXPECT_EQ(sim[pe], shm[pe]) << "heap-content hash diverged on PE " << pe;
    EXPECT_NE(sim[pe], 0u) << "PE " << pe << " never published its hash";
  }
}

// ---- Programs ---------------------------------------------------------------
// Plain asserts would be lost in a forked child; every check folds into the
// published hash instead (a failed check poisons the hash on one backend).

constexpr int kNpes = 4;

std::uint8_t pattern(int pe, std::size_t i) {
  return static_cast<std::uint8_t>(
      (static_cast<std::size_t>(pe) * 37 + i * 11 + 5) & 0xff);
}

TEST(BackendConformance, BlockingPutGetRoundTrip) {
  expect_backends_agree(kNpes, [] {
    shmem_init();
    const int me = shmem_my_pe();
    const int n = shmem_n_pes();
    const int right = (me + 1) % n;
    const int left = (me + n - 1) % n;
    constexpr std::size_t kBytes = 4096;

    auto* inbox = static_cast<std::uint8_t*>(shmem_malloc(kBytes));
    auto* outbox = static_cast<std::uint8_t*>(shmem_malloc(kBytes));
    for (std::size_t i = 0; i < kBytes; ++i) outbox[i] = pattern(me, i);
    shmem_barrier_all();

    shmem_putmem(inbox, outbox, kBytes, right);
    shmem_barrier_all();

    // Pull the left neighbour's outbox and fold everything observable into
    // the hash: my inbox (pushed by left), the fetched copy, and my outbox.
    std::vector<std::uint8_t> fetched(kBytes);
    shmem_getmem(fetched.data(), outbox, kBytes, left);
    std::uint64_t h = kFnvSeed;
    h = fnv1a(h, inbox, kBytes);
    h = fnv1a(h, fetched.data(), kBytes);
    h = fnv1a(h, outbox, kBytes);
    for (std::size_t i = 0; i < kBytes; ++i) {
      if (inbox[i] != pattern(left, i)) h = 0;     // wrong bytes pushed
      if (fetched[i] != pattern(left, i)) h = 0;   // wrong bytes pulled
    }
    publish_hash(h);
    shmem_barrier_all();
    shmem_free(outbox);
    shmem_free(inbox);
    shmem_finalize();
  });
}

TEST(BackendConformance, NbiBatchesCompleteOnQuiet) {
  expect_backends_agree(kNpes, [] {
    shmem_init();
    const int me = shmem_my_pe();
    const int n = shmem_n_pes();
    constexpr std::size_t kChunk = 512;

    // One inbox slot per sender; every PE scatters a chunk to every peer.
    auto* slots = static_cast<std::uint8_t*>(
        shmem_malloc(static_cast<std::size_t>(n) * kChunk));
    std::memset(slots, 0, static_cast<std::size_t>(n) * kChunk);
    shmem_barrier_all();

    shmem_ctx_t ctx = SHMEM_CTX_INVALID;
    shmem_ctx_create(SHMEM_CTX_PRIVATE, &ctx);
    std::vector<std::vector<std::uint8_t>> staging(
        static_cast<std::size_t>(n));
    for (int pe = 0; pe < n; ++pe) {
      if (pe == me) continue;
      std::vector<std::uint8_t>& src = staging[static_cast<std::size_t>(pe)];
      src.resize(kChunk);
      for (std::size_t i = 0; i < kChunk; ++i) src[i] = pattern(me, i);
      shmem_ctx_putmem_nbi(ctx, slots + static_cast<std::size_t>(me) * kChunk,
                           src.data(), kChunk, pe);
    }
    shmem_ctx_quiet(ctx);
    shmem_ctx_destroy(ctx);
    shmem_barrier_all();

    std::uint64_t h = kFnvSeed;
    h = fnv1a(h, slots, static_cast<std::size_t>(n) * kChunk);
    for (int pe = 0; pe < n; ++pe) {
      if (pe == me) continue;
      for (std::size_t i = 0; i < kChunk; ++i) {
        if (slots[static_cast<std::size_t>(pe) * kChunk + i] !=
            pattern(pe, i)) {
          h = 0;
        }
      }
    }
    publish_hash(h);
    shmem_barrier_all();
    shmem_free(slots);
    shmem_finalize();
  });
}

TEST(BackendConformance, PutSignalDeliversDataBeforeSignal) {
  expect_backends_agree(kNpes, [] {
    shmem_init();
    const int me = shmem_my_pe();
    const int n = shmem_n_pes();
    const int right = (me + 1) % n;
    constexpr std::size_t kBytes = 1024;

    auto* inbox = static_cast<std::uint8_t*>(shmem_malloc(kBytes));
    auto* sig = static_cast<std::uint64_t*>(shmem_calloc(1, sizeof(long)));
    std::memset(inbox, 0, kBytes);
    shmem_barrier_all();

    std::vector<std::uint8_t> src(kBytes);
    for (std::size_t i = 0; i < kBytes; ++i) src[i] = pattern(me, i);
    shmem_putmem_signal(inbox, src.data(), kBytes, sig, 1, SHMEM_SIGNAL_ADD,
                        right);

    // Data-before-signal: once the signal is observed, the payload must be.
    shmem_signal_wait_until(sig, SHMEM_CMP_EQ, 1);
    const int left = (me + n - 1) % n;
    std::uint64_t h = kFnvSeed;
    h = fnv1a(h, inbox, kBytes);
    h = fnv1a(h, sig, sizeof(*sig));
    for (std::size_t i = 0; i < kBytes; ++i) {
      if (inbox[i] != pattern(left, i)) h = 0;
    }
    publish_hash(h);
    shmem_barrier_all();
    shmem_free(sig);
    shmem_free(inbox);
    shmem_finalize();
  });
}

TEST(BackendConformance, AtomicsConserveAndAgree) {
  expect_backends_agree(kNpes, [] {
    shmem_init();
    const int me = shmem_my_pe();
    const int n = shmem_n_pes();
    constexpr long kAddsPerPe = 64;

    auto* counter = static_cast<long*>(shmem_calloc(1, sizeof(long)));
    auto* token = static_cast<long*>(shmem_calloc(1, sizeof(long)));
    shmem_barrier_all();

    // Everyone hammers PE 0's counter; fetch-add return values are
    // interleaving-dependent, so only the conserved total is hashed.
    for (long k = 0; k < kAddsPerPe; ++k) shmem_long_fadd(counter, 1, 0);
    // Swap/cswap agreement on my own word via PE (me+1)'s proxy access.
    shmem_long_swap(token, me + 1, me);
    shmem_long_cswap(token, me + 1, -1, me);
    shmem_barrier_all();

    std::uint64_t h = kFnvSeed;
    h = fnv1a(h, counter, sizeof(*counter));
    h = fnv1a(h, token, sizeof(*token));
    if (me == 0 && *counter != kAddsPerPe * n) h = 0;
    if (*token != -1) h = 0;  // cswap must have matched the swapped value
    publish_hash(h);
    shmem_barrier_all();
    shmem_free(token);
    shmem_free(counter);
    shmem_finalize();
  });
}

TEST(BackendConformance, AtomicPostRejectsFetchingOps) {
  expect_backends_agree(kNpes, [] {
    shmem_init();
    Context& ctx = *Runtime::current();
    const int me = shmem_my_pe();
    const int n = shmem_n_pes();
    const int right = (me + 1) % n;
    // All 11 ops, posted with operand kArg onto a word holding kInit: the
    // five fetching ones must be rejected and leave it alone.
    constexpr std::uint64_t kInit = 0xf0f0;
    constexpr std::uint64_t kArg = 0x0ff5;
    struct Case {
      AtomicOp op;
      bool fetching;
      std::uint64_t want;
    };
    constexpr Case kCases[] = {
        {AtomicOp::kAdd, false, kInit + kArg},
        {AtomicOp::kFetchAdd, true, kInit},
        {AtomicOp::kInc, false, kInit + 1},
        {AtomicOp::kFetchInc, true, kInit},
        {AtomicOp::kCompareSwap, true, kInit},
        {AtomicOp::kSwap, true, kInit},
        {AtomicOp::kFetch, true, kInit},
        {AtomicOp::kSet, false, kArg},
        {AtomicOp::kAnd, false, kInit & kArg},
        {AtomicOp::kOr, false, kInit | kArg},
        {AtomicOp::kXor, false, kInit ^ kArg},
    };
    constexpr std::size_t kNumOps = std::size(kCases);

    // One word per op; each PE posts every op into its right neighbour's.
    auto* words = static_cast<std::uint64_t*>(
        shmem_malloc(kNumOps * sizeof(std::uint64_t)));
    for (std::size_t i = 0; i < kNumOps; ++i) words[i] = kInit;
    shmem_barrier_all();

    std::uint64_t h = kFnvSeed;
    for (std::size_t i = 0; i < kNumOps; ++i) {
      bool rejected = false;
      try {
        ctx.chan().atomic_post(kCases[i].op, ctx.symmetric_offset(&words[i]),
                               right, 8, kArg, ctx.default_domain());
      } catch (const std::invalid_argument&) {
        rejected = true;
      }
      if (rejected != kCases[i].fetching) h = 0;
    }
    ctx.quiet();
    shmem_barrier_all();

    h = fnv1a(h, words, kNumOps * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < kNumOps; ++i) {
      if (words[i] != kCases[i].want) h = 0;
    }
    publish_hash(h);
    shmem_barrier_all();
    shmem_free(words);
    shmem_finalize();
  });
}

// 1 when `op` throws E, else 0.
template <typename E, typename Op>
std::uint64_t throws(const Op& op) {
  try {
    op();
  } catch (const E&) {
    return 1;
  } catch (...) {
    return 0;
  }
  return 0;
}

TEST(BackendConformance, MisuseThrowsInTheCallingPe) {
  // PE 0 of a 3-PE run misuses remote operations: a heap overrun by put,
  // get and atomic, a misaligned and a 3-byte atomic, and a put to an
  // unknown PE. Each must throw its class in PE 0 itself (not in the
  // target's rx service, from where it would escape Runtime::run), apply
  // nothing, and leave the run able to finish. Each PE publishes a bit per
  // case that threw as required, plus bit 6 when its two words are still
  // zero.
  constexpr std::uint64_t kBeyond = std::uint64_t{1} << 40;
  constexpr int kFar = 2;  // two hops from PE 0 on the paper's ring
  constexpr std::uint64_t kClean = 1u << 6;
  for (const Kind kind : {Kind::kSim, Kind::kShm}) {
    const std::vector<std::uint64_t> results = run_and_collect(kind, 3, [] {
      shmem_init();
      Context& ctx = *Runtime::current();
      auto* words = static_cast<std::uint64_t*>(
          shmem_calloc(2, sizeof(std::uint64_t)));
      const std::uint64_t base = ctx.symmetric_offset(words);
      std::uint64_t bits = 0;
      if (shmem_my_pe() == 0) {
        Channel& ch = ctx.chan();
        std::byte buf[64] = {};
        bits |= throws<std::out_of_range>([&] {
          ch.put(kBeyond, buf, kFar, ctx.default_domain());
        });
        bits |= throws<std::out_of_range>([&] { ch.get(kBeyond, buf, kFar); })
                << 1;
        bits |= throws<std::out_of_range>([&] {
          ch.atomic(AtomicOp::kFetchAdd, kBeyond, kFar, 8, 1, 0);
        }) << 2;
        bits |= throws<std::invalid_argument>([&] {
          ch.atomic(AtomicOp::kFetchAdd, base + 4, 1, 8, 1, 0);
        }) << 3;
        bits |= throws<std::invalid_argument>([&] {
          ch.atomic(AtomicOp::kAdd, base, 1, 3, 1, 0);
        }) << 4;
        bits |= throws<std::out_of_range>([&] {
          ch.put(base, buf, 3, ctx.default_domain());
        }) << 5;
        ctx.quiet();
      }
      shmem_barrier_all();
      if (words[0] == 0 && words[1] == 0) bits |= kClean;
      publish_hash(bits);
      shmem_barrier_all();
      shmem_free(words);
      shmem_finalize();
    });
    EXPECT_EQ(results, (std::vector<std::uint64_t>{kClean | 0x3f, kClean,
                                                   kClean}))
        << kind_name(kind);
  }
}

TEST(BackendConformance, TeamsAndCollectivesMatch) {
  expect_backends_agree(kNpes, [] {
    shmem_init();
    const int me = shmem_my_pe();
    const int n = shmem_n_pes();

    // Even/odd teams (stride 2), long sum-reduce inside each team, then a
    // world broadcast of PE 0's reduced value.
    shmem_team_t team = SHMEM_TEAM_INVALID;
    const int parity = me % 2;
    for (int p = 0; p < 2; ++p) {
      shmem_team_t t = SHMEM_TEAM_INVALID;
      shmem_team_split_strided(SHMEM_TEAM_WORLD, p, 2, n / 2, nullptr, 0, &t);
      if (p == parity) team = t;
    }

    auto* src = static_cast<long*>(shmem_malloc(4 * sizeof(long)));
    auto* dst = static_cast<long*>(shmem_malloc(4 * sizeof(long)));
    auto* bcast = static_cast<long*>(shmem_malloc(4 * sizeof(long)));
    for (int i = 0; i < 4; ++i) {
      src[i] = me * 10 + i;
      bcast[i] = -1;
    }
    shmem_barrier_all();

    shmem_long_sum_reduce(team, dst, src, 4);
    long expect[4];
    for (int i = 0; i < 4; ++i) {
      expect[i] = 0;
      for (int pe = parity; pe < n; pe += 2) expect[i] += pe * 10 + i;
    }
    shmem_broadcastmem(SHMEM_TEAM_WORLD, bcast, dst, 4 * sizeof(long), 0);
    shmem_barrier_all();

    std::uint64_t h = kFnvSeed;
    h = fnv1a(h, dst, 4 * sizeof(long));
    h = fnv1a(h, bcast, 4 * sizeof(long));
    for (int i = 0; i < 4; ++i) {
      if (dst[i] != expect[i]) h = 0;
    }
    publish_hash(h);
    shmem_barrier_all();
    shmem_free(bcast);
    shmem_free(dst);
    shmem_free(src);
    shmem_team_destroy(team);
    shmem_finalize();
  });
}

TEST(BackendConformance, WaitUntilObservesRemoteWrite) {
  expect_backends_agree(kNpes, [] {
    shmem_init();
    const int me = shmem_my_pe();
    const int n = shmem_n_pes();
    const int right = (me + 1) % n;

    auto* flag = static_cast<long*>(shmem_calloc(1, sizeof(long)));
    auto* value = static_cast<long*>(shmem_calloc(1, sizeof(long)));
    shmem_barrier_all();

    const long payload = 1000 + me;
    shmem_putmem(value, &payload, sizeof(payload), right);
    shmem_fence();  // value lands before flag (ordered delivery)
    const long one = 1;
    shmem_putmem(flag, &one, sizeof(one), right);

    shmem_wait_until(flag, SHMEM_CMP_EQ, 1);
    const int left = (me + n - 1) % n;
    std::uint64_t h = kFnvSeed;
    h = fnv1a(h, value, sizeof(*value));
    h = fnv1a(h, flag, sizeof(*flag));
    if (*value != 1000 + left) h = 0;
    publish_hash(h);
    shmem_barrier_all();
    shmem_free(value);
    shmem_free(flag);
    shmem_finalize();
  });
}

// ---- Flight recorder: one ring type on both backends -----------------------

// The first ring's header line of a Runtime::dump_flight, parsed into
// {retained, evicted}; {0, 0} (and a test failure) if it does not parse.
std::pair<unsigned long long, unsigned long long> first_ring_counts(
    const std::string& dump) {
  const std::string head = dump.substr(0, dump.find('\n'));
  unsigned long long retained = 0;
  unsigned long long evicted = 0;
  if (std::sscanf(head.c_str(),
                  "=== flight recorder %*[^:]: %llu records retained, "
                  "%llu evicted",
                  &retained, &evicted) != 2) {
    ADD_FAILURE() << "unparsable flight dump header: " << head;
  }
  return {retained, evicted};
}

TEST(BackendConformance, FlightDumpCountsEvictionsOnBothBackends) {
  // PE 0 logs at least one record per put, so 1,000 puts overflow its
  // 512-record ring; the dump must say how many records it lost.
  constexpr unsigned long long kPuts = 1000;
  for (const Kind kind : {Kind::kSim, Kind::kShm}) {
    Runtime rt(options_for(kind, 2));
    rt.run([] {
      shmem_init();
      auto* word =
          static_cast<std::uint64_t*>(shmem_malloc(sizeof(std::uint64_t)));
      shmem_barrier_all();
      if (shmem_my_pe() == 0) {
        for (std::uint64_t i = 0; i < kPuts; ++i) {
          shmem_putmem(word, &i, sizeof(i), 1);
        }
      }
      shmem_barrier_all();
      shmem_free(word);
      shmem_finalize();
    });
    std::ostringstream dump;
    rt.dump_flight(dump);
    const auto [retained, evicted] = first_ring_counts(dump.str());
    EXPECT_EQ(retained, 512u) << kind_name(kind);
    EXPECT_GE(retained + evicted, kPuts) << kind_name(kind);
  }
}

// ---- Acceptance gate: the KV scenario at scale ------------------------------

TEST(BackendConformance, KvHeapIsByteIdenticalAcrossBackendsAt100kRequests) {
  workload::KvSpec spec;
  spec.traffic.requests_per_pe = 25'600;  // x4 PEs = 102,400 requests
  spec.slots_per_pe = 64;
  const std::uint64_t seed = 42;

  workload::ScenarioReport reports[2];
  const Kind kinds[2] = {Kind::kSim, Kind::kShm};
  for (int k = 0; k < 2; ++k) {
    Runtime rt(options_for(kinds[k], 4));
    reports[k] = workload::run_kv(rt, spec, seed);
    // run_kv re-checks every shard byte against the golden key pattern at
    // the end of the run; zero verify_errors IS the byte-identity proof
    // (both backends' final heaps equal the same pure function of the key).
    EXPECT_EQ(reports[k].verify_errors, 0u) << "backend " << k;
    EXPECT_EQ(reports[k].requests_completed, reports[k].requests_issued);
  }
  // The traffic is seeded, not timed: both backends must have executed the
  // exact same request stream.
  EXPECT_EQ(reports[0].requests_issued, 102'400u);
  EXPECT_EQ(reports[0].requests_issued, reports[1].requests_issued);
  EXPECT_EQ(reports[0].bytes_requested, reports[1].bytes_requested);
  EXPECT_EQ(reports[0].bytes_transferred, reports[1].bytes_transferred);
  EXPECT_EQ(reports[0].signals_sent, reports[1].signals_sent);
  EXPECT_EQ(reports[0].signals_received, reports[1].signals_received);
}

}  // namespace
}  // namespace ntbshmem::backend
