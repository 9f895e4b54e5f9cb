#include "shmem/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "backend/backend.hpp"

namespace ntbshmem::shmem {

namespace {

// ---- counting-token primitives on the scratch block -------------------------

long read_local_long(Context& ctx, std::uint64_t off) {
  long v = 0;
  ctx.heap().read(off, std::span<std::byte>(
                           reinterpret_cast<std::byte*>(&v), sizeof v));
  return v;
}

void wait_tokens(Context& ctx, std::uint64_t off, long need) {
  while (read_local_long(ctx, off) < need) ctx.wait_heap_change();
}

// Self-consuming tokens: counters only ever carry "deposited minus
// consumed", so repeated collectives need no reset discipline.
void consume_tokens(Context& ctx, std::uint64_t off, long k) {
  ctx.chan().atomic(AtomicOp::kAdd, off, ctx.pe(), 8,
                    static_cast<std::uint64_t>(-k), 0);
}

void add_token(Context& ctx, int pe, std::uint64_t off, long k = 1) {
  ctx.chan().atomic(AtomicOp::kAdd, off, pe, 8, static_cast<std::uint64_t>(k),
                    0);
}

void put_bytes(Context& ctx, std::uint64_t heap_off, const void* src,
               std::size_t n, int pe) {
  ctx.chan().put(
      heap_off,
      std::span<const std::byte>(static_cast<const std::byte*>(src), n), pe,
      ctx.default_domain());
}

// ---- Topology-aware relay trees ---------------------------------------------
//
// Used when Runtime::tree_collectives() holds, the same gate as the
// transport's tree barrier.

// Set indices ordered root-first, then by (routing hops from the root's
// host, set index). The binary-heap rule over this order — parent of
// order[p] is order[(p - 1) / 2] — yields a relay tree whose depth follows
// routing distance, so hosts near the root forward to hosts further out.
// Pure data: identical on every member because it depends only on the
// static routing table and the set.
std::vector<int> tree_order(Context& ctx, const ActiveSet& set,
                            int root_idx) {
  Runtime& rt = ctx.runtime();
  const fabric::RoutingTable& routes =
      rt.fabric().routing(rt.options().routing);
  const int per_host = rt.options().pes_per_host;
  const int root_host = set.member(root_idx) / per_host;
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(set.size));
  order.push_back(root_idx);
  for (int i = 0; i < set.size; ++i) {
    if (i != root_idx) order.push_back(i);
  }
  std::sort(order.begin() + 1, order.end(), [&](int a, int b) {
    const int ha = routes.hops(root_host, set.member(a) / per_host);
    const int hb = routes.hops(root_host, set.member(b) / per_host);
    return ha != hb ? ha < hb : a < b;
  });
  return order;
}

int tree_pos(const std::vector<int>& order, int idx) {
  for (std::size_t p = 0; p < order.size(); ++p) {
    if (order[p] == idx) return static_cast<int>(p);
  }
  throw std::logic_error("tree_order lost a set member");
}

// Set indices of the (up to two) children of position `pos`.
std::vector<int> tree_children(const std::vector<int>& order, int pos) {
  std::vector<int> kids;
  for (int c = 2 * pos + 1; c <= 2 * pos + 2; ++c) {
    if (c < static_cast<int>(order.size())) {
      kids.push_back(order[static_cast<std::size_t>(c)]);
    }
  }
  return kids;
}

}  // namespace

// ---- ActiveSet ---------------------------------------------------------------

int ActiveSet::index_of(int pe) const {
  if (pe < start) return -1;
  const int delta = pe - start;
  if (delta % stride != 0) return -1;
  const int idx = delta / stride;
  return idx < size ? idx : -1;
}

void ActiveSet::validate(int npes) const {
  if (size < 1 || stride < 1 || start < 0 || member(size - 1) >= npes) {
    throw std::invalid_argument("invalid OpenSHMEM active set");
  }
}

// ---- Barriers -----------------------------------------------------------------

void barrier_set(Context& ctx, const ActiveSet& set) {
  set.validate(ctx.npes());
  const int idx = set.index_of(ctx.pe());
  if (idx < 0) {
    throw std::invalid_argument("barrier_set: calling PE not in active set");
  }
  ctx.quiet();
  if (set.size == 1) return;
  const int root = set.member(0);
  if (ctx.pe() == root) {
    wait_tokens(ctx, CollectiveScratch::kBarrierCounter, set.size - 1);
    consume_tokens(ctx, CollectiveScratch::kBarrierCounter, set.size - 1);
    for (int i = 1; i < set.size; ++i) {
      add_token(ctx, set.member(i), CollectiveScratch::kBarrierRelease);
    }
  } else {
    add_token(ctx, root, CollectiveScratch::kBarrierCounter);
    wait_tokens(ctx, CollectiveScratch::kBarrierRelease, 1);
    consume_tokens(ctx, CollectiveScratch::kBarrierRelease, 1);
  }
}

namespace {

void barrier_dissemination(Context& ctx) {
  ctx.quiet();
  const int n = ctx.npes();
  int round = 0;
  for (int dist = 1; dist < n; dist <<= 1, ++round) {
    if (round >= 8) throw std::logic_error("dissemination rounds exceed slots");
    const std::uint64_t flag =
        CollectiveScratch::kDissemFlags + 8ull * static_cast<unsigned>(round);
    const int partner = (ctx.pe() + dist) % n;
    add_token(ctx, partner, flag);
    wait_tokens(ctx, flag, 1);
    consume_tokens(ctx, flag, 1);
  }
}

}  // namespace

void barrier_all(Context& ctx, BarrierAlgorithm alg) {
  switch (alg) {
    case BarrierAlgorithm::kPaperRing:
      ctx.barrier_all();  // Fig. 6 doorbell protocol in the transport
      return;
    case BarrierAlgorithm::kCentralized:
      barrier_set(ctx, ActiveSet{0, 1, ctx.npes()});
      return;
    case BarrierAlgorithm::kDissemination:
      barrier_dissemination(ctx);
      return;
  }
  throw std::logic_error("unknown barrier algorithm");
}

// ---- Broadcast -----------------------------------------------------------------

namespace {

// Hop-ordered relay tree: the root puts to its (at most two) children; each
// member relays out of its own target buffer once the payload arrived.
// O(log n) rounds instead of the linear root loop, and every tree edge
// points outward in routing distance.
void broadcast_tree(Context& ctx, void* target, const void* source,
                    std::size_t nbytes, int root_idx, const ActiveSet& set) {
  const int idx = set.index_of(ctx.pe());
  const std::vector<int> order = tree_order(ctx, set, root_idx);
  const int pos = tree_pos(order, idx);
  const std::uint64_t target_off = ctx.symmetric_offset(target);
  const void* relay = source;
  if (pos != 0) {
    wait_tokens(ctx, CollectiveScratch::kBcastFlag, 1);
    consume_tokens(ctx, CollectiveScratch::kBcastFlag, 1);
    relay = target;  // payload just landed here; forward from it
  }
  const std::vector<int> kids = tree_children(order, pos);
  if (!kids.empty()) {
    for (const int k : kids) {
      put_bytes(ctx, target_off, relay, nbytes, set.member(k));
    }
    ctx.quiet();  // data delivered before the flags
    for (const int k : kids) {
      add_token(ctx, set.member(k), CollectiveScratch::kBcastFlag);
    }
  }
  barrier_set(ctx, set);
}

}  // namespace

void broadcast(Context& ctx, void* target, const void* source,
               std::size_t nbytes, int root_idx, const ActiveSet& set) {
  set.validate(ctx.npes());
  if (root_idx < 0 || root_idx >= set.size) {
    throw std::invalid_argument("broadcast: root index outside active set");
  }
  const int idx = set.index_of(ctx.pe());
  if (idx < 0) {
    throw std::invalid_argument("broadcast: calling PE not in active set");
  }
  if (set.size == 1) return;
  if (ctx.runtime().tree_collectives()) {
    broadcast_tree(ctx, target, source, nbytes, root_idx, set);
    return;
  }
  if (idx == root_idx) {
    const std::uint64_t target_off = ctx.symmetric_offset(target);
    for (int i = 0; i < set.size; ++i) {
      if (i == root_idx) continue;  // 1.x semantics: root target untouched
      put_bytes(ctx, target_off, source, nbytes, set.member(i));
    }
    ctx.quiet();  // data delivered before the flags
    for (int i = 0; i < set.size; ++i) {
      if (i == root_idx) continue;
      add_token(ctx, set.member(i), CollectiveScratch::kBcastFlag);
    }
  } else {
    wait_tokens(ctx, CollectiveScratch::kBcastFlag, 1);
    consume_tokens(ctx, CollectiveScratch::kBcastFlag, 1);
  }
  // Exit barrier: the token slots carry no collective identity, so no
  // member may start the next collective while another still waits in this
  // one (stronger than the 1.x spec requires; documented in DESIGN.md).
  barrier_set(ctx, set);
}

// ---- Reduction -----------------------------------------------------------------

namespace {

// Tree reduction over the same hop-ordered relay tree as broadcast_tree:
// partials fold leaf-to-root, the result relays root-to-leaf into every
// member's target. Each member owns a single kReduceBuf, so sibling
// subtrees are serialized by explicit turn grants — a child writes its
// parent's buffer only after the parent deposited a kReduceAck token for
// it — which also provides the back-pressure the chain pipeline got from
// its per-send ack. Chunked at kReduceBufBytes like the chain version; the
// scratch block layout is unchanged.
void reduce_tree(
    Context& ctx, void* target, const void* source, std::size_t count,
    std::size_t elem_size, const ActiveSet& set,
    const std::function<void(void*, const void*, std::size_t)>& combine) {
  const int idx = set.index_of(ctx.pe());
  const std::vector<int> order = tree_order(ctx, set, /*root_idx=*/0);
  const int pos = tree_pos(order, idx);
  const int parent = pos == 0 ? -1 : order[static_cast<std::size_t>((pos - 1) / 2)];
  const std::vector<int> kids = tree_children(order, pos);
  auto* src_bytes = static_cast<const std::byte*>(source);
  const std::size_t elems_per_chunk =
      CollectiveScratch::kReduceBufBytes / elem_size;
  const std::uint64_t target_off = ctx.symmetric_offset(target);
  std::vector<std::byte> acc, in;

  for (std::size_t base = 0; base < count; base += elems_per_chunk) {
    const std::size_t n = std::min(elems_per_chunk, count - base);
    const std::size_t bytes = n * elem_size;
    const std::size_t byte_off = base * elem_size;
    acc.assign(src_bytes + byte_off, src_bytes + byte_off + bytes);

    // Fold the subtrees in child order: grant the turn, await the partial.
    for (const int k : kids) {
      add_token(ctx, set.member(k), CollectiveScratch::kReduceAck);
      wait_tokens(ctx, CollectiveScratch::kReduceFlag, 1);
      consume_tokens(ctx, CollectiveScratch::kReduceFlag, 1);
      in.resize(bytes);
      ctx.heap().read(CollectiveScratch::kReduceBuf,
                      std::span<std::byte>(in.data(), bytes));
      combine(acc.data(), in.data(), n);
    }

    if (parent >= 0) {
      // Await our turn, deliver the subtree partial upward.
      wait_tokens(ctx, CollectiveScratch::kReduceAck, 1);
      consume_tokens(ctx, CollectiveScratch::kReduceAck, 1);
      put_bytes(ctx, CollectiveScratch::kReduceBuf, acc.data(), bytes,
                set.member(parent));
      ctx.quiet();
      add_token(ctx, set.member(parent), CollectiveScratch::kReduceFlag);
      // The result relays down into target.
      wait_tokens(ctx, CollectiveScratch::kBcastFlag, 1);
      consume_tokens(ctx, CollectiveScratch::kBcastFlag, 1);
    } else {
      ctx.heap().write(target_off + byte_off,
                       std::span<const std::byte>(acc.data(), bytes));
    }
    const std::byte* result =
        parent >= 0 ? static_cast<const std::byte*>(target) + byte_off
                    : acc.data();
    if (!kids.empty()) {
      for (const int k : kids) {
        put_bytes(ctx, target_off + byte_off, result, bytes, set.member(k));
      }
      ctx.quiet();
      for (const int k : kids) {
        add_token(ctx, set.member(k), CollectiveScratch::kBcastFlag);
      }
    }
  }
  // Exit barrier: see broadcast().
  barrier_set(ctx, set);
}

}  // namespace

void reduce(Context& ctx, void* target, const void* source, std::size_t count,
            std::size_t elem_size, const ActiveSet& set,
            const std::function<void(void*, const void*, std::size_t)>& combine) {
  set.validate(ctx.npes());
  const int idx = set.index_of(ctx.pe());
  if (idx < 0) {
    throw std::invalid_argument("reduce: calling PE not in active set");
  }
  if (elem_size == 0 || elem_size > CollectiveScratch::kReduceBufBytes) {
    throw std::invalid_argument("reduce: unsupported element size");
  }
  auto* src_bytes = static_cast<const std::byte*>(source);
  auto* dst_bytes = static_cast<std::byte*>(target);
  if (set.size == 1) {
    std::memmove(dst_bytes, src_bytes, count * elem_size);
    return;
  }
  if (ctx.runtime().tree_collectives()) {
    reduce_tree(ctx, target, source, count, elem_size, set, combine);
    return;
  }
  const int m = set.size;
  const std::size_t elems_per_chunk =
      CollectiveScratch::kReduceBufBytes / elem_size;
  const std::uint64_t target_off = ctx.symmetric_offset(target);
  std::vector<std::byte> tmp;

  // Pipeline: member 0 seeds each chunk into member 1's reduce buffer;
  // member k folds its contribution in and forwards; the last member
  // distributes the result. kReduceAck tokens flow backwards so a buffer
  // is never overwritten before its owner copied it out; every send waits
  // for its own ack, so no residual tokens survive the call.
  auto send_chunk = [&](const std::byte* data, std::size_t bytes, int to) {
    put_bytes(ctx, CollectiveScratch::kReduceBuf, data, bytes,
              set.member(to));
    ctx.quiet();
    add_token(ctx, set.member(to), CollectiveScratch::kReduceFlag);
    wait_tokens(ctx, CollectiveScratch::kReduceAck, 1);
    consume_tokens(ctx, CollectiveScratch::kReduceAck, 1);
  };

  for (std::size_t base = 0; base < count; base += elems_per_chunk) {
    const std::size_t n = std::min(elems_per_chunk, count - base);
    const std::size_t bytes = n * elem_size;
    const std::size_t byte_off = base * elem_size;

    if (idx == 0) {
      send_chunk(src_bytes + byte_off, bytes, 1);
    } else {
      wait_tokens(ctx, CollectiveScratch::kReduceFlag, 1);
      consume_tokens(ctx, CollectiveScratch::kReduceFlag, 1);
      tmp.resize(bytes);
      ctx.heap().read(CollectiveScratch::kReduceBuf,
                      std::span<std::byte>(tmp.data(), bytes));
      // Buffer copied out: let the upstream member reuse it.
      add_token(ctx, set.member(idx - 1), CollectiveScratch::kReduceAck);
      combine(tmp.data(), src_bytes + byte_off, n);
      if (idx < m - 1) {
        send_chunk(tmp.data(), bytes, idx + 1);
      } else {
        // Last member owns the full result for this chunk.
        ctx.heap().write(target_off + byte_off,
                         std::span<const std::byte>(tmp.data(), bytes));
        for (int i = 0; i < m - 1; ++i) {
          put_bytes(ctx, target_off + byte_off, tmp.data(), bytes,
                    set.member(i));
        }
        ctx.quiet();
        for (int i = 0; i < m - 1; ++i) {
          add_token(ctx, set.member(i), CollectiveScratch::kBcastFlag);
        }
      }
    }
    if (idx != m - 1) {
      wait_tokens(ctx, CollectiveScratch::kBcastFlag, 1);
      consume_tokens(ctx, CollectiveScratch::kBcastFlag, 1);
    }
  }
  // Exit barrier: see broadcast().
  barrier_set(ctx, set);
}

// ---- Collect / fcollect ----------------------------------------------------------

void fcollect(Context& ctx, void* target, const void* source,
              std::size_t nbytes, const ActiveSet& set) {
  set.validate(ctx.npes());
  const int idx = set.index_of(ctx.pe());
  if (idx < 0) {
    throw std::invalid_argument("fcollect: calling PE not in active set");
  }
  const std::uint64_t target_off = ctx.symmetric_offset(target);
  const std::uint64_t my_off = static_cast<std::uint64_t>(idx) * nbytes;
  for (int i = 0; i < set.size; ++i) {
    const int pe = set.member(i);
    if (pe == ctx.pe()) {
      ctx.heap().write(target_off + my_off,
                       std::span<const std::byte>(
                           static_cast<const std::byte*>(source), nbytes));
    } else {
      put_bytes(ctx, target_off + my_off, source, nbytes, pe);
    }
  }
  barrier_set(ctx, set);
}

void collect(Context& ctx, void* target, const void* source,
             std::size_t nbytes, const ActiveSet& set) {
  set.validate(ctx.npes());
  const int idx = set.index_of(ctx.pe());
  if (idx < 0) {
    throw std::invalid_argument("collect: calling PE not in active set");
  }
  // Cursor chain: member k learns the byte offset of its block from k-1.
  std::uint64_t my_off = 0;
  if (idx > 0) {
    wait_tokens(ctx, CollectiveScratch::kCursorFlag, 1);
    consume_tokens(ctx, CollectiveScratch::kCursorFlag, 1);
    my_off = static_cast<std::uint64_t>(
        read_local_long(ctx, CollectiveScratch::kCursorValue));
  }
  if (idx < set.size - 1) {
    const long next_off = static_cast<long>(my_off + nbytes);
    put_bytes(ctx, CollectiveScratch::kCursorValue, &next_off,
              sizeof next_off, set.member(idx + 1));
    ctx.quiet();
    add_token(ctx, set.member(idx + 1), CollectiveScratch::kCursorFlag);
  }
  const std::uint64_t target_off = ctx.symmetric_offset(target);
  for (int i = 0; i < set.size; ++i) {
    const int pe = set.member(i);
    if (pe == ctx.pe()) {
      ctx.heap().write(target_off + my_off,
                       std::span<const std::byte>(
                           static_cast<const std::byte*>(source), nbytes));
    } else {
      put_bytes(ctx, target_off + my_off, source, nbytes, pe);
    }
  }
  barrier_set(ctx, set);
}

void alltoall(Context& ctx, void* target, const void* source,
              std::size_t block_bytes, const ActiveSet& set) {
  set.validate(ctx.npes());
  const int idx = set.index_of(ctx.pe());
  if (idx < 0) {
    throw std::invalid_argument("alltoall: calling PE not in active set");
  }
  const std::uint64_t target_off = ctx.symmetric_offset(target);
  auto* src_bytes = static_cast<const std::byte*>(source);
  const std::uint64_t slot_off =
      static_cast<std::uint64_t>(idx) * block_bytes;
  for (int j = 0; j < set.size; ++j) {
    const int pe = set.member(j);
    const std::byte* block = src_bytes + static_cast<std::size_t>(j) * block_bytes;
    if (pe == ctx.pe()) {
      ctx.heap().write(target_off + slot_off,
                       std::span<const std::byte>(block, block_bytes));
    } else {
      put_bytes(ctx, target_off + slot_off, block, block_bytes, pe);
    }
  }
  barrier_set(ctx, set);
}

// ---- Locks -------------------------------------------------------------------------

namespace {
constexpr sim::Dur kLockBackoff = sim::usec(100);
}

void set_lock(Context& ctx, long* lock) {
  const std::uint64_t off = ctx.symmetric_offset(lock);
  const std::uint64_t token = static_cast<std::uint64_t>(ctx.pe()) + 1;
  for (;;) {
    const std::uint64_t old =
        ctx.chan().atomic(AtomicOp::kCompareSwap, off, 0, 8,
                          /*desired=*/token, /*expected=*/0);
    if (old == 0) return;
    ctx.chan().yield(kLockBackoff);
  }
}

int test_lock(Context& ctx, long* lock) {
  const std::uint64_t off = ctx.symmetric_offset(lock);
  const std::uint64_t token = static_cast<std::uint64_t>(ctx.pe()) + 1;
  const std::uint64_t old =
      ctx.chan().atomic(AtomicOp::kCompareSwap, off, 0, 8, token, 0);
  return old == 0 ? 0 : 1;
}

void clear_lock(Context& ctx, long* lock) {
  ctx.quiet();  // writes under the lock must be visible before release
  const std::uint64_t off = ctx.symmetric_offset(lock);
  ctx.chan().atomic(AtomicOp::kSet, off, 0, 8, 0, 0);
}

}  // namespace ntbshmem::shmem
