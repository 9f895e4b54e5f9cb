#include "shmem/api.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "backend/backend.hpp"

namespace ntbshmem::shmem {

namespace {

Context& ctx_raw() {
  Context* c = Runtime::current();
  if (c == nullptr) {
    throw std::logic_error("OpenSHMEM call outside a PE process");
  }
  return *c;
}

Context& ctx() {
  Context& c = ctx_raw();
  if (!c.initialized()) {
    throw std::logic_error("OpenSHMEM call before shmem_init()");
  }
  return c;
}

// Bit-pattern conversion between typed operands and the 64-bit wire form.
template <typename T>
std::uint64_t to_bits(T v) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (sizeof(T) == 4) {
    std::uint32_t b;
    std::memcpy(&b, &v, 4);
    return b;
  } else {
    std::uint64_t b;
    std::memcpy(&b, &v, 8);
    return b;
  }
}

template <typename T>
T from_bits(std::uint64_t b) {
  T v;
  if constexpr (sizeof(T) == 4) {
    const auto b32 = static_cast<std::uint32_t>(b);
    std::memcpy(&v, &b32, 4);
  } else {
    std::memcpy(&v, &b, 8);
  }
  return v;
}

template <typename T>
T amo(AtomicOp op, T* dest, int pe, T v1 = T{}, T v2 = T{}) {
  const std::uint64_t old =
      ctx().atomic(op, dest, pe, sizeof(T), to_bits(v1), to_bits(v2));
  return from_bits<T>(old);
}

template <typename T>
bool compare(T a, int cmp, T b) {
  switch (cmp) {
    case SHMEM_CMP_EQ: return a == b;
    case SHMEM_CMP_NE: return a != b;
    case SHMEM_CMP_GT: return a > b;
    case SHMEM_CMP_LE: return a <= b;
    case SHMEM_CMP_LT: return a < b;
    case SHMEM_CMP_GE: return a >= b;
    default: throw std::invalid_argument("bad SHMEM_CMP operator");
  }
}

template <typename T>
void wait_until_impl(T* ivar, int cmp, T value) {
  Context& c = ctx();
  bool waited = false;
  while (!compare(*const_cast<const T*>(ivar), cmp, value)) {
    c.wait_heap_change();
    waited = true;
  }
  if (waited) {
    // The blocked application thread pays a reschedule after the delivery
    // woke it (virtual service_wake on the DES backend, a brief real
    // reschedule on shm).
    c.chan().yield(c.runtime().options().timing.service_wake);
  }
}

ActiveSet as(int start, int log_stride, int size) {
  return ActiveSet::from_log_stride(start, log_stride, size);
}

void require_psync(const long* pSync) {
  if (pSync == nullptr) {
    throw std::invalid_argument("pSync must not be null");
  }
}

template <typename T, typename Op>
void reduce_to_all(T* target, const T* source, int nreduce, int PE_start,
                   int logPE_stride, int PE_size, long* pSync, Op op) {
  require_psync(pSync);
  if (nreduce < 0) throw std::invalid_argument("nreduce must be >= 0");
  reduce(ctx(), target, source, static_cast<std::size_t>(nreduce), sizeof(T),
         as(PE_start, logPE_stride, PE_size),
         [op](void* acc, const void* in, std::size_t n) {
           auto* a = static_cast<T*>(acc);
           const auto* b = static_cast<const T*>(in);
           for (std::size_t i = 0; i < n; ++i) {
             a[i] = static_cast<T>(op(a[i], b[i]));
           }
         });
}

}  // namespace

// ---- Lifecycle -----------------------------------------------------------------

void shmem_init() {
  Context& c = ctx_raw();
  if (c.initialized()) {
    throw std::logic_error("shmem_init() called twice");
  }
  c.mark_initialized();
  // The paper's init step exchanges host ids and BAR regions through the
  // ScratchPad registers before anything else can proceed (§III-B1); the
  // ring barrier below plays that rendezvous role — nobody returns from
  // shmem_init() until every PE has arrived and the doorbell path works.
  c.barrier_all();
}

void shmem_finalize() {
  Context& c = ctx();
  c.quiet();
  c.barrier_all();  // release of symmetric heap must be collective
  c.mark_finalized();
}

int shmem_my_pe() { return ctx().pe(); }
int shmem_n_pes() { return ctx().npes(); }
int my_pe() { return shmem_my_pe(); }
int num_pes() { return shmem_n_pes(); }

void shmem_info_get_version(int* major, int* minor) {
  if (major != nullptr) *major = SHMEM_MAJOR_VERSION;
  if (minor != nullptr) *minor = SHMEM_MINOR_VERSION;
}

void shmem_info_get_name(char* name) {
  if (name == nullptr) return;
  std::snprintf(name, SHMEM_MAX_NAME_LEN, "ntbshmem-pcie-ntb-ring");
}

int shmem_pe_accessible(int pe) {
  return (pe >= 0 && pe < ctx().npes()) ? 1 : 0;
}

int shmem_addr_accessible(const void* addr, int pe) {
  if (shmem_pe_accessible(pe) == 0) return 0;
  return ctx().heap().offset_of(addr).has_value() ? 1 : 0;
}

// ---- Memory --------------------------------------------------------------------

void* shmem_malloc(std::size_t size) { return ctx().sym_malloc(size); }
void* shmem_calloc(std::size_t count, std::size_t size) {
  return ctx().sym_calloc(count, size);
}
void* shmem_align(std::size_t alignment, std::size_t size) {
  return ctx().sym_align(alignment, size);
}
void* shmem_realloc(void* ptr, std::size_t size) {
  return ctx().sym_realloc(ptr, size);
}
void shmem_free(void* ptr) { ctx().sym_free(ptr); }

void* shmem_ptr(const void* dest, int pe) {
  Context& c = ctx();
  if (pe == c.pe()) {
    c.symmetric_offset(dest);  // validates the address
    return const_cast<void*>(dest);
  }
  return nullptr;  // no load/store access to remote heaps over NTB put/get
}

// ---- RMA -----------------------------------------------------------------------

void shmem_putmem(void* dest, const void* source, std::size_t nbytes, int pe) {
  ctx().putmem(dest, source, nbytes, pe);
}
void shmem_getmem(void* dest, const void* source, std::size_t nbytes, int pe) {
  ctx().getmem(dest, source, nbytes, pe);
}
void shmem_putmem_nbi(void* dest, const void* source, std::size_t nbytes,
                      int pe) {
  ctx().putmem_nbi(dest, source, nbytes, pe);
}
void shmem_getmem_nbi(void* dest, const void* source, std::size_t nbytes,
                      int pe) {
  ctx().getmem_nbi(dest, source, nbytes, pe);
}

#define NTBSHMEM_DEFINE_RMA(NAME, T)                                          \
  void shmem_##NAME##_put(T* dest, const T* source, std::size_t nelems,       \
                          int pe) {                                           \
    ctx().putmem(dest, source, nelems * sizeof(T), pe);                       \
  }                                                                           \
  void shmem_##NAME##_get(T* dest, const T* source, std::size_t nelems,       \
                          int pe) {                                           \
    ctx().getmem(dest, const_cast<T*>(source), nelems * sizeof(T), pe);       \
  }                                                                           \
  void shmem_##NAME##_put_nbi(T* dest, const T* source, std::size_t nelems,   \
                              int pe) {                                       \
    ctx().putmem_nbi(dest, source, nelems * sizeof(T), pe);                   \
  }                                                                           \
  void shmem_##NAME##_get_nbi(T* dest, const T* source, std::size_t nelems,   \
                              int pe) {                                       \
    ctx().getmem_nbi(dest, const_cast<T*>(source), nelems * sizeof(T), pe);   \
  }                                                                           \
  void shmem_##NAME##_p(T* dest, T value, int pe) {                           \
    ctx().putmem(dest, &value, sizeof(T), pe);                                \
  }                                                                           \
  T shmem_##NAME##_g(const T* source, int pe) {                               \
    T value;                                                                  \
    ctx().getmem(&value, const_cast<T*>(source), sizeof(T), pe);              \
    return value;                                                             \
  }                                                                           \
  void shmem_##NAME##_iput(T* dest, const T* source, std::ptrdiff_t dst,      \
                           std::ptrdiff_t sst, std::size_t nelems, int pe) {  \
    for (std::size_t i = 0; i < nelems; ++i) {                                \
      ctx().putmem(dest + static_cast<std::ptrdiff_t>(i) * dst,              \
                   source + static_cast<std::ptrdiff_t>(i) * sst, sizeof(T), \
                   pe);                                                       \
    }                                                                         \
  }                                                                           \
  void shmem_##NAME##_iget(T* dest, const T* source, std::ptrdiff_t dst,      \
                           std::ptrdiff_t sst, std::size_t nelems, int pe) {  \
    for (std::size_t i = 0; i < nelems; ++i) {                                \
      ctx().getmem(dest + static_cast<std::ptrdiff_t>(i) * dst,              \
                   const_cast<T*>(source) +                                   \
                       static_cast<std::ptrdiff_t>(i) * sst,                  \
                   sizeof(T), pe);                                            \
    }                                                                         \
  }

NTBSHMEM_DEFINE_RMA(char, char)
NTBSHMEM_DEFINE_RMA(schar, signed char)
NTBSHMEM_DEFINE_RMA(short, short)
NTBSHMEM_DEFINE_RMA(int, int)
NTBSHMEM_DEFINE_RMA(long, long)
NTBSHMEM_DEFINE_RMA(longlong, long long)
NTBSHMEM_DEFINE_RMA(uchar, unsigned char)
NTBSHMEM_DEFINE_RMA(ushort, unsigned short)
NTBSHMEM_DEFINE_RMA(uint, unsigned int)
NTBSHMEM_DEFINE_RMA(ulong, unsigned long)
NTBSHMEM_DEFINE_RMA(ulonglong, unsigned long long)
NTBSHMEM_DEFINE_RMA(size, std::size_t)
NTBSHMEM_DEFINE_RMA(ptrdiff, std::ptrdiff_t)
NTBSHMEM_DEFINE_RMA(float, float)
NTBSHMEM_DEFINE_RMA(double, double)
#undef NTBSHMEM_DEFINE_RMA

#define NTBSHMEM_DEFINE_SIZED(BITS, BYTES)                                    \
  void shmem_put##BITS(void* dest, const void* source, std::size_t nelems,    \
                       int pe) {                                              \
    ctx().putmem(dest, source, nelems * BYTES, pe);                           \
  }                                                                           \
  void shmem_get##BITS(void* dest, const void* source, std::size_t nelems,    \
                       int pe) {                                              \
    ctx().getmem(dest, source, nelems * BYTES, pe);                           \
  }
NTBSHMEM_DEFINE_SIZED(8, 1)
NTBSHMEM_DEFINE_SIZED(16, 2)
NTBSHMEM_DEFINE_SIZED(32, 4)
NTBSHMEM_DEFINE_SIZED(64, 8)
#undef NTBSHMEM_DEFINE_SIZED

// ---- Put-with-signal -----------------------------------------------------------

namespace {
AtomicOp signal_op_of(int sig_op) {
  switch (sig_op) {
    case SHMEM_SIGNAL_SET: return AtomicOp::kSet;
    case SHMEM_SIGNAL_ADD: return AtomicOp::kAdd;
    default: throw std::invalid_argument("bad SHMEM_SIGNAL operation");
  }
}
}  // namespace

void shmem_putmem_signal(void* dest, const void* source, std::size_t nbytes,
                         std::uint64_t* sig_addr, std::uint64_t signal,
                         int sig_op, int pe) {
  ctx().putmem_signal(dest, source, nbytes, sig_addr, signal,
                      signal_op_of(sig_op), pe);
}

void shmem_putmem_signal_nbi(void* dest, const void* source,
                             std::size_t nbytes, std::uint64_t* sig_addr,
                             std::uint64_t signal, int sig_op, int pe) {
  // put() is locally blocking, a conforming nbi implementation.
  shmem_putmem_signal(dest, source, nbytes, sig_addr, signal, sig_op, pe);
}

std::uint64_t shmem_signal_fetch(const std::uint64_t* sig_addr) {
  ctx().symmetric_offset(sig_addr);  // validate
  return *sig_addr;
}

std::uint64_t shmem_signal_wait_until(std::uint64_t* sig_addr, int cmp,
                                      std::uint64_t value) {
  wait_until_impl(sig_addr, cmp, value);
  return *sig_addr;
}

// ---- Communication contexts ------------------------------------------------------

int shmem_ctx_create(long /*options*/, shmem_ctx_t* out) {
  if (out == nullptr) throw std::invalid_argument("ctx out-param is null");
  *out = ctx().create_ctx_domain();
  return 0;
}

void shmem_ctx_destroy(shmem_ctx_t c) { ctx().destroy_ctx_domain(c); }
void shmem_ctx_quiet(shmem_ctx_t c) { ctx().ctx_quiet(c); }
void shmem_ctx_fence(shmem_ctx_t c) {
  ctx().check_ctx_domain(c);
  ctx().fence();  // per-path FIFO gives put-put ordering on every context
}

void shmem_ctx_putmem(shmem_ctx_t c, void* dest, const void* source,
                      std::size_t nbytes, int pe) {
  ctx().ctx_putmem(c, dest, source, nbytes, pe);
}
void shmem_ctx_putmem_nbi(shmem_ctx_t c, void* dest, const void* source,
                          std::size_t nbytes, int pe) {
  ctx().ctx_putmem(c, dest, source, nbytes, pe);
}
void shmem_ctx_getmem(shmem_ctx_t c, void* dest, const void* source,
                      std::size_t nbytes, int pe) {
  ctx().check_ctx_domain(c);
  ctx().getmem(dest, source, nbytes, pe);  // blocking get completes itself
}
void shmem_ctx_getmem_nbi(shmem_ctx_t c, void* dest, const void* source,
                          std::size_t nbytes, int pe) {
  ctx().ctx_getmem_nbi(c, dest, source, nbytes, pe);
}

// Typed context RMA.
#define NTBSHMEM_DEFINE_CTX_RMA(NAME, T)                                      \
  void shmem_ctx_##NAME##_put(shmem_ctx_t c, T* dest, const T* source,        \
                              std::size_t nelems, int pe) {                   \
    ctx().ctx_putmem(c, dest, source, nelems * sizeof(T), pe);                \
  }                                                                           \
  void shmem_ctx_##NAME##_get(shmem_ctx_t c, T* dest, const T* source,        \
                              std::size_t nelems, int pe) {                   \
    ctx().check_ctx_domain(c);                                                \
    ctx().getmem(dest, const_cast<T*>(source), nelems * sizeof(T), pe);       \
  }                                                                           \
  void shmem_ctx_##NAME##_p(shmem_ctx_t c, T* dest, T value, int pe) {        \
    ctx().ctx_putmem(c, dest, &value, sizeof(T), pe);                         \
  }                                                                           \
  T shmem_ctx_##NAME##_g(shmem_ctx_t c, const T* source, int pe) {            \
    ctx().check_ctx_domain(c);                                                \
    T value;                                                                  \
    ctx().getmem(&value, const_cast<T*>(source), sizeof(T), pe);              \
    return value;                                                             \
  }
NTBSHMEM_DEFINE_CTX_RMA(int, int)
NTBSHMEM_DEFINE_CTX_RMA(long, long)
NTBSHMEM_DEFINE_CTX_RMA(float, float)
NTBSHMEM_DEFINE_CTX_RMA(double, double)
#undef NTBSHMEM_DEFINE_CTX_RMA

// ---- Ordering / synchronization ----------------------------------------------

void shmem_fence() { ctx().fence(); }
void shmem_quiet() { ctx().quiet(); }
void shmem_barrier_all() { ctx().barrier_all(); }

void shmem_barrier(int PE_start, int logPE_stride, int PE_size, long* pSync) {
  require_psync(pSync);
  barrier_set(ctx(), as(PE_start, logPE_stride, PE_size));
}

#define NTBSHMEM_DEFINE_WAIT(NAME, T)                                         \
  void shmem_##NAME##_wait_until(T* ivar, int cmp, T value) {                 \
    wait_until_impl(ivar, cmp, value);                                        \
  }                                                                           \
  void shmem_##NAME##_wait(T* ivar, T value) {                                \
    wait_until_impl(ivar, SHMEM_CMP_NE, value);                               \
  }                                                                           \
  int shmem_##NAME##_test(T* ivar, int cmp, T value) {                        \
    return compare(*ivar, cmp, value) ? 1 : 0;                                \
  }
NTBSHMEM_DEFINE_WAIT(short, short)
NTBSHMEM_DEFINE_WAIT(int, int)
NTBSHMEM_DEFINE_WAIT(long, long)
NTBSHMEM_DEFINE_WAIT(longlong, long long)
NTBSHMEM_DEFINE_WAIT(ushort, unsigned short)
NTBSHMEM_DEFINE_WAIT(uint, unsigned int)
NTBSHMEM_DEFINE_WAIT(ulong, unsigned long)
NTBSHMEM_DEFINE_WAIT(ulonglong, unsigned long long)
NTBSHMEM_DEFINE_WAIT(size, std::size_t)
#undef NTBSHMEM_DEFINE_WAIT

void shmem_wait_until(long* ivar, int cmp, long value) {
  wait_until_impl(ivar, cmp, value);
}
void shmem_wait(long* ivar, long value) {
  wait_until_impl(ivar, SHMEM_CMP_NE, value);
}

// ---- Atomics --------------------------------------------------------------------

#define NTBSHMEM_DEFINE_AMO(NAME, T)                                          \
  T shmem_##NAME##_atomic_fetch(const T* source, int pe) {                    \
    return amo(AtomicOp::kFetch, const_cast<T*>(source), pe);                 \
  }                                                                           \
  void shmem_##NAME##_atomic_set(T* dest, T value, int pe) {                  \
    amo(AtomicOp::kSet, dest, pe, value);                                     \
  }                                                                           \
  T shmem_##NAME##_atomic_swap(T* dest, T value, int pe) {                    \
    return amo(AtomicOp::kSwap, dest, pe, value);                             \
  }                                                                           \
  T shmem_##NAME##_atomic_compare_swap(T* dest, T cond, T value, int pe) {    \
    return amo(AtomicOp::kCompareSwap, dest, pe, value, cond);                \
  }                                                                           \
  void shmem_##NAME##_atomic_inc(T* dest, int pe) {                           \
    amo(AtomicOp::kInc, dest, pe);                                            \
  }                                                                           \
  T shmem_##NAME##_atomic_fetch_inc(T* dest, int pe) {                        \
    return amo(AtomicOp::kFetchInc, dest, pe);                                \
  }                                                                           \
  void shmem_##NAME##_atomic_add(T* dest, T value, int pe) {                  \
    amo(AtomicOp::kAdd, dest, pe, value);                                     \
  }                                                                           \
  T shmem_##NAME##_atomic_fetch_add(T* dest, T value, int pe) {               \
    return amo(AtomicOp::kFetchAdd, dest, pe, value);                         \
  }                                                                           \
  void shmem_##NAME##_atomic_and(T* dest, T value, int pe) {                  \
    amo(AtomicOp::kAnd, dest, pe, value);                                     \
  }                                                                           \
  T shmem_##NAME##_atomic_fetch_and(T* dest, T value, int pe) {               \
    return amo(AtomicOp::kAnd, dest, pe, value);                              \
  }                                                                           \
  void shmem_##NAME##_atomic_or(T* dest, T value, int pe) {                   \
    amo(AtomicOp::kOr, dest, pe, value);                                      \
  }                                                                           \
  T shmem_##NAME##_atomic_fetch_or(T* dest, T value, int pe) {                \
    return amo(AtomicOp::kOr, dest, pe, value);                               \
  }                                                                           \
  void shmem_##NAME##_atomic_xor(T* dest, T value, int pe) {                  \
    amo(AtomicOp::kXor, dest, pe, value);                                     \
  }                                                                           \
  T shmem_##NAME##_atomic_fetch_xor(T* dest, T value, int pe) {               \
    return amo(AtomicOp::kXor, dest, pe, value);                              \
  }
NTBSHMEM_DEFINE_AMO(int, int)
NTBSHMEM_DEFINE_AMO(long, long)
NTBSHMEM_DEFINE_AMO(longlong, long long)
NTBSHMEM_DEFINE_AMO(uint, unsigned int)
NTBSHMEM_DEFINE_AMO(ulong, unsigned long)
NTBSHMEM_DEFINE_AMO(ulonglong, unsigned long long)
#undef NTBSHMEM_DEFINE_AMO

int shmem_int_finc(int* dest, int pe) {
  return shmem_int_atomic_fetch_inc(dest, pe);
}
int shmem_int_fadd(int* dest, int value, int pe) {
  return shmem_int_atomic_fetch_add(dest, value, pe);
}
int shmem_int_cswap(int* dest, int cond, int value, int pe) {
  return shmem_int_atomic_compare_swap(dest, cond, value, pe);
}
int shmem_int_swap(int* dest, int value, int pe) {
  return shmem_int_atomic_swap(dest, value, pe);
}
long shmem_long_finc(long* dest, int pe) {
  return shmem_long_atomic_fetch_inc(dest, pe);
}
long shmem_long_fadd(long* dest, long value, int pe) {
  return shmem_long_atomic_fetch_add(dest, value, pe);
}
long shmem_long_cswap(long* dest, long cond, long value, int pe) {
  return shmem_long_atomic_compare_swap(dest, cond, value, pe);
}
long shmem_long_swap(long* dest, long value, int pe) {
  return shmem_long_atomic_swap(dest, value, pe);
}

// ---- Collectives ------------------------------------------------------------------

void shmem_broadcast32(void* target, const void* source, std::size_t nelems,
                       int PE_root, int PE_start, int logPE_stride,
                       int PE_size, long* pSync) {
  require_psync(pSync);
  broadcast(ctx(), target, source, nelems * 4, PE_root,
            as(PE_start, logPE_stride, PE_size));
}
void shmem_broadcast64(void* target, const void* source, std::size_t nelems,
                       int PE_root, int PE_start, int logPE_stride,
                       int PE_size, long* pSync) {
  require_psync(pSync);
  broadcast(ctx(), target, source, nelems * 8, PE_root,
            as(PE_start, logPE_stride, PE_size));
}
void shmem_collect32(void* target, const void* source, std::size_t nelems,
                     int PE_start, int logPE_stride, int PE_size,
                     long* pSync) {
  require_psync(pSync);
  collect(ctx(), target, source, nelems * 4,
          as(PE_start, logPE_stride, PE_size));
}
void shmem_collect64(void* target, const void* source, std::size_t nelems,
                     int PE_start, int logPE_stride, int PE_size,
                     long* pSync) {
  require_psync(pSync);
  collect(ctx(), target, source, nelems * 8,
          as(PE_start, logPE_stride, PE_size));
}
void shmem_fcollect32(void* target, const void* source, std::size_t nelems,
                      int PE_start, int logPE_stride, int PE_size,
                      long* pSync) {
  require_psync(pSync);
  fcollect(ctx(), target, source, nelems * 4,
           as(PE_start, logPE_stride, PE_size));
}
void shmem_fcollect64(void* target, const void* source, std::size_t nelems,
                      int PE_start, int logPE_stride, int PE_size,
                      long* pSync) {
  require_psync(pSync);
  fcollect(ctx(), target, source, nelems * 8,
           as(PE_start, logPE_stride, PE_size));
}
void shmem_alltoall32(void* target, const void* source, std::size_t nelems,
                      int PE_start, int logPE_stride, int PE_size,
                      long* pSync) {
  require_psync(pSync);
  alltoall(ctx(), target, source, nelems * 4,
           as(PE_start, logPE_stride, PE_size));
}
void shmem_alltoall64(void* target, const void* source, std::size_t nelems,
                      int PE_start, int logPE_stride, int PE_size,
                      long* pSync) {
  require_psync(pSync);
  alltoall(ctx(), target, source, nelems * 8,
           as(PE_start, logPE_stride, PE_size));
}

#define NTBSHMEM_DEFINE_REDUCE(NAME, T)                                       \
  void shmem_##NAME##_sum_to_all(T* target, const T* source, int nreduce,     \
                                 int PE_start, int logPE_stride, int PE_size, \
                                 T*, long* pSync) {                           \
    reduce_to_all<T>(target, source, nreduce, PE_start, logPE_stride,         \
                     PE_size, pSync, [](T a, T b) { return a + b; });         \
  }                                                                           \
  void shmem_##NAME##_prod_to_all(T* target, const T* source, int nreduce,    \
                                  int PE_start, int logPE_stride,             \
                                  int PE_size, T*, long* pSync) {             \
    reduce_to_all<T>(target, source, nreduce, PE_start, logPE_stride,         \
                     PE_size, pSync, [](T a, T b) { return a * b; });         \
  }                                                                           \
  void shmem_##NAME##_min_to_all(T* target, const T* source, int nreduce,     \
                                 int PE_start, int logPE_stride, int PE_size, \
                                 T*, long* pSync) {                           \
    reduce_to_all<T>(target, source, nreduce, PE_start, logPE_stride,         \
                     PE_size, pSync, [](T a, T b) { return a < b ? a : b; }); \
  }                                                                           \
  void shmem_##NAME##_max_to_all(T* target, const T* source, int nreduce,     \
                                 int PE_start, int logPE_stride, int PE_size, \
                                 T*, long* pSync) {                           \
    reduce_to_all<T>(target, source, nreduce, PE_start, logPE_stride,         \
                     PE_size, pSync, [](T a, T b) { return a > b ? a : b; }); \
  }
NTBSHMEM_DEFINE_REDUCE(short, short)
NTBSHMEM_DEFINE_REDUCE(int, int)
NTBSHMEM_DEFINE_REDUCE(long, long)
NTBSHMEM_DEFINE_REDUCE(longlong, long long)
NTBSHMEM_DEFINE_REDUCE(uint, unsigned int)
NTBSHMEM_DEFINE_REDUCE(ulong, unsigned long)
NTBSHMEM_DEFINE_REDUCE(ulonglong, unsigned long long)
NTBSHMEM_DEFINE_REDUCE(float, float)
NTBSHMEM_DEFINE_REDUCE(double, double)
#undef NTBSHMEM_DEFINE_REDUCE

#define NTBSHMEM_DEFINE_BITWISE_REDUCE(NAME, T)                               \
  void shmem_##NAME##_and_to_all(T* target, const T* source, int nreduce,     \
                                 int PE_start, int logPE_stride, int PE_size, \
                                 T*, long* pSync) {                           \
    reduce_to_all<T>(target, source, nreduce, PE_start, logPE_stride,         \
                     PE_size, pSync, [](T a, T b) { return a & b; });         \
  }                                                                           \
  void shmem_##NAME##_or_to_all(T* target, const T* source, int nreduce,      \
                                int PE_start, int logPE_stride, int PE_size,  \
                                T*, long* pSync) {                            \
    reduce_to_all<T>(target, source, nreduce, PE_start, logPE_stride,         \
                     PE_size, pSync, [](T a, T b) { return a | b; });         \
  }                                                                           \
  void shmem_##NAME##_xor_to_all(T* target, const T* source, int nreduce,     \
                                 int PE_start, int logPE_stride, int PE_size, \
                                 T*, long* pSync) {                           \
    reduce_to_all<T>(target, source, nreduce, PE_start, logPE_stride,         \
                     PE_size, pSync, [](T a, T b) { return a ^ b; });         \
  }
NTBSHMEM_DEFINE_BITWISE_REDUCE(short, short)
NTBSHMEM_DEFINE_BITWISE_REDUCE(int, int)
NTBSHMEM_DEFINE_BITWISE_REDUCE(long, long)
NTBSHMEM_DEFINE_BITWISE_REDUCE(longlong, long long)
NTBSHMEM_DEFINE_BITWISE_REDUCE(uint, unsigned int)
NTBSHMEM_DEFINE_BITWISE_REDUCE(ulong, unsigned long)
NTBSHMEM_DEFINE_BITWISE_REDUCE(ulonglong, unsigned long long)
#undef NTBSHMEM_DEFINE_BITWISE_REDUCE

// ---- Locks ------------------------------------------------------------------------

void shmem_set_lock(long* lock) { set_lock(ctx(), lock); }
void shmem_clear_lock(long* lock) { clear_lock(ctx(), lock); }
int shmem_test_lock(long* lock) { return test_lock(ctx(), lock); }

}  // namespace ntbshmem::shmem
