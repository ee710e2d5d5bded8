#include "core/kernels/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace acn::kernels {

#ifdef ACN_HAVE_AVX2
const Ops& avx2_ops() noexcept;  // defined in kernels_avx2.cc
#endif

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels — the semantic ground truth. Each is the exact
// double-path loop it replaced, verbatim; the AVX2 table must match these
// byte-for-byte on every input (asserted per call in debug builds).

std::size_t scalar_filter_in_window(const std::uint32_t* /*qcol*/, const double* col,
                                    const std::uint32_t* ids, std::size_t n,
                                    const WindowBoundsQ& b, std::uint32_t* out) {
  std::size_t out_n = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t id = ids[i];
    const double x = col[id];
    if (x >= b.lower && x <= b.upper) out[out_n++] = id;
  }
  return out_n;
}

void scalar_minmax_ids(const double* col, const std::uint32_t* ids, std::size_t n,
                       double* lo, double* hi) {
  double l = col[ids[0]];
  double h = l;
  for (std::size_t i = 1; i < n; ++i) {
    const double x = col[ids[i]];
    if (x < l) l = x;
    if (x > h) h = x;
  }
  *lo = l;
  *hi = h;
}

std::uint64_t scalar_popcount_andnot(const std::uint64_t* a, const std::uint64_t* b,
                                     std::size_t words) {
  std::uint64_t count = 0;
  for (std::size_t k = 0; k < words; ++k) {
    count += static_cast<std::uint64_t>(std::popcount(a[k] & ~b[k]));
  }
  return count;
}

OpenScan scalar_scan_open(const std::uint64_t* base, const std::uint64_t* used,
                          const std::uint64_t* far, const std::uint64_t* l,
                          std::size_t words) {
  OpenScan r;
  std::uint64_t far_hit = 0;
  std::uint64_t l_hit = 0;
  for (std::size_t k = 0; k < words; ++k) {
    const std::uint64_t open = base[k] & ~used[k];
    r.open += static_cast<std::uint64_t>(std::popcount(open));
    far_hit |= open & far[k];
    l_hit |= open & l[k];
  }
  r.far_any = far_hit != 0;
  r.l_any = l_hit != 0;
  return r;
}

bool scalar_targets_all_below(const std::uint64_t* targets, std::size_t count,
                              std::size_t words, const std::uint64_t* used,
                              std::uint64_t tau) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* row = targets + i * words;
    std::uint64_t survivors = 0;
    for (std::size_t k = 0; k < words; ++k) {
      survivors += static_cast<std::uint64_t>(std::popcount(row[k] & ~used[k]));
    }
    if (survivors >= tau) return false;
  }
  return true;
}

std::size_t scalar_nsc_scan_rows(const std::uint64_t* bases,
                                 const std::uint32_t* rows, std::size_t count,
                                 std::size_t words, const std::uint64_t* used,
                                 const std::uint64_t* far, const std::uint64_t* l,
                                 std::uint64_t tau, std::uint64_t* acc,
                                 std::uint32_t* out_rows) {
  std::size_t out_n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* row = bases + rows[i] * words;
    const OpenScan scan = scalar_scan_open(row, used, far, l, words);
    if (scan.open <= tau || !scan.far_any || !scan.l_any) continue;
    for (std::size_t k = 0; k < words; ++k) acc[k] |= row[k];
    out_rows[out_n++] = rows[i];
  }
  return out_n;
}

constexpr Ops kScalarOps = {
    "scalar",
    scalar_filter_in_window,
    scalar_minmax_ids,
    scalar_popcount_andnot,
    scalar_scan_open,
    scalar_targets_all_below,
    scalar_nsc_scan_rows,
};

// ---------------------------------------------------------------------------
// Counters: one cache-line block per thread, registered in a process-wide
// list of shared_ptrs so a snapshot can sum blocks of threads that already
// exited (worker lanes are persistent, but nothing here should care).

struct alignas(64) CounterBlock {
  std::atomic<std::uint64_t> v[7] = {};
};

enum CounterIndex : std::size_t {
  kFilterCalls,
  kFilterItems,
  kMinmaxCalls,
  kMinmaxItems,
  kPopcntCalls,
  kPopcntWords,
  kCycles,
};

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

std::vector<std::shared_ptr<CounterBlock>>& registry() {
  static std::vector<std::shared_ptr<CounterBlock>> blocks;
  return blocks;
}

CounterBlock* tls_counters() {
  thread_local CounterBlock* block = [] {
    auto owned = std::make_shared<CounterBlock>();
    CounterBlock* raw = owned.get();
    const std::lock_guard<std::mutex> lock(registry_mutex());
    registry().push_back(std::move(owned));
    return raw;
  }();
  return block;
}

inline void bump(CounterBlock* c, CounterIndex calls, CounterIndex items,
                 std::uint64_t n) {
  c->v[calls].fetch_add(1, std::memory_order_relaxed);
  c->v[items].fetch_add(n, std::memory_order_relaxed);
}

bool g_cycles_enabled = false;

inline std::uint64_t read_tsc() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return 0;
#endif
}

// ---------------------------------------------------------------------------
// Dispatch state. g_inner is the raw selected table; the public table wraps
// it with counting (and, in debug builds when AVX2 is selected, with a
// cross-check that replays every call on the scalar table and asserts
// byte-identical results — "every kernel asserts its verdict against the
// scalar path").

std::atomic<const Ops*> g_inner{nullptr};
std::atomic<bool> g_crosscheck{false};

const Ops* avx2_table() noexcept {
#ifdef ACN_HAVE_AVX2
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return &avx2_ops();
#endif
#endif
  return nullptr;
}

void select(const Ops* table) noexcept {
  g_inner.store(table, std::memory_order_release);
#ifndef NDEBUG
  g_crosscheck.store(table != &kScalarOps, std::memory_order_release);
#endif
}

void init_once() noexcept {
  static std::once_flag once;
  std::call_once(once, [] {
    g_cycles_enabled = [] {
      const char* env = std::getenv("ACN_KERNEL_CYCLES");
      return env != nullptr && env[0] == '1';
    }();
    const Ops* avx2 = avx2_table();
    const Ops* chosen = avx2 != nullptr ? avx2 : &kScalarOps;
    if (const char* env = std::getenv("ACN_KERNELS"); env != nullptr) {
      if (std::strcmp(env, "scalar") == 0) {
        chosen = &kScalarOps;
      } else if (std::strcmp(env, "avx2") == 0) {
        if (avx2 == nullptr) {
          std::fprintf(stderr,
                       "acn: ACN_KERNELS=avx2 requested but unavailable; "
                       "using scalar kernels\n");
        } else {
          chosen = avx2;
        }
      }
    }
    select(chosen);
  });
}

inline const Ops* inner() noexcept {
  const Ops* table = g_inner.load(std::memory_order_acquire);
  if (table == nullptr) {
    init_once();
    table = g_inner.load(std::memory_order_acquire);
  }
  return table;
}

#ifndef NDEBUG
thread_local std::vector<std::uint32_t> t_check_out;
#endif

std::size_t counted_filter_in_window(const std::uint32_t* qcol, const double* col,
                                     const std::uint32_t* ids, std::size_t n,
                                     const WindowBoundsQ& b, std::uint32_t* out) {
  CounterBlock* c = tls_counters();
  bump(c, kFilterCalls, kFilterItems, n);
  const std::uint64_t t0 = g_cycles_enabled ? read_tsc() : 0;
  const std::size_t count = inner()->filter_in_window(qcol, col, ids, n, b, out);
  if (g_cycles_enabled) c->v[kCycles].fetch_add(read_tsc() - t0, std::memory_order_relaxed);
#ifndef NDEBUG
  if (g_crosscheck.load(std::memory_order_acquire)) {
    t_check_out.resize(n);
    const std::size_t ref =
        scalar_filter_in_window(qcol, col, ids, n, b, t_check_out.data());
    assert(ref == count && "filter_in_window: SIMD/scalar count mismatch");
    assert(std::memcmp(t_check_out.data(), out, count * sizeof(std::uint32_t)) == 0 &&
           "filter_in_window: SIMD/scalar id mismatch");
  }
#endif
  return count;
}

void counted_minmax_ids(const double* col, const std::uint32_t* ids, std::size_t n,
                        double* lo, double* hi) {
  CounterBlock* c = tls_counters();
  bump(c, kMinmaxCalls, kMinmaxItems, n);
  const std::uint64_t t0 = g_cycles_enabled ? read_tsc() : 0;
  inner()->minmax_ids(col, ids, n, lo, hi);
  if (g_cycles_enabled) c->v[kCycles].fetch_add(read_tsc() - t0, std::memory_order_relaxed);
#ifndef NDEBUG
  if (g_crosscheck.load(std::memory_order_acquire)) {
    double rlo = 0.0;
    double rhi = 0.0;
    scalar_minmax_ids(col, ids, n, &rlo, &rhi);
    assert(rlo == *lo && rhi == *hi && "minmax_ids: SIMD/scalar mismatch");
  }
#endif
}

std::uint64_t counted_popcount_andnot(const std::uint64_t* a, const std::uint64_t* b,
                                      std::size_t words) {
  CounterBlock* c = tls_counters();
  bump(c, kPopcntCalls, kPopcntWords, words);
  const std::uint64_t t0 = g_cycles_enabled ? read_tsc() : 0;
  const std::uint64_t count = inner()->popcount_andnot(a, b, words);
  if (g_cycles_enabled) c->v[kCycles].fetch_add(read_tsc() - t0, std::memory_order_relaxed);
#ifndef NDEBUG
  if (g_crosscheck.load(std::memory_order_acquire)) {
    assert(scalar_popcount_andnot(a, b, words) == count &&
           "popcount_andnot: SIMD/scalar mismatch");
  }
#endif
  return count;
}

OpenScan counted_scan_open(const std::uint64_t* base, const std::uint64_t* used,
                           const std::uint64_t* far, const std::uint64_t* l,
                           std::size_t words) {
  CounterBlock* c = tls_counters();
  bump(c, kPopcntCalls, kPopcntWords, words);
  const std::uint64_t t0 = g_cycles_enabled ? read_tsc() : 0;
  const OpenScan r = inner()->scan_open(base, used, far, l, words);
  if (g_cycles_enabled) c->v[kCycles].fetch_add(read_tsc() - t0, std::memory_order_relaxed);
#ifndef NDEBUG
  if (g_crosscheck.load(std::memory_order_acquire)) {
    const OpenScan ref = scalar_scan_open(base, used, far, l, words);
    assert(ref.open == r.open && ref.far_any == r.far_any && ref.l_any == r.l_any &&
           "scan_open: SIMD/scalar mismatch");
  }
#endif
  return r;
}

bool counted_targets_all_below(const std::uint64_t* targets, std::size_t count,
                               std::size_t words, const std::uint64_t* used,
                               std::uint64_t tau) {
  CounterBlock* c = tls_counters();
  bump(c, kPopcntCalls, kPopcntWords, count * words);
  const std::uint64_t t0 = g_cycles_enabled ? read_tsc() : 0;
  const bool below = inner()->targets_all_below(targets, count, words, used, tau);
  if (g_cycles_enabled) c->v[kCycles].fetch_add(read_tsc() - t0, std::memory_order_relaxed);
#ifndef NDEBUG
  if (g_crosscheck.load(std::memory_order_acquire)) {
    assert(scalar_targets_all_below(targets, count, words, used, tau) == below &&
           "targets_all_below: SIMD/scalar mismatch");
  }
#endif
  return below;
}

#ifndef NDEBUG
thread_local std::vector<std::uint64_t> t_check_acc;
thread_local std::vector<std::uint32_t> t_check_rows;
#endif

std::size_t counted_nsc_scan_rows(const std::uint64_t* bases,
                                  const std::uint32_t* rows, std::size_t count,
                                  std::size_t words, const std::uint64_t* used,
                                  const std::uint64_t* far, const std::uint64_t* l,
                                  std::uint64_t tau, std::uint64_t* acc,
                                  std::uint32_t* out_rows) {
  CounterBlock* c = tls_counters();
  bump(c, kPopcntCalls, kPopcntWords, count * words);
#ifndef NDEBUG
  t_check_acc.assign(acc, acc + words);
#endif
  const std::uint64_t t0 = g_cycles_enabled ? read_tsc() : 0;
  const std::size_t out_n = inner()->nsc_scan_rows(bases, rows, count, words, used,
                                                   far, l, tau, acc, out_rows);
  if (g_cycles_enabled) c->v[kCycles].fetch_add(read_tsc() - t0, std::memory_order_relaxed);
#ifndef NDEBUG
  if (g_crosscheck.load(std::memory_order_acquire)) {
    t_check_rows.resize(count);
    const std::size_t ref_n =
        scalar_nsc_scan_rows(bases, rows, count, words, used, far, l, tau,
                             t_check_acc.data(), t_check_rows.data());
    assert(ref_n == out_n && "nsc_scan_rows: SIMD/scalar count mismatch");
    assert(std::memcmp(t_check_rows.data(), out_rows,
                       out_n * sizeof(std::uint32_t)) == 0 &&
           "nsc_scan_rows: SIMD/scalar row mismatch");
    assert(std::memcmp(t_check_acc.data(), acc, words * sizeof(std::uint64_t)) == 0 &&
           "nsc_scan_rows: SIMD/scalar acc mismatch");
  }
#endif
  return out_n;
}

const Ops kCountedOps = {
    "counted",
    counted_filter_in_window,
    counted_minmax_ids,
    counted_popcount_andnot,
    counted_scan_open,
    counted_targets_all_below,
    counted_nsc_scan_rows,
};

}  // namespace

const Ops& dispatch() noexcept {
  init_once();
  return kCountedOps;
}

const Ops& dispatch_raw() noexcept {
  init_once();
#ifndef NDEBUG
  return kCountedOps;
#else
  return *g_inner.load(std::memory_order_acquire);
#endif
}

void counters_charge_popcnt(std::uint64_t calls, std::uint64_t words) noexcept {
#ifndef NDEBUG
  // dispatch_raw() hands out the counted table in debug builds; the wrappers
  // already charged these calls one by one.
  (void)calls;
  (void)words;
#else
  CounterBlock* c = tls_counters();
  c->v[kPopcntCalls].fetch_add(calls, std::memory_order_relaxed);
  c->v[kPopcntWords].fetch_add(words, std::memory_order_relaxed);
#endif
}

const char* dispatch_name() noexcept {
  init_once();
  return g_inner.load(std::memory_order_acquire)->name;
}

bool force(const char* name) noexcept {
  init_once();
  if (std::strcmp(name, "scalar") == 0) {
    select(&kScalarOps);
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    const Ops* avx2 = avx2_table();
    if (avx2 == nullptr) return false;
    select(avx2);
    return true;
  }
  if (std::strcmp(name, "auto") == 0) {
    const Ops* avx2 = avx2_table();
    select(avx2 != nullptr ? avx2 : &kScalarOps);
    return true;
  }
  return false;
}

bool avx2_available() noexcept { return avx2_table() != nullptr; }

Counters counters_snapshot() noexcept {
  Counters total;
  const std::lock_guard<std::mutex> lock(registry_mutex());
  for (const auto& block : registry()) {
    total.filter_calls += block->v[kFilterCalls].load(std::memory_order_relaxed);
    total.filter_items += block->v[kFilterItems].load(std::memory_order_relaxed);
    total.minmax_calls += block->v[kMinmaxCalls].load(std::memory_order_relaxed);
    total.minmax_items += block->v[kMinmaxItems].load(std::memory_order_relaxed);
    total.popcnt_calls += block->v[kPopcntCalls].load(std::memory_order_relaxed);
    total.popcnt_words += block->v[kPopcntWords].load(std::memory_order_relaxed);
    total.cycles += block->v[kCycles].load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace acn::kernels
