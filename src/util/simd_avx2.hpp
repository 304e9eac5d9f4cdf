// AVX2 SIMD backend: 4-wide double lanes.
//
// Selected by the facade (util/simd.hpp) when GCM_SIMD_AVX2 is defined.
// Do not include this header directly; include "util/simd.hpp".
//
// Bitwise contract with the scalar backend:
//   * Every primitive is elementwise (no horizontal reduction), so lane i
//     performs exactly the operations the portable loop performs on
//     element i, in the same order.
//   * Axpy uses separate _mm256_mul_pd + _mm256_add_pd, never a fused
//     multiply-add, and the build compiles with -mavx2 but NOT -mfma, so
//     the compiler cannot contract the pair either. AVX2 and scalar
//     builds therefore produce bitwise-identical doubles.
//   * Loop tails (n % 4) fall through to the portable reference loops.
//
// ScopedForceScalar flips a process-wide counter that routes every
// primitive to the portable loops at runtime; the simd_test conformance
// leg uses it to diff vectorized vs scalar kernel output within one build.
#pragma once

#include <immintrin.h>

#include <atomic>
#include <cstddef>

#include "util/common.hpp"
#include "util/simd_portable.hpp"

namespace gcm::simd {

inline constexpr const char* kBackendName = "avx2";

namespace detail {
/// >0 while any ScopedForceScalar is alive (counter, so guards nest).
/// Relaxed ordering is enough: the flag only gates which arithmetic
/// routine runs, and tests create/destroy guards on one thread.
extern std::atomic<int> g_force_scalar;
inline bool ForcedScalar() {
  return g_force_scalar.load(std::memory_order_relaxed) != 0;
}
}  // namespace detail

/// While alive, every facade primitive runs the portable scalar loop.
class ScopedForceScalar {
 public:
  ScopedForceScalar() {
    detail::g_force_scalar.fetch_add(1, std::memory_order_relaxed);
  }
  ~ScopedForceScalar() {
    detail::g_force_scalar.fetch_sub(1, std::memory_order_relaxed);
  }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;
};

/// Whether the next primitive call will use the vector unit.
inline bool VectorActive() { return !detail::ForcedScalar(); }

/// out[i] += a[i] for i in [0, n).
inline void Add(double* out, const double* a, std::size_t n) {
  if (detail::ForcedScalar()) {
    simd_portable::Add(out, a, n);
    return;
  }
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d acc = _mm256_loadu_pd(out + i);
    __m256d add = _mm256_loadu_pd(a + i);
    _mm256_storeu_pd(out + i, _mm256_add_pd(acc, add));
  }
  simd_portable::Add(out + i, a + i, n - i);
}

/// out[i] += v * x[i] for i in [0, n). Mul and add stay separate ops --
/// see the bitwise contract above.
inline void Axpy(double* out, double v, const double* x, std::size_t n) {
  if (detail::ForcedScalar()) {
    simd_portable::Axpy(out, v, x, n);
    return;
  }
  const __m256d vv = _mm256_set1_pd(v);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d prod = _mm256_mul_pd(vv, _mm256_loadu_pd(x + i));
    __m256d acc = _mm256_add_pd(_mm256_loadu_pd(out + i), prod);
    _mm256_storeu_pd(out + i, acc);
  }
  simd_portable::Axpy(out + i, v, x + i, n - i);
}

/// True when any element differs from zero. _CMP_NEQ_UQ is
/// unordered-or-not-equal, so NaN lanes report nonzero exactly like the
/// portable `p[i] != 0.0`.
inline bool AnyNonZero(const double* p, std::size_t n) {
  if (detail::ForcedScalar()) {
    return simd_portable::AnyNonZero(p, n);
  }
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d neq = _mm256_cmp_pd(_mm256_loadu_pd(p + i), zero, _CMP_NEQ_UQ);
    if (_mm256_movemask_pd(neq) != 0) return true;
  }
  return simd_portable::AnyNonZero(p + i, n - i);
}

/// Prefetch the cache line holding `p` into all cache levels.
inline void Prefetch(const void* p) {
  _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
}

}  // namespace gcm::simd
