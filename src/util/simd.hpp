// The elementwise kernel primitives, as plain loops the compiler may
// vectorize for whatever target it builds for. There is one
// implementation and no build option or runtime switch that picks
// another:
//
//   simd::Add(out, a, n)            out[i] += a[i]
//   simd::Axpy(out, v, x, n)        out[i] += v * x[i]   (never fused)
//   simd::AnyNonZero(p, n)          any p[i] != 0.0 (NaN counts)
//   simd::Prefetch(p)               cache-line hint
//   simd::BackendName()             "portable", for run records
//
// Each primitive touches every element once, in index order, with one
// operation per element, so a caller's per-element summation order is
// exactly that of its own scalar loop.
#pragma once

#include <cstddef>

namespace gcm::simd {

/// Name of the primitives' implementation, printed in benchmark records.
inline const char* BackendName() { return "portable"; }

/// out[i] += a[i] for i in [0, n).
inline void Add(double* out, const double* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += a[i];
}

/// out[i] += v * x[i] for i in [0, n). The multiply and the add round
/// separately (the default x86-64 target has no FMA to contract them
/// into), like the single-vector kernels' own loops.
inline void Axpy(double* out, double v, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += v * x[i];
}

/// True when any element differs from +0.0/-0.0. NaN compares unequal to
/// zero, so a NaN counts as nonzero.
inline bool AnyNonZero(const double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != 0.0) return true;
  }
  return false;
}

/// Best-effort prefetch hint.
inline void Prefetch(const void* p) { __builtin_prefetch(p); }

}  // namespace gcm::simd
