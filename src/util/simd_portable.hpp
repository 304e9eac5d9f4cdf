// Portable scalar reference loops shared by every SIMD backend.
//
// These are the semantics of the facade: the scalar backend forwards to them
// directly, and the AVX2 backend must produce bitwise-identical results
// (it uses them for loop tails and for the runtime ScopedForceScalar
// override, and the simd_test suite pins each vector primitive against
// these loops element-for-element). Keep them boring -- no clever
// reassociation, one operation per element in index order.
#pragma once

#include <cstddef>

#include "util/common.hpp"

namespace gcm::simd_portable {

/// out[i] += a[i] for i in [0, n).
inline void Add(double* out, const double* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += a[i];
}

/// out[i] += v * x[i] for i in [0, n). Separate multiply and add -- the
/// vector backends mirror this with distinct mul/add instructions so no
/// build can fuse (FMA would change the rounding and break cross-build
/// bitwise equality).
inline void Axpy(double* out, double v, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += v * x[i];
}

/// True when any element differs from +0.0/-0.0. NaN compares unequal to
/// zero, so a NaN counts as nonzero -- vector backends must match that.
inline bool AnyNonZero(const double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != 0.0) return true;
  }
  return false;
}

}  // namespace gcm::simd_portable

namespace gcm::simd {
/// Name of the compiled-in backend ("avx2" or "scalar"); defined in
/// simd.cpp against whichever backend header the facade selected.
const char* BackendName();
}  // namespace gcm::simd
