// Scalar SIMD backend: every primitive is the portable reference loop.
//
// Selected by the facade (util/simd.hpp) when GCM_SIMD_SCALAR is defined --
// either because `GCM_SIMD=scalar` was requested or because the build
// target cannot use AVX2. Do not include this header directly; include
// "util/simd.hpp".
#pragma once

#include <cstddef>

#include "util/common.hpp"
#include "util/simd_portable.hpp"

namespace gcm::simd {

inline constexpr const char* kBackendName = "scalar";

/// No vector unit in this backend; the force-scalar override is a no-op
/// kept so callers and tests compile identically against both backends.
class ScopedForceScalar {
 public:
  ScopedForceScalar() = default;
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;
};

/// Whether the next primitive call will use the vector unit. Always false
/// here; the AVX2 backend reports false only under ScopedForceScalar.
inline bool VectorActive() { return false; }

inline void Add(double* out, const double* a, std::size_t n) {
  simd_portable::Add(out, a, n);
}

inline void Axpy(double* out, double v, const double* x, std::size_t n) {
  simd_portable::Axpy(out, v, x, n);
}

inline bool AnyNonZero(const double* p, std::size_t n) {
  return simd_portable::AnyNonZero(p, n);
}

/// Best-effort prefetch hint; harmless to drop on compilers without one.
inline void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace gcm::simd
