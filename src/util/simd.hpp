// Compile-time SIMD facade: one header, one backend, chosen by a single
// #if (the whippet-gc idiom). The build defines exactly one of
// GCM_SIMD_AVX2 / GCM_SIMD_SCALAR via the GCM_SIMD CMake option
// (auto | avx2 | scalar; see cmake/SimdConfig.cmake). Every caller
// includes this header and writes against one gcm::simd interface:
//
//   simd::Add(out, a, n)            out[i] += a[i]
//   simd::Axpy(out, v, x, n)        out[i] += v * x[i]   (never fused)
//   simd::AnyNonZero(p, n)          any p[i] != 0.0 (NaN counts)
//   simd::Prefetch(p)               cache-line hint
//   simd::ScopedForceScalar         route to scalar loops at runtime
//   simd::VectorActive()            vector unit in use for next call?
//   simd::BackendName()             "avx2" | "scalar"
//
// Both backends produce bitwise-identical doubles (elementwise ops only,
// separate mul/add, no -mfma); see simd_avx2.hpp for the full contract.
#pragma once

#if defined(GCM_SIMD_AVX2)
#include "util/simd_avx2.hpp"
#elif defined(GCM_SIMD_SCALAR)
#include "util/simd_scalar.hpp"
#else
#error unknown simd backend: define GCM_SIMD_AVX2 or GCM_SIMD_SCALAR (CMake sets one from the GCM_SIMD option)
#endif
