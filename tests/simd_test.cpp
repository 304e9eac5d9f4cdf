// SIMD facade conformance: every vector primitive must be bitwise
// identical to the portable reference loops (util/simd_portable.hpp), the
// exact-division helper must agree with the hardware divide on the full
// u32 range, and -- the hard contract of the SIMD tentpole -- every engine
// kernel must produce bitwise-identical output with the vector unit on and
// off. The suite runs under both GCM_SIMD=avx2 (where ScopedForceScalar
// really flips code paths) and GCM_SIMD=scalar (where it is a no-op and
// the assertions pin the portable loops against themselves).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "conformance_specs.hpp"
#include "core/any_matrix.hpp"
#include "matrix/dense_matrix.hpp"
#include "util/fast_div.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

// Sizes straddling the 4-wide double vector boundary several times over,
// plus 0 and a couple of long runs.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 100};

std::vector<double> RandomDoubles(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextDouble() * 2.0 - 1.0;
  return v;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(SimdFacadeTest, BackendNameMatchesCompileTimeSelection) {
#if defined(GCM_SIMD_AVX2)
  EXPECT_STREQ(simd::BackendName(), "avx2");
#else
  EXPECT_STREQ(simd::BackendName(), "scalar");
#endif
  EXPECT_STREQ(simd::BackendName(), simd::kBackendName);
}

TEST(SimdFacadeTest, ScopedForceScalarNestsAndRestores) {
#if defined(GCM_SIMD_AVX2)
  EXPECT_TRUE(simd::VectorActive());
  {
    simd::ScopedForceScalar outer;
    EXPECT_FALSE(simd::VectorActive());
    {
      simd::ScopedForceScalar inner;
      EXPECT_FALSE(simd::VectorActive());
    }
    EXPECT_FALSE(simd::VectorActive());  // outer guard still alive
  }
  EXPECT_TRUE(simd::VectorActive());
#else
  // The scalar backend never engages a vector unit.
  EXPECT_FALSE(simd::VectorActive());
  simd::ScopedForceScalar noop;
  EXPECT_FALSE(simd::VectorActive());
#endif
}

TEST(SimdFacadeTest, AddMatchesPortableBitwise) {
  // Offsets 0..3 walk the 32-byte alignment phases of the loadu path.
  for (std::size_t offset = 0; offset < 4; ++offset) {
    for (std::size_t n : kSizes) {
      std::vector<double> a = RandomDoubles(n + offset, 100 + n);
      std::vector<double> base = RandomDoubles(n + offset, 200 + n);
      std::vector<double> got = base;
      std::vector<double> want = base;
      simd::Add(got.data() + offset, a.data() + offset, n);
      simd_portable::Add(want.data() + offset, a.data() + offset, n);
      EXPECT_TRUE(BitwiseEqual(got, want)) << "n=" << n << " off=" << offset;
    }
  }
}

TEST(SimdFacadeTest, AxpyMatchesPortableBitwise) {
  const double scales[] = {0.0, -0.0, 1.0, -3.5, 1e-300, 1e300, 0.1};
  for (double v : scales) {
    for (std::size_t n : kSizes) {
      std::vector<double> x = RandomDoubles(n, 300 + n);
      std::vector<double> base = RandomDoubles(n, 400 + n);
      std::vector<double> got = base;
      std::vector<double> want = base;
      simd::Axpy(got.data(), v, x.data(), n);
      simd_portable::Axpy(want.data(), v, x.data(), n);
      EXPECT_TRUE(BitwiseEqual(got, want)) << "n=" << n << " v=" << v;
    }
  }
}

TEST(SimdFacadeTest, AnyNonZeroMatchesPortableIncludingNaN) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n : kSizes) {
    std::vector<double> zeros(n, 0.0);
    EXPECT_EQ(simd::AnyNonZero(zeros.data(), n),
              simd_portable::AnyNonZero(zeros.data(), n));
    EXPECT_FALSE(simd::AnyNonZero(zeros.data(), n));
    if (n == 0) continue;
    // Probe every position with a nonzero, a negative zero, and a NaN.
    for (std::size_t hot : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<double> v(n, 0.0);
      v[hot] = 1.5;
      EXPECT_TRUE(simd::AnyNonZero(v.data(), n)) << "hot=" << hot;
      v[hot] = -0.0;  // -0.0 == 0.0, so this must NOT count as nonzero
      EXPECT_FALSE(simd::AnyNonZero(v.data(), n)) << "hot=" << hot;
      v[hot] = kNan;  // NaN != 0.0, so it must count
      EXPECT_TRUE(simd::AnyNonZero(v.data(), n)) << "hot=" << hot;
      EXPECT_EQ(simd::AnyNonZero(v.data(), n),
                simd_portable::AnyNonZero(v.data(), n));
    }
  }
}

TEST(SimdFacadeTest, ForcedScalarPrimitivesMatchVectorized) {
  std::vector<double> x = RandomDoubles(100, 11);
  std::vector<double> base = RandomDoubles(100, 12);
  std::vector<double> vectorized = base;
  simd::Axpy(vectorized.data(), 2.5, x.data(), x.size());
  std::vector<double> scalar = base;
  {
    simd::ScopedForceScalar force;
    simd::Axpy(scalar.data(), 2.5, x.data(), x.size());
  }
  EXPECT_TRUE(BitwiseEqual(vectorized, scalar));
}

TEST(FastDivTest, DivideAndModMatchHardwareAcrossRanges) {
  const u32 divisors[] = {1u,     2u,        3u,          5u,    7u,
                          10u,    13u,       16u,         100u,  1000u,
                          65535u, 65536u,    1u << 20,    (1u << 31) - 1,
                          1u << 31, 0xfffffffeu, 0xffffffffu};
  Rng rng(13);
  for (u32 d : divisors) {
    U32Divisor div(d);
    EXPECT_EQ(div.divisor(), d);
    std::vector<u32> numerators = {0u, 1u, d - 1, d, d + 1, d * 2,
                                   (1u << 31) - 1, 1u << 31, 0xffffffffu};
    for (int i = 0; i < 64; ++i) {
      numerators.push_back(static_cast<u32>(rng.Next()));
    }
    for (u32 n : numerators) {
      EXPECT_EQ(div.Divide(n), n / d) << "n=" << n << " d=" << d;
      EXPECT_EQ(div.Mod(n), n % d) << "n=" << n << " d=" << d;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-level equality: vectorized and forced-scalar runs of every
// registered engine spec must agree bitwise (the facade's hard contract --
// all SIMD use is elementwise, so no accumulation order changes).
// ---------------------------------------------------------------------------

class SimdKernelEqualityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SimdKernelEqualityTest, KernelsBitwiseEqualUnderForcedScalar) {
  Rng rng(4242);
  DenseMatrix dense = DenseMatrix::Random(48, 13, 0.5, 6, &rng);
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  std::vector<double> x = RandomDoubles(dense.cols(), 21);
  std::vector<double> y = RandomDoubles(dense.rows(), 22);

  std::vector<double> right = m.MultiplyRight(x);
  std::vector<double> left = m.MultiplyLeft(y);
  DenseMatrix dense_vec = m.ToDense();

  simd::ScopedForceScalar force;
  EXPECT_TRUE(BitwiseEqual(m.MultiplyRight(x), right));
  EXPECT_TRUE(BitwiseEqual(m.MultiplyLeft(y), left));
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense_vec), 0.0);
}

TEST_P(SimdKernelEqualityTest, PooledKernelsBitwiseEqualUnderForcedScalar) {
  Rng rng(2424);
  DenseMatrix dense = DenseMatrix::Random(48, 13, 0.5, 6, &rng);
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  ThreadPool pool(2);
  MulContext ctx{&pool};
  std::vector<double> x = RandomDoubles(dense.cols(), 23);
  std::vector<double> y = RandomDoubles(dense.rows(), 24);

  std::vector<double> right = m.MultiplyRight(x, ctx);
  std::vector<double> left = m.MultiplyLeft(y, ctx);

  simd::ScopedForceScalar force;
  EXPECT_TRUE(BitwiseEqual(m.MultiplyRight(x, ctx), right));
  EXPECT_TRUE(BitwiseEqual(m.MultiplyLeft(y, ctx), left));
}

TEST_P(SimdKernelEqualityTest, MultiKernelsBitwiseEqualUnderForcedScalar) {
  Rng rng(2442);
  DenseMatrix dense = DenseMatrix::Random(48, 13, 0.5, 6, &rng);
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  const std::size_t k = 5;
  DenseMatrix xr(dense.cols(), k);
  DenseMatrix xl(k, dense.rows());
  for (std::size_t r = 0; r < xr.rows(); ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      xr.Set(r, c, rng.NextDouble() * 2.0 - 1.0);
    }
  }
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < xl.cols(); ++c) {
      xl.Set(r, c, rng.NextDouble() * 2.0 - 1.0);
    }
  }

  DenseMatrix right = m.MultiplyRightMulti(xr);
  DenseMatrix left = m.MultiplyLeftMulti(xl);

  simd::ScopedForceScalar force;
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.MultiplyRightMulti(xr), right), 0.0);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.MultiplyLeftMulti(xl), left), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SimdKernelEqualityTest,
                         ::testing::ValuesIn(ConformanceSpecs()),
                         SpecTestName);

}  // namespace
}  // namespace gcm
