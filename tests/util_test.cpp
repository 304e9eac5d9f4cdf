#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <limits>
#include <set>
#include <vector>

#include "util/cli.hpp"
#include "util/common.hpp"
#include "util/fast_div.hpp"
#include "util/format.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

TEST(CommonTest, CheckThrowsWithMessage) {
  try {
    GCM_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "expected gcm::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

TEST(CommonTest, CheckPassesSilently) {
  EXPECT_NO_THROW(GCM_CHECK(1 + 1 == 2));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BelowCoversFullRange) {
  Rng rng(9);
  std::set<u64> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(11);
  std::set<i64> seen;
  for (int i = 0; i < 500; ++i) {
    i64 v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ChanceRespectsProbabilityRoughly) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RngTest, SkewedBelowPrefersSmallIndices) {
  Rng rng(19);
  u64 below_half = 0;
  const u64 n = 100;
  for (int i = 0; i < 10000; ++i) {
    u64 v = rng.SkewedBelow(n, 0.9);
    EXPECT_LT(v, n);
    below_half += (v < n / 2);
  }
  EXPECT_GT(below_half, 9000u);  // decay 0.9 concentrates mass early
}

TEST(RngTest, GaussianHasRoughlyZeroMean) {
  Rng rng(23);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.NextGaussian();
  EXPECT_NEAR(sum / 20000.0, 0.0, 0.05);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { visits[i]++; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(10,
                                [&](std::size_t i) {
                                  if (i == 5) throw Error("boom");
                                }),
               Error);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.Submit([&] { value = 42; }).wait();
  EXPECT_EQ(value.load(), 42);
}

TEST(MemoryTrackerTest, TracksVectorAllocation) {
  if (!MemoryTracker::TrackingActive()) {
    GTEST_SKIP() << "heap tracking compiled out under sanitizers";
  }
  MemoryTracker::ResetPeak();
  u64 before = MemoryTracker::CurrentBytes();
  {
    std::vector<double> big(1 << 16);
    EXPECT_GE(MemoryTracker::CurrentBytes(), before + (1 << 16) * 8);
    EXPECT_GE(MemoryTracker::PeakBytes(), before + (1 << 16) * 8);
  }
  EXPECT_LT(MemoryTracker::CurrentBytes(), before + (1 << 16));
}

TEST(MemoryTrackerTest, ResetPeakDropsToCurrent) {
  if (!MemoryTracker::TrackingActive()) {
    GTEST_SKIP() << "heap tracking compiled out under sanitizers";
  }
  { std::vector<double> spike(1 << 16); }
  MemoryTracker::ResetPeak();
  EXPECT_EQ(MemoryTracker::PeakBytes(), MemoryTracker::CurrentBytes());
}

TEST(MemoryTrackerTest, PeakRssIsPositive) {
  EXPECT_GT(MemoryTracker::PeakRssBytes(), 0u);
}

TEST(CliTest, ParsesFlagsAndDefaults) {
  CliParser cli("prog", "test");
  cli.AddFlag("iters", "500", "iterations");
  cli.AddFlag("scale", "1.5", "scale factor");
  cli.AddFlag("verbose", "false", "verbosity");
  const char* argv[] = {"prog", "--iters", "42", "--verbose"};
  ASSERT_TRUE(cli.Parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(cli.GetInt("iters"), 42);
  EXPECT_DOUBLE_EQ(cli.GetDouble("scale"), 1.5);
  EXPECT_TRUE(cli.GetBool("verbose"));
}

TEST(CliTest, EqualsSyntax) {
  CliParser cli("prog", "test");
  cli.AddFlag("name", "x", "a name");
  const char* argv[] = {"prog", "--name=hello"};
  ASSERT_TRUE(cli.Parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(cli.GetString("name"), "hello");
}

TEST(CliTest, UnknownFlagThrows) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.Parse(3, const_cast<char**>(argv)), Error);
}

TEST(CliTest, PositionalArgumentsCollected) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "a.bin", "b.bin"};
  ASSERT_TRUE(cli.Parse(3, const_cast<char**>(argv)));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "a.bin");
}

TEST(CliTest, MalformedIntegerThrows) {
  CliParser cli("prog", "test");
  cli.AddFlag("n", "1", "count");
  const char* argv[] = {"prog", "--n", "abc"};
  ASSERT_TRUE(cli.Parse(3, const_cast<char**>(argv)));
  EXPECT_THROW(cli.GetInt("n"), Error);
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(FormatTest, PercentAndSeconds) {
  EXPECT_EQ(FormatPercent(0.1234), "12.34%");
  EXPECT_EQ(FormatSeconds(1.5), "1.500 s");
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

// The kernel primitives against hand-computed values at every length
// 0..9: the first n elements change, the rest are untouched. All inputs
// are dyadic, so the expected sums and products are exact. The suite and
// test names predate the deletion of the AVX2 backend, when the portable
// loops were the reference a second implementation was compared with.
constexpr std::array<double, 10> kSimdBase = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
constexpr std::array<double, 10> kSimdA = {0.5, -1,  0.25, 8,     -0.5,
                                           3,   1.5, -2,   0.125, 4};

TEST(SimdFacadeTest, BackendNameMatchesCompileTimeSelection) {
  EXPECT_STREQ(simd::BackendName(), "portable");
}

TEST(SimdFacadeTest, AddMatchesPortableBitwise) {
  // kSimdBase + kSimdA.
  constexpr std::array<double, 10> kWant = {1.5, 1,   3.25, 12,    4.5,
                                            9,   8.5, 6,    9.125, 14};
  for (std::size_t n = 0; n <= 9; ++n) {
    std::array<double, 10> out = kSimdBase;
    simd::Add(out.data(), kSimdA.data(), n);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i < n ? kWant[i] : kSimdBase[i]) << n << " @" << i;
    }
  }
}

TEST(SimdFacadeTest, AxpyMatchesPortableBitwise) {
  // kSimdBase + (-2) * kSimdA.
  constexpr std::array<double, 10> kWant = {0, 4, 2.5, -12, 6,
                                            0, 4, 12,  8.75, 2};
  for (std::size_t n = 0; n <= 9; ++n) {
    std::array<double, 10> out = kSimdBase;
    simd::Axpy(out.data(), -2.0, kSimdA.data(), n);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i < n ? kWant[i] : kSimdBase[i]) << n << " @" << i;
    }
  }
}

TEST(SimdFacadeTest, AnyNonZeroMatchesPortableIncludingNaN) {
  // Zeros of either sign are not nonzero; NaN and 1 are; element n, one
  // past the range, does not count.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n = 0; n <= 9; ++n) {
    std::array<double, 10> p{};
    p[n] = 1.0;
    EXPECT_FALSE(simd::AnyNonZero(p.data(), n)) << n;
    for (std::size_t hot = 0; hot < n; ++hot) {
      p[hot] = -0.0;
      EXPECT_FALSE(simd::AnyNonZero(p.data(), n)) << n << " @" << hot;
      p[hot] = kNan;
      EXPECT_TRUE(simd::AnyNonZero(p.data(), n)) << n << " @" << hot;
      p[hot] = 1.0;
      EXPECT_TRUE(simd::AnyNonZero(p.data(), n)) << n << " @" << hot;
      p[hot] = 0.0;
    }
  }
}

}  // namespace
}  // namespace gcm
