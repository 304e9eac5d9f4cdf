// TSan-targeted concurrency stress suite. Every test here races real
// threads against the serving / build concurrency seams the library claims
// are thread-safe, so a ThreadSanitizer build (preset `tsan`) turns "claims"
// into checked guarantees:
//
//   * multiplies racing shard eviction (Acquire hands out shared handles,
//     so an evicted shard must never invalidate an in-flight kernel),
//     including pooled row-range multiplies that touch part of the store,
//   * many threads first-touching a lazily opened store at once (the
//     double-checked per-shard load under ShardState::mu),
//   * nested pooled builds hammering ParallelFor's shared claim counter.
//
// The assertions also hold in plain builds -- results must stay bitwise
// equal to the dense oracle under every interleaving -- so the suite runs
// on every configuration under the `tsan_stress_smoke` CTest label; TSan
// adds the data-race detection on top.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/any_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "core/build_context.hpp"
#include "core/gc_matrix.hpp"
#include "matrix/dense_matrix.hpp"
#include "serving/matrix_store.hpp"
#include "serving/sharded_matrix.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

DenseMatrix StressMatrix() {
  Rng rng(4242);
  return DenseMatrix::Random(96, 13, 0.45, 6, &rng);
}

std::vector<double> RandomVector(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextDouble() * 2.0 - 1.0;
  return v;
}

const ShardedMatrix& Sharded(const AnyMatrix& m) {
  const ShardedMatrix* sharded = ShardedMatrix::FromKernel(m.kernel());
  EXPECT_NE(sharded, nullptr) << m.FormatTag();
  return *sharded;
}

/// Tolerance comparison against the dense oracle: compressed kernels sum
/// in a different (fixed) order than the dense row walk, so last-bit FP
/// differences are expected; anything larger is corruption.
bool NearlyEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) >
        1e-9 * std::max(1.0, std::fabs(b[i]))) {
      return false;
    }
  }
  return true;
}

TEST(TsanStressTest, MultipliesRaceEvictionWithoutCorruption) {
  DenseMatrix dense = StressMatrix();
  std::string dir = ScratchPath("mul_vs_evict");
  MatrixStore::Partition(dense, "csr", {.shards = 6}, dir);
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  const ShardedMatrix& sharded = Sharded(m);

  std::vector<double> x = RandomVector(dense.cols(), 7);
  std::vector<double> yvec = RandomVector(dense.rows(), 8);
  // Bitwise baselines from the same kernel, taken before any eviction: the
  // sharded kernel is deterministic, so every racing iteration must match
  // them exactly; the dense oracle pins overall correctness to tolerance.
  std::vector<double> want_right(dense.rows());
  m.MultiplyRightInto(x, want_right, MulContext{});
  std::vector<double> want_left(dense.cols());
  m.MultiplyLeftInto(yvec, want_left, MulContext{});
  ASSERT_TRUE(NearlyEqual(want_right, dense.MultiplyRight(x)));
  ASSERT_TRUE(NearlyEqual(want_left, dense.MultiplyLeft(yvec)));
  // About two shards' footprint (every shard is resident here).
  const u64 budget = 2 * sharded.ShardResidencyInfo(0).resident_bytes;

  constexpr int kIters = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};

  std::thread right([&] {
    for (int it = 0; it < kIters; ++it) {
      std::vector<double> y(dense.rows());
      m.MultiplyRightInto(x, y, MulContext{});
      if (y != want_right) mismatches.fetch_add(1);
    }
  });
  std::thread left([&] {
    for (int it = 0; it < kIters; ++it) {
      std::vector<double> out(dense.cols());
      m.MultiplyLeftInto(yvec, out, MulContext{});
      if (out != want_left) mismatches.fetch_add(1);
    }
  });
  std::thread evict_one([&] {
    std::size_t i = 0;
    while (!stop.load()) {
      sharded.EvictShard(i % sharded.shard_count());
      ++i;
    }
  });
  std::thread evict_budget([&] {
    while (!stop.load()) {
      sharded.EvictToResidentBytes(budget);
    }
  });

  right.join();
  left.join();
  stop.store(true);
  evict_one.join();
  evict_budget.join();

  EXPECT_EQ(mismatches.load(), 0);
}

TEST(TsanStressTest, PooledMultiplyRacesEviction) {
  // Same race, but the kernels themselves fan shards out on a pool, so
  // eviction interleaves with ParallelFor workers touching the shards.
  DenseMatrix dense = StressMatrix();
  std::string dir = ScratchPath("pooled_vs_evict");
  MatrixStore::Partition(dense, "gcm:re_32", {.shards = 5}, dir);
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  const ShardedMatrix& sharded = Sharded(m);
  ThreadPool pool(3);

  std::vector<double> x = RandomVector(dense.cols(), 9);
  // Pooled and sequential sharded right-multiplies are bitwise identical
  // (disjoint row sub-spans), so the pre-eviction sequential result is the
  // exact baseline for every pooled iteration below.
  std::vector<double> want(dense.rows());
  m.MultiplyRightInto(x, want, MulContext{});
  ASSERT_TRUE(NearlyEqual(want, dense.MultiplyRight(x)));
  // About one shard's footprint (every shard is resident here).
  const u64 budget = sharded.ShardResidencyInfo(0).resident_bytes;

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::thread evictor([&] {
    std::size_t i = 0;
    while (!stop.load()) {
      sharded.EvictShard(i % sharded.shard_count());
      sharded.EvictToResidentBytes(budget);
      ++i;
    }
  });
  for (int it = 0; it < 25; ++it) {
    std::vector<double> y(dense.rows());
    m.MultiplyRightInto(x, y, MulContext{&pool});
    if (y != want) mismatches.fetch_add(1);
  }
  stop.store(true);
  evictor.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(TsanStressTest, PooledRangeMultiplyRacesEviction) {
  // Pooled row-range kernels fan the touched shards out on the pool (the
  // server's range path with kernel threads), so eviction interleaves with
  // workers faulting in only part of the store. Ranges cut through shards,
  // stay inside one shard (the sequential path) or cover every row.
  DenseMatrix dense = StressMatrix();
  std::string dir = ScratchPath("pooled_range_vs_evict");
  MatrixStore::Partition(dense, "gcm:re_iv", {.shards = 5}, dir);
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  const ShardedMatrix& sharded = Sharded(m);
  ThreadPool pool(3);

  struct Range {
    std::size_t begin, end;
    std::vector<double> want;
  };
  std::vector<Range> ranges = {{7, 53, {}}, {25, 35, {}}, {39, 81, {}},
                               {0, dense.rows(), {}}};
  std::vector<double> x = RandomVector(dense.cols(), 15);
  // Sequential baselines taken before any eviction; every pooled iteration
  // below must reproduce them bit for bit.
  for (Range& r : ranges) {
    r.want.resize(r.end - r.begin);
    sharded.MultiplyRightRangeInto(x, r.want, r.begin, r.end);
  }
  std::vector<double> full = dense.MultiplyRight(x);
  ASSERT_TRUE(NearlyEqual(ranges.back().want, full));
  // About one shard's footprint (the shards touched above are resident).
  const u64 budget = sharded.ShardResidencyInfo(0).resident_bytes;

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::thread evictor([&] {
    std::size_t i = 0;
    while (!stop.load()) {
      sharded.EvictShard(i % sharded.shard_count());
      sharded.EvictToResidentBytes(budget);
      ++i;
    }
  });
  for (int it = 0; it < 10; ++it) {
    for (const Range& r : ranges) {
      std::vector<double> y(r.end - r.begin);
      sharded.MultiplyRightRangeInto(x, y, r.begin, r.end, {&pool});
      if (std::memcmp(y.data(), r.want.data(), y.size() * sizeof(double)) !=
          0) {
        mismatches.fetch_add(1);
      }
    }
  }
  stop.store(true);
  evictor.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(TsanStressTest, ConcurrentLazyFirstTouchLoads) {
  DenseMatrix dense = StressMatrix();
  std::string dir = ScratchPath("first_touch");
  MatrixStore::Partition(dense, "csr", {.shards = 8}, dir);

  std::vector<double> x = RandomVector(dense.cols(), 11);
  // Exact baseline from an eager open of the same store (same kernel, same
  // summation order as the racing lazy opens below).
  std::vector<double> want(dense.rows());
  MatrixStore::Open(dir, ShardLoadMode::kEager)
      .MultiplyRightInto(x, want, MulContext{});
  ASSERT_TRUE(NearlyEqual(want, dense.MultiplyRight(x)));

  // Several rounds so the open itself (and therefore the unloaded state)
  // is fresh each time; every thread's very first multiply races the
  // others through the per-shard load-on-first-touch path.
  for (int round = 0; round < 5; ++round) {
    AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
    const ShardedMatrix& sharded = Sharded(m);
    ASSERT_EQ(sharded.LoadedShardCount(), 0u);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&] {
        std::vector<double> y(dense.rows());
        m.MultiplyRightInto(x, y, MulContext{});
        if (y != want) mismatches.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(sharded.LoadedShardCount(), sharded.shard_count());
  }
}

TEST(TsanStressTest, NestedPooledBuildsShareOneClaimCounterSafely) {
  // Build fan-out nested two deep on one pool: the outer ParallelFor runs
  // whole builds, each build's inner ParallelFor runs per-block RePair.
  // All of them race the same worker set and per-call claim counters.
  DenseMatrix dense = StressMatrix();
  ThreadPool pool(4);
  BuildContext ctx;
  ctx.pool = &pool;

  BlockedGcMatrix reference =
      BlockedGcMatrix::Build(dense, 4, {GcFormat::kRe32, 12, 0}, {}, {});
  std::vector<double> x = RandomVector(dense.cols(), 13);
  const std::vector<double> want = reference.MultiplyRight(x);

  constexpr std::size_t kBuilds = 6;
  std::vector<u64> bytes(kBuilds, 0);
  std::atomic<int> mismatches{0};
  pool.ParallelFor(kBuilds, [&](std::size_t i) {
    BlockedGcMatrix built =
        BlockedGcMatrix::Build(dense, 4, {GcFormat::kRe32, 12, 0}, {}, ctx);
    bytes[i] = built.CompressedBytes();
    if (built.MultiplyRight(x) != want) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
  // Pooled construction is deterministic: every racing build must produce
  // the same bytes as the sequential reference.
  for (std::size_t i = 0; i < kBuilds; ++i) {
    EXPECT_EQ(bytes[i], reference.CompressedBytes()) << "build " << i;
  }
}

}  // namespace
}  // namespace gcm
