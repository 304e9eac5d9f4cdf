// Parallel-construction determinism suite. The BuildContext contract is
// that a pool only changes how fast construction runs, never what it
// produces: pool-built and sequentially-built BlockedGcMatrix snapshots
// are byte-identical, and a pool-built MatrixStore is byte-identical file
// by file (manifest + every shard). Also covers the producer-side failure
// paths: a failed Partition must never leave a directory MatrixStore::Open
// half-accepts, build exceptions must propagate out of the pool, and
// oversized shards must be rejected by name. Runs under the
// `parallel_build_smoke` CTest label on every CI configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/any_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "encoding/snapshot.hpp"
#include "matrix/dense_matrix.hpp"
#include "matrix/sparse_builder.hpp"
#include "serving/matrix_store.hpp"
#include "serving/sharded_matrix.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

namespace fs = std::filesystem;

DenseMatrix TestMatrix() {
  Rng rng(4242);
  return DenseMatrix::Random(120, 13, 0.5, 6, &rng);
}

std::vector<Triplet> TestTriplets(std::size_t rows, std::size_t cols) {
  Rng rng(77);
  std::vector<Triplet> entries;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.NextDouble() < 0.4) {
        entries.push_back({static_cast<u32>(r), static_cast<u32>(c),
                           static_cast<double>(1 + rng.Next() % 5)});
      }
    }
  }
  return entries;
}

/// Snapshot of a directory's regular files as (name, bytes), sorted by
/// name; the unit of the byte-identity comparisons below.
std::vector<std::pair<std::string, std::vector<u8>>> DirContents(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::vector<u8>>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.emplace_back(entry.path().filename().string(),
                       ReadFileBytes(entry.path().string()));
  }
  std::sort(files.begin(), files.end());
  return files;
}

// --------------------------------------------------------------------------
// Byte-identical pool vs sequential builds
// --------------------------------------------------------------------------

TEST(ParallelBuildDeterminismTest, BlockedSnapshotsMatchSequential) {
  DenseMatrix dense = TestMatrix();
  ThreadPool pool(4);
  for (const char* spec :
       {"gcm:re_32?blocks=6", "gcm:re_iv?blocks=5", "gcm:re_ans?blocks=4"}) {
    std::vector<u8> sequential =
        AnyMatrix::Build(dense, spec).SaveSnapshotBytes();
    std::vector<u8> pooled =
        AnyMatrix::Build(dense, spec, {.pool = &pool}).SaveSnapshotBytes();
    EXPECT_EQ(sequential, pooled) << spec;
  }
}

TEST(ParallelBuildDeterminismTest, BlockedTripletIngestionMatchesSequential) {
  std::vector<Triplet> entries = TestTriplets(90, 11);
  ThreadPool pool(4);
  std::vector<u8> sequential =
      AnyMatrix::Build(90, 11, entries, "gcm:re_32?blocks=4")
          .SaveSnapshotBytes();
  std::vector<u8> pooled =
      AnyMatrix::Build(90, 11, entries, "gcm:re_32?blocks=4", {.pool = &pool})
          .SaveSnapshotBytes();
  EXPECT_EQ(sequential, pooled);
}

TEST(ParallelBuildDeterminismTest, ShardedSpecMatchesSequential) {
  // Sharded outer build whose inner spec is itself blocked: the nested
  // fan-out case. Byte equality covers the embedded manifest (per-shard
  // specs, checksums, sizes) plus every embedded shard snapshot.
  DenseMatrix dense = TestMatrix();
  ThreadPool pool(4);
  const char* spec = "sharded?inner=gcm:re_32?blocks=2&shards=3";
  std::vector<u8> sequential =
      AnyMatrix::Build(dense, spec).SaveSnapshotBytes();
  std::vector<u8> pooled =
      AnyMatrix::Build(dense, spec, {.pool = &pool}).SaveSnapshotBytes();
  EXPECT_EQ(sequential, pooled);
}

TEST(ParallelBuildDeterminismTest, SingleThreadPoolBuildCompletes) {
  // The nested regression reached through the real pipeline: a 1-thread
  // pool building a sharded spec with a blocked inner fans out from its
  // only worker at two levels. Must complete and stay byte-identical.
  DenseMatrix dense = TestMatrix();
  ThreadPool pool(1);
  const char* spec = "sharded?inner=gcm:re_32?blocks=3&shards=4";
  EXPECT_EQ(AnyMatrix::Build(dense, spec, {.pool = &pool}).SaveSnapshotBytes(),
            AnyMatrix::Build(dense, spec).SaveSnapshotBytes());
}

TEST(ParallelBuildDeterminismTest, StoreFilesMatchSequential) {
  DenseMatrix dense = TestMatrix();
  ThreadPool pool(4);
  std::string seq_dir = ScratchPath("store_seq");
  std::string pool_dir = ScratchPath("store_pool");
  MatrixStore::Partition(dense, "gcm:re_ans?blocks=2", {.shards = 5},
                         seq_dir);
  MatrixStore::Partition(dense, "gcm:re_ans?blocks=2", {.shards = 5},
                         pool_dir, {.pool = &pool});
  auto sequential = DirContents(seq_dir);
  auto pooled = DirContents(pool_dir);
  ASSERT_EQ(sequential.size(), pooled.size());
  ASSERT_EQ(sequential.size(), 6u);  // 5 shards + manifest, no .tmp litter
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].first, pooled[i].first);
    EXPECT_EQ(sequential[i].second, pooled[i].second)
        << sequential[i].first << " differs between pool and sequential";
  }
}

TEST(ParallelBuildDeterminismTest, TripletStoreFilesMatchSequential) {
  std::vector<Triplet> entries = TestTriplets(100, 9);
  ThreadPool pool(3);
  std::string seq_dir = ScratchPath("triplet_store_seq");
  std::string pool_dir = ScratchPath("triplet_store_pool");
  MatrixStore::Partition(100, 9, entries, "gcm:re_32", {.rows_per_shard = 30},
                         seq_dir);
  MatrixStore::Partition(100, 9, entries, "gcm:re_32", {.rows_per_shard = 30},
                         pool_dir, {.pool = &pool});
  EXPECT_EQ(DirContents(seq_dir), DirContents(pool_dir));
}

TEST(ParallelBuildDeterminismTest, PooledStoreServesTheDenseOracle) {
  // Beyond byte identity: the pool-built store must answer exactly like
  // the matrix it partitioned.
  DenseMatrix dense = TestMatrix();
  ThreadPool pool(4);
  std::string dir = ScratchPath("store_serve");
  MatrixStore::Partition(dense, "gcm:re_32", {.shards = 4}, dir,
                         {.pool = &pool});
  AnyMatrix served = MatrixStore::Open(dir);
  Rng rng(11);
  std::vector<double> x(dense.cols());
  for (auto& v : x) v = rng.NextDouble() * 2.0 - 1.0;
  EXPECT_LT(MaxAbsDiff(served.MultiplyRight(x),
                       AnyMatrix::Ref(dense).MultiplyRight(x)),
            1e-12);
}

// --------------------------------------------------------------------------
// Producer failure paths
// --------------------------------------------------------------------------

TEST(ParallelBuildFailureTest, FailedPartitionLeavesNoHalfStore) {
  // fold_bits=20 passes spec validation but fails inside the rANS encoder
  // mid-build. Shards are built before anything is persisted, so the
  // store directory must not even exist afterwards -- nothing for
  // MatrixStore::Open to half-accept.
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("failed_partition");
  EXPECT_THROW(MatrixStore::Partition(dense, "gcm:re_ans?fold_bits=20",
                                      {.shards = 3}, dir),
               Error);
  EXPECT_FALSE(fs::exists(dir));
  EXPECT_THROW(MatrixStore::Open(dir), Error);
}

TEST(ParallelBuildFailureTest, FailedRepartitionPreservesExistingStore) {
  // Overwriting a healthy store with a failing build must leave every
  // original file untouched: the failed generation's files are removed and
  // the manifest, the only commit point, was never replaced.
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("repartition");
  MatrixStore::Partition(dense, "gcm:re_32", {.shards = 3}, dir);
  auto before = DirContents(dir);
  ThreadPool pool(2);
  EXPECT_THROW(MatrixStore::Partition(dense, "gcm:re_ans?fold_bits=20",
                                      {.shards = 3}, dir, {.pool = &pool}),
               Error);
  EXPECT_EQ(before, DirContents(dir));  // also proves no .tmp litter
  EXPECT_NO_THROW(MatrixStore::Open(dir));
}

TEST(ParallelBuildFailureTest, ShrinkingRepartitionSweepsStaleShards) {
  // Repartitioning a store into fewer shards must not strand the old
  // layout's surplus shard files next to the new manifest.
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("shrink");
  MatrixStore::Partition(dense, "gcm:re_32", {.shards = 5}, dir);
  ASSERT_EQ(DirContents(dir).size(), 6u);
  ThreadPool pool(2);
  MatrixStore::Partition(dense, "gcm:re_32", {.shards = 2}, dir,
                         {.pool = &pool});
  EXPECT_EQ(DirContents(dir).size(), 3u);  // 2 shards + manifest, no stale
  EXPECT_NO_THROW(MatrixStore::Open(dir, ShardLoadMode::kEager));
}

TEST(ParallelBuildFailureTest, BuildExceptionPropagatesThroughThePool) {
  DenseMatrix dense = TestMatrix();
  ThreadPool pool(4);
  EXPECT_THROW(AnyMatrix::Build(dense, "gcm:re_ans?blocks=4&fold_bits=20",
                                {.pool = &pool}),
               Error);
  EXPECT_THROW(
      BlockedGcMatrix::Build(dense, 4, {GcFormat::kReAns, 20, 0}, {},
                             {.pool = &pool}),
      Error);
}

TEST(ParallelBuildFailureTest, OversizedShardRejectedByName) {
  // A shard taller than the u32 row index space of Triplet::row would
  // alias rows after the rebase; it must fail up front instead.
  try {
    BucketTripletsByShard(/*rows=*/6'000'000'000ULL,
                          /*per_shard=*/5'000'000'000ULL, {});
    FAIL() << "oversized shard was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rows_per_shard"), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------------------
// ManifestPath error surfacing
// --------------------------------------------------------------------------

TEST(ManifestPathTest, ResolvesDirectoriesFilesAndMissingPaths) {
  std::string dir = ScratchPath("manifest_path");
  fs::create_directories(dir);
  EXPECT_EQ(MatrixStore::ManifestPath(dir),
            (fs::path(dir) / "manifest.gcsnap").string());
  // A file path passes through unchanged, and a missing path is not a
  // filesystem error (the caller's read reports it); only real stat
  // failures throw.
  std::string file = (fs::path(dir) / "manifest.gcsnap").string();
  WriteFileBytes(file, {1, 2, 3});
  EXPECT_EQ(MatrixStore::ManifestPath(file), file);
  std::string missing = (fs::path(dir) / "absent").string();
  EXPECT_EQ(MatrixStore::ManifestPath(missing), missing);
}

}  // namespace
}  // namespace gcm
