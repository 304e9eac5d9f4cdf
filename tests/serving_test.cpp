// Serving subsystem suite: ShardManifest (round trip, validation, corrupt
// sections named), MatrixStore (partition -> reopen -> scatter/gather
// equals the dense oracle -> evict/reload, zero RePair constructions on
// reopen, checksum-verified shard files), ShardedMatrix residency control,
// and the "sharded" spec family (in-memory build, nested rejection, inner
// spec escaping, single-file snapshot round trip, manifest loading through
// the engine front door). Runs under the `sharded_serving_smoke` CTest
// label so CI exercises the store layout on every compiler configuration.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "core/matrix_file.hpp"
#include "encoding/byte_stream.hpp"
#include "encoding/snapshot.hpp"
#include "grammar/repair.hpp"
#include "matrix/dense_matrix.hpp"
#include "matrix/sparse_builder.hpp"
#include "serving/matrix_store.hpp"
#include "serving/shard_manifest.hpp"
#include "serving/sharded_matrix.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

namespace fs = std::filesystem;

DenseMatrix TestMatrix() {
  Rng rng(2024);
  return DenseMatrix::Random(60, 11, 0.5, 5, &rng);
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

ShardManifest SmallManifest() {
  ShardManifest manifest;
  manifest.rows = 10;
  manifest.cols = 3;
  manifest.shards.push_back({0, 6, "shard_00000.gcsnap", "csr", 7u, 11, 13});
  manifest.shards.push_back({6, 10, "shard_00001.gcsnap", "csr", 8u, 17, 19});
  return manifest;
}

// --------------------------------------------------------------------------
// ShardingPolicy / inner-spec escaping
// --------------------------------------------------------------------------

TEST(ShardingPolicyTest, ResolvesEachField) {
  EXPECT_EQ(ShardingPolicy{.rows_per_shard = 16}.ResolveRowsPerShard(60, 11),
            16u);
  EXPECT_EQ(ShardingPolicy{.shards = 4}.ResolveRowsPerShard(60, 11), 15u);
  // target 10 dense rows of 11 cols.
  EXPECT_EQ(ShardingPolicy{.target_bytes = 10 * 11 * sizeof(double)}
                .ResolveRowsPerShard(60, 11),
            10u);
  // Default: kDefaultShards ranges.
  EXPECT_EQ(ShardingPolicy{}.ResolveRowsPerShard(60, 11), 15u);
  // Clamped to [1, rows].
  EXPECT_EQ(ShardingPolicy{.rows_per_shard = 999}.ResolveRowsPerShard(60, 11),
            60u);
  EXPECT_EQ(ShardingPolicy{.shards = 999}.ResolveRowsPerShard(5, 11), 1u);
}

TEST(ShardingPolicyTest, RejectsConflictingFields) {
  ShardingPolicy policy{.rows_per_shard = 8, .shards = 2};
  EXPECT_THROW(policy.ResolveRowsPerShard(60, 11), std::invalid_argument);
  EXPECT_THROW(AnyMatrix::Build(TestMatrix(),
                                "sharded?rows_per_shard=8&shards=2"),
               std::invalid_argument);
}

TEST(InnerSpecTest, EscapingIsTotal) {
  const std::string inner = "gcm:re_32?blocks=2&fold_bits=10";
  EXPECT_EQ(EncodeInnerSpec(inner), "gcm:re_32?blocks=2+fold_bits=10");
  EXPECT_EQ(DecodeInnerSpec(EncodeInnerSpec(inner)), inner);
}

// --------------------------------------------------------------------------
// ShardManifest
// --------------------------------------------------------------------------

TEST(ShardManifestTest, FileRoundTrip) {
  ShardManifest manifest = SmallManifest();
  std::string path = ScratchPath("manifest_rt");
  fs::create_directories(path);
  std::string file = (fs::path(path) / kShardManifestFileName).string();
  manifest.Save(file);
  EXPECT_EQ(ShardManifest::Load(file), manifest);
  EXPECT_EQ(manifest.TotalCompressedBytes(), 13u + 19u);
  EXPECT_EQ(manifest.FormatTag(), "sharded?inner=csr&shards=2");
}

TEST(ShardManifestTest, ValidateRejectsBadTilings) {
  ShardManifest gap = SmallManifest();
  gap.shards[1].row_begin = 7;  // rows 6..7 uncovered
  EXPECT_THROW(gap.Validate(), Error);

  ShardManifest overlap = SmallManifest();
  overlap.shards[1].row_begin = 5;
  EXPECT_THROW(overlap.Validate(), Error);

  ShardManifest short_cover = SmallManifest();
  short_cover.rows = 12;  // shards stop at 10
  EXPECT_THROW(short_cover.Validate(), Error);

  ShardManifest empty_range = SmallManifest();
  empty_range.shards[0].row_end = 0;
  EXPECT_THROW(empty_range.Validate(), Error);

  ShardManifest no_shards;
  no_shards.rows = 4;
  no_shards.cols = 4;
  EXPECT_THROW(no_shards.Validate(), Error);
}

TEST(ShardManifestTest, CorruptManifestSectionIsNamed) {
  SnapshotWriter writer("sharded?inner=csr&shards=1");
  writer.BeginSection(kShardManifestSection).PutVarint(99);  // bad version
  try {
    ShardManifest::FromSnapshot(SnapshotReader(writer.Finish()));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("manifest"), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------------------
// MatrixStore: partition -> open -> scatter/gather -> evict/reload
// --------------------------------------------------------------------------

TEST(MatrixStoreTest, PartitionOpenMatchesDenseOracle) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("oracle");
  ShardManifest manifest = MatrixStore::Partition(
      dense, "gcm:re_iv", {.rows_per_shard = 16}, dir);
  EXPECT_EQ(manifest.shards.size(), 4u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / kShardManifestFileName));
  EXPECT_TRUE(fs::exists(fs::path(dir) / manifest.shards.back().file));

  for (ShardLoadMode mode : {ShardLoadMode::kEager, ShardLoadMode::kLazy}) {
    AnyMatrix m = MatrixStore::Open(dir, mode);
    EXPECT_EQ(m.rows(), dense.rows());
    EXPECT_EQ(m.cols(), dense.cols());
    EXPECT_GT(m.CompressedBytes(), 0u);
    EXPECT_EQ(m.FormatTag(), "sharded?inner=gcm:re_iv&shards=4");
    std::vector<double> x = RandomVector(dense.cols(), 1);
    std::vector<double> y = RandomVector(dense.rows(), 2);
    EXPECT_LT(MaxAbsDiff(m.MultiplyRight(x), dense.MultiplyRight(x)), 1e-9);
    EXPECT_LT(MaxAbsDiff(m.MultiplyLeft(y), dense.MultiplyLeft(y)), 1e-9);
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
  }
}

TEST(MatrixStoreTest, PooledAndUnpooledScatterGatherAreBitwiseEqual) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("pool");
  MatrixStore::Partition(dense, "csrv", {.shards = 5}, dir);
  AnyMatrix m = MatrixStore::Open(dir);
  ThreadPool pool(3);
  std::vector<double> x = RandomVector(dense.cols(), 3);
  std::vector<double> y = RandomVector(dense.rows(), 4);
  EXPECT_EQ(m.MultiplyRight(x), m.MultiplyRight(x, {&pool}));
  EXPECT_EQ(m.MultiplyLeft(y), m.MultiplyLeft(y, {&pool}));
}

TEST(MatrixStoreTest, DenseShardsReproduceTheOracleBitForBit) {
  // With dense shards the scatter path runs exactly the oracle's per-row
  // accumulation over disjoint row ranges, so even the bits must match.
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("bitwise");
  MatrixStore::Partition(dense, "dense", {.shards = 4}, dir);
  AnyMatrix m = MatrixStore::Open(dir);
  ThreadPool pool(4);
  std::vector<double> x = RandomVector(dense.cols(), 5);
  EXPECT_EQ(m.MultiplyRight(x), dense.MultiplyRight(x));
  EXPECT_EQ(m.MultiplyRight(x, {&pool}), dense.MultiplyRight(x));
}

TEST(MatrixStoreTest, LazyLoadsOnFirstTouchAndReloadsAfterEvict) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("lazy");
  MatrixStore::Partition(dense, "csr", {.shards = 3}, dir);

  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  const ShardedMatrix& sharded = Sharded(m);
  EXPECT_EQ(sharded.LoadedShardCount(), 0u);  // manifest only

  std::vector<double> x = RandomVector(dense.cols(), 6);
  std::vector<double> reference = m.MultiplyRight(x);
  EXPECT_EQ(sharded.LoadedShardCount(), 3u);

  EXPECT_TRUE(sharded.EvictShard(1));
  EXPECT_FALSE(sharded.EvictShard(1));  // already evicted
  EXPECT_EQ(sharded.LoadedShardCount(), 2u);
  EXPECT_FALSE(sharded.ShardResident(1));

  // The evicted shard transparently reloads and answers identically.
  EXPECT_EQ(m.MultiplyRight(x), reference);
  EXPECT_EQ(sharded.LoadedShardCount(), 3u);
}

TEST(MatrixStoreTest, EagerOpenLoadsEverything) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("eager");
  MatrixStore::Partition(dense, "csr", {.shards = 3}, dir);
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kEager);
  EXPECT_EQ(Sharded(m).LoadedShardCount(), 3u);
}

TEST(MatrixStoreTest, EvictToResidentBytesKeepsTheMostRecentlyTouched) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("lru");
  MatrixStore::Partition(dense, "csr", {.shards = 4}, dir);
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kEager);
  const ShardedMatrix& sharded = Sharded(m);

  sharded.LoadShard(2);  // freshest touch
  // A budget of one shard's footprint: eviction walks least recently
  // touched first, so the three older shards go and shard 2 stays.
  const u64 budget = sharded.ShardResidencyInfo(2).resident_bytes;
  ASSERT_GT(budget, 0u);
  EXPECT_EQ(sharded.EvictToResidentBytes(budget), 3u);
  EXPECT_EQ(sharded.LoadedShardCount(), 1u);
  EXPECT_TRUE(sharded.ShardResident(2));
  EXPECT_EQ(sharded.EvictToResidentBytes(budget), 0u);  // within budget
}

TEST(MatrixStoreTest, ReopeningRunsZeroRePairConstructions) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("norepair");
  MatrixStore::Partition(dense, "gcm:re_ans", {.shards = 3}, dir);

  u64 repair_before = RePairInvocationCount();
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kEager);
  std::vector<double> x = RandomVector(dense.cols(), 7);
  EXPECT_LT(MaxAbsDiff(m.MultiplyRight(x), dense.MultiplyRight(x)), 1e-9);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
  EXPECT_EQ(RePairInvocationCount(), repair_before)
      << "reopening a partitioned store must never re-run RePair";
}

TEST(MatrixStoreTest, CorruptShardFileFailsItsChecksumByName) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("corrupt");
  ShardManifest manifest =
      MatrixStore::Partition(dense, "csrv", {.shards = 3}, dir);

  std::string victim = (fs::path(dir) / manifest.shards[1].file).string();
  std::vector<u8> bytes = ReadFileBytes(victim);
  bytes[bytes.size() / 2] ^= 0x40;
  WriteFileBytes(victim, bytes);

  try {
    MatrixStore::Open(dir, ShardLoadMode::kEager);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    std::string message = e.what();
    EXPECT_NE(message.find(manifest.shards[1].file), std::string::npos)
        << message;
    EXPECT_NE(message.find("checksum"), std::string::npos) << message;
  }

  // Lazy open succeeds (manifest only); the first touch fails instead.
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  std::vector<double> x(dense.cols(), 1.0);
  std::vector<double> y(dense.rows(), 0.0);
  EXPECT_THROW(m.MultiplyRightInto(x, y), Error);
}

TEST(MatrixStoreTest, MissingShardFileIsNamed) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("missing");
  ShardManifest manifest =
      MatrixStore::Partition(dense, "csr", {.shards = 2}, dir);
  fs::remove(fs::path(dir) / manifest.shards[0].file);
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  try {
    Sharded(m).LoadShard(0);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(manifest.shards[0].file),
              std::string::npos)
        << e.what();
  }
}

TEST(MatrixStoreTest, TripletPartitionMatchesDensePartition) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("triplets");
  MatrixStore::Partition(dense.rows(), dense.cols(),
                         TripletsFromDense(dense), "csrv",
                         {.rows_per_shard = 25}, dir);
  AnyMatrix m = MatrixStore::Open(dir);
  EXPECT_EQ(m.FormatTag(), "sharded?inner=csrv&shards=3");
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
}

TEST(MatrixStoreTest, TargetBytesPolicyBoundsTheDenseSliceSize) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("bytes");
  ShardManifest manifest = MatrixStore::Partition(
      dense, "csr",
      {.target_bytes = 20 * dense.cols() * sizeof(double)}, dir);
  EXPECT_EQ(manifest.shards.size(), 3u);  // 60 rows / 20 rows per shard
  for (const ShardManifestEntry& shard : manifest.shards) {
    EXPECT_LE(shard.rows() * dense.cols() * sizeof(double),
              20 * dense.cols() * sizeof(double));
  }
}

// --------------------------------------------------------------------------
// "sharded" spec family through the engine
// --------------------------------------------------------------------------

TEST(ShardedSpecTest, InMemoryBuildServesAndRefusesEviction) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, "sharded?inner=gcm:re_32&shards=3");
  EXPECT_EQ(m.FormatTag(), "sharded?inner=gcm:re_32&shards=3");
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
  const ShardedMatrix& sharded = Sharded(m);
  EXPECT_EQ(sharded.LoadedShardCount(), 3u);
  EXPECT_FALSE(sharded.EvictShard(0));  // no file to reload from
  EXPECT_EQ(sharded.EvictToResidentBytes(0), 0u);
  EXPECT_EQ(sharded.LoadedShardCount(), 3u);
}

TEST(ShardedSpecTest, RejectsNestingAndUnknownInner) {
  DenseMatrix dense = TestMatrix();
  EXPECT_THROW(AnyMatrix::Build(dense, "sharded?inner=sharded"),
               std::invalid_argument);
  EXPECT_THROW(AnyMatrix::Build(dense, "sharded?inner=wavelet"),
               std::invalid_argument);
  EXPECT_THROW(MatrixStore::Partition(dense, "sharded?inner=csr", {},
                                      ScratchPath("nested")),
               std::invalid_argument);
}

TEST(ShardedSpecTest, EscapedInnerSpecCarriesItsParameters) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(
      dense, "sharded?inner=gcm:re_32?blocks=2+fold_bits=10&rows_per_shard=30");
  const ShardedMatrix& sharded = Sharded(m);
  EXPECT_EQ(sharded.shard_count(), 2u);
  EXPECT_EQ(sharded.manifest().shards[0].spec, "gcm:re_32?blocks=2");
  // The tag itself must stay parseable and buildable.
  AnyMatrix again = AnyMatrix::Build(dense, m.FormatTag());
  EXPECT_EQ(again.FormatTag(), m.FormatTag());
}

TEST(ShardedSpecTest, TripletBuildMatchesDenseBuild) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense.rows(), dense.cols(),
                                 TripletsFromDense(dense),
                                 "sharded?inner=gcm:re_iv&shards=4");
  EXPECT_EQ(m.FormatTag(), "sharded?inner=gcm:re_iv&shards=4");
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
}

TEST(ShardedSpecTest, SingleFileSnapshotRoundTrip) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix original =
      AnyMatrix::Build(dense, "sharded?inner=gcm:re_ans&shards=3");
  u64 repair_before = RePairInvocationCount();
  AnyMatrix restored =
      AnyMatrix::LoadSnapshotBytes(original.SaveSnapshotBytes());
  EXPECT_EQ(RePairInvocationCount(), repair_before);
  EXPECT_EQ(restored.FormatTag(), original.FormatTag());
  EXPECT_EQ(restored.CompressedBytes(), original.CompressedBytes());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(restored.ToDense(), dense), 0.0);
}

TEST(ShardedSpecTest, StoreManifestLoadsThroughTheEngineFrontDoor) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("frontdoor");
  MatrixStore::Partition(dense, "csr", {.shards = 3}, dir);
  std::string manifest_path = MatrixStore::ManifestPath(dir);

  // AnyMatrix::Load and LoadAuto both open the store lazily.
  for (const AnyMatrix& m :
       {AnyMatrix::Load(manifest_path), LoadAuto(manifest_path)}) {
    EXPECT_EQ(Sharded(m).LoadedShardCount(), 0u);
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
  }

  // The bytes alone cannot resolve sibling shard files.
  try {
    AnyMatrix::LoadSnapshotBytes(ReadFileBytes(manifest_path));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("store manifest"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardedSpecTest, StoreConsolidatesIntoASingleFileSnapshot) {
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("consolidate");
  MatrixStore::Partition(dense, "csr_iv", {.shards = 3}, dir);
  AnyMatrix store = MatrixStore::Open(dir);

  std::string single = (fs::path(dir) / "consolidated.gcsnap").string();
  store.Save(single);
  AnyMatrix restored = AnyMatrix::Load(single);
  EXPECT_EQ(restored.FormatTag(), store.FormatTag());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(restored.ToDense(), dense), 0.0);
  // The consolidated form is self-contained: in-memory shards, no files.
  EXPECT_FALSE(Sharded(restored).EvictShard(0));
}

TEST(ShardedMatrixTest, FromShardsValidatesShape) {
  DenseMatrix a(4, 3);
  DenseMatrix b(2, 5);  // wrong column count
  std::vector<AnyMatrix> mismatched;
  mismatched.push_back(AnyMatrix::Wrap(DenseMatrix(a)));
  mismatched.push_back(AnyMatrix::Wrap(DenseMatrix(b)));
  EXPECT_THROW(ShardedMatrix::FromShards(3, std::move(mismatched)), Error);
  EXPECT_THROW(ShardedMatrix::FromShards(3, {}), Error);
}

}  // namespace
}  // namespace gcm
