// Serving subsystem suite: ShardManifest (round trip, validation, corrupt
// sections named), MatrixStore (partition -> reopen -> scatter/gather
// equals the dense oracle -> evict/reload, zero RePair constructions on
// reopen, checksum-verified shard files), ShardedMatrix residency control
// and row-range kernels, and the "sharded" spec family (in-memory build,
// nested rejection, inner spec escaping, single-file snapshot round trip,
// manifest loading through the engine front door). Runs under the
// `sharded_serving_smoke` CTest label so CI exercises the store layout on
// every compiler configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
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

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
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

TEST(ShardManifestTest, ShardFileNamesCarryTheirGeneration) {
  // A store write deletes shard files of other generations, so only names
  // it could have written may parse; every other file is left alone.
  EXPECT_EQ(ShardFileName(1, 0), "shard_g1_00000.gcsnap");
  EXPECT_EQ(ShardFileGeneration(ShardFileName(7, 123456)), 7u);
  EXPECT_EQ(ShardFileGeneration("shard_00002.gcsnap"), 0u);
  EXPECT_EQ(ShardFileGeneration("shard_g999999999999999999_00000.gcsnap"),
            999999999999999999u);
  for (const char* other :
       {"manifest.gcsnap", "cluster.gcsnap", "shard_g1_00000.gcsnap.tmp.7.0",
        "shard_g_00000.gcsnap", "shard_g1.gcsnap", "xshard_00000.gcsnap",
        "shard_g1000000000000000000_00000.gcsnap"}) {
    EXPECT_EQ(ShardFileGeneration(other), std::nullopt) << other;
  }
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

/// The names of the files in `dir`, sorted.
std::vector<std::string> FileNames(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(MatrixStoreTest, UncommittedGenerationIsIgnoredThenCollected) {
  // A Partition killed before its manifest rename leaves the next
  // generation's shard files beside the committed store. Open must serve
  // the committed generation; the next Partition must write past the
  // litter's generation and collect it.
  DenseMatrix dense = TestMatrix();
  std::string dir = ScratchPath("uncommitted");
  ShardManifest committed =
      MatrixStore::Partition(dense, "gcm:re_32", {.shards = 3}, dir);
  for (std::size_t i = 0; i < committed.shards.size(); ++i) {
    EXPECT_EQ(committed.shards[i].file, ShardFileName(1, i));
  }
  std::vector<double> x = RandomVector(dense.cols(), 5);
  std::vector<double> want = MatrixStore::Open(dir).MultiplyRight(x);

  Rng rng(99);
  DenseMatrix other =
      DenseMatrix::Random(dense.rows(), dense.cols(), 0.5, 5, &rng);
  for (std::size_t i = 0; i < 2; ++i) {
    AnyMatrix::Build(other.RowSlice(20 * i, 20 * (i + 1)), "gcm:re_32")
        .Save((fs::path(dir) / ShardFileName(2, i)).string());
  }
  {
    AnyMatrix served = MatrixStore::Open(dir, ShardLoadMode::kEager);
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(served.ToDense(), dense), 0.0);
    EXPECT_TRUE(BitwiseEqual(served.MultiplyRight(x), want));
  }

  ShardManifest next =
      MatrixStore::Partition(dense, "gcm:re_32", {.shards = 3}, dir);
  std::vector<std::string> expected = {kShardManifestFileName};
  for (std::size_t i = 0; i < next.shards.size(); ++i) {
    EXPECT_EQ(next.shards[i].file, ShardFileName(3, i));
    expected.push_back(ShardFileName(3, i));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(FileNames(dir), expected);
  EXPECT_TRUE(BitwiseEqual(MatrixStore::Open(dir).MultiplyRight(x), want));
}

TEST(MatrixStoreTest, RaggedStoreResavesAndServesBitwise) {
  // Partition always cuts one grain, but a store built by hand may tile
  // its rows unevenly. Resave keeps the manifest's own row ranges, and
  // collects the legacy-named files it replaces.
  DenseMatrix dense = TestMatrix();  // 60 rows
  std::string dir = ScratchPath("ragged");
  fs::create_directories(dir);
  const std::pair<std::size_t, std::size_t> kRanges[] = {
      {0, 7}, {7, 40}, {40, 41}, {41, 60}};
  ShardManifest manifest;
  manifest.rows = dense.rows();
  manifest.cols = dense.cols();
  for (const auto& [begin, end] : kRanges) {
    AnyMatrix shard = AnyMatrix::Build(dense.RowSlice(begin, end), "csrv");
    std::vector<u8> bytes = shard.SaveSnapshotBytes();
    char file[32];
    std::snprintf(file, sizeof(file), "shard_%05zu.gcsnap",
                  manifest.shards.size());
    WriteFileBytes((fs::path(dir) / file).string(), bytes);
    manifest.shards.push_back({begin, end, file, shard.FormatTag(),
                               Crc32(bytes.data(), bytes.size()),
                               bytes.size(), shard.CompressedBytes()});
  }
  manifest.Save((fs::path(dir) / kShardManifestFileName).string());
  std::vector<double> x = RandomVector(dense.cols(), 6);
  std::vector<double> y = RandomVector(dense.rows(), 7);
  AnyMatrix before = MatrixStore::Open(dir);
  std::vector<double> want_right = before.MultiplyRight(x);
  std::vector<double> want_left = before.MultiplyLeft(y);

  ShardManifest resaved = MatrixStore::Resave(dir);
  ASSERT_EQ(resaved.shards.size(), std::size(kRanges));
  std::vector<std::string> expected = {kShardManifestFileName};
  for (std::size_t i = 0; i < resaved.shards.size(); ++i) {
    EXPECT_EQ(resaved.shards[i].row_begin, kRanges[i].first);
    EXPECT_EQ(resaved.shards[i].row_end, kRanges[i].second);
    EXPECT_EQ(resaved.shards[i].file, ShardFileName(1, i));
    expected.push_back(ShardFileName(1, i));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(FileNames(dir), expected);
  AnyMatrix after = MatrixStore::Open(dir, ShardLoadMode::kEager);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(after.ToDense(), dense), 0.0);
  EXPECT_TRUE(BitwiseEqual(after.MultiplyRight(x), want_right));
  EXPECT_TRUE(BitwiseEqual(after.MultiplyLeft(y), want_left));
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

// --------------------------------------------------------------------------
// Row-range kernels (the server's range path and the cluster's worker path)
// --------------------------------------------------------------------------

/// 60 rows in four uneven shards ([0,16) [16,32) [32,48) [48,60)) over a
/// blocked inner spec, so a forwarded pool also reaches the inner kernel.
AnyMatrix RangeTestMatrix() {
  return AnyMatrix::Build(
      TestMatrix(), "sharded?inner=gcm:re_iv?blocks=2&rows_per_shard=16");
}

std::vector<double> RightRange(const ShardedMatrix& m,
                               const std::vector<double>& x, std::size_t begin,
                               std::size_t end, const MulContext& ctx) {
  std::vector<double> y(end - begin);
  m.MultiplyRightRangeInto(x, y, begin, end, ctx);
  return y;
}

std::vector<double> LeftRange(const ShardedMatrix& m,
                              const std::vector<double>& y, std::size_t begin,
                              std::size_t end, const MulContext& ctx) {
  std::vector<double> x(m.cols());
  m.MultiplyLeftRangeInto(
      std::span<const double>(y).subspan(begin, end - begin), x, begin, end,
      ctx);
  return x;
}

TEST(ShardedRangeKernelTest, PooledRangesEqualSequentialBitwise) {
  AnyMatrix m = RangeTestMatrix();
  const ShardedMatrix& sharded = Sharded(m);
  ASSERT_EQ(sharded.shard_count(), 4u);
  ThreadPool pool(3);
  std::vector<double> x = RandomVector(m.cols(), 21);
  std::vector<double> y = RandomVector(m.rows(), 22);
  // One-shard, shard-cutting and multi-shard right ranges.
  for (auto [begin, end] :
       {std::pair<std::size_t, std::size_t>{0, 60}, {0, 16}, {20, 21},
        {5, 37}, {15, 49}, {47, 60}}) {
    EXPECT_TRUE(BitwiseEqual(RightRange(sharded, x, begin, end, {}),
                             RightRange(sharded, x, begin, end, {&pool})))
        << "right [" << begin << ", " << end << ")";
  }
  // Left ranges must be shard-aligned.
  for (auto [begin, end] :
       {std::pair<std::size_t, std::size_t>{0, 60}, {0, 16}, {16, 48},
        {32, 60}, {48, 60}}) {
    EXPECT_TRUE(BitwiseEqual(LeftRange(sharded, y, begin, end, {}),
                             LeftRange(sharded, y, begin, end, {&pool})))
        << "left [" << begin << ", " << end << ")";
  }
}

TEST(ShardedRangeKernelTest, FullRangeEqualsTheUnrangedKernel) {
  AnyMatrix m = RangeTestMatrix();
  const ShardedMatrix& sharded = Sharded(m);
  ThreadPool pool(3);
  std::vector<double> x = RandomVector(m.cols(), 23);
  std::vector<double> y = RandomVector(m.rows(), 24);
  for (const MulContext& ctx : {MulContext{}, MulContext{&pool}}) {
    EXPECT_TRUE(BitwiseEqual(RightRange(sharded, x, 0, m.rows(), ctx),
                             m.MultiplyRight(x, ctx)));
    // The full left range starts its fold from the first shard's partial
    // and the unranged kernel from zero, so the two may differ in the sign
    // of a zero; == compares values, which must match exactly.
    EXPECT_EQ(LeftRange(sharded, y, 0, m.rows(), ctx), m.MultiplyLeft(y, ctx));
  }
}

TEST(ShardedRangeKernelTest, RangesCuttingThroughShardsSliceTheFullProduct) {
  AnyMatrix m = RangeTestMatrix();
  const ShardedMatrix& sharded = Sharded(m);
  ThreadPool pool(3);
  std::vector<double> x = RandomVector(m.cols(), 25);
  std::vector<double> full = m.MultiplyRight(x);
  for (auto [begin, end] :
       {std::pair<std::size_t, std::size_t>{1, 2}, {10, 20}, {5, 37},
        {17, 59}, {31, 33}}) {
    std::vector<double> want(full.begin() + static_cast<std::ptrdiff_t>(begin),
                             full.begin() + static_cast<std::ptrdiff_t>(end));
    EXPECT_TRUE(BitwiseEqual(RightRange(sharded, x, begin, end, {}), want))
        << "[" << begin << ", " << end << ")";
    EXPECT_TRUE(
        BitwiseEqual(RightRange(sharded, x, begin, end, {&pool}), want))
        << "[" << begin << ", " << end << ") pooled";
  }
  // A left range must cover whole shards.
  std::vector<double> y = RandomVector(m.rows(), 26);
  EXPECT_FALSE(sharded.RangeAlignedToShards(5, 37));
  EXPECT_THROW(LeftRange(sharded, y, 5, 37, {}), Error);
}

TEST(ShardedRangeKernelTest, OneShardLeftRangeEqualsThatShardsKernel) {
  // What keeps a cluster-gathered left multiply equal to the local one:
  // a worker's one-shard partial is exactly the shard's own left product.
  AnyMatrix m = RangeTestMatrix();
  const ShardedMatrix& sharded = Sharded(m);
  ThreadPool pool(3);
  std::vector<double> y = RandomVector(m.rows(), 27);
  for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
    const ShardManifestEntry& shard = sharded.manifest().shards[i];
    std::vector<double> slice(
        y.begin() + static_cast<std::ptrdiff_t>(shard.row_begin),
        y.begin() + static_cast<std::ptrdiff_t>(shard.row_end));
    std::vector<double> want = sharded.LoadShard(i).MultiplyLeft(slice);
    for (const MulContext& ctx : {MulContext{}, MulContext{&pool}}) {
      EXPECT_TRUE(BitwiseEqual(
          LeftRange(sharded, y, shard.row_begin, shard.row_end, ctx), want))
          << "shard " << i;
    }
  }
}

/// A shard whose products are all -0.0: the one input that tells a fold
/// started from the first shard's partial from one started at zero.
class NegativeZeroKernel final : public IMatrixKernel {
 public:
  NegativeZeroKernel(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {}
  std::size_t rows() const override { return rows_; }
  std::size_t cols() const override { return cols_; }
  u64 CompressedBytes() const override { return 0; }
  std::string FormatTag() const override { return "negative_zero"; }
  void MultiplyRightInto(std::span<const double>, std::span<double> y,
                         const MulContext&) const override {
    std::fill(y.begin(), y.end(), -0.0);
  }
  void MultiplyLeftInto(std::span<const double>, std::span<double> x,
                        const MulContext&) const override {
    std::fill(x.begin(), x.end(), -0.0);
  }
  DenseMatrix ToDense() const override { return DenseMatrix(rows_, cols_); }

 private:
  std::size_t rows_;
  std::size_t cols_;
};

TEST(ShardedRangeKernelTest, LeftRangeKeepsTheSignOfAZeroPartial) {
  std::vector<AnyMatrix> shards;
  for (int i = 0; i < 3; ++i) {
    shards.emplace_back(std::make_shared<NegativeZeroKernel>(4, 2));
  }
  AnyMatrix m(ShardedMatrix::FromShards(2, std::move(shards)));
  const ShardedMatrix& sharded = Sharded(m);
  ThreadPool pool(3);
  std::vector<double> y(m.rows(), 1.0);
  for (const MulContext& ctx : {MulContext{}, MulContext{&pool}}) {
    for (auto [begin, end] : {std::pair<std::size_t, std::size_t>{0, 4},
                              {4, 12}, {0, 12}}) {
      for (double v : LeftRange(sharded, y, begin, end, ctx)) {
        EXPECT_TRUE(std::signbit(v)) << "[" << begin << ", " << end << ")";
      }
    }
    // The unranged kernel folds from zero, as the cluster coordinator does.
    for (double v : m.MultiplyLeft(y, ctx)) EXPECT_FALSE(std::signbit(v));
  }
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
