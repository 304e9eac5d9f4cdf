// Zero-copy serving suite (`mmap_serving_smoke` CTest label): the bitwise
// contract that makes the mmap snapshot path safe to ship.
//
// 1. Mapped load == copied load, bitwise, across every registered spec:
//    the same snapshot file deserialized through AnyMatrix::Load (which
//    maps the file and borrows payload arrays out of the mapping) and
//    through LoadSnapshotBytes over a heap copy must agree on every
//    kernel result and re-serialize to identical bytes.
// 2. Version compatibility: checked-in v1 fixtures (written before the
//    alignment-padded v2 container) still load, match their generator
//    formula exactly, and migrate to v2 via re-save / MatrixStore::Resave
//    without changing a single matrix entry.
// 3. Cold-start residency: a lazily opened store maps shard files on
//    first touch, reports page-granular residency, and eviction
//    (madvise + handle drop) round-trips back to a bitwise-identical
//    reload.
// 4. Replacement: saving over a mapped snapshot replaces the file by
//    rename, so the old handle keeps multiplying the old matrix bitwise
//    while a fresh load sees the new one.
//
// Runs on every compiler configuration including the asan-ubsan and tsan
// presets -- borrowed-span lifetime bugs are exactly what sanitizers see
// first.

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <vector>

#include "conformance_specs.hpp"
#include "core/any_matrix.hpp"
#include "encoding/snapshot.hpp"
#include "matrix/dense_matrix.hpp"
#include "serving/matrix_store.hpp"
#include "serving/shard_manifest.hpp"
#include "serving/sharded_matrix.hpp"
#include "test_paths.hpp"
#include "util/mapped_file.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

namespace fs = std::filesystem;

DenseMatrix TestMatrix() {
  Rng rng(4242);
  return DenseMatrix::Random(48, 13, 0.5, 6, &rng);
}

std::vector<double> RandomVector(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextDouble() * 2.0 - 1.0;
  return v;
}

/// The generator behind the checked-in tests/data fixtures: entry (r, c)
/// is nonzero iff (7r + 3c) % 5 == 0, with value (r+1) + 0.5*(c%4) --
/// exactly representable doubles, so equality checks are bitwise.
DenseMatrix FixtureDense(std::size_t rows, std::size_t cols) {
  std::vector<double> data(rows * cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if ((7 * r + 3 * c) % 5 == 0) {
        data[r * cols + c] =
            static_cast<double>(r + 1) + 0.5 * static_cast<double>(c % 4);
      }
    }
  }
  return DenseMatrix(rows, cols, std::move(data));
}

std::string DataPath(const std::string& name) {
  return std::string(GCM_TEST_DATA_DIR) + "/" + name;
}

// --------------------------------------------------------------------------
// Mapped load == copied load, every registered spec
// --------------------------------------------------------------------------

class MmapConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MmapConformanceTest, MappedLoadBitwiseEqualsCopiedLoad) {
  MatrixSpec parsed = MatrixSpec::Parse(GetParam());
  if (parsed.family == "cluster") {
    // A reloaded cluster manifest reconnects to its (long gone) loopback
    // workers; the cluster round-trip contract lives in net_cluster_test.
    GTEST_SKIP() << "cluster specs need live workers to reload";
  }
  DenseMatrix dense = TestMatrix();
  AnyMatrix built = AnyMatrix::Build(dense, GetParam());
  std::string path = ScratchPath("mmap_conformance.gcsnap");
  built.Save(path);

  AnyMatrix mapped = AnyMatrix::Load(path);            // mmap + borrow
  AnyMatrix copied =                                   // heap copy + own
      AnyMatrix::LoadSnapshotBytes(ReadFileBytes(path));

  EXPECT_EQ(mapped.FormatTag(), copied.FormatTag());
  EXPECT_EQ(mapped.rows(), dense.rows());
  EXPECT_EQ(mapped.cols(), dense.cols());

  // Kernel results must be bitwise identical across the three builds --
  // borrowing spans instead of owning vectors must not perturb a single
  // bit of any multiplication.
  for (u64 trial = 0; trial < 3; ++trial) {
    std::vector<double> x = RandomVector(dense.cols(), 2 * trial + 1);
    std::vector<double> y = RandomVector(dense.rows(), 2 * trial + 2);
    EXPECT_EQ(mapped.MultiplyRight(x), copied.MultiplyRight(x));
    EXPECT_EQ(mapped.MultiplyRight(x), built.MultiplyRight(x));
    EXPECT_EQ(mapped.MultiplyLeft(y), copied.MultiplyLeft(y));
    EXPECT_EQ(mapped.MultiplyLeft(y), built.MultiplyLeft(y));
  }
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(mapped.ToDense(), copied.ToDense()), 0.0);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(mapped.ToDense(), dense), 0.0);

  // Re-serialization closes the loop: a borrowed matrix writes the same
  // bytes an owned one does.
  EXPECT_EQ(mapped.SaveSnapshotBytes(), copied.SaveSnapshotBytes());
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, MmapConformanceTest,
                         ::testing::ValuesIn(ConformanceSpecs()),
                         SpecTestName);

// --------------------------------------------------------------------------
// v1 fixture compatibility
// --------------------------------------------------------------------------

class V1FixtureTest : public ::testing::TestWithParam<const char*> {};

TEST_P(V1FixtureTest, V1SnapshotStillLoadsAndMigrates) {
  std::string path = DataPath(GetParam());
  ASSERT_TRUE(fs::exists(path)) << "missing checked-in fixture " << path;
  EXPECT_EQ(SnapshotReader::FromFile(path).version(), 1u)
      << path << " is supposed to be a v1 container";

  DenseMatrix expected = FixtureDense(24, 10);
  AnyMatrix v1 = AnyMatrix::Load(path);
  EXPECT_EQ(v1.rows(), 24u);
  EXPECT_EQ(v1.cols(), 10u);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(v1.ToDense(), expected), 0.0);

  // Migration: re-saving writes the current (v2) container; the reloaded
  // matrix -- now borrowed from an aligned mapping -- is bitwise equal.
  std::string migrated = ScratchPath(std::string("migrated_") + GetParam());
  v1.Save(migrated);
  EXPECT_EQ(SnapshotReader::FromFile(migrated).version(), kSnapshotVersion);
  AnyMatrix v2 = AnyMatrix::Load(migrated);
  EXPECT_EQ(v2.FormatTag(), v1.FormatTag());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(v2.ToDense(), expected), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    CheckedInFixtures, V1FixtureTest,
    ::testing::Values("v1_dense_24x10.gcsnap", "v1_csr_24x10.gcsnap",
                      "v1_csr_iv_24x10.gcsnap", "v1_csrv_24x10.gcsnap",
                      "v1_gcm_re_ans_b2_24x10.gcsnap"),
    [](const ::testing::TestParamInfo<const char*>& fixture) {
      std::string name = fixture.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(V1FixtureTest, V1StoreServesAndResavesAsV2) {
  // Work on a copy: Resave rewrites in place and the checked-in store
  // must stay v1 for the next run.
  fs::path src = DataPath("v1_store");
  fs::path dir = ScratchPath("v1_store");
  fs::create_directories(dir);
  for (const auto& entry : fs::directory_iterator(src)) {
    fs::copy_file(entry.path(), dir / entry.path().filename());
  }

  DenseMatrix expected = FixtureDense(24, 10);
  ASSERT_EQ(SnapshotReader::FromFile((dir / "manifest.gcsnap").string())
                .version(),
            1u);
  AnyMatrix v1 = MatrixStore::Open(dir.string());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(v1.ToDense(), expected), 0.0);

  ShardManifest migrated = MatrixStore::Resave(dir.string());
  EXPECT_EQ(migrated.shards.size(), 3u);
  EXPECT_EQ(SnapshotReader::FromFile((dir / "manifest.gcsnap").string())
                .version(),
            kSnapshotVersion);
  EXPECT_EQ(SnapshotReader::FromFile((dir / migrated.shards[0].file).string())
                .version(),
            kSnapshotVersion);
  AnyMatrix v2 = MatrixStore::Open(dir.string());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(v2.ToDense(), expected), 0.0);
}

// --------------------------------------------------------------------------
// Replacing a mapped file
// --------------------------------------------------------------------------

TEST(MmapReplaceTest, SaveOverMappedSnapshotKeepsOldHandle) {
  DenseMatrix first = TestMatrix();
  Rng rng(777);
  DenseMatrix second =
      DenseMatrix::Random(first.rows(), first.cols(), 0.5, 6, &rng);
  ASSERT_NE(first, second);
  std::string path = ScratchPath("replaced.gcsnap");
  AnyMatrix::Wrap(DenseMatrix(first)).Save(path);

  AnyMatrix old = AnyMatrix::Load(path);  // borrows from the mapping
  std::vector<double> x = RandomVector(first.cols(), 11);
  std::vector<double> y = RandomVector(first.rows(), 12);
  std::vector<double> right = old.MultiplyRight(x);
  std::vector<double> left = old.MultiplyLeft(y);

  // Same size, different bytes: an in-place rewrite would show through
  // the old mapping without ever faulting.
  AnyMatrix::Wrap(DenseMatrix(second)).Save(path);
  EXPECT_EQ(old.MultiplyRight(x), right);
  EXPECT_EQ(old.MultiplyLeft(y), left);
  EXPECT_EQ(old.ToDense(), first);

  AnyMatrix fresh = AnyMatrix::Load(path);
  EXPECT_EQ(fresh.ToDense(), second);
  EXPECT_EQ(fresh.MultiplyRight(x),
            AnyMatrix::Wrap(DenseMatrix(second)).MultiplyRight(x));

  // A rename that cannot succeed (the target is a directory) throws and
  // leaves no staged temp file behind.
  fs::path dir = ScratchPath("replace_dir");
  fs::create_directories(dir / "target");
  EXPECT_THROW(AnyMatrix::Wrap(DenseMatrix(second))
                   .Save((dir / "target").string()),
               Error);
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"target"});
  EXPECT_TRUE(fs::is_empty(dir / "target"));
}

// --------------------------------------------------------------------------
// Retired rule_cache= tag key
// --------------------------------------------------------------------------

// Exactly representable operands: with the fixture's half-integer entries
// every partial sum is exact, so any summation order gives the same bits.
std::vector<double> IntegerVector(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i % 7) - 3;
  return v;
}

TEST(RetiredSpecKeyTest, SnapshotTagStillLoads) {
  // Written by a build that still had the hot-rule cache: its tag carries
  // rule_cache=, which the load path ignores.
  std::string path = DataPath("v2_gcm_re_32_rule_cache_24x10.gcsnap");
  ASSERT_TRUE(fs::exists(path)) << "missing checked-in fixture " << path;
  ASSERT_EQ(SnapshotReader::FromFile(path).spec(),
            "gcm:re_32?rule_cache=4096");

  DenseMatrix expected = FixtureDense(24, 10);
  AnyMatrix m = AnyMatrix::Load(path);
  EXPECT_EQ(m.FormatTag(), "gcm:re_32");
  std::vector<double> x = IntegerVector(expected.cols());
  std::vector<double> y = IntegerVector(expected.rows());
  EXPECT_EQ(m.MultiplyRight(x), expected.MultiplyRight(x));
  EXPECT_EQ(m.MultiplyLeft(y), expected.MultiplyLeft(y));
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), expected), 0.0);
}

TEST(RetiredSpecKeyTest, StoreManifestTagStillLoads) {
  // A store manifest from the same era records rule_cache= in every
  // shard's spec; the shards must still match what it promises.
  DenseMatrix expected = FixtureDense(24, 10);
  const std::string inners[] = {"gcm:re_32", "gcm:re_32?blocks=2"};
  for (std::size_t i = 0; i < std::size(inners); ++i) {
    const std::string& inner = inners[i];
    fs::path dir = ScratchPath("store_" + std::to_string(i));
    ShardManifest manifest =
        MatrixStore::Partition(expected, inner, {.shards = 3}, dir.string());
    for (ShardManifestEntry& shard : manifest.shards) {
      shard.spec += shard.spec.find('?') == std::string::npos
                        ? "?rule_cache=4096"
                        : "&rule_cache=4096";
    }
    manifest.Save(MatrixStore::ManifestPath(dir.string()));

    AnyMatrix m = MatrixStore::Open(dir.string());
    std::vector<double> x = IntegerVector(expected.cols());
    EXPECT_EQ(m.MultiplyRight(x), expected.MultiplyRight(x)) << inner;
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), expected), 0.0) << inner;
  }
}

// --------------------------------------------------------------------------
// Cold-start shard residency
// --------------------------------------------------------------------------

TEST(MmapResidencyTest, ColdStartMapsEvictsAndReloadsBitwise) {
  DenseMatrix dense = TestMatrix();
  fs::path dir = ScratchPath("store");
  MatrixStore::Partition(dense, "gcm:re_32", {.shards = 3}, dir.string());

  AnyMatrix m = MatrixStore::Open(dir.string());  // lazy: nothing resident
  const ShardedMatrix& sharded =
      *ShardedMatrix::FromKernel(m.kernel());
  ASSERT_EQ(sharded.LoadedShardCount(), 0u);
  EXPECT_EQ(sharded.ResidentPayloadBytes(), 0u);
  for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
    ShardedMatrix::ShardResidency info = sharded.ShardResidencyInfo(i);
    EXPECT_FALSE(info.resident);
    EXPECT_EQ(info.mapped_bytes, 0u);
    EXPECT_EQ(info.resident_bytes, 0u);
  }

  // First touch maps the shard file (where the platform supports mmap)
  // and the mapping spans exactly the snapshot the manifest promised.
  sharded.LoadShard(0);
  ShardedMatrix::ShardResidency loaded = sharded.ShardResidencyInfo(0);
  EXPECT_TRUE(loaded.resident);
  if (MappedFile::Supported()) {
    EXPECT_EQ(loaded.mapped_bytes, sharded.manifest().shards[0].snapshot_bytes);
    EXPECT_GT(loaded.resident_bytes, 0u);
    EXPECT_LE(loaded.resident_bytes,
              ((loaded.mapped_bytes + 4095) / 4096) * 4096);
  } else {
    EXPECT_EQ(loaded.mapped_bytes, 0u);
    EXPECT_EQ(loaded.resident_bytes,
              sharded.manifest().shards[0].snapshot_bytes);
  }

  // Eviction = madvise + handle drop; the slot reports empty again.
  EXPECT_TRUE(sharded.EvictShard(0));
  ShardedMatrix::ShardResidency evicted = sharded.ShardResidencyInfo(0);
  EXPECT_FALSE(evicted.resident);
  EXPECT_EQ(evicted.mapped_bytes, 0u);
  EXPECT_EQ(evicted.resident_bytes, 0u);

  // Byte-granular limit: everything file-backed goes at limit 0.
  for (std::size_t i = 0; i < sharded.shard_count(); ++i) sharded.LoadShard(i);
  EXPECT_EQ(sharded.EvictToResidentBytes(0), sharded.shard_count());
  EXPECT_EQ(sharded.LoadedShardCount(), 0u);
  EXPECT_EQ(sharded.ResidentPayloadBytes(), 0u);

  // And the evict/reload cycle never perturbs a result: the cold reload
  // is bitwise identical to the dense oracle's compressed counterpart.
  std::vector<double> x(dense.cols(), 1.0);
  AnyMatrix oracle = AnyMatrix::Build(dense, "gcm:re_32");
  EXPECT_EQ(m.MultiplyRight(x), oracle.MultiplyRight(x));
}

TEST(MmapResidencyTest, SingleFileShardSectionsAreCacheLineAligned) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix built =
      AnyMatrix::Build(dense, "sharded?inner=csr&rows_per_shard=16");
  std::string path = ScratchPath("aligned_sharded.gcsnap");
  built.Save(path);

  SnapshotReader reader = SnapshotReader::FromFile(path);
  const u8* base = reader.bytes().data();
  for (std::size_t i = 0; reader.HasSection(ShardSectionName(i)); ++i) {
    std::span<const u8> section = reader.SectionSpan(ShardSectionName(i));
    EXPECT_EQ(static_cast<std::size_t>(section.data() - base) % 64, 0u)
        << "embedded shard " << i << " is not 64-byte aligned";
  }
  // The embedded form round-trips bitwise like everything else.
  AnyMatrix reloaded = AnyMatrix::Load(path);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(reloaded.ToDense(), dense), 0.0);
}

}  // namespace
}  // namespace gcm
