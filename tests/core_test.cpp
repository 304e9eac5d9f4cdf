#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "core/gc_matrix.hpp"
#include "core/power_iteration.hpp"
#include "encoding/int_vector.hpp"
#include "matrix/datasets.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

constexpr GcFormat kAllFormats[] = {GcFormat::kCsrv, GcFormat::kRe32,
                                    GcFormat::kReIv, GcFormat::kReAns};

DenseMatrix PaperFigure1Matrix() {
  return DenseMatrix(6, 5,
                     {1.2, 3.4, 5.6, 0.0, 2.3,  //
                      2.3, 0.0, 2.3, 4.5, 1.7,  //
                      1.2, 3.4, 2.3, 4.5, 0.0,  //
                      3.4, 0.0, 5.6, 0.0, 2.3,  //
                      2.3, 0.0, 2.3, 4.5, 0.0,  //
                      1.2, 3.4, 2.3, 4.5, 3.4});
}

std::vector<double> RandomVector(std::size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->NextDouble() * 2.0 - 1.0;
  return v;
}

TEST(GcFormatTest, NamesRoundTrip) {
  for (GcFormat format : kAllFormats) {
    EXPECT_EQ(FormatByName(FormatName(format)), format);
  }
  EXPECT_THROW(FormatByName("bogus"), std::invalid_argument);
}

class GcMatrixFormatTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(GcMatrixFormatTest, PaperExampleRoundTrip) {
  DenseMatrix m = PaperFigure1Matrix();
  GcBuildOptions options;
  options.format = GetParam();
  GcMatrix gc = GcMatrix::FromDense(m, options);
  EXPECT_EQ(gc.rows(), 6u);
  EXPECT_EQ(gc.cols(), 5u);
  EXPECT_EQ(gc.ToDense(), m);
}

TEST_P(GcMatrixFormatTest, MultiplicationsMatchDense) {
  Rng rng(101);
  DenseMatrix m = DenseMatrix::Random(60, 23, 0.4, 12, &rng);
  GcBuildOptions options;
  options.format = GetParam();
  GcMatrix gc = GcMatrix::FromDense(m, options);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> x = RandomVector(23, &rng);
    std::vector<double> y = RandomVector(60, &rng);
    EXPECT_LT(MaxAbsDiff(gc.MultiplyRight(x), m.MultiplyRight(x)), 1e-9);
    EXPECT_LT(MaxAbsDiff(gc.MultiplyLeft(y), m.MultiplyLeft(y)), 1e-9);
  }
}

TEST_P(GcMatrixFormatTest, EmptyAndDegenerateMatrices) {
  GcBuildOptions options;
  options.format = GetParam();
  // All-zero matrix: every row is just a sentinel.
  DenseMatrix zeros(4, 3);
  GcMatrix gc = GcMatrix::FromDense(zeros, options);
  EXPECT_EQ(gc.ToDense(), zeros);
  std::vector<double> y = gc.MultiplyRight({1.0, 2.0, 3.0});
  EXPECT_EQ(y, (std::vector<double>(4, 0.0)));
  // Single-cell matrix.
  DenseMatrix one(1, 1, {5.0});
  GcMatrix gc1 = GcMatrix::FromDense(one, options);
  EXPECT_DOUBLE_EQ(gc1.MultiplyRight({2.0})[0], 10.0);
  EXPECT_DOUBLE_EQ(gc1.MultiplyLeft({3.0})[0], 15.0);
}

TEST_P(GcMatrixFormatTest, SerializationRoundTrip) {
  Rng rng(103);
  DenseMatrix m = DenseMatrix::Random(40, 11, 0.5, 7, &rng);
  GcBuildOptions options;
  options.format = GetParam();
  GcMatrix gc = GcMatrix::FromDense(m, options);
  ByteWriter w;
  gc.Serialize(&w);
  ByteReader r(w.buffer());
  GcMatrix restored = GcMatrix::Deserialize(&r, gc.shared_dictionary());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.ToDense(), m);
  EXPECT_EQ(restored.CompressedBytes(), gc.CompressedBytes());
}

TEST_P(GcMatrixFormatTest, WrongVectorLengthThrows) {
  GcBuildOptions options;
  options.format = GetParam();
  GcMatrix gc = GcMatrix::FromDense(PaperFigure1Matrix(), options);
  EXPECT_THROW(gc.MultiplyRight(std::vector<double>(4)), Error);
  EXPECT_THROW(gc.MultiplyLeft(std::vector<double>(5)), Error);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, GcMatrixFormatTest,
                         ::testing::Values(GcFormat::kCsrv, GcFormat::kRe32,
                                           GcFormat::kReIv, GcFormat::kReAns),
                         [](const auto& suffix_info) {
                           return FormatName(suffix_info.param);
                         });

TEST(GcMatrixTest, CsrvFormatHasNoRules) {
  GcBuildOptions options;
  options.format = GcFormat::kCsrv;
  GcMatrix gc = GcMatrix::FromDense(PaperFigure1Matrix(), options);
  EXPECT_EQ(gc.rule_count(), 0u);
  // csrv size = 4|S| + 8|V|.
  CsrvMatrix csrv = CsrvMatrix::FromDense(PaperFigure1Matrix());
  EXPECT_EQ(gc.CompressedBytes(), csrv.SizeInBytes());
}

TEST(GcMatrixTest, GrammarShrinksRepetitiveMatrix) {
  // Many identical rows with 20 non-zeros each: RePair collapses every row
  // body to one nonterminal, so |C| -> 2 symbols/row while csrv keeps 21.
  // (Sentinels never compress, which caps the gain at (t+n)/2n.)
  DenseMatrix m(200, 40);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < 40; c += 2) {
      m.Set(r, c, 1.5 + static_cast<double>(c));
    }
  }
  GcBuildOptions csrv_opts{GcFormat::kCsrv, 12, 0};
  GcBuildOptions re32_opts{GcFormat::kRe32, 12, 0};
  GcMatrix csrv = GcMatrix::FromDense(m, csrv_opts);
  GcMatrix re32 = GcMatrix::FromDense(m, re32_opts);
  EXPECT_LT(re32.CompressedBytes(), csrv.CompressedBytes() / 4);
}

TEST(GcMatrixTest, PackedVariantSmallerThan32Bit) {
  // The re_32 > re_iv > re_ans size ordering of the paper's Table 1 needs
  // enough rows that the rANS model header amortizes.
  const DatasetProfile& profile = DatasetByName("Census");
  DenseMatrix m = GenerateDatasetRows(profile, 6000);
  GcMatrix re32 = GcMatrix::FromDense(m, {GcFormat::kRe32, 12, 0});
  GcMatrix reiv = GcMatrix::FromDense(m, {GcFormat::kReIv, 12, 0});
  GcMatrix reans = GcMatrix::FromDense(m, {GcFormat::kReAns, 12, 0});
  EXPECT_LT(reiv.CompressedBytes(), re32.CompressedBytes());
  EXPECT_LT(reans.CompressedBytes(), reiv.CompressedBytes());
}

TEST(GcMatrixTest, DecompressSequenceMatchesCsrv) {
  Rng rng(107);
  DenseMatrix random = DenseMatrix::Random(30, 9, 0.6, 5, &rng);
  // Rows drawn from three patterns: the rules nest deeply and most C
  // symbols repeat a rule already expanded earlier in the output.
  DenseMatrix patterns = DenseMatrix::Random(3, 40, 0.7, 4, &rng);
  DenseMatrix repetitive(300, 40);
  for (std::size_t r = 0; r < repetitive.rows(); ++r) {
    for (std::size_t c = 0; c < repetitive.cols(); ++c) {
      repetitive.Set(r, c, patterns.At(r % 7 < 4 ? 0 : r % 3, c));
    }
  }
  for (const DenseMatrix* m : {&random, &repetitive}) {
    CsrvMatrix csrv = CsrvMatrix::FromDense(*m);
    for (GcFormat format : kAllFormats) {
      GcMatrix gc = GcMatrix::FromCsrv(csrv, {format, 12, 0});
      EXPECT_EQ(gc.DecompressSequence(), csrv.sequence())
          << FormatName(format) << " on " << m->rows() << " rows";
    }
  }
}

TEST(GcMatrixTest, DecompressSequenceRejectsOverflowingExpansion) {
  // A checksum-valid but crafted grammar: rule i = (N_{i-1}, N_{i-1})
  // expands to 2^(i+1) terminals, so 70 rules overflow a 64-bit length.
  // The size must fail by name rather than wrap and overrun the output.
  auto dict = std::make_shared<const std::vector<double>>(
      std::vector<double>{1.5});
  const u32 alphabet = 2;  // sentinel + one (value, column) terminal
  const u32 rules = 70;
  std::vector<u32> r = {1, 1};
  for (u32 i = 1; i < rules; ++i) {
    r.push_back(alphabet + i - 1);
    r.push_back(alphabet + i - 1);
  }
  std::vector<u32> c = {alphabet + rules - 1, kCsrvSentinel};
  ByteWriter w;
  w.Put<u8>(static_cast<u8>(GcFormat::kRe32));
  w.PutVarint(1);  // rows
  w.PutVarint(1);  // cols
  w.PutVarint(alphabet);
  w.PutVarint(c.size());
  w.PutVarint(rules);
  w.PutArray(std::span<const u32>(c));
  w.PutArray(std::span<const u32>(r));
  ByteReader reader(w.buffer());
  GcMatrix gc = GcMatrix::Deserialize(&reader, dict);
  EXPECT_THROW(gc.DecompressSequence(), Error);
}

TEST(GcMatrixTest, CorruptSerializationRejected) {
  GcMatrix gc = GcMatrix::FromDense(PaperFigure1Matrix(),
                                    {GcFormat::kRe32, 12, 0});
  ByteWriter w;
  gc.Serialize(&w);
  std::vector<u8> bytes = w.buffer();
  bytes[0] = 0xff;  // invalid format byte
  ByteReader r(bytes);
  EXPECT_THROW(GcMatrix::Deserialize(&r, gc.shared_dictionary()), Error);
}

TEST(GcMatrixTest, RuleCountBeyondTheSymbolSpaceRejectedByName) {
  // 2 * (2^63 + 1) wraps to 2, so a two-entry R would pass a length check
  // made by multiplication and the rule scan would read past it. The rule
  // count must fail against the u32 symbol space before anything uses it.
  auto dict = std::make_shared<const std::vector<double>>(
      std::vector<double>{1.5});
  std::vector<u32> c = {1, kCsrvSentinel};
  std::vector<u32> r = {1, 1};
  ByteWriter w;
  w.Put<u8>(static_cast<u8>(GcFormat::kRe32));
  w.PutVarint(1);  // rows
  w.PutVarint(1);  // cols
  w.PutVarint(2);  // alphabet: sentinel + one (value, column) terminal
  w.PutVarint(c.size());
  w.PutVarint((u64{1} << 63) + 1);  // rule count
  w.PutArray(std::span<const u32>(c));
  w.PutArray(std::span<const u32>(r));
  ByteReader reader(w.buffer());
  try {
    GcMatrix::Deserialize(&reader, dict);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceed the u32 symbol space"),
              std::string::npos)
        << e.what();
  }
}

TEST(IntVectorRestoreTest, SizeTimesWidthOverflowRejectedByName) {
  // 2^63 two-bit entries are 2^64 bits, which wraps to 0 and would match
  // an empty word array.
  IntVector packed;
  try {
    packed.RestoreFrom(std::size_t{1} << 63, 2, ArrayRef<u64>());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("overflows its bit count"),
              std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------------------
// BlockedGcMatrix
// --------------------------------------------------------------------------

struct BlockedCase {
  BlockedCase(GcFormat f, std::size_t b) : format(f), blocks(b) {}

  GcFormat format;
  // Occupies the alignment gap before `blocks`. gtest names each case after
  // the raw bytes of its parameter, so an uninitialised gap would give the
  // same case a different name on every build.
  std::int32_t gap = 0;
  std::size_t blocks;
};
static_assert(sizeof(BlockedCase) ==
                  sizeof(GcFormat) + sizeof(std::int32_t) + sizeof(std::size_t),
              "BlockedCase must have no padding bytes");

class BlockedTest : public ::testing::TestWithParam<BlockedCase> {};

TEST_P(BlockedTest, MatchesDenseAcrossBlockCounts) {
  Rng rng(211);
  DenseMatrix m = DenseMatrix::Random(97, 13, 0.45, 9, &rng);
  GcBuildOptions options;
  options.format = GetParam().format;
  BlockedGcMatrix blocked = BlockedGcMatrix::Build(m, GetParam().blocks,
                                                   options);
  EXPECT_EQ(blocked.rows(), 97u);
  std::vector<double> x = RandomVector(13, &rng);
  std::vector<double> y = RandomVector(97, &rng);
  EXPECT_LT(MaxAbsDiff(blocked.MultiplyRight(x), m.MultiplyRight(x)), 1e-9);
  EXPECT_LT(MaxAbsDiff(blocked.MultiplyLeft(y), m.MultiplyLeft(y)), 1e-9);
  EXPECT_EQ(blocked.ToDense(), m);
}

TEST_P(BlockedTest, ParallelMatchesSequential) {
  Rng rng(223);
  DenseMatrix m = DenseMatrix::Random(120, 10, 0.5, 6, &rng);
  GcBuildOptions options;
  options.format = GetParam().format;
  BlockedGcMatrix blocked =
      BlockedGcMatrix::Build(m, GetParam().blocks, options);
  ThreadPool pool(4);
  std::vector<double> x = RandomVector(10, &rng);
  std::vector<double> y = RandomVector(120, &rng);
  EXPECT_EQ(blocked.MultiplyRight(x, &pool), blocked.MultiplyRight(x));
  EXPECT_LT(MaxAbsDiff(blocked.MultiplyLeft(y, &pool),
                       blocked.MultiplyLeft(y)),
            1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockedTest,
    ::testing::Values(BlockedCase{GcFormat::kCsrv, 1},
                      BlockedCase{GcFormat::kCsrv, 4},
                      BlockedCase{GcFormat::kRe32, 3},
                      BlockedCase{GcFormat::kRe32, 16},
                      BlockedCase{GcFormat::kReIv, 2},
                      BlockedCase{GcFormat::kReIv, 8},
                      BlockedCase{GcFormat::kReAns, 4},
                      BlockedCase{GcFormat::kReAns, 7},
                      BlockedCase{GcFormat::kRe32, 200}));

TEST(BlockedTest, MoreBlocksThanRowsStillWorks) {
  Rng rng(227);
  DenseMatrix m = DenseMatrix::Random(5, 4, 0.8, 3, &rng);
  BlockedGcMatrix blocked =
      BlockedGcMatrix::Build(m, 64, {GcFormat::kRe32, 12, 0});
  EXPECT_LE(blocked.block_count(), 5u);
  EXPECT_EQ(blocked.ToDense(), m);
}

TEST(BlockedTest, PerBlockTraversalOrdersPreserveSemantics) {
  Rng rng(229);
  DenseMatrix m = DenseMatrix::Random(40, 6, 0.7, 4, &rng);
  std::vector<std::vector<u32>> orders = {
      {0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {2, 0, 4, 1, 5, 3},
      {1, 3, 5, 0, 2, 4}};
  BlockedGcMatrix blocked =
      BlockedGcMatrix::Build(m, 4, {GcFormat::kRe32, 12, 0}, orders);
  EXPECT_EQ(blocked.ToDense(), m);
  std::vector<double> x = RandomVector(6, &rng);
  EXPECT_LT(MaxAbsDiff(blocked.MultiplyRight(x), m.MultiplyRight(x)), 1e-9);
}

TEST(BlockedTest, WrongOrderCountThrows) {
  DenseMatrix m(10, 3);
  std::vector<std::vector<u32>> orders = {{0, 1, 2}};
  EXPECT_THROW(
      BlockedGcMatrix::Build(m, 4, {GcFormat::kRe32, 12, 0}, orders), Error);
}

TEST(BlockedTest, SharedDictionaryAccountedOnce) {
  const DatasetProfile& profile = DatasetByName("Census");
  DenseMatrix m = GenerateDatasetRows(profile, 600);
  BlockedGcMatrix blocked =
      BlockedGcMatrix::Build(m, 4, {GcFormat::kRe32, 12, 0});
  u64 payloads = 0;
  for (std::size_t b = 0; b < blocked.block_count(); ++b) {
    payloads += blocked.block(b).PayloadBytes();
  }
  u64 dict_bytes =
      blocked.block(0).dictionary().size() * sizeof(double);
  EXPECT_EQ(blocked.CompressedBytes(), payloads + dict_bytes);
}

// --------------------------------------------------------------------------
// Power iteration (Eq. 4)
// --------------------------------------------------------------------------

TEST(PowerIterationTest, AgreesBetweenDenseAndCompressed) {
  Rng rng(233);
  DenseMatrix m = DenseMatrix::Random(50, 8, 0.6, 5, &rng);
  PowerIterationResult dense = RunPowerIteration(AnyMatrix::Ref(m), 20);
  for (GcFormat format : kAllFormats) {
    GcMatrix gc = GcMatrix::FromDense(m, {format, 12, 0});
    PowerIterationResult compressed =
        RunPowerIteration(AnyMatrix::Ref(gc), 20);
    EXPECT_LT(MaxAbsDiff(dense.x, compressed.x), 1e-6) << FormatName(format);
  }
}

TEST(PowerIterationTest, BlockedAgreesWithSingle) {
  Rng rng(239);
  DenseMatrix m = DenseMatrix::Random(64, 9, 0.5, 6, &rng);
  GcMatrix single = GcMatrix::FromDense(m, {GcFormat::kReIv, 12, 0});
  BlockedGcMatrix blocked =
      BlockedGcMatrix::Build(m, 8, {GcFormat::kReIv, 12, 0});
  ThreadPool pool(4);
  PowerIterationResult a = RunPowerIteration(AnyMatrix::Ref(single), 15);
  PowerIterationResult b =
      RunPowerIteration(AnyMatrix::Ref(blocked), 15, &pool);
  EXPECT_LT(MaxAbsDiff(a.x, b.x), 1e-9);
}

TEST(PowerIterationTest, ConvergesToDominantSingularDirection) {
  // For M = diag(3, 1): x -> M^t M x converges to e1.
  DenseMatrix m(2, 2, {3, 0, 0, 1});
  PowerIterationResult result = RunPowerIteration(AnyMatrix::Ref(m), 50);
  EXPECT_NEAR(std::fabs(result.x[0]), 1.0, 1e-9);
  EXPECT_NEAR(result.x[1], 0.0, 1e-6);
}

TEST(PowerIterationTest, ZeroMatrixYieldsZeroVector) {
  DenseMatrix zeros(5, 5);
  PowerIterationResult result =
      RunPowerIteration(AnyMatrix::Ref(zeros), 3);
  EXPECT_EQ(result.x, std::vector<double>(5, 0.0));
}

TEST(PowerIterationTest, ReportsTimingAndMemory) {
  Rng rng(241);
  DenseMatrix m = DenseMatrix::Random(100, 10, 0.5, 5, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GcFormat::kRe32, 12, 0});
  PowerIterationResult result = RunPowerIteration(AnyMatrix::Ref(gc), 10);
  EXPECT_EQ(result.iterations, 10u);
  EXPECT_GT(result.seconds_total, 0.0);
  if (MemoryTracker::TrackingActive()) {
    EXPECT_GT(result.peak_heap_bytes, 0u);
  } else {
    EXPECT_EQ(result.peak_heap_bytes, 0u)
        << "heap tracking is compiled out under sanitizers";
  }
}

// --------------------------------------------------------------------------
// Integration over the synthetic paper datasets
// --------------------------------------------------------------------------

class DatasetIntegrationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DatasetIntegrationTest, AllFormatsLosslessAndConsistent) {
  const DatasetProfile& profile = DatasetByName(GetParam());
  DenseMatrix m = GenerateDatasetRows(profile, 400);
  Rng rng(251);
  std::vector<double> x = RandomVector(m.cols(), &rng);
  std::vector<double> expected = m.MultiplyRight(x);
  for (GcFormat format : kAllFormats) {
    BlockedGcMatrix blocked =
        BlockedGcMatrix::Build(m, 4, {format, 12, 0});
    EXPECT_LT(MaxAbsDiff(blocked.MultiplyRight(x), expected), 1e-6)
        << profile.name << "/" << FormatName(format);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetIntegrationTest,
                         ::testing::Values("Susy", "Higgs", "Airline78",
                                           "Covtype", "Census", "Optical",
                                           "Mnist2m"));

}  // namespace
}  // namespace gcm
