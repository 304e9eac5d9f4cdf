#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/any_matrix.hpp"
#include "core/matrix_file.hpp"
#include "encoding/snapshot.hpp"
#include "matrix/csr.hpp"
#include "matrix/csrv.hpp"
#include "matrix/datasets.hpp"
#include "matrix/dense_matrix.hpp"
#include "matrix/matrix_io.hpp"
#include "matrix/stats.hpp"
#include "test_paths.hpp"

namespace gcm {
namespace {

/// The worked example from Figure 1 of the paper.
DenseMatrix PaperFigure1Matrix() {
  return DenseMatrix(6, 5,
                     {1.2, 3.4, 5.6, 0.0, 2.3,  //
                      2.3, 0.0, 2.3, 4.5, 1.7,  //
                      1.2, 3.4, 2.3, 4.5, 0.0,  //
                      3.4, 0.0, 5.6, 0.0, 2.3,  //
                      2.3, 0.0, 2.3, 4.5, 0.0,  //
                      1.2, 3.4, 2.3, 4.5, 3.4});
}

TEST(DenseMatrixTest, BasicAccessors) {
  DenseMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.UncompressedBytes(), 2u * 3u * 8u);
  m.Set(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
  EXPECT_EQ(m.CountNonZeros(), 1u);
}

TEST(DenseMatrixTest, ConstructorValidatesPayload) {
  EXPECT_THROW(DenseMatrix(2, 2, {1.0, 2.0}), Error);
}

TEST(DenseMatrixTest, MultiplyRightMatchesManual) {
  DenseMatrix m(2, 3, {1, 2, 3, 4, 5, 6});
  std::vector<double> y = m.MultiplyRight({1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(DenseMatrixTest, MultiplyLeftMatchesManual) {
  DenseMatrix m(2, 3, {1, 2, 3, 4, 5, 6});
  std::vector<double> x = m.MultiplyLeft({1, 2});
  EXPECT_DOUBLE_EQ(x[0], 9.0);
  EXPECT_DOUBLE_EQ(x[1], 12.0);
  EXPECT_DOUBLE_EQ(x[2], 15.0);
}

TEST(DenseMatrixTest, LeftEqualsRightOnTranspose) {
  Rng rng(3);
  DenseMatrix m = DenseMatrix::Random(13, 7, 0.5, 6, &rng);
  std::vector<double> y(13);
  for (auto& v : y) v = rng.NextDouble() - 0.5;
  std::vector<double> left = m.MultiplyLeft(y);
  std::vector<double> viaT = m.Transposed().MultiplyRight(y);
  EXPECT_LT(MaxAbsDiff(left, viaT), 1e-12);
}

TEST(DenseMatrixTest, DimensionMismatchThrows) {
  DenseMatrix m(2, 3);
  EXPECT_THROW(m.MultiplyRight(std::vector<double>(2)), Error);
  EXPECT_THROW(m.MultiplyLeft(std::vector<double>(3)), Error);
}

TEST(DenseMatrixTest, WithColumnOrderPermutes) {
  DenseMatrix m(1, 3, {10, 20, 30});
  DenseMatrix p = m.WithColumnOrder({2, 0, 1});
  EXPECT_DOUBLE_EQ(p.At(0, 0), 30.0);
  EXPECT_DOUBLE_EQ(p.At(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(p.At(0, 2), 20.0);
}

TEST(DenseMatrixTest, RandomRespectsDictionary) {
  Rng rng(5);
  DenseMatrix m = DenseMatrix::Random(50, 20, 0.4, 4, &rng);
  EXPECT_LE(BuildValueDictionary(m).size(), 4u);
  double density = static_cast<double>(m.CountNonZeros()) /
                   static_cast<double>(m.rows() * m.cols());
  EXPECT_NEAR(density, 0.4, 0.1);
}

TEST(CsrTest, RoundTripAndMultiply) {
  DenseMatrix m = PaperFigure1Matrix();
  CsrMatrix csr = CsrMatrix::FromDense(m);
  EXPECT_EQ(csr.nonzeros(), m.CountNonZeros());
  EXPECT_EQ(csr.ToDense(), m);
  std::vector<double> x = {1, 2, 3, 4, 5};
  EXPECT_LT(MaxAbsDiff(csr.MultiplyRight(x), m.MultiplyRight(x)), 1e-12);
  std::vector<double> y = {1, -1, 2, -2, 3, -3};
  EXPECT_LT(MaxAbsDiff(csr.MultiplyLeft(y), m.MultiplyLeft(y)), 1e-12);
}

TEST(CsrIvTest, RoundTripAndDictionary) {
  DenseMatrix m = PaperFigure1Matrix();
  CsrIvMatrix csr = CsrIvMatrix::FromDense(m);
  EXPECT_EQ(csr.distinct_values(), 6u);  // paper: V has 6 entries
  EXPECT_EQ(csr.ToDense(), m);
  std::vector<double> x = {1, 2, 3, 4, 5};
  EXPECT_LT(MaxAbsDiff(csr.MultiplyRight(x), m.MultiplyRight(x)), 1e-12);
}

TEST(CsrIvTest, SmallerThanCsrForFewDistinctValues) {
  Rng rng(7);
  DenseMatrix m = DenseMatrix::Random(500, 40, 0.5, 8, &rng);
  EXPECT_LT(CsrIvMatrix::FromDense(m).SizeInBytes(),
            CsrMatrix::FromDense(m).SizeInBytes());
}

TEST(CsrvTest, MatchesPaperFigure1Structure) {
  DenseMatrix m = PaperFigure1Matrix();
  CsrvMatrix csrv = CsrvMatrix::FromDense(m);
  // Paper: V = [1.2 1.7 2.3 3.4 4.5 5.6], |S| = t + n = 24 + 6.
  EXPECT_EQ(csrv.dictionary(),
            (std::vector<double>{1.2, 1.7, 2.3, 3.4, 4.5, 5.6}));
  EXPECT_EQ(csrv.sequence().size(), m.CountNonZeros() + m.rows());
  // First row: pairs <0,0> <3,1> <5,2> <2,4> then $ (0-based ids).
  EXPECT_EQ(csrv.sequence()[0], EncodeCsrvPair(0, 0, 5));
  EXPECT_EQ(csrv.sequence()[1], EncodeCsrvPair(3, 1, 5));
  EXPECT_EQ(csrv.sequence()[2], EncodeCsrvPair(5, 2, 5));
  EXPECT_EQ(csrv.sequence()[3], EncodeCsrvPair(2, 4, 5));
  EXPECT_EQ(csrv.sequence()[4], kCsrvSentinel);
  EXPECT_EQ(csrv.ToDense(), m);
}

TEST(CsrvTest, SymbolCodecRoundTrip) {
  for (u32 value_id : {0u, 1u, 17u}) {
    for (u32 column : {0u, 3u, 4u}) {
      u32 code = EncodeCsrvPair(value_id, column, 5);
      CsrvSymbol decoded = DecodeCsrvSymbol(code, 5);
      EXPECT_FALSE(decoded.is_sentinel);
      EXPECT_EQ(decoded.value_id, value_id);
      EXPECT_EQ(decoded.column, column);
    }
  }
  EXPECT_TRUE(DecodeCsrvSymbol(kCsrvSentinel, 5).is_sentinel);
}

TEST(CsrvTest, MultiplyMatchesDense) {
  Rng rng(11);
  DenseMatrix m = DenseMatrix::Random(40, 17, 0.3, 9, &rng);
  CsrvMatrix csrv = CsrvMatrix::FromDense(m);
  std::vector<double> x(17), y(40);
  for (auto& v : x) v = rng.NextDouble() * 2 - 1;
  for (auto& v : y) v = rng.NextDouble() * 2 - 1;
  EXPECT_LT(MaxAbsDiff(csrv.MultiplyRight(x), m.MultiplyRight(x)), 1e-9);
  EXPECT_LT(MaxAbsDiff(csrv.MultiplyLeft(y), m.MultiplyLeft(y)), 1e-9);
}

TEST(CsrvTest, TraversalOrderKeepsSemantics) {
  DenseMatrix m = PaperFigure1Matrix();
  std::vector<u32> order = {4, 2, 0, 3, 1};
  CsrvMatrix reordered = CsrvMatrix::FromDense(m, &order);
  // Different sequence layout, identical matrix semantics.
  EXPECT_EQ(reordered.ToDense(), m);
  std::vector<double> x = {1, 2, 3, 4, 5};
  EXPECT_LT(MaxAbsDiff(reordered.MultiplyRight(x), m.MultiplyRight(x)),
            1e-12);
}

TEST(CsrvTest, SplitRowBlocksPreservesContent) {
  Rng rng(13);
  DenseMatrix m = DenseMatrix::Random(23, 9, 0.5, 5, &rng);
  CsrvMatrix csrv = CsrvMatrix::FromDense(m);
  for (std::size_t blocks : {1u, 2u, 3u, 7u, 23u, 50u}) {
    std::vector<CsrvMatrix> parts = csrv.SplitRowBlocks(blocks);
    std::size_t total_rows = 0;
    std::size_t total_symbols = 0;
    for (const CsrvMatrix& part : parts) {
      total_rows += part.rows();
      total_symbols += part.sequence().size();
    }
    EXPECT_EQ(total_rows, 23u) << blocks << " blocks";
    EXPECT_EQ(total_symbols, csrv.sequence().size());
  }
}

TEST(CsrvTest, ValidateCatchesCorruption) {
  DenseMatrix m = PaperFigure1Matrix();
  CsrvMatrix csrv = CsrvMatrix::FromDense(m);
  std::vector<u32> bad = csrv.sequence().ToVector();
  bad.push_back(kCsrvSentinel);  // extra sentinel -> row count mismatch
  EXPECT_THROW(CsrvMatrix::FromParts(m.rows(), m.cols(),
                                     csrv.dictionary(), bad),
               Error);
  std::vector<u32> out_of_range = csrv.sequence().ToVector();
  out_of_range[0] = EncodeCsrvPair(99, 0, 5);  // value id beyond dictionary
  EXPECT_THROW(CsrvMatrix::FromParts(m.rows(), m.cols(), csrv.dictionary(),
                                     out_of_range),
               Error);
}

TEST(StatsTest, ComputeStats) {
  DenseMatrix m = PaperFigure1Matrix();
  MatrixStats stats = ComputeStats(m);
  EXPECT_EQ(stats.rows, 6u);
  EXPECT_EQ(stats.cols, 5u);
  EXPECT_EQ(stats.nonzeros, 23u);  // t = 23 in the paper's Figure 1
  EXPECT_EQ(stats.distinct_values, 6u);
  EXPECT_NEAR(stats.density, 23.0 / 30.0, 1e-12);
}

TEST(StatsTest, EntropyZeroForConstantSequence) {
  std::vector<u32> constant(100, 7);
  EXPECT_NEAR(EmpiricalEntropy(constant, 0), 0.0, 1e-12);
}

TEST(StatsTest, EntropyOfUniformPair) {
  std::vector<u32> seq;
  for (int i = 0; i < 500; ++i) {
    seq.push_back(0);
    seq.push_back(1);
  }
  EXPECT_NEAR(EmpiricalEntropy(seq, 0), 1.0, 1e-9);
  // Order-1: each symbol determines the next -> H_1 ~ 0.
  EXPECT_NEAR(EmpiricalEntropy(seq, 1), 0.0, 0.01);
}

TEST(StatsTest, HigherOrderNeverIncreasesEntropy) {
  Rng rng(17);
  std::vector<u32> seq;
  for (int i = 0; i < 2000; ++i) {
    seq.push_back(static_cast<u32>(rng.SkewedBelow(16, 0.8)));
  }
  double h0 = EmpiricalEntropy(seq, 0);
  double h1 = EmpiricalEntropy(seq, 1);
  double h2 = EmpiricalEntropy(seq, 2);
  EXPECT_GE(h0 + 1e-9, h1);
  EXPECT_GE(h1 + 1e-9, h2);
}

class MatrixIoTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) { return ScratchPath(name); }
};

// The binary io of a single matrix is the snapshot container: the
// DenseBinary/CsrvBinary names predate the retirement of the private
// GCMD/GCMS formats and now round-trip `dense`/`csrv` snapshots.
TEST_F(MatrixIoTest, DenseBinaryRoundTrip) {
  DenseMatrix m = PaperFigure1Matrix();
  AnyMatrix::Wrap(DenseMatrix(m)).Save(Path("m.gcsnap"));
  AnyMatrix restored = AnyMatrix::Load(Path("m.gcsnap"));
  EXPECT_EQ(restored.FormatTag(), "dense");
  EXPECT_EQ(restored.ToDense(), m);
}

TEST_F(MatrixIoTest, CsrvBinaryRoundTrip) {
  CsrvMatrix csrv = CsrvMatrix::FromDense(PaperFigure1Matrix());
  AnyMatrix::Wrap(CsrvMatrix(csrv)).Save(Path("m.gcsnap"));
  AnyMatrix restored = AnyMatrix::Load(Path("m.gcsnap"));
  EXPECT_EQ(restored.FormatTag(), "csrv");
  EXPECT_EQ(restored.ToDense(), PaperFigure1Matrix());
  // Same dictionary and sequence: re-serializing reproduces the file.
  EXPECT_EQ(restored.SaveSnapshotBytes(), ReadFileBytes(Path("m.gcsnap")));
}

TEST_F(MatrixIoTest, TextRoundTrip) {
  DenseMatrix m = PaperFigure1Matrix();
  SaveDenseText(m, Path("m.txt"));
  DenseMatrix restored = LoadDenseText(Path("m.txt"));
  EXPECT_LT(DenseMatrix::MaxAbsDiff(m, restored), 1e-12);
}

TEST_F(MatrixIoTest, MissingFileThrows) {
  EXPECT_THROW(LoadAuto(Path("nope.gcsnap")), Error);
  EXPECT_THROW(AnyMatrix::Load(Path("nope.gcsnap")), Error);
}

TEST_F(MatrixIoTest, WrongMagicThrows) {
  std::ofstream out(Path("bad.gcsnap"), std::ios::binary);
  out << "this is not a matrix file at all";
  out.close();
  EXPECT_THROW(LoadAuto(Path("bad.gcsnap")), Error);
  EXPECT_THROW(AnyMatrix::Load(Path("bad.gcsnap")), Error);
}

TEST_F(MatrixIoTest, TruncatedFileThrows) {
  AnyMatrix::Wrap(PaperFigure1Matrix()).Save(Path("m.gcsnap"));
  std::filesystem::resize_file(Path("m.gcsnap"), 20);
  EXPECT_THROW(LoadAuto(Path("m.gcsnap")), Error);
  EXPECT_THROW(AnyMatrix::Load(Path("m.gcsnap")), Error);
}

TEST_F(MatrixIoTest, CrossFormatRejected) {
  // A file of the retired binary CSRV container is refused by name, not
  // misparsed as dense text or as a snapshot.
  std::ofstream out(Path("m.csrv"), std::ios::binary);
  out << "GCMS\x01\x00\x00\x00 retired csrv body";
  out.close();
  try {
    LoadAuto(Path("m.csrv"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("GCMS"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(AnyMatrix::Load(Path("m.csrv")), Error);
}

TEST(DatasetsTest, SevenPaperProfiles) {
  const auto& profiles = PaperDatasets();
  ASSERT_EQ(profiles.size(), 7u);
  EXPECT_EQ(profiles[0].name, "Susy");
  EXPECT_EQ(profiles[6].name, "Mnist2m");
  EXPECT_EQ(profiles[6].cols, 784u);
}

TEST(DatasetsTest, LookupByName) {
  EXPECT_EQ(DatasetByName("Census").cols, 68u);
  EXPECT_THROW(DatasetByName("NoSuchDataset"), Error);
}

TEST(DatasetsTest, GeneratorIsDeterministic) {
  const DatasetProfile& profile = DatasetByName("Census");
  DenseMatrix a = GenerateDatasetRows(profile, 300);
  DenseMatrix b = GenerateDatasetRows(profile, 300);
  EXPECT_EQ(a, b);
}

TEST(DatasetsTest, ScaleDivisorShrinksRows) {
  const DatasetProfile& profile = DatasetByName("Covtype");
  DenseMatrix m = GenerateDataset(profile, 1000);
  EXPECT_EQ(m.rows(), profile.paper_rows / 1000);
  EXPECT_EQ(m.cols(), profile.cols);
}

class DatasetProfileTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(DatasetProfileTest, DensityTracksProfile) {
  const DatasetProfile& profile = DatasetByName(GetParam());
  DenseMatrix m = GenerateDatasetRows(profile, 800);
  MatrixStats stats = ComputeStats(m);
  EXPECT_NEAR(stats.density, profile.density, 0.08)
      << profile.name << ": " << stats.ToString();
}

TEST_P(DatasetProfileTest, DictionaryBoundedForCategoricalDatasets) {
  const DatasetProfile& profile = DatasetByName(GetParam());
  if (profile.continuous_fraction > 0.0) GTEST_SKIP();
  DenseMatrix m = GenerateDatasetRows(profile, 500);
  EXPECT_LE(ComputeStats(m).distinct_values, profile.dictionary_size);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetProfileTest,
                         ::testing::Values("Susy", "Higgs", "Airline78",
                                           "Covtype", "Census", "Optical",
                                           "Mnist2m"));

}  // namespace
}  // namespace gcm
