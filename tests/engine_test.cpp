// Conformance suite for the AnyMatrix engine API: every registered spec
// (plus parameterized variants) must build, report sane metadata, agree
// with the dense oracle on both multiplications (pool and no-pool), and
// enforce the *Into size / aliasing preconditions. Also covers the spec
// parser, the name round-trips shared with the CLI flags, the AdviseFormat
// engine overload, and the pool-parallel multi-vector kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/cla/cla_matrix.hpp"
#include "core/any_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "core/format_advisor.hpp"
#include "core/gc_matrix.hpp"
#include "core/power_iteration.hpp"
#include "encoding/snapshot.hpp"
#include "grammar/repair.hpp"
#include "matrix/csr.hpp"
#include "matrix/csrv.hpp"
#include "matrix/sparse_builder.hpp"
#include "conformance_specs.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

std::vector<double> RandomVector(std::size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->NextDouble() * 2.0 - 1.0;
  return v;
}

DenseMatrix TestMatrix() {
  Rng rng(4242);
  return DenseMatrix::Random(48, 13, 0.5, 6, &rng);
}

// ConformanceSpecs() / SpecTestName() live in tests/conformance_specs.hpp,
// shared with the SIMD equivalence suite.

class EngineConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineConformanceTest, BuildsWithSaneMetadata) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  EXPECT_EQ(m.rows(), dense.rows());
  EXPECT_EQ(m.cols(), dense.cols());
  EXPECT_GT(m.CompressedBytes(), 0u);
  EXPECT_FALSE(m.FormatTag().empty());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
}

TEST_P(EngineConformanceTest, MultiplicationsMatchDenseOracle) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<double> x = RandomVector(dense.cols(), &rng);
    std::vector<double> y = RandomVector(dense.rows(), &rng);
    EXPECT_LT(MaxAbsDiff(m.MultiplyRight(x), dense.MultiplyRight(x)), 1e-9);
    EXPECT_LT(MaxAbsDiff(m.MultiplyLeft(y), dense.MultiplyLeft(y)), 1e-9);
  }
}

TEST_P(EngineConformanceTest, IntoKernelsOverwriteDirtyBuffers) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  Rng rng(78);
  std::vector<double> x = RandomVector(dense.cols(), &rng);
  std::vector<double> y(dense.rows(), 123.456);  // stale garbage
  m.MultiplyRightInto(x, y);
  EXPECT_LT(MaxAbsDiff(y, dense.MultiplyRight(x)), 1e-9);

  std::vector<double> w = RandomVector(dense.rows(), &rng);
  std::vector<double> back(dense.cols(), -987.6);
  m.MultiplyLeftInto(w, back);
  EXPECT_LT(MaxAbsDiff(back, dense.MultiplyLeft(w)), 1e-9);
}

TEST_P(EngineConformanceTest, IntoKernelsRejectWrongSizes) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  std::vector<double> good_x(dense.cols(), 1.0);
  std::vector<double> good_y(dense.rows(), 0.0);
  std::vector<double> bad(dense.cols() + dense.rows() + 1, 0.0);
  EXPECT_THROW(m.MultiplyRightInto(bad, good_y), Error);
  EXPECT_THROW(m.MultiplyRightInto(good_x, bad), Error);
  EXPECT_THROW(m.MultiplyLeftInto(bad, good_x), Error);
  EXPECT_THROW(m.MultiplyLeftInto(good_y, bad), Error);
}

TEST_P(EngineConformanceTest, IntoKernelsRejectAliasedSpans) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  // One buffer, input and output spans overlapping in one element.
  std::vector<double> buffer(dense.cols() + dense.rows() - 1, 1.0);
  std::span<const double> x(buffer.data(), dense.cols());
  std::span<double> y(buffer.data() + dense.cols() - 1, dense.rows());
  EXPECT_THROW(m.MultiplyRightInto(x, y), Error);
}

TEST_P(EngineConformanceTest, PoolAndNoPoolAgree) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  ThreadPool pool(3);
  Rng rng(79);
  std::vector<double> x = RandomVector(dense.cols(), &rng);
  std::vector<double> y = RandomVector(dense.rows(), &rng);
  EXPECT_LT(MaxAbsDiff(m.MultiplyRight(x), m.MultiplyRight(x, {&pool})),
            1e-9);
  EXPECT_LT(MaxAbsDiff(m.MultiplyLeft(y), m.MultiplyLeft(y, {&pool})),
            1e-9);
}

TEST_P(EngineConformanceTest, MultiVectorMatchesSequentialBitwise) {
  // The batching server coalesces k single-vector requests into one
  // MultiplyRightMulti / MultiplyLeftMulti call; its correctness argument
  // is exactly this contract: vector j of the multi-vector result is
  // BITWISE identical to the sequential single-vector call on input j.
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  Rng rng(80);
  const std::size_t k = 3;

  DenseMatrix xs(dense.cols(), k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> x = RandomVector(dense.cols(), &rng);
    for (std::size_t r = 0; r < dense.cols(); ++r) xs.Set(r, j, x[r]);
  }
  DenseMatrix right = m.MultiplyRightMulti(xs);
  ASSERT_EQ(right.rows(), dense.rows());
  ASSERT_EQ(right.cols(), k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> x(dense.cols());
    for (std::size_t r = 0; r < dense.cols(); ++r) x[r] = xs.At(r, j);
    std::vector<double> expect = m.MultiplyRight(x);
    for (std::size_t r = 0; r < dense.rows(); ++r) {
      ASSERT_EQ(right.At(r, j), expect[r]) << "column " << j << " row " << r;
    }
  }

  DenseMatrix ys(k, dense.rows());
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> y = RandomVector(dense.rows(), &rng);
    for (std::size_t c = 0; c < dense.rows(); ++c) ys.Set(j, c, y[c]);
  }
  DenseMatrix left = m.MultiplyLeftMulti(ys);
  ASSERT_EQ(left.rows(), k);
  ASSERT_EQ(left.cols(), dense.cols());
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> y(dense.rows());
    for (std::size_t c = 0; c < dense.rows(); ++c) y[c] = ys.At(j, c);
    std::vector<double> expect = m.MultiplyLeft(y);
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      ASSERT_EQ(left.At(j, c), expect[c]) << "row " << j << " col " << c;
    }
  }

  // Pooled multi stays numerically consistent (bitwise is only promised
  // against the sequential single-vector call, which the loop above pins).
  ThreadPool pool(3);
  EXPECT_LT(DenseMatrix::MaxAbsDiff(m.MultiplyRightMulti(xs, {&pool}), right),
            1e-9);
  EXPECT_LT(DenseMatrix::MaxAbsDiff(m.MultiplyLeftMulti(ys, {&pool}), left),
            1e-9);

  DenseMatrix bad(dense.cols() + 1, k);
  EXPECT_THROW(m.MultiplyRightMulti(bad), Error);
  DenseMatrix bad_left(k, dense.rows() + 1);
  EXPECT_THROW(m.MultiplyLeftMulti(bad_left), Error);
}

TEST_P(EngineConformanceTest, PowerIterationMatchesDense) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  PowerIterationResult reference =
      RunPowerIteration(AnyMatrix::Ref(dense), 10);
  PowerIterationResult result = RunPowerIteration(m, 10);
  EXPECT_LT(MaxAbsDiff(reference.x, result.x), 1e-6);
}

TEST_P(EngineConformanceTest, SnapshotRoundTripMatchesDenseOracle) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix original = AnyMatrix::Build(dense, GetParam());

  u64 repair_before = RePairInvocationCount();
  AnyMatrix restored =
      AnyMatrix::LoadSnapshotBytes(original.SaveSnapshotBytes());
  // Loading adopts the stored representation as-is; the construction
  // pipeline (RePair in particular) must never re-run.
  EXPECT_EQ(RePairInvocationCount(), repair_before) << GetParam();

  EXPECT_EQ(restored.rows(), original.rows());
  EXPECT_EQ(restored.cols(), original.cols());
  EXPECT_EQ(restored.FormatTag(), original.FormatTag());
  EXPECT_EQ(restored.CompressedBytes(), original.CompressedBytes());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(restored.ToDense(), dense), 0.0);

  Rng rng(80);
  std::vector<double> x = RandomVector(dense.cols(), &rng);
  std::vector<double> y = RandomVector(dense.rows(), &rng);
  EXPECT_LT(MaxAbsDiff(restored.MultiplyRight(x), dense.MultiplyRight(x)),
            1e-9);
  EXPECT_LT(MaxAbsDiff(restored.MultiplyLeft(y), dense.MultiplyLeft(y)),
            1e-9);
}

TEST_P(EngineConformanceTest, SnapshotFileRoundTrip) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix original = AnyMatrix::Build(dense, GetParam());
  std::string path = ScratchPath("engine.gcsnap");
  original.Save(path);
  AnyMatrix restored = AnyMatrix::Load(path);
  EXPECT_EQ(restored.FormatTag(), original.FormatTag());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(restored.ToDense(), dense), 0.0);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, EngineConformanceTest,
                         ::testing::ValuesIn(ConformanceSpecs()),
                         SpecTestName);

// --------------------------------------------------------------------------
// Spec parser
// --------------------------------------------------------------------------

TEST(MatrixSpecTest, ParsesFamilyVariantAndParams) {
  MatrixSpec spec = MatrixSpec::Parse("gcm:re_ans?blocks=8&fold_bits=10");
  EXPECT_EQ(spec.family, "gcm");
  EXPECT_EQ(spec.variant, "re_ans");
  EXPECT_EQ(spec.GetSize("blocks", 1), 8u);
  EXPECT_EQ(spec.GetSize("fold_bits", 12), 10u);
  EXPECT_EQ(spec.GetSize("max_rules", 0), 0u);  // fallback
  EXPECT_EQ(spec.ToString(), "gcm:re_ans?blocks=8&fold_bits=10");
}

TEST(MatrixSpecTest, ParsesByteSizes) {
  MatrixSpec spec = MatrixSpec::Parse("auto?budget=64MiB");
  EXPECT_EQ(spec.GetBytes("budget", 0), 64ULL * 1024 * 1024);
  EXPECT_EQ(MatrixSpec::Parse("auto?budget=2KB").GetBytes("budget", 0),
            2000u);
  EXPECT_EQ(MatrixSpec::Parse("auto?budget=123").GetBytes("budget", 0),
            123u);
  EXPECT_THROW(
      MatrixSpec::Parse("auto?budget=lots").GetBytes("budget", 0),
      std::invalid_argument);
}

TEST(MatrixSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(MatrixSpec::Parse(""), std::invalid_argument);
  EXPECT_THROW(MatrixSpec::Parse("gcm:"), std::invalid_argument);
  EXPECT_THROW(MatrixSpec::Parse("gcm?blocks"), std::invalid_argument);
  EXPECT_THROW(MatrixSpec::Parse("gcm?=8"), std::invalid_argument);
  EXPECT_THROW(MatrixSpec::Parse("gcm?blocks=8&blocks=9"),
               std::invalid_argument);
}

TEST(MatrixSpecTest, UnknownFamilyErrorListsRegisteredSpecs) {
  DenseMatrix dense = TestMatrix();
  try {
    AnyMatrix::Build(dense, "wavelet");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("wavelet"), std::string::npos);
    for (const std::string& spec : AnyMatrix::ListSpecs()) {
      EXPECT_NE(message.find(spec), std::string::npos)
          << "error message must list " << spec;
    }
  }
}

TEST(MatrixSpecTest, UnknownVariantAndKeyAreRejected) {
  DenseMatrix dense = TestMatrix();
  EXPECT_THROW(AnyMatrix::Build(dense, "gcm:bogus"), std::invalid_argument);
  EXPECT_THROW(AnyMatrix::Build(dense, "gcm:re_32?bogus_key=1"),
               std::invalid_argument);
  EXPECT_THROW(AnyMatrix::Build(dense, "dense?blocks=2"),
               std::invalid_argument);
  EXPECT_THROW(AnyMatrix::Build(dense, "csrv:re_32"), std::invalid_argument);
  EXPECT_THROW(AnyMatrix::Build(dense, "gcm?blocks=two"),
               std::invalid_argument);
  // std::stoull would silently wrap negative values; the parser must not.
  EXPECT_THROW(AnyMatrix::Build(dense, "gcm?blocks=-1"),
               std::invalid_argument);
  EXPECT_THROW(
      MatrixSpec::Parse("auto?budget=-1MiB").GetBytes("budget", 0),
      std::invalid_argument);
}

TEST(MatrixSpecTest, RetiredKeysAreRejectedByName) {
  // rule_cache= (the removed hot-rule cache) and probe= (the removed
  // wall-clock advisor probe) are unknown keys to Build; only the load
  // path still accepts rule_cache= in tags of older files.
  DenseMatrix dense = TestMatrix();
  for (const auto& [spec, key] :
       {std::pair{"gcm:re_32?rule_cache=4096", "rule_cache"},
        std::pair{"gcm:re_ans?blocks=2&rule_cache=32KiB", "rule_cache"},
        std::pair{"auto?probe=modeled", "probe"}}) {
    try {
      AnyMatrix::Build(dense, spec);
      FAIL() << spec << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key \"" +
                                           std::string(key) + '"'),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MatrixSpecTest, ListSpecsCoversAllSevenBackends) {
  std::vector<std::string> specs = AnyMatrix::ListSpecs();
  for (const char* expected :
       {"dense", "csr", "csr_iv", "csrv", "gcm:csrv", "gcm:re_32",
        "gcm:re_iv", "gcm:re_ans", "cla", "sharded", "auto"}) {
    EXPECT_NE(std::find(specs.begin(), specs.end(), expected), specs.end())
        << expected;
  }
}

// --------------------------------------------------------------------------
// Name round-trips (shared helper behind CLI flags and spec variants)
// --------------------------------------------------------------------------

TEST(NameRoundTripTest, GcFormatNamesAreTotal) {
  for (GcFormat format : {GcFormat::kCsrv, GcFormat::kRe32, GcFormat::kReIv,
                          GcFormat::kReAns}) {
    EXPECT_EQ(FormatByName(FormatName(format)), format);
  }
  try {
    FormatByName("zstd");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("zstd"), std::string::npos);
    EXPECT_NE(message.find("re_ans"), std::string::npos);
  }
}

TEST(NameRoundTripTest, ClaEncodingNamesAreTotal) {
  for (ClaEncoding encoding : {ClaEncoding::kUc, ClaEncoding::kDdc,
                               ClaEncoding::kRle, ClaEncoding::kOle}) {
    EXPECT_EQ(ClaEncodingByName(ClaEncodingName(encoding)), encoding);
  }
  try {
    ClaEncodingByName("LZW");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("LZW"), std::string::npos);
    EXPECT_NE(message.find("OLE"), std::string::npos);
  }
}

// --------------------------------------------------------------------------
// Wrap / Ref / triplet ingestion / advisor overload
// --------------------------------------------------------------------------

TEST(AnyMatrixTest, WrapAndRefAgree) {
  DenseMatrix dense = TestMatrix();
  GcMatrix gc = GcMatrix::FromDense(dense, {GcFormat::kReIv, 12, 0});
  AnyMatrix owned = AnyMatrix::Wrap(GcMatrix(gc));
  AnyMatrix ref = AnyMatrix::Ref(gc);
  EXPECT_EQ(owned.FormatTag(), "gcm:re_iv");
  EXPECT_EQ(ref.FormatTag(), "gcm:re_iv");
  EXPECT_EQ(owned.CompressedBytes(), ref.CompressedBytes());
  std::vector<double> x(dense.cols(), 0.5);
  EXPECT_EQ(owned.MultiplyRight(x), ref.MultiplyRight(x));
}

TEST(AnyMatrixTest, EmptyAnyMatrixThrows) {
  AnyMatrix empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.rows(), Error);
}

TEST(AnyMatrixTest, TripletBuildMatchesDenseBuild) {
  DenseMatrix dense = TestMatrix();
  std::vector<Triplet> triplets = TripletsFromDense(dense);
  for (const std::string& spec :
       {std::string("csr"), std::string("csrv"), std::string("gcm:re_ans"),
        std::string("gcm:re_iv?blocks=4"), std::string("cla")}) {
    AnyMatrix m =
        AnyMatrix::Build(dense.rows(), dense.cols(), triplets, spec);
    EXPECT_EQ(m.rows(), dense.rows()) << spec;
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0) << spec;
  }
}

TEST(AnyMatrixTest, AdviseFormatOverloadReturnsBuiltEngineMatrix) {
  DenseMatrix dense = TestMatrix();
  AdvisorConstraints constraints;
  constraints.blocks = 2;
  AdvisorReport report;
  AnyMatrix m = AdviseFormat(dense, constraints, &report);
  EXPECT_EQ(report.estimates.size(), 4u);
  EXPECT_EQ(m.rows(), dense.rows());
  std::string tag = m.FormatTag();
  EXPECT_NE(tag.find("gcm:"), std::string::npos);
  EXPECT_NE(tag.find("blocks=2"), std::string::npos);
  std::vector<double> x(dense.cols(), 1.0);
  EXPECT_LT(MaxAbsDiff(m.MultiplyRight(x), dense.MultiplyRight(x)), 1e-9);
}

// --------------------------------------------------------------------------
// Pool-parallel multi-vector kernels
// --------------------------------------------------------------------------

class MultiPoolTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(MultiPoolTest, RightMultiMatchesSequential) {
  Rng rng(91);
  DenseMatrix m = DenseMatrix::Random(40, 17, 0.5, 5, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  DenseMatrix x(17, 9);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      x.Set(r, c, rng.NextDouble() * 2.0 - 1.0);
    }
  }
  ThreadPool pool(4);
  DenseMatrix sequential = gc.MultiplyRightMulti(x);
  DenseMatrix pooled = gc.MultiplyRightMulti(x, &pool);
  EXPECT_EQ(sequential, pooled);  // batches are bitwise independent
}

TEST_P(MultiPoolTest, LeftMultiMatchesSequential) {
  Rng rng(92);
  DenseMatrix m = DenseMatrix::Random(40, 17, 0.5, 5, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  DenseMatrix x(7, 40);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      x.Set(r, c, rng.NextDouble() * 2.0 - 1.0);
    }
  }
  ThreadPool pool(3);
  DenseMatrix sequential = gc.MultiplyLeftMulti(x);
  DenseMatrix pooled = gc.MultiplyLeftMulti(x, &pool);
  EXPECT_EQ(sequential, pooled);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, MultiPoolTest,
                         ::testing::Values(GcFormat::kCsrv, GcFormat::kRe32,
                                           GcFormat::kReIv,
                                           GcFormat::kReAns),
                         [](const auto& suffix_info) {
                           return std::string(FormatName(suffix_info.param));
                         });

// --------------------------------------------------------------------------
// Pool-parallel single-vector kernels (chunked scan of C within one block)
// --------------------------------------------------------------------------

class SingleVectorPoolTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(SingleVectorPoolTest, PooledSingleVectorKernelsMatchSequential) {
  // Large enough that |C| of the uncompressed formats clears the parallel
  // scan grain (~13k symbols for csrv), so the chunked path really runs;
  // formats whose C ends up shorter (or re_ans, which cannot be split)
  // take the sequential fallback and must agree identically.
  Rng rng(93);
  DenseMatrix dense = DenseMatrix::Random(800, 30, 0.5, 5, &rng);
  GcMatrix gc = GcMatrix::FromDense(dense, {GetParam(), 12, 0});
  ThreadPool pool(4);

  std::vector<double> x(dense.cols());
  std::vector<double> y(dense.rows());
  for (auto& v : x) v = rng.NextDouble() * 2.0 - 1.0;
  for (auto& v : y) v = rng.NextDouble() * 2.0 - 1.0;

  std::vector<double> right_seq(dense.rows()), right_pool(dense.rows());
  gc.MultiplyRightInto(x, right_seq);
  gc.MultiplyRightInto(x, right_pool, &pool);
  EXPECT_LT(MaxAbsDiff(right_seq, right_pool), 1e-9);
  EXPECT_LT(MaxAbsDiff(right_seq, dense.MultiplyRight(x)), 1e-9);

  std::vector<double> left_seq(dense.cols()), left_pool(dense.cols());
  gc.MultiplyLeftInto(y, left_seq);
  gc.MultiplyLeftInto(y, left_pool, &pool);
  EXPECT_LT(MaxAbsDiff(left_seq, left_pool), 1e-9);
  EXPECT_LT(MaxAbsDiff(left_seq, dense.MultiplyLeft(y)), 1e-9);
}

TEST_P(SingleVectorPoolTest, EnginePoolContextReachesSingleBlockKernels) {
  Rng rng(94);
  DenseMatrix dense = DenseMatrix::Random(600, 25, 0.6, 4, &rng);
  AnyMatrix m = AnyMatrix::Build(
      dense, std::string("gcm:") + FormatName(GetParam()));
  ThreadPool pool(3);
  std::vector<double> x(dense.cols(), 0.5);
  EXPECT_LT(MaxAbsDiff(m.MultiplyRight(x, {&pool}), dense.MultiplyRight(x)),
            1e-9);
  std::vector<double> y(dense.rows(), -0.25);
  EXPECT_LT(MaxAbsDiff(m.MultiplyLeft(y, {&pool}), dense.MultiplyLeft(y)),
            1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SingleVectorPoolTest,
                         ::testing::Values(GcFormat::kCsrv, GcFormat::kRe32,
                                           GcFormat::kReIv,
                                           GcFormat::kReAns),
                         [](const auto& suffix_info) {
                           return std::string(FormatName(suffix_info.param));
                         });

}  // namespace
}  // namespace gcm
