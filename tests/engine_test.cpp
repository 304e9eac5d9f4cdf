// Conformance suite for the AnyMatrix engine API: every registered spec
// (plus parameterized variants) must build, report sane metadata, agree
// with the dense oracle on both multiplications (pool and no-pool),
// enforce the *Into size / aliasing preconditions, and multiply bitwise
// alike when reloaded from its snapshot. Also covers the spec
// parser, the name round-trips shared with the CLI flags, the AdviseFormat
// engine overload, and a pool reaching one unblocked GcMatrix (bitwise the
// sequential scan).

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
// shared with the mapped-load suite.

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
  // Pooled runs split work only across blocks, shards or CLA groups and
  // fold partials in a fixed order, so they match the sequential call
  // bitwise.
  EXPECT_EQ(m.MultiplyRight(x), m.MultiplyRight(x, {&pool}));
  EXPECT_EQ(m.MultiplyLeft(y), m.MultiplyLeft(y, {&pool}));
}

TEST_P(EngineConformanceTest, MultiVectorMatchesSequentialBitwise) {
  // The multi-vector contract every backend keeps: vector j of the
  // MultiplyRightMulti / MultiplyLeftMulti result is BITWISE identical to
  // the sequential single-vector call on input j.
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

  // Pooled multi is bitwise the sequential multi too.
  ThreadPool pool(3);
  EXPECT_EQ(m.MultiplyRightMulti(xs, {&pool}), right);
  EXPECT_EQ(m.MultiplyLeftMulti(ys, {&pool}), left);

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
// Loaded = built: a matrix reloaded from its snapshot multiplies bitwise
// like the matrix it was saved from, sequential, pooled and multi-vector.
// The suite and test names predate the deletion of the AVX2 backend, when
// these tests compared vector and forced-scalar runs; the primitives now
// have one implementation, and the names are kept.
// --------------------------------------------------------------------------

class SimdKernelEqualityTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    built_ = AnyMatrix::Build(TestMatrix(), GetParam());
    loaded_ = AnyMatrix::LoadSnapshotBytes(built_.SaveSnapshotBytes());
  }
  AnyMatrix built_;
  AnyMatrix loaded_;
};

TEST_P(SimdKernelEqualityTest, KernelsBitwiseEqualUnderForcedScalar) {
  Rng rng(21);
  std::vector<double> x = RandomVector(built_.cols(), &rng);
  std::vector<double> y = RandomVector(built_.rows(), &rng);
  EXPECT_EQ(loaded_.MultiplyRight(x), built_.MultiplyRight(x));
  EXPECT_EQ(loaded_.MultiplyLeft(y), built_.MultiplyLeft(y));
  EXPECT_EQ(loaded_.ToDense(), built_.ToDense());
}

TEST_P(SimdKernelEqualityTest, PooledKernelsBitwiseEqualUnderForcedScalar) {
  ThreadPool pool(2);
  MulContext ctx{&pool};
  Rng rng(23);
  std::vector<double> x = RandomVector(built_.cols(), &rng);
  std::vector<double> y = RandomVector(built_.rows(), &rng);
  EXPECT_EQ(loaded_.MultiplyRight(x, ctx), built_.MultiplyRight(x, ctx));
  EXPECT_EQ(loaded_.MultiplyLeft(y, ctx), built_.MultiplyLeft(y, ctx));
}

TEST_P(SimdKernelEqualityTest, MultiKernelsBitwiseEqualUnderForcedScalar) {
  Rng rng(2442);
  const std::size_t k = 5;
  DenseMatrix xr = DenseMatrix::Random(built_.cols(), k, 1.0, 0, &rng);
  DenseMatrix xl = DenseMatrix::Random(k, built_.rows(), 1.0, 0, &rng);
  EXPECT_EQ(loaded_.MultiplyRightMulti(xr), built_.MultiplyRightMulti(xr));
  EXPECT_EQ(loaded_.MultiplyLeftMulti(xl), built_.MultiplyLeftMulti(xl));
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SimdKernelEqualityTest,
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
  // The largest size that fits, and the products that would wrap around
  // u64 (2^34 GiB = 2^64 bytes reads as 0; one GiB more as 1 GiB).
  EXPECT_EQ(MatrixSpec::Parse("auto?budget=17179869183GiB")
                .GetBytes("budget", 0),
            17179869183ULL << 30);
  for (const char* text : {"sharded?target_bytes=17179869184GiB",
                           "auto?budget=17179869185GiB",
                           "auto?budget=18446744073709552KB"}) {
    SCOPED_TRACE(text);
    MatrixSpec parsed = MatrixSpec::Parse(text);
    const std::string key = parsed.params.begin()->first;
    try {
      parsed.GetBytes(key, 0);
      ADD_FAILURE() << "an overflowing byte size was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
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

TEST(MatrixSpecTest, ZeroBlockCountIsRejectedByName) {
  // blocks=0 names no layout: the gcm dense and triplet paths and the
  // advisor all reject it with a spec error naming the key, instead of
  // silently building an unblocked matrix or failing an internal check.
  DenseMatrix dense = TestMatrix();
  auto expect_named = [](auto build, const char* what) {
    try {
      build();
      FAIL() << what << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("\"blocks\""), std::string::npos)
          << what << ": " << e.what();
    }
  };
  expect_named([&] { AnyMatrix::Build(dense, "gcm:re_32?blocks=0"); },
               "gcm dense");
  expect_named(
      [&] {
        AnyMatrix::Build(dense.rows(), dense.cols(), TripletsFromDense(dense),
                         "gcm:re_32?blocks=0");
      },
      "gcm triplets");
  expect_named([&] { AnyMatrix::Build(dense, "auto?blocks=0"); }, "auto");
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

// A matrix without rows: the triplet build of a blocked spec makes one
// empty block, as the dense build does, so it keeps its variant and its
// snapshot reloads.
TEST(AnyMatrixTest, ZeroRowTripletBuildMatchesDenseBuild) {
  DenseMatrix dense(0, 5);
  for (const std::string& spec :
       {std::string("gcm:re_ans?blocks=2"), std::string("gcm:re_32?blocks=3"),
        std::string("gcm:re_iv")}) {
    SCOPED_TRACE(spec);
    AnyMatrix from_dense = AnyMatrix::Build(dense, spec);
    AnyMatrix from_triplets = AnyMatrix::Build(0, 5, {}, spec);
    EXPECT_EQ(from_triplets.FormatTag(), from_dense.FormatTag());
    AnyMatrix reloaded =
        AnyMatrix::LoadSnapshotBytes(from_triplets.SaveSnapshotBytes());
    EXPECT_EQ(reloaded.FormatTag(), from_dense.FormatTag());
    EXPECT_EQ(reloaded.rows(), 0u);
    EXPECT_EQ(reloaded.cols(), 5u);
    EXPECT_EQ(reloaded.MultiplyLeft({}), std::vector<double>(5, 0.0));
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
// A pool reaching one unblocked GcMatrix: its kernels run sequentially, so
// the pooled engine call is bitwise the sequential one.
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
  AnyMatrix engine = AnyMatrix::Ref(gc);
  DenseMatrix sequential = gc.MultiplyRightMulti(x);
  DenseMatrix pooled = engine.MultiplyRightMulti(x, {&pool});
  EXPECT_EQ(sequential, pooled);
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
  AnyMatrix engine = AnyMatrix::Ref(gc);
  DenseMatrix sequential = gc.MultiplyLeftMulti(x);
  DenseMatrix pooled = engine.MultiplyLeftMulti(x, {&pool});
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
// Single-vector kernels of one unblocked GcMatrix under a pool
// --------------------------------------------------------------------------

class SingleVectorPoolTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(SingleVectorPoolTest, PooledSingleVectorKernelsMatchSequential) {
  // Long enough that |C| spans many cache lines in every format; the
  // pooled engine call must still run the one sequential scan.
  Rng rng(93);
  DenseMatrix dense = DenseMatrix::Random(800, 30, 0.5, 5, &rng);
  GcMatrix gc = GcMatrix::FromDense(dense, {GetParam(), 12, 0});
  AnyMatrix m = AnyMatrix::Ref(gc);
  ThreadPool pool(4);

  std::vector<double> x(dense.cols());
  std::vector<double> y(dense.rows());
  for (auto& v : x) v = rng.NextDouble() * 2.0 - 1.0;
  for (auto& v : y) v = rng.NextDouble() * 2.0 - 1.0;

  std::vector<double> right_seq(dense.rows()), right_pool(dense.rows());
  gc.MultiplyRightInto(x, right_seq);
  m.MultiplyRightInto(x, right_pool, {&pool});
  EXPECT_EQ(right_seq, right_pool);
  // The grammar formats sum each row in rule-tree order, so the dense
  // oracle agrees only up to rounding.
  EXPECT_LT(MaxAbsDiff(right_seq, dense.MultiplyRight(x)), 1e-9);

  std::vector<double> left_seq(dense.cols()), left_pool(dense.cols());
  gc.MultiplyLeftInto(y, left_seq);
  m.MultiplyLeftInto(y, left_pool, {&pool});
  EXPECT_EQ(left_seq, left_pool);
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
