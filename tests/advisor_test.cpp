// Tests for the constraint-driven format advisor (the selection mechanism
// the paper lists as future work at the end of Section 4.2).

#include <gtest/gtest.h>

#include "core/any_matrix.hpp"
#include "core/format_advisor.hpp"
#include "matrix/datasets.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

TEST(AdvisorTest, ReportsAllFourFormats) {
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Census"), 500);
  AdvisorReport report = AdviseFormat(m);
  ASSERT_EQ(report.estimates.size(), 4u);
  EXPECT_TRUE(report.any_fits);  // unlimited budget
  // Fastest-first ordering.
  for (std::size_t i = 1; i < report.estimates.size(); ++i) {
    EXPECT_LE(report.estimates[i - 1].predicted_seconds_per_iteration,
              report.estimates[i].predicted_seconds_per_iteration);
  }
}

TEST(AdvisorTest, UnlimitedBudgetPicksAFastFormat) {
  // With no memory constraint the recommendation is the fastest format,
  // which for a grammar-compressible matrix is re_32 or csrv.
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Census"), 800);
  AdvisorReport report = AdviseFormat(m);
  EXPECT_TRUE(report.recommended == GcFormat::kRe32 ||
              report.recommended == GcFormat::kCsrv);
}

TEST(AdvisorTest, TightBudgetForcesCompactFormat) {
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Census"), 800);
  // Find csrv's predicted peak and set the budget well below it.
  AdvisorReport unconstrained = AdviseFormat(m);
  u64 csrv_peak = 0;
  for (const FormatEstimate& e : unconstrained.estimates) {
    if (e.format == GcFormat::kCsrv) csrv_peak = e.predicted_peak_bytes;
  }
  AdvisorConstraints constraints;
  constraints.memory_budget_bytes = csrv_peak / 3;
  AdvisorReport constrained = AdviseFormat(m, constraints);
  EXPECT_TRUE(constrained.any_fits);
  EXPECT_NE(constrained.recommended, GcFormat::kCsrv);
}

TEST(AdvisorTest, ImpossibleBudgetFallsBackToSmallest) {
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Covtype"), 400);
  AdvisorConstraints constraints;
  constraints.memory_budget_bytes = 1;  // nothing fits in one byte
  AdvisorReport report = AdviseFormat(m, constraints);
  EXPECT_FALSE(report.any_fits);
  u64 smallest = ~0ULL;
  GcFormat smallest_format = GcFormat::kCsrv;
  for (const FormatEstimate& e : report.estimates) {
    if (e.predicted_peak_bytes < smallest) {
      smallest = e.predicted_peak_bytes;
      smallest_format = e.format;
    }
  }
  EXPECT_EQ(report.recommended, smallest_format);
}

TEST(AdvisorTest, SizePredictionTracksActualSize) {
  // Prediction from a 512-row sample must land within 2x of the true
  // compressed size of the 4x larger matrix (sublinear dictionary and
  // grammar sharing make perfect extrapolation impossible).
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Census"), 2048);
  AdvisorConstraints constraints;
  constraints.sample_rows = 512;
  AdvisorReport report = AdviseFormat(m, constraints);
  for (const FormatEstimate& e : report.estimates) {
    GcMatrix actual = GcMatrix::FromDense(m, {e.format, 12, 0});
    double ratio = static_cast<double>(e.predicted_bytes) /
                   static_cast<double>(actual.CompressedBytes());
    EXPECT_GT(ratio, 0.5) << FormatName(e.format);
    EXPECT_LT(ratio, 2.0) << FormatName(e.format);
  }
}

TEST(AdvisorTest, IncompressibleMatrixPrefersCsrvOverReAns) {
  // On a continuous-valued matrix the grammar formats cannot beat csrv by
  // much, and csrv multiplies faster -- the advisor must notice.
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Susy"), 1000);
  AdvisorReport report = AdviseFormat(m);
  EXPECT_TRUE(report.recommended == GcFormat::kCsrv ||
              report.recommended == GcFormat::kRe32);
}

TEST(AdvisorTest, ModeledProbeIsDeterministic) {
  // Two advisor runs over the same matrix must agree bit-for-bit on the
  // ranking and the predicted speeds: no timer noise can flip a ranking.
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Census"), 600);
  AdvisorReport first = AdviseFormat(m);
  AdvisorReport second = AdviseFormat(m);
  ASSERT_EQ(first.estimates.size(), second.estimates.size());
  EXPECT_EQ(first.recommended, second.recommended);
  for (std::size_t i = 0; i < first.estimates.size(); ++i) {
    EXPECT_EQ(first.estimates[i].format, second.estimates[i].format);
    EXPECT_EQ(first.estimates[i].predicted_seconds_per_iteration,
              second.estimates[i].predicted_seconds_per_iteration);
    EXPECT_EQ(first.estimates[i].predicted_bytes,
              second.estimates[i].predicted_bytes);
  }
  // Every modeled estimate is positive, so the fastest-first sort is
  // total and the report stays meaningful.
  for (const FormatEstimate& e : first.estimates) {
    EXPECT_GT(e.predicted_seconds_per_iteration, 0.0);
  }
}

TEST(AdvisorTest, ToStringMentionsEveryFormat) {
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Covtype"), 300);
  std::string text = AdviseFormat(m).ToString();
  for (const char* name : {"csrv", "re_32", "re_iv", "re_ans"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find("recommended"), std::string::npos);
}

TEST(AdvisorTest, RejectsEmptyMatrix) {
  EXPECT_THROW(AdviseFormat(DenseMatrix(0, 0)), Error);
}

}  // namespace
}  // namespace gcm
