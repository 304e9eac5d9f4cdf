// Format selection under user constraints.
//
// Section 4.2 of the paper closes with: "the users want the fastest
// algorithm that can be run in the available memory ... an interesting
// problem would be the design of a mechanism for selecting the best
// options given the user's constraints". This module implements that
// mechanism.
//
// The advisor compresses a row sample of the matrix with every format,
// extrapolates the compressed size and the per-iteration multiplication
// cost to the full row count, and returns the fastest format whose
// predicted peak working set (compressed matrix + per-thread W arrays +
// vectors) fits the caller's memory budget. Speed prediction is a
// deterministic cost model over each format's compressed sample (final
// sequence length, rule count, per-format symbol weights), so the ranking
// adapts to the data (e.g. csrv can beat re_ans on incompressible
// matrices in both space and time) and the same input yields the same
// ranking on every run and every machine. The absolute seconds are
// nominal; only the ratios between formats carry meaning.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/build_context.hpp"
#include "core/gc_matrix.hpp"
#include "matrix/dense_matrix.hpp"

namespace gcm {

struct AdvisorConstraints {
  /// Peak working-set budget in bytes (0 = unlimited).
  u64 memory_budget_bytes = 0;
  /// Row blocks / threads the caller intends to use.
  std::size_t blocks = 1;
  /// Rows sampled for estimation (clamped to the matrix height).
  std::size_t sample_rows = 2048;
};

struct FormatEstimate {
  GcFormat format;
  u64 predicted_bytes = 0;        ///< compressed representation, full matrix
  u64 predicted_peak_bytes = 0;   ///< representation + W arrays + vectors
  double predicted_seconds_per_iteration = 0.0;  ///< one Eq. (4) iteration
  bool fits_budget = false;
};

struct AdvisorReport {
  std::vector<FormatEstimate> estimates;  ///< all formats, fastest first
  GcFormat recommended = GcFormat::kCsrv;
  bool any_fits = false;  ///< false if even the smallest format exceeds
                          ///< the budget (recommended = smallest then)
  std::string ToString() const;
};

/// Profiles all four formats on a sample of `dense` and recommends the
/// fastest one whose predicted peak fits `constraints.memory_budget_bytes`.
AdvisorReport AdviseFormat(const DenseMatrix& dense,
                           const AdvisorConstraints& constraints = {});

class AnyMatrix;

/// Engine overload: same profiling, but returns a ready-to-use AnyMatrix
/// built in the recommended format (blocked when constraints.blocks > 1;
/// a BuildContext pool parallelizes the per-block builds). The full report
/// is copied to `report` when non-null. This is the backend behind the
/// "auto?budget=..." spec string.
AnyMatrix AdviseFormat(const DenseMatrix& dense,
                       const AdvisorConstraints& constraints,
                       AdvisorReport* report, const BuildContext& ctx = {});

}  // namespace gcm
