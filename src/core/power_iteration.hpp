// The paper's benchmark computation, Eq. (4) in Section 4.2:
//
//   y_i = M x_i,   z_i^t = y_i^t M,   x_{i+1} = z_i / ||z_i||_inf
//
// i.e. alternating right and left multiplications with an infinity-norm
// rescale, mimicking the inner loop of conjugate-gradient style solvers.
// The driver is generic over every backend through the AnyMatrix engine
// API: the three iteration vectors are allocated once and the loop calls
// only the *Into kernels. Those do not allocate for dense / csr / csrv,
// but the grammar backends do: GcMatrix::Multiply*Into heap-allocates a
// rule_count-sized W on every call, blocked matrices add one cols-sized
// partial per block on the left, and
// sharded left multiplies one partial per shard. The measured peak is the
// compressed matrix plus those per-call arrays; the ROADMAP item on a fused
// Eq. (4) kernel moves them into a caller-owned workspace.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/any_matrix.hpp"
#include "matrix/dense_matrix.hpp"
#include "util/memory_tracker.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace gcm {

struct PowerIterationResult {
  std::vector<double> x;        ///< final normalized vector
  std::size_t iterations = 0;
  double seconds_total = 0.0;
  double seconds_per_iteration = 0.0;
  u64 peak_heap_bytes = 0;      ///< high-water heap mark over the run
};

inline PowerIterationResult RunPowerIteration(const AnyMatrix& matrix,
                                              std::size_t iterations,
                                              const MulContext& ctx = {}) {
  PowerIterationResult result;
  std::vector<double> x(matrix.cols(), 1.0);
  std::vector<double> y(matrix.rows(), 0.0);
  std::vector<double> z(matrix.cols(), 0.0);
  MemoryTracker::ResetPeak();
  Timer timer;
  for (std::size_t i = 0; i < iterations; ++i) {
    matrix.MultiplyRightInto(x, y, ctx);
    matrix.MultiplyLeftInto(y, z, ctx);
    double norm = InfinityNorm(z);
    if (norm != 0.0) {
      for (double& v : z) v /= norm;
    }
    // If the matrix annihilated the vector (norm == 0), keep the zeros.
    std::swap(x, z);
    ++result.iterations;
  }
  result.seconds_total = timer.Seconds();
  result.seconds_per_iteration =
      iterations == 0
          ? 0.0
          : result.seconds_total / static_cast<double>(iterations);
  result.peak_heap_bytes = MemoryTracker::PeakBytes();
  result.x = std::move(x);
  return result;
}

/// Pool convenience: RunPowerIteration(m, n, &pool).
inline PowerIterationResult RunPowerIteration(const AnyMatrix& matrix,
                                              std::size_t iterations,
                                              ThreadPool* pool) {
  return RunPowerIteration(matrix, iterations, MulContext{pool});
}

}  // namespace gcm
