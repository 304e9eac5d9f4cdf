// Shared per-task partial-accumulation scratch.
//
// Every parallel scatter kernel in the tree follows the same idiom: give
// each task a private zeroed accumulator row, run the tasks, then reduce
// the rows into the output in task order so the summation order -- and
// therefore the floating-point result -- is independent of how the pool
// scheduled the tasks. Its users are BlockedGcMatrix's left multiply
// (one row per block), ShardedMatrix's pooled left multiply (one per
// shard) and ClaMatrix's right groups. One flat allocation replaces the
// former vector<vector<double>>: one zero-fill, no per-task allocation
// inside the pool, and the reduce streams contiguous memory through
// simd::Add.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/common.hpp"
#include "util/simd.hpp"

namespace gcm {

/// `parts` disjoint zero-initialized accumulator rows of `width` doubles
/// in one contiguous buffer.
class PartialVectors {
 public:
  PartialVectors(std::size_t parts, std::size_t width)
      : parts_(parts), width_(width), data_(parts * width, 0.0) {}

  std::size_t parts() const { return parts_; }
  std::size_t width() const { return width_; }

  /// Mutable view of row `i`; rows are disjoint, so concurrent tasks may
  /// each write their own row without synchronization.
  std::span<double> part(std::size_t i) {
    GCM_DCHECK_BOUNDS(i, parts_);
    return {data_.data() + i * width_, width_};
  }
  std::span<const double> part(std::size_t i) const {
    GCM_DCHECK_BOUNDS(i, parts_);
    return {data_.data() + i * width_, width_};
  }

  /// out[j] += sum over parts of part(i)[j], accumulated in part order --
  /// deterministic regardless of task scheduling, and elementwise, so the
  /// result is bitwise identical to the historical nested scalar loops.
  void AccumulateInto(std::span<double> out) const {
    GCM_DCHECK_MSG(out.size() == width_,
                   "PartialVectors: output width " << out.size()
                                                   << " != " << width_);
    for (std::size_t i = 0; i < parts_; ++i) {
      simd::Add(out.data(), data_.data() + i * width_, width_);
    }
  }

 private:
  std::size_t parts_;
  std::size_t width_;
  std::vector<double> data_;
};

}  // namespace gcm
