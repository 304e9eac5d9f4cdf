// Row-block partitioned grammar-compressed matrix (Section 4.1).
//
// A r x c matrix is split into b blocks of ceil(r/b) rows; every block is
// compressed independently (its own C_i and R_i) while the dictionary V is
// shared. Right multiplication runs the b block kernels independently;
// left multiplication computes b partial column vectors and sums them.
// Optionally each block can be built with its own column traversal order
// (Section 5.3 reorders each block independently; results remain in
// original column coordinates).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/build_context.hpp"
#include "core/gc_matrix.hpp"
#include "matrix/dense_matrix.hpp"
#include "util/thread_pool.hpp"

namespace gcm {

class BlockedGcMatrix {
 public:
  /// Compresses `dense` into `blocks` row blocks. If `block_orders` is
  /// non-empty it must hold one column traversal order per block.
  /// Per-block RePair builds are independent (each block owns its sequence
  /// and shares only the immutable dictionary), so a BuildContext pool runs
  /// them concurrently; the result is identical to the sequential build.
  static BlockedGcMatrix Build(
      const DenseMatrix& dense, std::size_t blocks,
      const GcBuildOptions& options,
      const std::vector<std::vector<u32>>& block_orders = {},
      const BuildContext& ctx = {});

  /// Compresses an existing CSRV representation into `blocks` row blocks
  /// without staging a dense copy (sparse-ingestion path). Same per-block
  /// parallelism and determinism as Build.
  static BlockedGcMatrix FromCsrv(const CsrvMatrix& csrv, std::size_t blocks,
                                  const GcBuildOptions& options,
                                  const BuildContext& ctx = {});

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t block_count() const { return blocks_.size(); }
  const GcMatrix& block(std::size_t i) const { return blocks_[i]; }

  /// Compressed bytes: all block payloads plus the shared dictionary once.
  u64 CompressedBytes() const;

  /// y = M x; runs blocks on `pool` when given (nullptr = sequential).
  std::vector<double> MultiplyRight(const std::vector<double>& x,
                                    ThreadPool* pool = nullptr) const;

  /// x^t = y^t M; per-block partials summed after the parallel section.
  std::vector<double> MultiplyLeft(const std::vector<double>& y,
                                   ThreadPool* pool = nullptr) const;

  /// Allocation-free kernels: each block writes its row range of `y`
  /// directly (right) or accumulates per-block partials into `x` (left).
  /// The caller-provided output is fully overwritten.
  void MultiplyRightInto(std::span<const double> x, std::span<double> y,
                         ThreadPool* pool = nullptr) const;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x,
                        ThreadPool* pool = nullptr) const;

  DenseMatrix ToDense() const;

  /// Snapshot payload: dims, block layout, the shared dictionary once, and
  /// every block's grammar payload. DeserializeFrom validates the layout
  /// (contiguous blocks covering all rows, matching widths).
  void SerializeInto(ByteWriter* writer) const;
  static BlockedGcMatrix DeserializeFrom(ByteReader* reader);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  ///< first row of each block
  std::vector<GcMatrix> blocks_;
};

}  // namespace gcm
