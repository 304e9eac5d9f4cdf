#include "core/blocked_matrix.hpp"

#include <algorithm>
#include <optional>

#include "matrix/csr.hpp"
#include "util/partials.hpp"

namespace gcm {

BlockedGcMatrix BlockedGcMatrix::Build(
    const DenseMatrix& dense, std::size_t blocks,
    const GcBuildOptions& options,
    const std::vector<std::vector<u32>>& block_orders,
    const BuildContext& ctx) {
  GCM_CHECK_MSG(blocks >= 1, "block count must be positive");
  BlockedGcMatrix out;
  out.rows_ = dense.rows();
  out.cols_ = dense.cols();

  auto dict = std::make_shared<const std::vector<double>>(
      BuildValueDictionary(dense));

  std::size_t rows_per_block =
      std::max<std::size_t>(1, (dense.rows() + blocks - 1) / blocks);
  std::size_t block_count = dense.rows() == 0
                                ? 1
                                : (dense.rows() + rows_per_block - 1) /
                                      rows_per_block;
  GCM_CHECK_MSG(block_orders.empty() || block_orders.size() == block_count,
                "expected " << block_count << " block orders, got "
                            << block_orders.size());

  // Per-block RePair builds are embarrassingly parallel: every block owns
  // its CSRV sequence and shares only the immutable dictionary. Each
  // block writes only its own slot, so the parallel run is
  // order-independent and produces exactly the sequential result.
  std::vector<std::optional<GcMatrix>> built(block_count);
  MaybeParallelFor(ctx.pool, block_count, [&](std::size_t b) {
    std::size_t row_begin = b * rows_per_block;
    std::size_t row_end = std::min(dense.rows(), row_begin + rows_per_block);
    const std::vector<u32>* order =
        block_orders.empty() ? nullptr : &block_orders[b];
    std::vector<u32> sequence =
        BuildCsrvSequence(dense, row_begin, row_end, *dict, order);
    built[b] = GcMatrix::FromSequence(std::move(sequence),
                                      row_end - row_begin, dense.cols(), dict,
                                      options);
  });
  for (std::size_t b = 0; b < block_count; ++b) {
    out.row_offsets_.push_back(b * rows_per_block);
    out.blocks_.push_back(std::move(*built[b]));
  }
  return out;
}

BlockedGcMatrix BlockedGcMatrix::FromCsrv(const CsrvMatrix& csrv,
                                          std::size_t blocks,
                                          const GcBuildOptions& options,
                                          const BuildContext& ctx) {
  GCM_CHECK_MSG(blocks >= 1, "block count must be positive");
  BlockedGcMatrix out;
  out.rows_ = csrv.rows();
  out.cols_ = csrv.cols();
  auto dict =
      std::make_shared<const std::vector<double>>(csrv.dictionary().ToVector());
  std::vector<CsrvMatrix> parts = csrv.SplitRowBlocks(blocks);
  std::vector<std::optional<GcMatrix>> built(parts.size());
  MaybeParallelFor(ctx.pool, parts.size(), [&](std::size_t b) {
    built[b] = GcMatrix::FromSequence(parts[b].sequence().ToVector(),
                                      parts[b].rows(), csrv.cols(), dict,
                                      options);
  });
  std::size_t row_begin = 0;
  for (std::size_t b = 0; b < parts.size(); ++b) {
    out.row_offsets_.push_back(row_begin);
    row_begin += parts[b].rows();
    out.blocks_.push_back(std::move(*built[b]));
  }
  return out;
}

u64 BlockedGcMatrix::CompressedBytes() const {
  u64 total = blocks_.empty()
                  ? 0
                  : blocks_.front().dictionary().size() * sizeof(double);
  for (const GcMatrix& block : blocks_) total += block.PayloadBytes();
  return total;
}

std::vector<double> BlockedGcMatrix::MultiplyRight(
    const std::vector<double>& x, ThreadPool* pool) const {
  std::vector<double> y(rows_);
  MultiplyRightInto(x, y, pool);
  return y;
}

std::vector<double> BlockedGcMatrix::MultiplyLeft(const std::vector<double>& y,
                                                  ThreadPool* pool) const {
  std::vector<double> x(cols_);
  MultiplyLeftInto(y, x, pool);
  return x;
}

void BlockedGcMatrix::MultiplyRightInto(std::span<const double> x,
                                        std::span<double> y,
                                        ThreadPool* pool) const {
  GCM_CHECK_MSG(x.size() == cols_, "MultiplyRight: wrong vector length");
  GCM_CHECK_MSG(y.size() == rows_, "MultiplyRight: wrong output length");
  // Blocks own disjoint row ranges of y, so they write into it directly.
  auto run_block = [&](std::size_t b) {
    blocks_[b].MultiplyRightInto(
        x, y.subspan(row_offsets_[b], blocks_[b].rows()));
  };
  if (pool != nullptr) {
    pool->ParallelFor(blocks_.size(), run_block);
  } else {
    // Sequential walk: hint block b+1's payload into cache while block b
    // computes, hiding the first-touch miss of each C/R array. (Pooled
    // runs interleave blocks across workers, so there is no "next".)
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      if (b + 1 < blocks_.size()) blocks_[b + 1].PrefetchPayload();
      run_block(b);
    }
  }
}

void BlockedGcMatrix::MultiplyLeftInto(std::span<const double> y,
                                       std::span<double> x,
                                       ThreadPool* pool) const {
  GCM_CHECK_MSG(y.size() == rows_, "MultiplyLeft: wrong vector length");
  GCM_CHECK_MSG(x.size() == cols_, "MultiplyLeft: wrong output length");
  // One cols-wide partial per block, reduced in block order (shared
  // scatter-reduce helper; deterministic with and without a pool).
  PartialVectors partials(blocks_.size(), cols_);
  auto run_block = [&](std::size_t b) {
    blocks_[b].MultiplyLeftInto(y.subspan(row_offsets_[b], blocks_[b].rows()),
                                partials.part(b));
  };
  if (pool != nullptr) {
    pool->ParallelFor(blocks_.size(), run_block);
  } else {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      if (b + 1 < blocks_.size()) blocks_[b + 1].PrefetchPayload();
      run_block(b);
    }
  }
  std::fill(x.begin(), x.end(), 0.0);
  partials.AccumulateInto(x);
}

void BlockedGcMatrix::SerializeInto(ByteWriter* writer) const {
  writer->PutVarint(rows_);
  writer->PutVarint(cols_);
  // One dictionary for all blocks (the container's defining invariant).
  static const std::vector<double> kEmptyDict;
  writer->PutVector(blocks_.empty() ? kEmptyDict
                                    : blocks_.front().dictionary());
  writer->PutVarint(blocks_.size());
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    writer->PutVarint(row_offsets_[b]);
    blocks_[b].Serialize(writer);
  }
}

BlockedGcMatrix BlockedGcMatrix::DeserializeFrom(ByteReader* reader) {
  BlockedGcMatrix out;
  out.rows_ = reader->GetVarint();
  out.cols_ = reader->GetVarint();
  auto dict = std::make_shared<const std::vector<double>>(
      reader->GetVector<double>());
  std::size_t block_count = reader->GetVarint();
  GCM_CHECK_MSG(block_count > 0, "blocked matrix with zero blocks");
  std::size_t covered = 0;
  for (std::size_t b = 0; b < block_count; ++b) {
    std::size_t offset = reader->GetVarint();
    GCM_CHECK_MSG(offset == covered,
                  "block " << b << " starts at row " << offset
                           << ", expected " << covered
                           << " (blocks must tile the rows)");
    GcMatrix block = GcMatrix::Deserialize(reader, dict);
    GCM_CHECK_MSG(block.cols() == out.cols_,
                  "block " << b << " has " << block.cols()
                           << " columns, container has " << out.cols_);
    covered += block.rows();
    out.row_offsets_.push_back(offset);
    out.blocks_.push_back(std::move(block));
  }
  GCM_CHECK_MSG(covered == out.rows_,
                "blocks cover " << covered << " rows, container declares "
                                << out.rows_);
  return out;
}

DenseMatrix BlockedGcMatrix::ToDense() const {
  DenseMatrix dense(rows_, cols_);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    DenseMatrix block = blocks_[b].ToDense();
    for (std::size_t r = 0; r < block.rows(); ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        dense.Set(row_offsets_[b] + r, c, block.At(r, c));
      }
    }
  }
  return dense;
}

}  // namespace gcm
