#include "serving/sharded_matrix.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "encoding/snapshot.hpp"
#include "matrix/dense_matrix.hpp"
#include "matrix/sparse_builder.hpp"
#include "util/check.hpp"
#include "util/mapped_file.hpp"
#include "util/partials.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

/// Validates that `loaded` is the shard the manifest promised; `what`
/// names the source (file path or section name) for error messages.
void CheckLoadedShard(const AnyMatrix& loaded, const ShardManifestEntry& entry,
                      std::size_t cols, const std::string& what) {
  GCM_CHECK_MSG(loaded.rows() == entry.rows() && loaded.cols() == cols,
                "shard " << what << " holds a " << loaded.rows() << "x"
                         << loaded.cols()
                         << " matrix but the manifest promises "
                         << entry.rows() << "x" << cols);
  GCM_CHECK_MSG(loaded.FormatTag() == entry.spec,
                "shard " << what << " holds spec \"" << loaded.FormatTag()
                         << "\" but the manifest promises \"" << entry.spec
                         << '"');
}

/// Checksum gate before any payload parsing: a swapped or bit-rotted shard
/// must fail here, naming the shard, not deep inside a section parser.
void CheckShardBytes(std::span<const u8> bytes,
                     const ShardManifestEntry& entry, const std::string& what) {
  GCM_CHECK_MSG(bytes.size() == entry.snapshot_bytes,
                "shard " << what << " is " << bytes.size()
                         << " bytes but the manifest records "
                         << entry.snapshot_bytes);
  u32 crc = Crc32(bytes.data(), bytes.size());
  GCM_CHECK_MSG(crc == entry.crc32,
                "shard " << what << " fails its manifest checksum (stored "
                         << entry.crc32 << ", computed " << crc << ")");
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardingPolicy
// ---------------------------------------------------------------------------

ShardingPolicy ShardingPolicy::FromSpec(const MatrixSpec& spec) {
  ShardingPolicy policy;
  policy.rows_per_shard = spec.GetSize("rows_per_shard", 0);
  policy.shards = spec.GetSize("shards", 0);
  policy.target_bytes = spec.GetBytes("target_bytes", 0);
  return policy;
}

std::size_t ShardingPolicy::ResolveRowsPerShard(std::size_t rows,
                                                std::size_t cols) const {
  int fields_set = (rows_per_shard != 0) + (shards != 0) + (target_bytes != 0);
  if (fields_set > 1) {
    throw std::invalid_argument(
        "sharding policy sets more than one of rows_per_shard / shards / "
        "target_bytes; pick exactly one");
  }
  GCM_CHECK_MSG(rows > 0, "cannot shard a matrix with no rows");
  std::size_t per_shard;
  if (rows_per_shard != 0) {
    per_shard = rows_per_shard;
  } else if (target_bytes != 0) {
    u64 bytes_per_row = static_cast<u64>(std::max<std::size_t>(cols, 1)) *
                        sizeof(double);
    per_shard = static_cast<std::size_t>(
        std::max<u64>(1, target_bytes / bytes_per_row));
  } else {
    std::size_t count = shards != 0 ? shards : kDefaultShards;
    count = std::clamp<std::size_t>(count, 1, rows);
    per_shard = (rows + count - 1) / count;
  }
  return std::clamp<std::size_t>(per_shard, 1, rows);
}

// ---------------------------------------------------------------------------
// ShardedMatrix construction
// ---------------------------------------------------------------------------

std::shared_ptr<ShardedMatrix> ShardedMatrix::FromShards(
    std::size_t cols, std::vector<AnyMatrix> shards) {
  GCM_CHECK_MSG(!shards.empty(), "a sharded matrix needs at least one shard");
  auto sharded = std::shared_ptr<ShardedMatrix>(new ShardedMatrix());
  sharded->manifest_.cols = cols;
  std::size_t row = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const AnyMatrix& shard = shards[i];
    GCM_CHECK_MSG(shard.cols() == cols,
                  "shard " << i << " has " << shard.cols()
                           << " columns, expected " << cols);
    GCM_CHECK_MSG(shard.rows() > 0, "shard " << i << " has no rows");
    ShardManifestEntry entry;
    entry.row_begin = row;
    entry.row_end = row + shard.rows();
    entry.spec = shard.FormatTag();
    entry.compressed_bytes = shard.CompressedBytes();
    row = entry.row_end;
    auto state = std::make_unique<ShardState>();
    state->entry = entry;
    state->resident = shard;
    sharded->manifest_.shards.push_back(std::move(entry));
    sharded->states_.push_back(std::move(state));
  }
  sharded->manifest_.rows = row;
  sharded->manifest_.Validate();
  return sharded;
}

std::shared_ptr<ShardedMatrix> ShardedMatrix::FromManifest(
    ShardManifest manifest, std::string dir, ShardLoadMode mode) {
  manifest.Validate();
  auto sharded = std::shared_ptr<ShardedMatrix>(new ShardedMatrix());
  sharded->dir_ = std::move(dir);
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    GCM_CHECK_MSG(!manifest.shards[i].file.empty(),
                  "manifest shard " << i
                                    << " names no snapshot file (a store "
                                       "manifest must reference one per "
                                       "shard)");
    auto state = std::make_unique<ShardState>();
    state->entry = manifest.shards[i];
    state->file_backed = true;
    sharded->states_.push_back(std::move(state));
  }
  sharded->manifest_ = std::move(manifest);
  if (mode == ShardLoadMode::kEager) {
    for (std::size_t i = 0; i < sharded->states_.size(); ++i) {
      sharded->LoadShard(i);
    }
  }
  return sharded;
}

// ---------------------------------------------------------------------------
// Residency
// ---------------------------------------------------------------------------

const ShardedMatrix::ShardState& ShardedMatrix::state(
    std::size_t index) const {
  GCM_CHECK_MSG(index < states_.size(), "shard index " << index
                                                       << " out of range (have "
                                                       << states_.size()
                                                       << " shards)");
  return *states_[index];
}

AnyMatrix ShardedMatrix::Acquire(const ShardState& shard) const {
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.resident.valid()) {
    std::string path =
        (std::filesystem::path(dir_) / shard.entry.file).string();
    // Map the file when the platform allows it: the manifest CRC gate
    // walks the mapping once (a sequential fault-in the OS can discard
    // again), the deserializer borrows its payload arrays out of it, and
    // only the pages the kernels touch stay resident afterwards. The
    // heap-read fallback keeps the exact pre-mmap behaviour.
    std::shared_ptr<MappedFile> mapping = MappedFile::TryMap(path);
    std::vector<u8> heap_copy;
    std::span<const u8> bytes;
    if (mapping != nullptr) {
      bytes = mapping->bytes();
    } else {
      heap_copy = ReadFileBytes(path);
      bytes = heap_copy;
    }
    CheckShardBytes(bytes, shard.entry, "file " + path);
    AnyMatrix loaded;
    try {
      loaded = mapping != nullptr
                   ? AnyMatrix::LoadSnapshot(
                         SnapshotReader::FromSpan(bytes, mapping))
                   : AnyMatrix::LoadSnapshotBytes(std::move(heap_copy));
    } catch (const Error& e) {
      throw Error("shard file " + path + ": " + e.what());
    }
    CheckLoadedShard(loaded, shard.entry, cols(), "file " + path);
    shard.resident = std::move(loaded);
    shard.mapping = std::move(mapping);
  }
  shard.last_touch = ++clock_;
  return shard.resident;
}

bool ShardedMatrix::ShardResident(std::size_t index) const {
  const ShardState& shard = state(index);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.resident.valid();
}

std::size_t ShardedMatrix::LoadedShardCount() const {
  std::size_t count = 0;
  for (const auto& shard : states_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->resident.valid()) ++count;
  }
  return count;
}

AnyMatrix ShardedMatrix::LoadShard(std::size_t index) const {
  return Acquire(state(index));
}

bool ShardedMatrix::EvictShard(std::size_t index) const {
  const ShardState& shard = state(index);
  if (!shard.file_backed) return false;  // nothing to reload from
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.resident.valid()) return false;
  // Eviction of a mapped shard is advice + handle drop: MADV_DONTNEED
  // releases the clean file-backed pages right now instead of waiting for
  // memory pressure, and dropping our references lets the mapping unmap
  // once outstanding engine handles (which retain it) are gone.
  if (shard.mapping != nullptr) {
    shard.mapping->Advise(MappedFile::Advice::kDontNeed);
  }
  shard.resident = AnyMatrix();
  shard.mapping.reset();
  return true;
}

u64 ShardedMatrix::ResidentBytesLocked(const ShardState& shard) const {
  if (!shard.resident.valid()) return 0;
  // A mapped shard holds exactly the pages the OS has faulted in; a
  // heap-loaded shard owns its whole snapshot copy. In-memory shards
  // (never snapshotted) are charged their compressed representation.
  if (shard.mapping != nullptr) return shard.mapping->ResidentBytes();
  if (shard.entry.snapshot_bytes != 0) return shard.entry.snapshot_bytes;
  return shard.entry.compressed_bytes;
}

ShardedMatrix::ShardResidency ShardedMatrix::ShardResidencyInfo(
    std::size_t index) const {
  const ShardState& shard = state(index);
  std::lock_guard<std::mutex> lock(shard.mu);
  ShardResidency info;
  info.resident = shard.resident.valid();
  info.mapped_bytes = shard.mapping != nullptr ? shard.mapping->size() : 0;
  info.resident_bytes = ResidentBytesLocked(shard);
  return info;
}

u64 ShardedMatrix::ResidentPayloadBytes() const {
  u64 total = 0;
  for (const auto& shard : states_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += ResidentBytesLocked(*shard);
  }
  return total;
}

std::size_t ShardedMatrix::EvictToResidentBytes(u64 max_bytes) const {
  // Snapshot (last_touch, index) of every resident shard, then evict the
  // least recently touched file-backed ones. The budget is the
  // page-granular footprint: each shard is charged what it actually holds
  // (mincore over its mapping, or its owned copy). Pinned in-memory
  // shards keep counting against the budget, so a limit below the pinned
  // footprint evicts every file-backed shard.
  std::vector<std::pair<u64, std::size_t>> resident;  // (last_touch, index)
  u64 total = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    std::lock_guard<std::mutex> lock(states_[i]->mu);
    u64 bytes = ResidentBytesLocked(*states_[i]);
    total += bytes;
    if (bytes != 0 && states_[i]->file_backed) {
      resident.emplace_back(states_[i]->last_touch, i);
    }
  }
  std::sort(resident.begin(), resident.end());
  std::size_t evicted = 0;
  for (const auto& [touch, index] : resident) {
    if (total <= max_bytes) break;
    // Re-measure under the lock right before evicting: pages may have
    // been reclaimed (or faulted) since the snapshot above.
    u64 bytes;
    {
      const ShardState& shard = *states_[index];
      std::lock_guard<std::mutex> lock(shard.mu);
      bytes = ResidentBytesLocked(shard);
    }
    if (EvictShard(index)) {
      ++evicted;
      total = total > bytes ? total - bytes : 0;
    }
  }
  return evicted;
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

void ShardedMatrix::MultiplyRightInto(std::span<const double> x,
                                      std::span<double> y,
                                      const MulContext& ctx) const {
  // Scatter: each shard owns a disjoint slice of y, so the gather is the
  // write itself and pooled/unpooled runs are bitwise identical.
  auto run_shard = [&](std::size_t i, const MulContext& inner) {
    const ShardState& shard = *states_[i];
    AnyMatrix m = Acquire(shard);
    // Manifest validation guarantees a contiguous row tiling; assert the
    // slice really lies inside the caller's span before subspan() (an
    // out-of-range subspan is UB, not an exception).
    GCM_DCHECK_MSG(shard.entry.row_begin <= y.size() &&
                       shard.entry.row_end <= y.size() &&
                       shard.entry.row_begin <= shard.entry.row_end,
                   "shard " << i << " rows [" << shard.entry.row_begin << ", "
                            << shard.entry.row_end
                            << ") outside output span of " << y.size());
    m.MultiplyRightInto(
        x, y.subspan(shard.entry.row_begin, shard.entry.rows()), inner);
  };
  if (ctx.pool != nullptr && states_.size() > 1) {
    // Shards are the parallel grain; shard kernels run sequentially inside
    // their task. Nested ParallelFor is safe (the worker helps drain its
    // own range), but one task per shard already saturates the pool, so
    // forwarding it inward would only add fan-out overhead.
    ctx.pool->ParallelFor(states_.size(),
                          [&](std::size_t i) { run_shard(i, MulContext{}); });
  } else {
    for (std::size_t i = 0; i < states_.size(); ++i) run_shard(i, ctx);
  }
}

void ShardedMatrix::MultiplyLeftInto(std::span<const double> y,
                                     std::span<double> x,
                                     const MulContext& ctx) const {
  // Each shard contributes a full cols-sized partial; partials are summed
  // in shard order so the reduction is deterministic with and without a
  // pool. (This kernel allocates its scratch per call -- shards overwrite
  // their outputs, so the partials cannot share the caller's span.)
  std::fill(x.begin(), x.end(), 0.0);
  std::size_t n = states_.size();
  if (ctx.pool != nullptr && n > 1) {
    PartialVectors partials(n, cols());
    ctx.pool->ParallelFor(n, [&](std::size_t i) {
      const ShardState& shard = *states_[i];
      AnyMatrix m = Acquire(shard);
      GCM_DCHECK_MSG(shard.entry.row_end <= y.size() &&
                         shard.entry.row_begin <= shard.entry.row_end,
                     "shard " << i << " rows [" << shard.entry.row_begin
                              << ", " << shard.entry.row_end
                              << ") outside input span of " << y.size());
      m.MultiplyLeftInto(
          y.subspan(shard.entry.row_begin, shard.entry.rows()),
          partials.part(i), MulContext{});
    });
    partials.AccumulateInto(x);
  } else {
    std::vector<double> partial(cols());
    for (std::size_t i = 0; i < n; ++i) {
      const ShardState& shard = *states_[i];
      AnyMatrix m = Acquire(shard);
      GCM_DCHECK_MSG(shard.entry.row_end <= y.size() &&
                         shard.entry.row_begin <= shard.entry.row_end,
                     "shard " << i << " rows [" << shard.entry.row_begin
                              << ", " << shard.entry.row_end
                              << ") outside input span of " << y.size());
      m.MultiplyLeftInto(
          y.subspan(shard.entry.row_begin, shard.entry.rows()), partial, ctx);
      for (std::size_t c = 0; c < cols(); ++c) x[c] += partial[c];
    }
  }
}

void ShardedMatrix::MultiplyRightMulti(const DenseMatrix& x, DenseMatrix* y,
                                       const MulContext& ctx) const {
  // Same scatter as MultiplyRightInto, one batch at a time: each shard
  // writes its own disjoint row block of y, so pooled shards need no
  // synchronization and pooled/unpooled runs are bitwise identical.
  const std::size_t k = x.cols();
  auto run_shard = [&](std::size_t i, const MulContext& inner) {
    const ShardState& shard = *states_[i];
    AnyMatrix m = Acquire(shard);
    DenseMatrix block = m.MultiplyRightMulti(x, inner);
    for (std::size_t r = 0; r < shard.entry.rows(); ++r) {
      for (std::size_t j = 0; j < k; ++j) {
        y->Set(shard.entry.row_begin + r, j, block.At(r, j));
      }
    }
  };
  if (ctx.pool != nullptr && states_.size() > 1) {
    ctx.pool->ParallelFor(states_.size(),
                          [&](std::size_t i) { run_shard(i, MulContext{}); });
  } else {
    for (std::size_t i = 0; i < states_.size(); ++i) run_shard(i, ctx);
  }
}

void ShardedMatrix::MultiplyLeftMulti(const DenseMatrix& x, DenseMatrix* y,
                                      const MulContext& ctx) const {
  // Mirrors MultiplyLeftInto: one k x cols partial per shard (each fed the
  // k x shard_rows column slice of x), summed in shard order so the
  // reduction matches the sequential single-vector kernel bitwise.
  const std::size_t k = x.rows();
  const std::size_t n = states_.size();
  auto shard_partial = [&](std::size_t i, const MulContext& inner) {
    const ShardState& shard = *states_[i];
    AnyMatrix m = Acquire(shard);
    DenseMatrix slice(k, shard.entry.rows());
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < shard.entry.rows(); ++c) {
        slice.Set(j, c, x.At(j, shard.entry.row_begin + c));
      }
    }
    return m.MultiplyLeftMulti(slice, inner);
  };
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t c = 0; c < cols(); ++c) y->Set(j, c, 0.0);
  }
  std::vector<DenseMatrix> partials(n);
  if (ctx.pool != nullptr && n > 1) {
    ctx.pool->ParallelFor(
        n, [&](std::size_t i) { partials[i] = shard_partial(i, MulContext{}); });
  } else {
    for (std::size_t i = 0; i < n; ++i) partials[i] = shard_partial(i, ctx);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < cols(); ++c) {
        y->Set(j, c, y->At(j, c) + partials[i].At(j, c));
      }
    }
  }
}

void ShardedMatrix::MultiplyRightRangeInto(std::span<const double> x,
                                           std::span<double> y,
                                           std::size_t row_begin,
                                           std::size_t row_end,
                                           const MulContext& ctx) const {
  GCM_CHECK_MSG(row_begin < row_end && row_end <= rows(),
                "row range [" << row_begin << ", " << row_end
                              << ") invalid for " << rows() << " rows");
  GCM_CHECK_MSG(x.size() == cols(), "range kernel: input has "
                                        << x.size() << " entries, expected "
                                        << cols());
  GCM_CHECK_MSG(y.size() == row_end - row_begin,
                "range kernel: output has " << y.size()
                                            << " entries, expected "
                                            << row_end - row_begin);
  // Only shards overlapping the range are touched (and thus faulted in /
  // LRU-stamped). A shard fully inside the range writes straight into the
  // caller's span -- the same call MultiplyRightInto would make, so a
  // full-range query is bitwise identical to the unranged kernel. A shard
  // partially covered still computes all its rows (row-range slicing below
  // the shard grain would need a different kernel) and copies the overlap.
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const ShardState& shard = *states_[i];
    std::size_t begin = std::max(row_begin, shard.entry.row_begin);
    std::size_t end = std::min(row_end, shard.entry.row_end);
    if (begin >= end) continue;
    AnyMatrix m = Acquire(shard);
    if (begin == shard.entry.row_begin && end == shard.entry.row_end) {
      m.MultiplyRightInto(
          x, y.subspan(begin - row_begin, shard.entry.rows()), ctx);
    } else {
      std::vector<double> scratch(shard.entry.rows());
      m.MultiplyRightInto(x, scratch, ctx);
      for (std::size_t r = begin; r < end; ++r) {
        y[r - row_begin] = scratch[r - shard.entry.row_begin];
      }
    }
  }
}

DenseMatrix ShardedMatrix::MultiplyRightRangeMulti(const DenseMatrix& x,
                                                   std::size_t row_begin,
                                                   std::size_t row_end,
                                                   const MulContext& ctx) const {
  GCM_CHECK_MSG(row_begin < row_end && row_end <= rows(),
                "row range [" << row_begin << ", " << row_end
                              << ") invalid for " << rows() << " rows");
  GCM_CHECK_MSG(x.rows() == cols(), "range kernel: input has "
                                        << x.rows() << " rows, expected "
                                        << cols());
  const std::size_t k = x.cols();
  DenseMatrix y(row_end - row_begin, k);
  // Batched analog of MultiplyRightRangeInto: untouched shards stay cold.
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const ShardState& shard = *states_[i];
    std::size_t begin = std::max(row_begin, shard.entry.row_begin);
    std::size_t end = std::min(row_end, shard.entry.row_end);
    if (begin >= end) continue;
    AnyMatrix m = Acquire(shard);
    DenseMatrix block = m.MultiplyRightMulti(x, ctx);
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t j = 0; j < k; ++j) {
        y.Set(r - row_begin, j, block.At(r - shard.entry.row_begin, j));
      }
    }
  }
  return y;
}

bool ShardedMatrix::RangeAlignedToShards(std::size_t row_begin,
                                         std::size_t row_end) const {
  if (row_begin >= row_end || row_end > rows()) return false;
  bool begin_ok = false;
  bool end_ok = false;
  for (const std::unique_ptr<ShardState>& state : states_) {
    if (state->entry.row_begin == row_begin) begin_ok = true;
    if (state->entry.row_end == row_end) end_ok = true;
  }
  return begin_ok && end_ok;
}

void ShardedMatrix::MultiplyLeftRangeInto(std::span<const double> y,
                                          std::span<double> x,
                                          std::size_t row_begin,
                                          std::size_t row_end,
                                          const MulContext& ctx) const {
  GCM_CHECK_MSG(RangeAlignedToShards(row_begin, row_end),
                "left range [" << row_begin << ", " << row_end
                               << ") is not shard-aligned");
  GCM_CHECK_MSG(y.size() == row_end - row_begin,
                "range kernel: input has " << y.size()
                                           << " entries, expected "
                                           << row_end - row_begin);
  GCM_CHECK_MSG(x.size() == cols(), "range kernel: output has "
                                        << x.size() << " entries, expected "
                                        << cols());
  // The first overlapping shard writes its partial straight into x (the
  // inner kernel overwrites its whole output), later shards accumulate
  // through a scratch partial in shard order. A one-shard range therefore
  // produces exactly the term the full left kernel folds for that shard.
  bool first = true;
  std::vector<double> partial;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const ShardState& shard = *states_[i];
    if (shard.entry.row_end <= row_begin || shard.entry.row_begin >= row_end) {
      continue;
    }
    AnyMatrix m = Acquire(shard);
    auto slice =
        y.subspan(shard.entry.row_begin - row_begin, shard.entry.rows());
    if (first) {
      m.MultiplyLeftInto(slice, x, ctx);
      first = false;
    } else {
      partial.resize(cols());
      m.MultiplyLeftInto(slice, partial, ctx);
      for (std::size_t c = 0; c < cols(); ++c) x[c] += partial[c];
    }
  }
}

DenseMatrix ShardedMatrix::MultiplyLeftRangeMulti(const DenseMatrix& x,
                                                  std::size_t row_begin,
                                                  std::size_t row_end,
                                                  const MulContext& ctx) const {
  GCM_CHECK_MSG(RangeAlignedToShards(row_begin, row_end),
                "left range [" << row_begin << ", " << row_end
                               << ") is not shard-aligned");
  GCM_CHECK_MSG(x.cols() == row_end - row_begin,
                "range kernel: input has " << x.cols()
                                           << " columns, expected "
                                           << row_end - row_begin);
  const std::size_t k = x.rows();
  DenseMatrix out(k, cols());
  // Batched analog of MultiplyLeftRangeInto: first shard copies, later
  // shards add, all in shard order; vector j of either is bitwise
  // identical per the engine's multi contract.
  bool first = true;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const ShardState& shard = *states_[i];
    if (shard.entry.row_end <= row_begin || shard.entry.row_begin >= row_end) {
      continue;
    }
    AnyMatrix m = Acquire(shard);
    DenseMatrix slice(k, shard.entry.rows());
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < shard.entry.rows(); ++c) {
        slice.Set(j, c, x.At(j, shard.entry.row_begin - row_begin + c));
      }
    }
    DenseMatrix part = m.MultiplyLeftMulti(slice, ctx);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < cols(); ++c) {
        out.Set(j, c, first ? part.At(j, c) : out.At(j, c) + part.At(j, c));
      }
    }
    first = false;
  }
  return out;
}

DenseMatrix ShardedMatrix::ToDense() const {
  DenseMatrix out(rows(), cols());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const ShardState& shard = *states_[i];
    DenseMatrix block = Acquire(shard).ToDense();
    for (std::size_t r = 0; r < block.rows(); ++r) {
      for (std::size_t c = 0; c < block.cols(); ++c) {
        out.Set(shard.entry.row_begin + r, c, block.At(r, c));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot persistence
// ---------------------------------------------------------------------------

void ShardedMatrix::SaveSections(SnapshotWriter* out) const {
  // Single-file form: the manifest section describes the embedded shard
  // sections (file names cleared, checksums of the embedded bytes), so the
  // store layout and the single file stay mutually convertible.
  std::vector<std::vector<u8>> blobs(states_.size());
  ShardManifest embedded = manifest_;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    AnyMatrix shard = Acquire(*states_[i]);
    blobs[i] = shard.SaveSnapshotBytes();
    ShardManifestEntry& entry = embedded.shards[i];
    entry.file.clear();
    entry.spec = shard.FormatTag();
    entry.crc32 = Crc32(blobs[i].data(), blobs[i].size());
    entry.snapshot_bytes = blobs[i].size();
    entry.compressed_bytes = shard.CompressedBytes();
  }
  embedded.SerializeInto(&out->BeginSection(kShardManifestSection));
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    // Cache-line alignment so each embedded container starts where its
    // own internal padding expects it -- a mapped single-file snapshot
    // then borrows shard payload arrays exactly like sibling shard files.
    out->BeginSection(ShardSectionName(i), kPayloadSectionAlignment)
        .PutBytes(blobs[i].data(), blobs[i].size());
  }
}

// ---------------------------------------------------------------------------
// Spec-registry hooks
// ---------------------------------------------------------------------------

MatrixSpec InnerSpecFromSharded(const MatrixSpec& spec) {
  auto it = spec.params.find("inner");
  std::string inner_text =
      it == spec.params.end() ? std::string("csr") : DecodeInnerSpec(it->second);
  MatrixSpec inner = MatrixSpec::Parse(inner_text);
  if (inner.family == "sharded" || inner.family == "cluster") {
    throw std::invalid_argument(
        "sharded specs cannot nest: inner spec \"" + inner_text +
        "\" is itself a scatter/gather family");
  }
  return inner;
}

AnyMatrix BuildShardedFromSpec(const DenseMatrix& dense,
                               const MatrixSpec& spec,
                               const BuildContext& ctx) {
  MatrixSpec inner = InnerSpecFromSharded(spec);
  std::size_t per_shard = ShardingPolicy::FromSpec(spec).ResolveRowsPerShard(
      dense.rows(), dense.cols());
  std::size_t shard_count = (dense.rows() + per_shard - 1) / per_shard;
  // Shards are independent builds over disjoint row slices; run them on
  // the pool, forwarding ctx so a blocked inner spec can fan out too
  // (ParallelFor is nesting-safe). Each task writes only its own slot, so
  // the assembled matrix is identical to the sequential build.
  std::vector<AnyMatrix> shards(shard_count);
  MaybeParallelFor(ctx.pool, shard_count, [&](std::size_t i) {
    std::size_t begin = i * per_shard;
    std::size_t end = std::min(dense.rows(), begin + per_shard);
    shards[i] = AnyMatrix::Build(dense.RowSlice(begin, end), inner, ctx);
  });
  return AnyMatrix(ShardedMatrix::FromShards(dense.cols(), std::move(shards)));
}

std::vector<std::vector<Triplet>> BucketTripletsByShard(
    std::size_t rows, std::size_t per_shard, std::vector<Triplet> entries) {
  // The rebase below narrows shard-local rows to the u32 index space of
  // Triplet::row; a shard taller than that space would alias rows
  // silently, so oversized shards are rejected here by name.
  GCM_CHECK_MSG(per_shard <= std::numeric_limits<u32>::max(),
                "rows_per_shard " << per_shard
                                  << " exceeds the u32 row index space of a "
                                     "shard ("
                                  << std::numeric_limits<u32>::max()
                                  << "); use more shards");
  std::size_t shard_count = (rows + per_shard - 1) / per_shard;
  std::vector<std::vector<Triplet>> buckets(shard_count);
  for (const Triplet& t : entries) {
    GCM_CHECK_MSG(t.row < rows, "triplet row " << t.row
                                               << " outside the declared "
                                               << rows << " rows");
    Triplet rebased = t;
    std::size_t shard = t.row / per_shard;
    rebased.row = static_cast<u32>(t.row - shard * per_shard);
    buckets[shard].push_back(rebased);
  }
  return buckets;
}

AnyMatrix BuildShardedFromTriplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> entries,
                                   const MatrixSpec& spec,
                                   const BuildContext& ctx) {
  MatrixSpec inner = InnerSpecFromSharded(spec);
  std::size_t per_shard =
      ShardingPolicy::FromSpec(spec).ResolveRowsPerShard(rows, cols);
  std::vector<std::vector<Triplet>> buckets =
      BucketTripletsByShard(rows, per_shard, std::move(entries));
  // Each task consumes its own bucket and writes its own slot (the buckets
  // are disjoint by construction), so the shard builds parallelize without
  // any synchronization beyond the ParallelFor barrier.
  std::vector<AnyMatrix> shards(buckets.size());
  MaybeParallelFor(ctx.pool, buckets.size(), [&](std::size_t i) {
    std::size_t begin = i * per_shard;
    std::size_t shard_rows = std::min(rows - begin, per_shard);
    shards[i] =
        AnyMatrix::Build(shard_rows, cols, std::move(buckets[i]), inner, ctx);
  });
  return AnyMatrix(ShardedMatrix::FromShards(cols, std::move(shards)));
}

AnyMatrix LoadShardedFromSnapshot(const SnapshotReader& in,
                                  const MatrixSpec& spec,
                                  const std::string& origin_path) {
  ShardManifest manifest = ShardManifest::FromSnapshot(in);
  std::size_t declared = spec.GetSize("shards", manifest.shards.size());
  GCM_CHECK_MSG(declared == manifest.shards.size(),
                "snapshot spec declares " << declared
                                          << " shards but the manifest holds "
                                          << manifest.shards.size());
  if (in.HasSection(ShardSectionName(0))) {
    // Single-file form: every shard snapshot is embedded as a section.
    std::vector<AnyMatrix> shards;
    shards.reserve(manifest.shards.size());
    for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
      std::string section = ShardSectionName(i);
      // The embedded container is parsed in place: FromSpan views the
      // outer reader's bytes and shares its backing, so a mapped
      // single-file snapshot never copies a shard -- each loaded handle
      // retains the outer mapping (or heap buffer) instead.
      std::span<const u8> bytes = in.SectionSpan(section);
      try {
        CheckShardBytes(bytes, manifest.shards[i], "section \"" + section +
                                                       '"');
        AnyMatrix shard = AnyMatrix::LoadSnapshot(
            SnapshotReader::FromSpan(bytes, in.backing()));
        CheckLoadedShard(shard, manifest.shards[i], manifest.cols,
                         "section \"" + section + '"');
        shards.push_back(std::move(shard));
      } catch (const Error& e) {
        throw Error("snapshot section \"" + section +
                    "\" is corrupt: " + e.what());
      }
    }
    return AnyMatrix(
        ShardedMatrix::FromShards(manifest.cols, std::move(shards)));
  }
  // Store-manifest form: shard snapshots are sibling files.
  if (origin_path.empty()) {
    throw Error(
        "this sharded snapshot is a store manifest referencing sibling "
        "shard files; load it from its file path (AnyMatrix::Load or "
        "MatrixStore::Open), not from a byte buffer");
  }
  std::string dir = std::filesystem::path(origin_path).parent_path().string();
  return AnyMatrix(ShardedMatrix::FromManifest(std::move(manifest), dir,
                                               ShardLoadMode::kLazy));
}

}  // namespace gcm
