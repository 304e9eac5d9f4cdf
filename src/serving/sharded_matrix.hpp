// ShardedMatrix: scatter/gather serving kernel over per-shard snapshots.
//
// The serving-scale counterpart of the engine API: a matrix is split into
// contiguous row ranges, each range is an independent AnyMatrix (typically
// persisted as its own snapshot file, see serving/matrix_store.hpp), and
// ShardedMatrix implements IMatrixKernel over the collection -- so a
// sharded store drops straight into every existing engine loop:
//
//    AnyMatrix m = MatrixStore::Open("store/");       // reads manifest only
//    m.MultiplyRightInto(x, y, {.pool = &pool});      // shard-parallel
//
// Kernels scatter row ranges across shards and gather into the caller's
// span: MultiplyRightInto hands each shard a disjoint sub-span of y (the
// gather is free, and pooled/unpooled runs are bitwise identical);
// MultiplyLeftInto collects one cols-sized partial per shard and sums the
// partials in shard order, so the reduction is deterministic with and
// without a pool. When a pool is present, shards run in parallel and each
// shard kernel runs sequentially inside its task; with no pool (or one
// shard) the context is forwarded so a lone shard can still use its own
// internal parallelism.
//
// Residency: shards backed by files load lazily (read on first touch,
// checksum-verified against the manifest) or eagerly at open, and can be
// evicted (EvictShard / EvictToResidentBytes) for memory-bounded serving;
// a later touch transparently reloads. In-memory shards (built via the
// "sharded" spec family) are always resident. All residency operations are
// const and thread-safe -- callers reach them through the engine with
//
//    auto* sharded = ShardedMatrix::FromKernel(m.kernel());
//
// Spec grammar:  sharded?inner=SPEC&rows_per_shard=N|shards=N|target_bytes=B
// where SPEC is any non-sharded engine spec with '&' written as '+'
// (EncodeInnerSpec), e.g. "sharded?inner=gcm:re_ans?blocks=2&shards=8".
// Snapshots round-trip through AnyMatrix::Save/Load: the single-file form
// embeds a "manifest" section plus one "shard_<i>" section per shard; a
// store manifest (sections "meta" + "manifest" only) loads through the same
// path when opened from a file, resolving shard files next to it.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "serving/shard_manifest.hpp"
#include "util/common.hpp"

namespace gcm {

class DenseMatrix;
struct Triplet;

/// How MatrixStore::Open / manifest loading materializes shard payloads.
enum class ShardLoadMode {
  kEager,  ///< read and deserialize every shard at open
  kLazy,   ///< read a shard's snapshot on its first touch
};

/// How to cut a matrix into row-range shards. At most one field may be
/// set; all-zero picks the default shard count. target_bytes estimates
/// rows per shard from the *dense* row footprint (cols * 8 bytes), i.e. it
/// bounds the uncompressed slice a shard covers, not its compressed size.
struct ShardingPolicy {
  std::size_t rows_per_shard = 0;
  std::size_t shards = 0;
  u64 target_bytes = 0;

  static constexpr std::size_t kDefaultShards = 4;

  /// Reads rows_per_shard / shards / target_bytes spec keys.
  static ShardingPolicy FromSpec(const MatrixSpec& spec);

  /// The resolved rows-per-shard for a rows x cols matrix, clamped to
  /// [1, rows]. Throws std::invalid_argument when more than one policy
  /// field is set.
  std::size_t ResolveRowsPerShard(std::size_t rows, std::size_t cols) const;
};

class MappedFile;
class SnapshotReader;

class ShardedMatrix final : public IMatrixKernel {
 public:
  /// In-memory construction: consecutive shards in row order; every shard
  /// must have `cols` columns and at least one row. Shards are always
  /// resident (EvictShard refuses -- there is no file to reload from).
  static std::shared_ptr<ShardedMatrix> FromShards(
      std::size_t cols, std::vector<AnyMatrix> shards);

  /// File-backed construction over a validated manifest; shard files are
  /// resolved relative to `dir`. kEager loads every shard now, kLazy on
  /// first touch. Loads are checksum-verified against the manifest and a
  /// mismatch (or a missing / swapped shard file) throws gcm::Error naming
  /// the shard.
  static std::shared_ptr<ShardedMatrix> FromManifest(ShardManifest manifest,
                                                     std::string dir,
                                                     ShardLoadMode mode);

  /// Downcast helper for callers holding an engine matrix: returns nullptr
  /// when the kernel is not sharded.
  static const ShardedMatrix* FromKernel(const IMatrixKernel& kernel) {
    return dynamic_cast<const ShardedMatrix*>(&kernel);
  }

  // ---- Shard inspection / residency control (const + thread-safe).

  const ShardManifest& manifest() const { return manifest_; }
  std::size_t shard_count() const { return states_.size(); }

  bool ShardResident(std::size_t index) const;
  std::size_t LoadedShardCount() const;

  /// Ensures shard `index` is resident and returns an engine handle to it
  /// (a cheap shared reference: eviction never invalidates it).
  AnyMatrix LoadShard(std::size_t index) const;

  /// Drops a file-backed shard's resident payload. A mapped shard first
  /// gets madvise(MADV_DONTNEED) so the OS releases its clean pages
  /// immediately (outstanding engine handles stay valid -- they retain the
  /// mapping and simply re-fault pages from disk on the next touch).
  /// Returns false for in-memory shards and shards that are not resident.
  bool EvictShard(std::size_t index) const;

  /// Page-granular residency snapshot of one shard (`model_server --stats`
  /// and byte-bounded eviction read these).
  struct ShardResidency {
    bool resident = false;   ///< deserialized kernel currently cached
    u64 mapped_bytes = 0;    ///< live file mapping size (0 = copied/evicted)
    u64 resident_bytes = 0;  ///< RAM actually held: mincore over the
                             ///< mapping, or the owned copy's full size
  };
  ShardResidency ShardResidencyInfo(std::size_t index) const;

  /// Sum of ShardResidencyInfo(i).resident_bytes over all shards -- the
  /// page-granular serving footprint. A mapped shard counts only the pages
  /// the OS actually holds (mincore), so the footprint can sit far below
  /// the snapshot size when kernels touch a fraction of the payload.
  u64 ResidentPayloadBytes() const;

  /// Evicts least-recently-touched file-backed shards until the
  /// page-granular resident footprint is at most `max_bytes`. In-memory
  /// shards are pinned and keep counting toward the footprint. Returns the
  /// number evicted. It is a serving-loop hint that concurrent touches may
  /// race, not an invariant.
  std::size_t EvictToResidentBytes(u64 max_bytes) const;

  // ---- IMatrixKernel.

  std::size_t rows() const override { return manifest_.rows; }
  std::size_t cols() const override { return manifest_.cols; }
  u64 CompressedBytes() const override {
    return manifest_.TotalCompressedBytes();
  }
  std::string FormatTag() const override { return manifest_.FormatTag(); }

  void MultiplyRightInto(std::span<const double> x, std::span<double> y,
                         const MulContext& ctx) const override;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x,
                        const MulContext& ctx) const override;

  /// Multi-vector kernels (the batching server's execution grain): the
  /// whole batch scatters once per shard. Right: shard i computes its
  /// rows x k block straight into the output rows it owns. Left: each
  /// shard contributes a k x cols partial, summed in shard order, so the
  /// reduction stays deterministic with and without a pool. Vector j of
  /// either result is bitwise identical to the sequential single-vector
  /// kernel on input j.
  void MultiplyRightMulti(const DenseMatrix& x, DenseMatrix* y,
                          const MulContext& ctx) const override;
  void MultiplyLeftMulti(const DenseMatrix& x, DenseMatrix* y,
                         const MulContext& ctx) const override;

  /// Row-range kernels -- the serving path's admission-aware shard touch:
  /// only shards overlapping [row_begin, row_end) are acquired, so a range
  /// query against a residency-limited store faults in exactly the shards
  /// it needs. `y` holds row_end - row_begin entries (RangeInto); the
  /// RangeMulti result is (row_end - row_begin) x k. Requires
  /// row_begin < row_end <= rows(). The full range is bitwise identical to
  /// MultiplyRightInto / MultiplyRightMulti.
  void MultiplyRightRangeInto(std::span<const double> x, std::span<double> y,
                              std::size_t row_begin, std::size_t row_end,
                              const MulContext& ctx = {}) const;
  DenseMatrix MultiplyRightRangeMulti(const DenseMatrix& x,
                                      std::size_t row_begin,
                                      std::size_t row_end,
                                      const MulContext& ctx = {}) const;

  /// True when [row_begin, row_end) is a valid range that starts on some
  /// shard's first row and ends on some shard's last row -- the ranges a
  /// partial left multiply can serve (shards tile contiguously, so an
  /// aligned range covers whole shards exactly).
  bool RangeAlignedToShards(std::size_t row_begin, std::size_t row_end) const;

  /// Partial left multiply over the rows in [row_begin, row_end): x gets
  /// y^t M[row_begin:row_end, :] where y holds row_end - row_begin
  /// entries. Requires a shard-aligned range; only overlapping shards are
  /// touched. The partial of a one-shard range is written directly (not
  /// zero+add), so it is bitwise identical to the term MultiplyLeftInto
  /// folds for that shard -- which is what keeps a cluster-gathered left
  /// multiply (coordinator summing per-shard partials in manifest order)
  /// bitwise equal to the local kernel.
  void MultiplyLeftRangeInto(std::span<const double> y, std::span<double> x,
                             std::size_t row_begin, std::size_t row_end,
                             const MulContext& ctx = {}) const;

  /// Batched analog: x is k x (row_end - row_begin), result is k x cols,
  /// vector j bitwise identical to MultiplyLeftRangeInto on row j of x.
  DenseMatrix MultiplyLeftRangeMulti(const DenseMatrix& x,
                                     std::size_t row_begin,
                                     std::size_t row_end,
                                     const MulContext& ctx = {}) const;

  DenseMatrix ToDense() const override;

  /// Single-file persistence: embeds the manifest plus every shard's
  /// snapshot bytes as sections (loading lazily-evicted shards first).
  void SaveSections(SnapshotWriter* out) const override;

 private:
  struct ShardState {
    ShardManifestEntry entry;
    bool file_backed = false;
    mutable std::mutex mu;
    mutable AnyMatrix resident;  ///< invalid when evicted / not yet loaded
    /// Live mapping of the shard's snapshot file; null when the load fell
    /// back to a heap copy (or the shard is in-memory / evicted). Held
    /// here -- in addition to the keepalive inside `resident` -- so
    /// eviction can madvise the pages away and stats can mincore them.
    mutable std::shared_ptr<MappedFile> mapping;
    mutable u64 last_touch = 0;
  };

  ShardedMatrix() = default;

  const ShardState& state(std::size_t index) const;
  /// Loads (if needed), stamps the LRU clock, returns the shard handle.
  AnyMatrix Acquire(const ShardState& shard) const;
  /// Page-granular resident bytes of one shard; caller holds `shard.mu`.
  u64 ResidentBytesLocked(const ShardState& shard) const;

  ShardManifest manifest_;
  std::string dir_;  ///< base for shard files; empty when fully in-memory
  std::vector<std::unique_ptr<ShardState>> states_;
  mutable std::atomic<u64> clock_{0};
};

/// Splits triplets into one bucket per row-range shard of `per_shard`
/// rows, rebasing each row index to its shard's local origin. Rows at or
/// beyond `rows` throw gcm::Error naming the offending triplet. Shared by
/// the in-memory build path and MatrixStore::Partition so the rebase
/// invariant lives in one place.
std::vector<std::vector<Triplet>> BucketTripletsByShard(
    std::size_t rows, std::size_t per_shard, std::vector<Triplet> entries);

// ---- Spec-registry hooks (called from core/any_matrix.cpp).

/// Extracts and validates the inner spec of a "sharded" spec (default
/// "csr"); rejects nested sharding with std::invalid_argument.
MatrixSpec InnerSpecFromSharded(const MatrixSpec& spec);

/// Builds an in-memory sharded matrix per the spec's inner spec and
/// sharding policy (row slices of `dense`). Shard builds are independent,
/// so a BuildContext pool runs them concurrently; the context is also
/// forwarded into each inner build (nested fan-out is safe and the result
/// is identical either way).
AnyMatrix BuildShardedFromSpec(const DenseMatrix& dense,
                               const MatrixSpec& spec,
                               const BuildContext& ctx);

/// Dense-free ingestion: triplets are bucketed by row range and each
/// bucket feeds the inner spec's own triplet pipeline (shard-parallel on
/// the BuildContext pool, like BuildShardedFromSpec).
AnyMatrix BuildShardedFromTriplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> entries,
                                   const MatrixSpec& spec,
                                   const BuildContext& ctx);

/// Restores a sharded matrix from a snapshot: the single-file form loads
/// its embedded shard sections; a store manifest resolves shard files
/// relative to `origin_path` (empty origin -> gcm::Error, the bytes alone
/// cannot locate sibling files) and opens them lazily.
AnyMatrix LoadShardedFromSnapshot(const SnapshotReader& in,
                                  const MatrixSpec& spec,
                                  const std::string& origin_path);

}  // namespace gcm
