// Grammar-compressed matrices and the compressed matrix-vector kernels --
// the paper's primary contribution (Sections 3 and 4).
//
// A GcMatrix is the triple (C, R, V):
//   * V  -- dictionary of distinct non-zero values (shared across blocks),
//   * R  -- the RePair rule set (an SLP; no rule contains the sentinel),
//   * C  -- the RePair final sequence whose expansion is the CSRV sequence S.
//
// Four storage formats, matching the paper's family of compressors:
//   kCsrv  -- no grammar: C = S verbatim, R empty (the csrv baseline);
//   kRe32  -- C and R as plain 32-bit arrays (fastest, largest);
//   kReIv  -- C and R as bit-packed arrays of width 1+floor(log2(Nmax));
//   kReAns -- C entropy-coded with the rANS coder, R bit-packed (R must
//             stay randomly accessible backwards for left multiplication).
//
// Both multiplications run in O(|C| + |R|) time with O(|R|) words of
// auxiliary space (Theorems 3.4 and 3.10), generalized -- as in the paper's
// prototype -- to final sequences that still contain terminals.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "encoding/int_vector.hpp"
#include "encoding/rans.hpp"
#include "grammar/repair.hpp"
#include "matrix/csrv.hpp"
#include "matrix/sparse_builder.hpp"
#include "util/array_ref.hpp"
#include "util/common.hpp"

namespace gcm {

class ThreadPool;

enum class GcFormat { kCsrv, kRe32, kReIv, kReAns };

const char* FormatName(GcFormat format);

/// Inverse of FormatName; the round trip name -> enum -> name is total.
/// Throws std::invalid_argument naming the offending string on a miss.
GcFormat FormatByName(const std::string& name);

struct GcBuildOptions {
  GcFormat format = GcFormat::kRe32;
  /// rANS folding parameter (kReAns only).
  u32 fold_bits = 12;
  /// Cap on RePair rules (0 = unlimited); exposed for ablation benches.
  std::size_t max_rules = 0;
};

/// One grammar-compressed row block. rows()/cols() describe the block;
/// MultiplyRight/MultiplyLeft operate on full-width vectors (cols entries)
/// and block-height vectors (rows entries).
class GcMatrix {
 public:
  using SharedDict = std::shared_ptr<const std::vector<double>>;

  /// Compresses the CSRV sequence `sequence` (rows terminated by
  /// kCsrvSentinel) of a block with `rows` rows against dictionary `dict`.
  static GcMatrix FromSequence(std::vector<u32> sequence, std::size_t rows,
                               std::size_t cols, SharedDict dict,
                               const GcBuildOptions& options);

  /// Convenience: compresses a whole CsrvMatrix.
  static GcMatrix FromCsrv(const CsrvMatrix& csrv,
                           const GcBuildOptions& options);

  /// Convenience: dense -> CSRV -> grammar in one step.
  static GcMatrix FromDense(const DenseMatrix& dense,
                            const GcBuildOptions& options);

  /// Sparse ingestion: COO triplets -> CSRV -> grammar, never staging a
  /// dense buffer (see matrix/sparse_builder.hpp).
  static GcMatrix FromTriplets(std::size_t rows, std::size_t cols,
                               std::vector<Triplet> entries,
                               const GcBuildOptions& options);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  GcFormat format() const { return format_; }
  const std::vector<double>& dictionary() const { return *dict_; }
  SharedDict shared_dictionary() const { return dict_; }

  /// |C| (symbols) and |R| (rules) of the underlying grammar.
  std::size_t final_sequence_length() const { return c_length_; }
  std::size_t rule_count() const { return rule_count_; }

  /// Bytes of the compressed representation of THIS block: C + R in their
  /// format-specific encodings. The shared dictionary is not included (the
  /// blocked container adds it once).
  u64 PayloadBytes() const;

  /// PayloadBytes() plus the dictionary (8 bytes per value): the size a
  /// standalone matrix occupies; comparable to the paper's Table 1 entries.
  u64 CompressedBytes() const {
    return PayloadBytes() + dict_->size() * sizeof(double);
  }

  /// y = M x (Theorem 3.4): one forward pass over R filling the W array,
  /// then one scan of C.
  std::vector<double> MultiplyRight(const std::vector<double>& x) const;

  /// x^t = y^t M (Theorem 3.10): one scan of C seeding W, then one backward
  /// pass over R pushing row sums down to terminals.
  std::vector<double> MultiplyLeft(const std::vector<double>& y) const;

  /// Allocation-free kernels: the caller provides the output, which is
  /// fully overwritten (x: cols() entries, y: rows() entries; input and
  /// output must not alias). The O(|R|) W array is still allocated
  /// internally -- it is the auxiliary space of Theorems 3.4/3.10, not
  /// part of the result.
  ///
  /// When `pool` is given and C is randomly accessible (every format but
  /// re_ans, whose stream decodes strictly forward), the scan of C is
  /// split into per-worker chunks: a first parallel pass counts row
  /// sentinels per chunk, a prefix sum assigns each chunk its starting
  /// row, and a second parallel pass evaluates the chunks independently --
  /// rows split across a chunk boundary are stitched by an O(#chunks)
  /// sequential fix-up. The R passes keep their sequential dependency
  /// chain. Short sequences and re_ans fall back to the sequential scan.
  void MultiplyRightInto(std::span<const double> x, std::span<double> y,
                         ThreadPool* pool = nullptr) const;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x,
                        ThreadPool* pool = nullptr) const;

  /// Y = M X for a dense right-hand side X (cols x k): the multi-vector
  /// generalization of Theorem 3.4. One pass over R and one over C with
  /// k-wide accumulators; cost O(k(|C| + |R|)), space O(k|R|).
  /// When `pool` is given, the k columns are split into one batch per
  /// worker and processed in parallel (each batch re-runs the R pass and
  /// the C scan on its own slice, so aux space stays O(k|R|) overall).
  DenseMatrix MultiplyRightMulti(const DenseMatrix& x,
                                 ThreadPool* pool = nullptr) const;

  /// Y = X M for a dense left-hand side X (k x rows): multi-vector
  /// generalization of Theorem 3.10. Same column-batch parallelism as
  /// MultiplyRightMulti when `pool` is given.
  DenseMatrix MultiplyLeftMulti(const DenseMatrix& x,
                                ThreadPool* pool = nullptr) const;

  /// Reconstructs the CSRV sequence S (for verification / decompression).
  std::vector<u32> DecompressSequence() const;

  /// Extracts one row as a dense vector without decompressing the rest of
  /// the matrix: scans C counting sentinels (rules never contain the
  /// sentinel, so row boundaries exist only at the top level) and expands
  /// just the symbols of row `r`. O(|C| + output) time, O(depth) space.
  std::vector<double> ExtractRow(std::size_t r) const;

  /// Reconstructs the dense block.
  DenseMatrix ToDense() const;

  /// Prefetch hint covering the head of the C/R payload arrays; the
  /// blocked container calls it for block b+1 while block b computes so
  /// the next payload is in cache when its scan starts.
  void PrefetchPayload() const;

  /// Grammar payload only; the dictionary travels separately (the blocked
  /// container stores it once for all blocks).
  void Serialize(ByteWriter* writer) const;
  static GcMatrix Deserialize(ByteReader* reader, SharedDict dict);

  /// Self-contained snapshot payload: dictionary + grammar in one stream.
  void SerializeInto(ByteWriter* writer) const;
  static GcMatrix DeserializeFrom(ByteReader* reader);

 private:
  GcMatrix() = default;

  /// Iterates the final sequence C in order, invoking fn(symbol).
  template <typename F>
  void ForEachFinalSymbol(F&& fn) const;

  /// Random access into C; valid for every format but kReAns.
  u32 FinalSymbolAt(std::size_t i) const;

  /// Chunks the scan of C for `pool`: 1 = run sequentially (no pool, a
  /// forward-only C encoding, or a sequence too short to amortize the
  /// two-pass overhead).
  std::size_t ScanChunkCount(const ThreadPool* pool) const;

  /// Per-chunk sentinel counts over C and their exclusive prefix sum (the
  /// starting row of each chunk); validates the total against rows().
  std::vector<std::size_t> ChunkRowStarts(std::size_t chunks,
                                          ThreadPool* pool) const;

  void ParallelRightScan(std::span<const double> x, std::span<double> y,
                         const std::vector<double>& w, std::size_t chunks,
                         ThreadPool* pool) const;
  void ParallelLeftScan(std::span<const double> y, std::span<double> x,
                        std::vector<double>* w, std::size_t chunks,
                        ThreadPool* pool) const;

  /// Multi-vector kernels restricted to the column batch [t0, t1) of X;
  /// the unit of work of the pool-parallel Multi drivers.
  void MultiplyRightMultiRange(const DenseMatrix& x, DenseMatrix* y,
                               std::size_t t0, std::size_t t1) const;
  void MultiplyLeftMultiRange(const DenseMatrix& x, DenseMatrix* out,
                              std::size_t t0, std::size_t t1) const;

  u32 RuleLeft(std::size_t i) const;
  u32 RuleRight(std::size_t i) const;

  /// Emits the terminal expansion of `symbol` left to right via emit(t).
  /// `stack` is caller-provided scratch so C scans reuse one allocation.
  template <typename F>
  void ExpandSymbol(u32 symbol, std::vector<u32>* stack, F&& emit) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  GcFormat format_ = GcFormat::kRe32;
  SharedDict dict_;
  u32 alphabet_size_ = 0;     ///< 1 + |V|*cols (terminal space)
  std::size_t c_length_ = 0;  ///< |C|
  std::size_t rule_count_ = 0;

  // Exactly one C representation and one R representation is populated,
  // selected by format_. The plain arrays are ArrayRefs so a snapshot
  // loaded from a mapping borrows them in place (see util/array_ref.hpp).
  ArrayRef<u32> c_plain_;      // kCsrv, kRe32
  IntVector c_packed_;         // kReIv
  RansStream c_ans_;           // kReAns
  ArrayRef<u32> r_plain_;      // kRe32 (flattened pairs)
  IntVector r_packed_;         // kReIv, kReAns
};

}  // namespace gcm
