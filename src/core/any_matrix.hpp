// The type-erased engine API: every matrix backend behind one interface.
//
// The paper's central claim is that grammar-compressed, CLA-compressed and
// plain sparse matrices are *interchangeable* operands for matrix-vector
// iteration. This module makes that literal: seven concrete backends
// (DenseMatrix, CsrMatrix, CsrIvMatrix, CsrvMatrix, GcMatrix,
// BlockedGcMatrix, ClaMatrix) are adapted to one kernel interface,
//
//    caller code ---> AnyMatrix (value wrapper)
//                        |
//                        v
//                  IMatrixKernel (type-erased interface)
//                        |
//        +------+------+-+-----+--------+-----------+------+
//        v      v      v       v        v           v      v
//      dense   csr   csr_iv   csrv   GcMatrix   BlockedGc  CLA
//
// and a spec-string factory turns a short description into a built matrix:
//
//    AnyMatrix m = AnyMatrix::Build(dense, "gcm:re_ans?blocks=8");
//    m.MultiplyRightInto(x, y, {.pool = &pool});
//
// Spec grammar:   family[:variant][?key=value[&key=value]...]
//
//    dense                          row-major doubles (reference)
//    csr                            classical CSR
//    csr_iv                         CSR-IV (dictionary-indexed values)
//    csrv                           CSRV (S, V) of Section 2
//    gcm[:csrv|re_32|re_iv|re_ans]  RePair grammar compression (Section 3/4)
//        ?blocks=N                  row blocks (Section 4.1; N>1 = blocked)
//        &fold_bits=N &max_rules=N  rANS folding / RePair rule cap
//    cla                            Compressed Linear Algebra baseline
//        ?co_code=0|1 &sample_rows=N &max_group_size=N &max_candidates=N
//    sharded                        scatter/gather over row-range shards
//        ?inner=SPEC                (serving/sharded_matrix.hpp; the inner
//        &rows_per_shard=N|shards=N|target_bytes=B   spec escapes '&' as '+')
//    cluster                        multi-node scatter over loopback workers
//        ?inner=SPEC &workers=W     (net/cluster/cluster_serving.hpp; a
//        &shards=N &replicas=R      saved manifest connects to external
//        &manifest=...              workers instead)
//    auto                           format advisor (Section 4.2 mechanism)
//        ?budget=64MiB &blocks=N &sample_rows=N
//
// Unknown families, variants or keys are rejected with an error listing
// every registered spec (AnyMatrix::ListSpecs()).
//
// All kernels are allocation-free: input and output are caller-provided
// spans, and a uniform MulContext carries the execution resources, so the
// same loop body serves every backend (see core/power_iteration.hpp).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/build_context.hpp"
#include "util/common.hpp"

namespace gcm {

class DenseMatrix;
class CsrMatrix;
class CsrIvMatrix;
class CsrvMatrix;
class GcMatrix;
class BlockedGcMatrix;
class ClaMatrix;
class SnapshotReader;
class SnapshotWriter;
class ThreadPool;
struct Triplet;

/// Uniform execution context handed to every engine kernel. Backends that
/// cannot exploit a field ignore it.
struct MulContext {
  ThreadPool* pool = nullptr;  ///< worker pool; nullptr = sequential
};

/// The kernel interface every backend adapter implements. Outputs are
/// caller-provided spans that are fully overwritten; inputs and outputs
/// must not alias (AnyMatrix enforces both preconditions).
class IMatrixKernel {
 public:
  virtual ~IMatrixKernel() = default;

  virtual std::size_t rows() const = 0;
  virtual std::size_t cols() const = 0;

  /// Bytes of the backend's representation (compressed where applicable).
  virtual u64 CompressedBytes() const = 0;

  /// Stable spec-style identity, e.g. "gcm:re_ans?blocks=8".
  virtual std::string FormatTag() const = 0;

  /// y = M x  (x: cols entries, y: rows entries).
  virtual void MultiplyRightInto(std::span<const double> x,
                                 std::span<double> y,
                                 const MulContext& ctx) const = 0;

  /// x^t = y^t M  (y: rows entries, x: cols entries).
  virtual void MultiplyLeftInto(std::span<const double> y,
                                std::span<double> x,
                                const MulContext& ctx) const = 0;

  /// Multi-vector kernels: Y = M X (X: cols x k, Y: rows x k) and
  /// Y = X M (X: k x rows, Y: k x cols); outputs are fully overwritten.
  /// The defaults loop the single-vector *Into kernels one input vector at
  /// a time. Only an unblocked GcMatrix overrides them: it shares one scan
  /// of C and R among all k columns. Containers (row blocks, shards,
  /// cluster ranges) have no shared pass to amortize and keep the
  /// defaults. Contract: vector j of the result is bitwise identical to a
  /// sequential single-vector call on input j, so a caller may group
  /// vectors without changing any answer.
  virtual void MultiplyRightMulti(const DenseMatrix& x, DenseMatrix* y,
                                  const MulContext& ctx) const;
  virtual void MultiplyLeftMulti(const DenseMatrix& x, DenseMatrix* y,
                                 const MulContext& ctx) const;

  /// Materializes the dense equivalent (testing / conversion).
  virtual DenseMatrix ToDense() const = 0;

  /// Writes the backend's snapshot sections (the engine adds the "meta"
  /// section and the container header itself). The default rejects the
  /// operation, so external kernels opt in explicitly.
  virtual void SaveSections(SnapshotWriter* out) const;
};

/// A parsed spec string: family[:variant][?key=value[&key=value]...].
/// Parse errors throw std::invalid_argument naming the offending token.
struct MatrixSpec {
  std::string family;
  std::string variant;                        ///< "" when absent
  std::map<std::string, std::string> params;  ///< ?key=value pairs

  static MatrixSpec Parse(const std::string& spec);
  std::string ToString() const;

  /// Typed accessors; throw std::invalid_argument on malformed values.
  std::size_t GetSize(const std::string& key, std::size_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;
  /// Accepts raw byte counts and the suffixes KB/MB/GB/KiB/MiB/GiB/B.
  u64 GetBytes(const std::string& key, u64 fallback) const;
};

/// A spec tag as read back from a stored file (snapshot header or store
/// manifest entry). Files written while the gcm family took a
/// `rule_cache=` key still carry it; the key never changed the payload,
/// so the load path drops it. AnyMatrix::Build rejects it as unknown.
std::string StoredSpecTag(const std::string& tag);

/// Value wrapper around a type-erased kernel. Cheap to copy (kernels are
/// immutable and shared), safe to hand across threads for const use.
class AnyMatrix {
 public:
  AnyMatrix() = default;

  /// Extension seam: any IMatrixKernel implementation becomes an engine
  /// matrix (future backends register the same way the built-ins do).
  explicit AnyMatrix(std::shared_ptr<const IMatrixKernel> kernel)
      : kernel_(std::move(kernel)) {}

  /// Returns a matrix sharing `m`'s kernel that additionally retains
  /// `backing` for the kernel's lifetime. This is how zero-copy loads stay
  /// safe: a kernel deserialized with borrowed views over a mapped
  /// snapshot travels together with the mapping that backs it, so every
  /// copy of the handle keeps the bytes alive.
  static AnyMatrix WithKeepalive(AnyMatrix m,
                                 std::shared_ptr<const void> backing);

  /// Builds a backend from `dense` according to a spec string / parsed
  /// spec. Unknown families, variants or keys throw std::invalid_argument
  /// listing every registered spec. A BuildContext pool parallelizes the
  /// per-block / per-shard construction grain of the blocked and sharded
  /// families; pool and no-pool builds are byte-identical when saved.
  static AnyMatrix Build(const DenseMatrix& dense, const std::string& spec,
                         const BuildContext& ctx = {});
  static AnyMatrix Build(const DenseMatrix& dense, const MatrixSpec& spec,
                         const BuildContext& ctx = {});

  /// Sparse ingestion: builds from COO triplets. csr / csrv / gcm go
  /// through the dense-free pipeline of matrix/sparse_builder.hpp; the
  /// remaining backends stage a dense copy.
  static AnyMatrix Build(std::size_t rows, std::size_t cols,
                         std::vector<Triplet> entries,
                         const std::string& spec,
                         const BuildContext& ctx = {});
  static AnyMatrix Build(std::size_t rows, std::size_t cols,
                         std::vector<Triplet> entries, const MatrixSpec& spec,
                         const BuildContext& ctx = {});

  /// Adopts an already-built backend (takes ownership by move).
  static AnyMatrix Wrap(DenseMatrix matrix);
  static AnyMatrix Wrap(CsrMatrix matrix);
  static AnyMatrix Wrap(CsrIvMatrix matrix);
  static AnyMatrix Wrap(CsrvMatrix matrix);
  static AnyMatrix Wrap(GcMatrix matrix);
  static AnyMatrix Wrap(BlockedGcMatrix matrix);
  static AnyMatrix Wrap(ClaMatrix matrix);

  /// Non-owning view of an existing backend; the caller keeps `matrix`
  /// alive for the lifetime of the returned AnyMatrix (and its copies).
  /// Temporaries are rejected at compile time -- pass those to Wrap.
  static AnyMatrix Ref(const DenseMatrix& matrix);
  static AnyMatrix Ref(const CsrMatrix& matrix);
  static AnyMatrix Ref(const CsrIvMatrix& matrix);
  static AnyMatrix Ref(const CsrvMatrix& matrix);
  static AnyMatrix Ref(const GcMatrix& matrix);
  static AnyMatrix Ref(const BlockedGcMatrix& matrix);
  static AnyMatrix Ref(const ClaMatrix& matrix);
  static AnyMatrix Ref(DenseMatrix&&) = delete;
  static AnyMatrix Ref(CsrMatrix&&) = delete;
  static AnyMatrix Ref(CsrIvMatrix&&) = delete;
  static AnyMatrix Ref(CsrvMatrix&&) = delete;
  static AnyMatrix Ref(GcMatrix&&) = delete;
  static AnyMatrix Ref(BlockedGcMatrix&&) = delete;
  static AnyMatrix Ref(ClaMatrix&&) = delete;

  /// Every registered spec, one canonical buildable string per backend
  /// variant (the list error messages and conformance tests iterate).
  static std::vector<std::string> ListSpecs();

  /// Versioned binary snapshot persistence (encoding/snapshot.hpp): the
  /// backend's representation is written as-is -- a RePair grammar or rANS
  /// stream is never re-encoded, so Load skips the entire construction
  /// pipeline. Load dispatches on the stored spec tag through the same
  /// registry as Build; unknown tags throw std::invalid_argument listing
  /// every registered spec, corrupt payloads throw gcm::Error naming the
  /// offending section.
  void Save(const std::string& path) const;
  std::vector<u8> SaveSnapshotBytes() const;
  static AnyMatrix Load(const std::string& path);
  static AnyMatrix LoadSnapshotBytes(std::vector<u8> bytes);

  /// Loads from an already-parsed container -- the entry for callers that
  /// must inspect or checksum the raw bytes before deserializing (the
  /// sharded serving layer CRC-gates shard files against their manifest,
  /// then hands the reader here so a mapped file is borrowed, not
  /// re-read). The reader's backing travels with the returned handle;
  /// `origin_path` resolves store-manifest sibling files ("" when the
  /// bytes did not come from a file).
  static AnyMatrix LoadSnapshot(SnapshotReader in,
                                const std::string& origin_path = "");

  bool valid() const { return kernel_ != nullptr; }

  std::size_t rows() const;
  std::size_t cols() const;
  u64 CompressedBytes() const;
  std::string FormatTag() const;

  /// Allocation-free kernels; validate sizes and non-aliasing, then
  /// dispatch (gcm::Error on precondition violation).
  void MultiplyRightInto(std::span<const double> x, std::span<double> y,
                         const MulContext& ctx = {}) const;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x,
                        const MulContext& ctx = {}) const;

  /// Allocating conveniences over the *Into kernels.
  std::vector<double> MultiplyRight(std::span<const double> x,
                                    const MulContext& ctx = {}) const;
  std::vector<double> MultiplyLeft(std::span<const double> y,
                                   const MulContext& ctx = {}) const;

  /// Multi-vector kernels: one call answers k input vectors, amortizing
  /// grammar expansion across them. Right: X is cols x k, result rows x k. Left: X is k x rows,
  /// result k x cols. Vector j of the result is bitwise identical to the
  /// corresponding sequential single-vector call.
  DenseMatrix MultiplyRightMulti(const DenseMatrix& x,
                                 const MulContext& ctx = {}) const;
  DenseMatrix MultiplyLeftMulti(const DenseMatrix& x,
                                const MulContext& ctx = {}) const;

  DenseMatrix ToDense() const;

  const IMatrixKernel& kernel() const;

 private:
  std::shared_ptr<const IMatrixKernel> kernel_;
};

}  // namespace gcm
