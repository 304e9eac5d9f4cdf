#include "core/any_matrix.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "baselines/cla/cla_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "core/format_advisor.hpp"
#include "core/gc_matrix.hpp"
#include "encoding/snapshot.hpp"
#include "matrix/csr.hpp"
#include "matrix/csrv.hpp"
#include "matrix/dense_matrix.hpp"
#include "matrix/sparse_builder.hpp"
#include "net/cluster/cluster_serving.hpp"
#include "serving/sharded_matrix.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

/// The engine-owned snapshot section (dims + size, written by Save and
/// cross-checked by Load before any payload is parsed).
constexpr const char* kMetaSection = "meta";

/// Snapshot payload section name of each backend type. GcMatrix and
/// BlockedGcMatrix use distinct names so the gcm loader can tell a single
/// block from a blocked container without trusting the spec parameters.
template <typename M>
constexpr const char* PayloadSectionName() {
  if constexpr (std::is_same_v<M, DenseMatrix>) return "dense";
  else if constexpr (std::is_same_v<M, CsrMatrix>) return "csr";
  else if constexpr (std::is_same_v<M, CsrIvMatrix>) return "csr_iv";
  else if constexpr (std::is_same_v<M, CsrvMatrix>) return "csrv";
  else if constexpr (std::is_same_v<M, GcMatrix>) return "gcm";
  else if constexpr (std::is_same_v<M, BlockedGcMatrix>) return "gcm_blocked";
  else {
    static_assert(std::is_same_v<M, ClaMatrix>, "unmapped backend type");
    return "cla";
  }
}

// ---------------------------------------------------------------------------
// Backend adapters
// ---------------------------------------------------------------------------

/// Matches backends whose *Into kernels take the worker pool directly
/// (BlockedGcMatrix, ClaMatrix); the rest run single-threaded per call.
template <typename M>
concept HasPoolInto = requires(const M& m, std::span<const double> in,
                               std::span<double> out, ThreadPool* pool) {
  m.MultiplyRightInto(in, out, pool);
};

/// Matches backends with native multi-vector kernels that amortize work
/// across the batch (GcMatrix / BlockedGcMatrix share one expansion of the
/// grammar for all k columns). The rest fall back to the per-vector loop
/// default, which preserves the bitwise-per-vector contract trivially.
template <typename M>
concept HasNativeMulti = requires(const M& m, const DenseMatrix& x,
                                  ThreadPool* pool) {
  m.MultiplyRightMulti(x, pool);
  m.MultiplyLeftMulti(x, pool);
};

template <typename M>
u64 BackendBytes(const M& m) {
  if constexpr (requires { m.CompressedBytes(); }) {
    return m.CompressedBytes();
  } else if constexpr (requires { m.SizeInBytes(); }) {
    return m.SizeInBytes();
  } else {
    return m.UncompressedBytes();
  }
}

template <typename M>
std::string BackendTag(const M& m) {
  if constexpr (std::is_same_v<M, DenseMatrix>) {
    return "dense";
  } else if constexpr (std::is_same_v<M, CsrMatrix>) {
    return "csr";
  } else if constexpr (std::is_same_v<M, CsrIvMatrix>) {
    return "csr_iv";
  } else if constexpr (std::is_same_v<M, CsrvMatrix>) {
    return "csrv";
  } else if constexpr (std::is_same_v<M, GcMatrix>) {
    return std::string("gcm:") + FormatName(m.format());
  } else if constexpr (std::is_same_v<M, BlockedGcMatrix>) {
    std::string tag = "gcm:";
    tag += m.block_count() > 0 ? FormatName(m.block(0).format()) : "re_32";
    tag += "?blocks=" + std::to_string(m.block_count());
    return tag;
  } else {
    static_assert(std::is_same_v<M, ClaMatrix>, "unmapped backend type");
    return "cla";
  }
}

/// One adapter class per backend type; owns the backend (Wrap) or views it
/// (Ref). Size/aliasing preconditions are validated by AnyMatrix before
/// dispatch, so adapters just forward.
template <typename M>
class KernelAdapter final : public IMatrixKernel {
 public:
  explicit KernelAdapter(M matrix)
      : owned_(std::make_unique<const M>(std::move(matrix))),
        matrix_(owned_.get()) {}
  explicit KernelAdapter(const M* matrix) : matrix_(matrix) {}

  std::size_t rows() const override { return matrix_->rows(); }
  std::size_t cols() const override { return matrix_->cols(); }
  u64 CompressedBytes() const override { return BackendBytes(*matrix_); }
  std::string FormatTag() const override { return BackendTag(*matrix_); }

  void MultiplyRightInto(std::span<const double> x, std::span<double> y,
                         const MulContext& ctx) const override {
    if constexpr (HasPoolInto<M>) {
      matrix_->MultiplyRightInto(x, y, ctx.pool);
    } else {
      matrix_->MultiplyRightInto(x, y);
    }
  }

  void MultiplyLeftInto(std::span<const double> y, std::span<double> x,
                        const MulContext& ctx) const override {
    if constexpr (HasPoolInto<M>) {
      matrix_->MultiplyLeftInto(y, x, ctx.pool);
    } else {
      matrix_->MultiplyLeftInto(y, x);
    }
  }

  void MultiplyRightMulti(const DenseMatrix& x, DenseMatrix* y,
                          const MulContext& ctx) const override {
    if constexpr (HasNativeMulti<M>) {
      *y = matrix_->MultiplyRightMulti(x, ctx.pool);
    } else {
      IMatrixKernel::MultiplyRightMulti(x, y, ctx);
    }
  }

  void MultiplyLeftMulti(const DenseMatrix& x, DenseMatrix* y,
                         const MulContext& ctx) const override {
    if constexpr (HasNativeMulti<M>) {
      *y = matrix_->MultiplyLeftMulti(x, ctx.pool);
    } else {
      IMatrixKernel::MultiplyLeftMulti(x, y, ctx);
    }
  }

  DenseMatrix ToDense() const override {
    if constexpr (std::is_same_v<M, DenseMatrix>) {
      return *matrix_;
    } else {
      return matrix_->ToDense();
    }
  }

  void SaveSections(SnapshotWriter* out) const override {
    // Payload sections are cache-line aligned in the file so a mapped
    // reader can borrow naturally-aligned arrays out of them.
    matrix_->SerializeInto(
        &out->BeginSection(PayloadSectionName<M>(), kPayloadSectionAlignment));
  }

 private:
  std::unique_ptr<const M> owned_;  ///< null for Ref adapters
  const M* matrix_;
};

template <typename M>
AnyMatrix MakeOwned(M matrix) {
  return AnyMatrix(std::make_shared<KernelAdapter<M>>(std::move(matrix)));
}

template <typename M>
AnyMatrix MakeRef(const M& matrix) {
  return AnyMatrix(std::make_shared<KernelAdapter<M>>(&matrix));
}

// ---------------------------------------------------------------------------
// Spec registry
// ---------------------------------------------------------------------------

struct SpecFamily {
  std::string_view name;
  /// Allowed :variant values; empty = the family takes no variant.
  std::vector<std::string_view> variants;
  /// Allowed ?key names.
  std::vector<std::string_view> keys;
  AnyMatrix (*build)(const DenseMatrix&, const MatrixSpec&,
                     const BuildContext&);
  /// Restores a matrix of this family from a snapshot; nullptr for
  /// families that never appear in snapshot headers ("auto" resolves to a
  /// concrete backend before Save runs). `origin_path` is the file the
  /// snapshot was read from ("" when loading from bytes); the sharded
  /// family resolves sibling shard files relative to it.
  AnyMatrix (*load)(const SnapshotReader&, const MatrixSpec&,
                    const std::string& origin_path);
};

/// Parses one backend payload section; every failure inside is rethrown
/// with the section name attached, so corruption reports say *where* the
/// file broke, not just how.
template <typename M>
M LoadPayloadMatrix(const SnapshotReader& in) {
  const char* section = PayloadSectionName<M>();
  ByteReader reader = in.OpenSection(section);
  try {
    M matrix = M::DeserializeFrom(&reader);
    GCM_CHECK_MSG(reader.AtEnd(), "trailing bytes");
    return matrix;
  } catch (const Error& e) {
    throw Error("snapshot section \"" + std::string(section) +
                "\" is corrupt: " + e.what());
  }
}

template <typename M>
AnyMatrix LoadPayloadSection(const SnapshotReader& in) {
  return AnyMatrix::Wrap(LoadPayloadMatrix<M>(in));
}

AnyMatrix BuildDenseSpec(const DenseMatrix& dense, const MatrixSpec&,
                         const BuildContext&) {
  return AnyMatrix::Wrap(DenseMatrix(dense));
}

AnyMatrix BuildCsrSpec(const DenseMatrix& dense, const MatrixSpec&,
                       const BuildContext&) {
  return AnyMatrix::Wrap(CsrMatrix::FromDense(dense));
}

AnyMatrix BuildCsrIvSpec(const DenseMatrix& dense, const MatrixSpec&,
                         const BuildContext&) {
  return AnyMatrix::Wrap(CsrIvMatrix::FromDense(dense));
}

AnyMatrix BuildCsrvSpec(const DenseMatrix& dense, const MatrixSpec&,
                        const BuildContext&) {
  return AnyMatrix::Wrap(CsrvMatrix::FromDense(dense));
}

GcBuildOptions GcOptionsFromSpec(const MatrixSpec& spec) {
  GcBuildOptions options;
  options.format =
      spec.variant.empty() ? GcFormat::kRe32 : FormatByName(spec.variant);
  options.fold_bits = static_cast<u32>(spec.GetSize("fold_bits", 12));
  options.max_rules = spec.GetSize("max_rules", 0);
  return options;
}

AnyMatrix BuildGcmSpec(const DenseMatrix& dense, const MatrixSpec& spec,
                       const BuildContext& ctx) {
  GcBuildOptions options = GcOptionsFromSpec(spec);
  std::size_t blocks = spec.GetSize("blocks", 1);
  if (blocks > 1) {
    return AnyMatrix::Wrap(
        BlockedGcMatrix::Build(dense, blocks, options, {}, ctx));
  }
  return AnyMatrix::Wrap(GcMatrix::FromDense(dense, options));
}

AnyMatrix BuildClaSpec(const DenseMatrix& dense, const MatrixSpec& spec,
                       const BuildContext&) {
  ClaOptions options;
  options.co_code = spec.GetBool("co_code", options.co_code);
  options.sample_rows = spec.GetSize("sample_rows", options.sample_rows);
  options.max_group_size =
      spec.GetSize("max_group_size", options.max_group_size);
  options.max_candidates =
      spec.GetSize("max_candidates", options.max_candidates);
  return AnyMatrix::Wrap(ClaMatrix::Compress(dense, options));
}

AnyMatrix BuildAutoSpec(const DenseMatrix& dense, const MatrixSpec& spec,
                        const BuildContext& ctx) {
  AdvisorConstraints constraints;
  constraints.memory_budget_bytes = spec.GetBytes("budget", 0);
  constraints.blocks = spec.GetSize("blocks", 1);
  constraints.sample_rows =
      spec.GetSize("sample_rows", constraints.sample_rows);
  return AdviseFormat(dense, constraints, nullptr, ctx);
}

AnyMatrix LoadDenseSnapshot(const SnapshotReader& in, const MatrixSpec&,
                            const std::string&) {
  return LoadPayloadSection<DenseMatrix>(in);
}

AnyMatrix LoadCsrSnapshot(const SnapshotReader& in, const MatrixSpec&,
                          const std::string&) {
  return LoadPayloadSection<CsrMatrix>(in);
}

AnyMatrix LoadCsrIvSnapshot(const SnapshotReader& in, const MatrixSpec&,
                            const std::string&) {
  return LoadPayloadSection<CsrIvMatrix>(in);
}

AnyMatrix LoadCsrvSnapshot(const SnapshotReader& in, const MatrixSpec&,
                           const std::string&) {
  return LoadPayloadSection<CsrvMatrix>(in);
}

AnyMatrix LoadGcmSnapshot(const SnapshotReader& in, const MatrixSpec&,
                          const std::string&) {
  if (in.HasSection(PayloadSectionName<BlockedGcMatrix>())) {
    return LoadPayloadSection<BlockedGcMatrix>(in);
  }
  return LoadPayloadSection<GcMatrix>(in);
}

AnyMatrix LoadClaSnapshot(const SnapshotReader& in, const MatrixSpec&,
                          const std::string&) {
  return LoadPayloadSection<ClaMatrix>(in);
}

const std::vector<SpecFamily>& Registry() {
  static const std::vector<SpecFamily> registry = {
      {"dense", {}, {}, &BuildDenseSpec, &LoadDenseSnapshot},
      {"csr", {}, {}, &BuildCsrSpec, &LoadCsrSnapshot},
      {"csr_iv", {}, {}, &BuildCsrIvSpec, &LoadCsrIvSnapshot},
      {"csrv", {}, {}, &BuildCsrvSpec, &LoadCsrvSnapshot},
      {"gcm",
       {"csrv", "re_32", "re_iv", "re_ans"},
       {"blocks", "fold_bits", "max_rules"},
       &BuildGcmSpec,
       &LoadGcmSnapshot},
      {"cla",
       {},
       {"co_code", "sample_rows", "max_group_size", "max_candidates"},
       &BuildClaSpec,
       &LoadClaSnapshot},
      {"sharded",
       {},
       {"inner", "rows_per_shard", "shards", "target_bytes"},
       &BuildShardedFromSpec,
       &LoadShardedFromSnapshot},
      {"cluster",
       {},
       {"inner", "manifest", "replicas", "rows_per_shard", "shards",
        "workers"},
       &BuildClusterFromSpec,
       &LoadClusterFromSnapshot},
      {"auto", {}, {"budget", "blocks", "sample_rows"},
       &BuildAutoSpec, nullptr},
  };
  return registry;
}

std::string RegisteredSpecsSuffix() {
  std::ostringstream os;
  os << " (registered specs:";
  for (const std::string& spec : AnyMatrix::ListSpecs()) os << ' ' << spec;
  os << ')';
  return os.str();
}

/// Resolves the family and rejects unknown families, variants and keys;
/// every error lists the full registered-spec set.
const SpecFamily& ValidateSpec(const MatrixSpec& spec) {
  const SpecFamily* family = nullptr;
  for (const SpecFamily& candidate : Registry()) {
    if (spec.family == candidate.name) {
      family = &candidate;
      break;
    }
  }
  if (family == nullptr) {
    throw std::invalid_argument("unknown matrix spec family \"" +
                                spec.family + "\"" + RegisteredSpecsSuffix());
  }
  if (!spec.variant.empty() &&
      std::find(family->variants.begin(), family->variants.end(),
                spec.variant) == family->variants.end()) {
    throw std::invalid_argument("unknown variant \"" + spec.variant +
                                "\" for spec family \"" + spec.family + "\"" +
                                RegisteredSpecsSuffix());
  }
  for (const auto& [key, value] : spec.params) {
    if (std::find(family->keys.begin(), family->keys.end(), key) ==
        family->keys.end()) {
      std::ostringstream os;
      os << "unknown key \"" << key << "\" for spec family \"" << spec.family
         << '"';
      if (family->keys.empty()) {
        os << " (the family takes no keys)";
      } else {
        os << " (allowed:";
        for (std::string_view allowed : family->keys) os << ' ' << allowed;
        os << ')';
      }
      os << RegisteredSpecsSuffix();
      throw std::invalid_argument(os.str());
    }
  }
  return *family;
}

void CheckNoOverlap(std::span<const double> in, std::span<const double> out,
                    const char* what) {
  if (in.empty() || out.empty()) return;
  std::less_equal<const double*> le;
  bool disjoint =
      le(in.data() + in.size(), out.data()) ||
      le(out.data() + out.size(), in.data());
  GCM_CHECK_MSG(disjoint, what << ": input and output spans overlap");
}

}  // namespace

// ---------------------------------------------------------------------------
// MatrixSpec
// ---------------------------------------------------------------------------

MatrixSpec MatrixSpec::Parse(const std::string& spec) {
  MatrixSpec out;
  std::string head = spec;
  std::string query;
  if (std::size_t q = spec.find('?'); q != std::string::npos) {
    head = spec.substr(0, q);
    query = spec.substr(q + 1);
  }
  if (std::size_t colon = head.find(':'); colon != std::string::npos) {
    out.family = head.substr(0, colon);
    out.variant = head.substr(colon + 1);
    if (out.variant.empty()) {
      throw std::invalid_argument("matrix spec \"" + spec +
                                  "\" has an empty variant after ':'");
    }
  } else {
    out.family = head;
  }
  if (out.family.empty()) {
    throw std::invalid_argument("matrix spec \"" + spec +
                                "\" has an empty family name");
  }
  std::size_t start = 0;
  while (start < query.size()) {
    std::size_t amp = query.find('&', start);
    std::string pair = query.substr(
        start, amp == std::string::npos ? std::string::npos : amp - start);
    if (!pair.empty()) {
      std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
        throw std::invalid_argument("matrix spec \"" + spec +
                                    "\": malformed key=value pair \"" + pair +
                                    '"');
      }
      std::string key = pair.substr(0, eq);
      if (out.params.count(key) != 0) {
        throw std::invalid_argument("matrix spec \"" + spec +
                                    "\": duplicate key \"" + key + '"');
      }
      out.params.emplace(std::move(key), pair.substr(eq + 1));
    }
    if (amp == std::string::npos) break;
    start = amp + 1;
  }
  return out;
}

std::string MatrixSpec::ToString() const {
  std::string out = family;
  if (!variant.empty()) out += ':' + variant;
  bool first = true;
  for (const auto& [key, value] : params) {
    out += first ? '?' : '&';
    out += key + '=' + value;
    first = false;
  }
  return out;
}

std::string StoredSpecTag(const std::string& tag) {
  if (tag.find("rule_cache=") == std::string::npos) return tag;
  MatrixSpec spec = MatrixSpec::Parse(tag);
  spec.params.erase("rule_cache");
  return spec.ToString();
}

namespace {

/// Parses the leading digit run of `value`; returns the count of consumed
/// characters (0 = no leading digits, which also rejects the "-1" that
/// std::stoull would silently wrap).
std::size_t ParseLeadingDigits(const std::string& value,
                               unsigned long long* parsed) {
  std::size_t consumed = 0;
  if (value.empty() ||
      !std::isdigit(static_cast<unsigned char>(value.front()))) {
    return 0;
  }
  try {
    *parsed = std::stoull(value, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  return consumed;
}

}  // namespace

std::size_t MatrixSpec::GetSize(const std::string& key,
                                std::size_t fallback) const {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  const std::string& value = it->second;
  unsigned long long parsed = 0;
  if (ParseLeadingDigits(value, &parsed) != value.size()) {
    throw std::invalid_argument("spec key \"" + key +
                                "\": expected a non-negative integer, got \"" +
                                value + '"');
  }
  return static_cast<std::size_t>(parsed);
}

bool MatrixSpec::GetBool(const std::string& key, bool fallback) const {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  const std::string& value = it->second;
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  throw std::invalid_argument("spec key \"" + key +
                              "\": expected 0/1/true/false, got \"" + value +
                              '"');
}

u64 MatrixSpec::GetBytes(const std::string& key, u64 fallback) const {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  const std::string& value = it->second;
  unsigned long long parsed = 0;
  std::size_t consumed = ParseLeadingDigits(value, &parsed);
  std::string suffix = value.substr(consumed);
  u64 unit = 0;
  if (consumed != 0) {
    if (suffix.empty() || suffix == "B") unit = 1;
    if (suffix == "KB") unit = 1000ULL;
    if (suffix == "MB") unit = 1000ULL * 1000;
    if (suffix == "GB") unit = 1000ULL * 1000 * 1000;
    if (suffix == "KiB") unit = 1024ULL;
    if (suffix == "MiB") unit = 1024ULL * 1024;
    if (suffix == "GiB") unit = 1024ULL * 1024 * 1024;
  }
  if (unit == 0) {
    throw std::invalid_argument(
        "spec key \"" + key +
        "\": expected a byte size like 64MiB (suffixes: B KB MB GB KiB MiB "
        "GiB), got \"" +
        value + '"');
  }
  return static_cast<u64>(parsed) * unit;
}

// ---------------------------------------------------------------------------
// AnyMatrix
// ---------------------------------------------------------------------------

AnyMatrix AnyMatrix::Build(const DenseMatrix& dense, const std::string& spec,
                           const BuildContext& ctx) {
  return Build(dense, MatrixSpec::Parse(spec), ctx);
}

AnyMatrix AnyMatrix::Build(const DenseMatrix& dense, const MatrixSpec& spec,
                           const BuildContext& ctx) {
  const SpecFamily& family = ValidateSpec(spec);
  return family.build(dense, spec, ctx);
}

AnyMatrix AnyMatrix::Build(std::size_t rows, std::size_t cols,
                           std::vector<Triplet> entries,
                           const std::string& spec, const BuildContext& ctx) {
  return Build(rows, cols, std::move(entries), MatrixSpec::Parse(spec), ctx);
}

AnyMatrix AnyMatrix::Build(std::size_t rows, std::size_t cols,
                           std::vector<Triplet> entries,
                           const MatrixSpec& spec, const BuildContext& ctx) {
  ValidateSpec(spec);
  // Dense-free ingestion where the backend supports it (the paper's
  // matrices would not survive dense staging at full scale).
  if (spec.family == "csr") {
    return Wrap(CsrFromTriplets(rows, cols, std::move(entries)));
  }
  if (spec.family == "csrv") {
    return Wrap(CsrvFromTriplets(rows, cols, std::move(entries)));
  }
  if (spec.family == "gcm") {
    GcBuildOptions options = GcOptionsFromSpec(spec);
    std::size_t blocks = spec.GetSize("blocks", 1);
    if (blocks > 1) {
      return Wrap(BlockedGcMatrix::FromCsrv(
          CsrvFromTriplets(rows, cols, std::move(entries)), blocks, options,
          ctx));
    }
    return Wrap(
        GcMatrix::FromTriplets(rows, cols, std::move(entries), options));
  }
  if (spec.family == "sharded") {
    // Buckets triplets per row range; each bucket reuses the inner spec's
    // own (possibly dense-free) ingestion pipeline.
    return BuildShardedFromTriplets(rows, cols, std::move(entries), spec,
                                    ctx);
  }
  // Remaining backends compress from a dense staging copy (CsrFromTriplets
  // also applies the triplet validation rules first).
  return Build(CsrFromTriplets(rows, cols, std::move(entries)).ToDense(),
               spec, ctx);
}

AnyMatrix AnyMatrix::Wrap(DenseMatrix matrix) {
  return MakeOwned(std::move(matrix));
}
AnyMatrix AnyMatrix::Wrap(CsrMatrix matrix) {
  return MakeOwned(std::move(matrix));
}
AnyMatrix AnyMatrix::Wrap(CsrIvMatrix matrix) {
  return MakeOwned(std::move(matrix));
}
AnyMatrix AnyMatrix::Wrap(CsrvMatrix matrix) {
  return MakeOwned(std::move(matrix));
}
AnyMatrix AnyMatrix::Wrap(GcMatrix matrix) {
  return MakeOwned(std::move(matrix));
}
AnyMatrix AnyMatrix::Wrap(BlockedGcMatrix matrix) {
  return MakeOwned(std::move(matrix));
}
AnyMatrix AnyMatrix::Wrap(ClaMatrix matrix) {
  return MakeOwned(std::move(matrix));
}

AnyMatrix AnyMatrix::Ref(const DenseMatrix& matrix) { return MakeRef(matrix); }
AnyMatrix AnyMatrix::Ref(const CsrMatrix& matrix) { return MakeRef(matrix); }
AnyMatrix AnyMatrix::Ref(const CsrIvMatrix& matrix) {
  return MakeRef(matrix);
}
AnyMatrix AnyMatrix::Ref(const CsrvMatrix& matrix) { return MakeRef(matrix); }
AnyMatrix AnyMatrix::Ref(const GcMatrix& matrix) { return MakeRef(matrix); }
AnyMatrix AnyMatrix::Ref(const BlockedGcMatrix& matrix) {
  return MakeRef(matrix);
}
AnyMatrix AnyMatrix::Ref(const ClaMatrix& matrix) { return MakeRef(matrix); }

// ---------------------------------------------------------------------------
// Snapshot persistence
// ---------------------------------------------------------------------------

void IMatrixKernel::SaveSections(SnapshotWriter*) const {
  throw Error("backend \"" + FormatTag() +
              "\" does not implement snapshot serialization");
}

std::vector<u8> AnyMatrix::SaveSnapshotBytes() const {
  const IMatrixKernel& k = kernel();
  SnapshotWriter out(k.FormatTag());
  ByteWriter& meta = out.BeginSection(kMetaSection);
  meta.PutVarint(k.rows());
  meta.PutVarint(k.cols());
  meta.Put<u64>(k.CompressedBytes());
  k.SaveSections(&out);
  return out.Finish();
}

void AnyMatrix::Save(const std::string& path) const {
  WriteFileBytes(path, SaveSnapshotBytes());
}

namespace {

/// Shared load path; `origin_path` is "" when the snapshot arrived as a
/// byte buffer (the sharded family needs the path to find sibling shard
/// files). The reader's backing (heap buffer or file mapping) is attached
/// to the returned handle, so deserializers are free to borrow from it.
AnyMatrix LoadSnapshotImpl(SnapshotReader in,
                           const std::string& origin_path) {
  in.EnableZeroCopy();
  MatrixSpec spec = MatrixSpec::Parse(StoredSpecTag(in.spec()));
  const SpecFamily& family = ValidateSpec(spec);
  if (family.load == nullptr) {
    throw std::invalid_argument("snapshot spec \"" + in.spec() +
                                "\" is not a storable backend" +
                                RegisteredSpecsSuffix());
  }

  std::size_t meta_rows = 0;
  std::size_t meta_cols = 0;
  try {
    ByteReader meta = in.OpenSection(kMetaSection);
    meta_rows = meta.GetVarint();
    meta_cols = meta.GetVarint();
    meta.Get<u64>();  // compressed bytes; informational
    GCM_CHECK_MSG(meta.AtEnd(), "trailing bytes");
  } catch (const Error& e) {
    throw Error("snapshot section \"" + std::string(kMetaSection) +
                "\" is corrupt: " + e.what());
  }

  AnyMatrix loaded = family.load(in, spec, origin_path);
  GCM_CHECK_MSG(loaded.rows() == meta_rows && loaded.cols() == meta_cols,
                "snapshot payload is a " << loaded.rows() << "x"
                                         << loaded.cols()
                                         << " matrix but the meta section "
                                            "declares "
                                         << meta_rows << "x" << meta_cols);
  return AnyMatrix::WithKeepalive(std::move(loaded), in.backing());
}

}  // namespace

AnyMatrix AnyMatrix::WithKeepalive(AnyMatrix m,
                                   std::shared_ptr<const void> backing) {
  if (backing == nullptr || !m.valid()) return m;
  struct Keepalive {
    std::shared_ptr<const IMatrixKernel> kernel;
    std::shared_ptr<const void> backing;
  };
  auto holder = std::make_shared<Keepalive>(
      Keepalive{std::move(m.kernel_), std::move(backing)});
  // Aliasing constructor: the handle points at the kernel but owns the
  // {kernel, backing} pair, so the mapping outlives every borrow in it.
  return AnyMatrix(
      std::shared_ptr<const IMatrixKernel>(holder, holder->kernel.get()));
}

AnyMatrix AnyMatrix::LoadSnapshotBytes(std::vector<u8> bytes) {
  return LoadSnapshotImpl(SnapshotReader(std::move(bytes)), "");
}

AnyMatrix AnyMatrix::LoadSnapshot(SnapshotReader in,
                                  const std::string& origin_path) {
  return LoadSnapshotImpl(std::move(in), origin_path);
}

AnyMatrix AnyMatrix::Load(const std::string& path) {
  try {
    // FromFile maps the file when it can: payload arrays are borrowed
    // straight from the mapping and pages fault in on first touch.
    return LoadSnapshotImpl(SnapshotReader::FromFile(path), path);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  } catch (const std::invalid_argument& e) {
    // Unknown/unstorable spec tags keep their type (callers distinguish
    // bad-spec from corruption) but must still name the file.
    throw std::invalid_argument(path + ": " + e.what());
  }
}

std::vector<std::string> AnyMatrix::ListSpecs() {
  std::vector<std::string> specs;
  for (const SpecFamily& family : Registry()) {
    if (family.variants.empty()) {
      specs.emplace_back(family.name);
      continue;
    }
    for (std::string_view variant : family.variants) {
      specs.push_back(std::string(family.name) + ':' + std::string(variant));
    }
  }
  return specs;
}

const IMatrixKernel& AnyMatrix::kernel() const {
  GCM_CHECK_MSG(kernel_ != nullptr, "operation on an empty AnyMatrix");
  return *kernel_;
}

std::size_t AnyMatrix::rows() const { return kernel().rows(); }
std::size_t AnyMatrix::cols() const { return kernel().cols(); }
u64 AnyMatrix::CompressedBytes() const { return kernel().CompressedBytes(); }
std::string AnyMatrix::FormatTag() const { return kernel().FormatTag(); }

void AnyMatrix::MultiplyRightInto(std::span<const double> x,
                                  std::span<double> y,
                                  const MulContext& ctx) const {
  const IMatrixKernel& k = kernel();
  GCM_CHECK_MSG(x.size() == k.cols(), "MultiplyRightInto: input has "
                                          << x.size() << " entries, expected "
                                          << k.cols());
  GCM_CHECK_MSG(y.size() == k.rows(), "MultiplyRightInto: output has "
                                          << y.size() << " entries, expected "
                                          << k.rows());
  CheckNoOverlap(x, y, "MultiplyRightInto");
  k.MultiplyRightInto(x, y, ctx);
}

void AnyMatrix::MultiplyLeftInto(std::span<const double> y,
                                 std::span<double> x,
                                 const MulContext& ctx) const {
  const IMatrixKernel& k = kernel();
  GCM_CHECK_MSG(y.size() == k.rows(), "MultiplyLeftInto: input has "
                                          << y.size() << " entries, expected "
                                          << k.rows());
  GCM_CHECK_MSG(x.size() == k.cols(), "MultiplyLeftInto: output has "
                                          << x.size() << " entries, expected "
                                          << k.cols());
  CheckNoOverlap(y, x, "MultiplyLeftInto");
  k.MultiplyLeftInto(y, x, ctx);
}

std::vector<double> AnyMatrix::MultiplyRight(std::span<const double> x,
                                             const MulContext& ctx) const {
  std::vector<double> y(rows());
  MultiplyRightInto(x, y, ctx);
  return y;
}

std::vector<double> AnyMatrix::MultiplyLeft(std::span<const double> y,
                                            const MulContext& ctx) const {
  std::vector<double> x(cols());
  MultiplyLeftInto(y, x, ctx);
  return x;
}

// Default multi-vector kernels: one sequential single-vector call per input
// vector. Deliberately *not* pool-parallel across vectors -- forwarding the
// context unchanged keeps vector j's result bitwise identical to the same
// single-vector call the batching server would have issued without
// coalescing, which is the contract its correctness tests pin down.
void IMatrixKernel::MultiplyRightMulti(const DenseMatrix& x, DenseMatrix* y,
                                       const MulContext& ctx) const {
  const std::size_t k = x.cols();
  std::vector<double> in(cols());
  std::vector<double> out(rows());
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t c = 0; c < cols(); ++c) in[c] = x.At(c, j);
    MultiplyRightInto(in, out, ctx);
    for (std::size_t r = 0; r < rows(); ++r) y->Set(r, j, out[r]);
  }
}

void IMatrixKernel::MultiplyLeftMulti(const DenseMatrix& x, DenseMatrix* y,
                                      const MulContext& ctx) const {
  const std::size_t k = x.rows();
  std::vector<double> in(rows());
  std::vector<double> out(cols());
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t r = 0; r < rows(); ++r) in[r] = x.At(j, r);
    MultiplyLeftInto(in, out, ctx);
    for (std::size_t c = 0; c < cols(); ++c) y->Set(j, c, out[c]);
  }
}

DenseMatrix AnyMatrix::MultiplyRightMulti(const DenseMatrix& x,
                                          const MulContext& ctx) const {
  const IMatrixKernel& k = kernel();
  GCM_CHECK_MSG(x.rows() == k.cols(), "MultiplyRightMulti: input has "
                                          << x.rows() << " rows, expected "
                                          << k.cols());
  DenseMatrix y(k.rows(), x.cols());
  k.MultiplyRightMulti(x, &y, ctx);
  return y;
}

DenseMatrix AnyMatrix::MultiplyLeftMulti(const DenseMatrix& x,
                                         const MulContext& ctx) const {
  const IMatrixKernel& k = kernel();
  GCM_CHECK_MSG(x.cols() == k.rows(), "MultiplyLeftMulti: input has "
                                          << x.cols() << " cols, expected "
                                          << k.rows());
  DenseMatrix y(x.rows(), k.cols());
  k.MultiplyLeftMulti(x, &y, ctx);
  return y;
}

DenseMatrix AnyMatrix::ToDense() const { return kernel().ToDense(); }

}  // namespace gcm
