#include "matrix/matrix_io.hpp"

#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "encoding/snapshot.hpp"

namespace gcm {
namespace {

/// Binary containers this io stack once wrote and reads no more, keyed by
/// magic. Recognized only to reject them by name instead of a dense-text
/// parse error on binary garbage; snapshots replace all three.
struct RetiredFormat {
  u32 magic;
  const char* name;
};
constexpr RetiredFormat kRetiredFormats[] = {
    {0x314d4347, "legacy GCM1 compressed"},  // "GCM1", pre-snapshot builds
    {0x444d4347, "GCMD binary dense"},       // "GCMD"
    {0x534d4347, "GCMS binary CSRV"},        // "GCMS"
};

constexpr const char* kMatrixMarketBanner = "%%MatrixMarket";

}  // namespace

const char* MatrixFileKindName(MatrixFileKind kind) {
  switch (kind) {
    case MatrixFileKind::kSnapshot:
      return "snapshot";
    case MatrixFileKind::kMatrixMarket:
      return "matrix-market";
    case MatrixFileKind::kDenseText:
      return "dense-text";
  }
  return "?";
}

MatrixFileKind SniffMatrixFile(const std::string& path) {
  // Header-only peek: ReadFileHeader pulls at most 16 bytes, so sniffing
  // a multi-GB snapshot (or a store manifest) costs one tiny read -- the
  // dispatch target decides whether to map, stream or copy the rest. It
  // also rejects directories up front (a directory opens "successfully"
  // as an ifstream on POSIX) and an empty file is named here instead of
  // surfacing as a confusing dense-text missing-header error.
  std::vector<u8> head = ReadFileHeader(path);
  std::size_t got = head.size();
  GCM_CHECK_MSG(got > 0, path << " is empty (0 bytes); not a matrix file");
  if (got >= sizeof(u32)) {
    u32 magic;
    std::memcpy(&magic, head.data(), sizeof(magic));
    if (magic == kSnapshotMagic) return MatrixFileKind::kSnapshot;
    for (const RetiredFormat& retired : kRetiredFormats) {
      GCM_CHECK_MSG(magic != retired.magic,
                    path << " is a " << retired.name
                         << " file, a retired format; re-compress its "
                            "source with `mm_repair_cli compress` to get a "
                            "snapshot");
    }
  }
  if (got >= std::strlen(kMatrixMarketBanner) &&
      std::memcmp(head.data(), kMatrixMarketBanner,
                  std::strlen(kMatrixMarketBanner)) == 0) {
    return MatrixFileKind::kMatrixMarket;
  }
  return MatrixFileKind::kDenseText;
}

MatrixMarketData LoadMatrixMarket(const std::string& path) {
  std::ifstream in(path);
  GCM_CHECK_MSG(in.good(), "cannot open file: " << path);
  std::string banner;
  GCM_CHECK_MSG(static_cast<bool>(std::getline(in, banner)),
                "empty MatrixMarket file: " << path);
  std::istringstream header(banner);
  std::string tag, object, format, field, symmetry;
  header >> tag >> object >> format >> field >> symmetry;
  GCM_CHECK_MSG(tag == kMatrixMarketBanner,
                "not a MatrixMarket file: " << path);
  GCM_CHECK_MSG(object == "matrix" && format == "coordinate",
                path << ": only \"matrix coordinate\" MatrixMarket files are "
                        "supported, got \""
                     << object << ' ' << format << '"');
  GCM_CHECK_MSG(field == "real" || field == "integer" || field == "double",
                path << ": unsupported MatrixMarket field \"" << field
                     << "\" (need real/integer)");
  GCM_CHECK_MSG(symmetry == "general",
                path << ": only \"general\" symmetry is supported, got \""
                     << symmetry << '"');

  std::string line;
  // Comment lines ('%') may follow the banner; the first non-comment line
  // is the size header.
  std::size_t rows = 0, cols = 0, nonzeros = 0;
  for (;;) {
    GCM_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                  path << ": missing MatrixMarket size header");
    if (line.empty() || line[0] == '%') continue;
    std::istringstream sizes(line);
    GCM_CHECK_MSG(static_cast<bool>(sizes >> rows >> cols >> nonzeros),
                  path << ": malformed MatrixMarket size header \"" << line
                       << '"');
    break;
  }

  MatrixMarketData data;
  data.rows = rows;
  data.cols = cols;
  data.entries.reserve(nonzeros);
  for (std::size_t i = 0; i < nonzeros; ++i) {
    std::size_t r = 0, c = 0;
    double value = 0.0;
    GCM_CHECK_MSG(static_cast<bool>(in >> r >> c >> value),
                  path << ": truncated MatrixMarket body at entry " << i
                       << " of " << nonzeros);
    GCM_CHECK_MSG(r >= 1 && r <= rows && c >= 1 && c <= cols,
                  path << ": MatrixMarket entry " << i << " at (" << r << ", "
                       << c << ") outside " << rows << "x" << cols);
    data.entries.push_back({static_cast<u32>(r - 1), static_cast<u32>(c - 1),
                            value});
  }
  return data;
}

void SaveMatrixMarket(const DenseMatrix& matrix, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  GCM_CHECK_MSG(out.good(), "cannot create file: " << path);
  // max_digits10 keeps the text round-trip value-preserving (the default
  // 6 significant digits would silently perturb continuous-valued data).
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << kMatrixMarketBanner << " matrix coordinate real general\n";
  out << matrix.rows() << ' ' << matrix.cols() << ' '
      << matrix.CountNonZeros() << '\n';
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (std::size_t c = 0; c < matrix.cols(); ++c) {
      double v = matrix.At(r, c);
      if (v == 0.0) continue;
      out << (r + 1) << ' ' << (c + 1) << ' ' << v << '\n';
    }
  }
  GCM_CHECK_MSG(out.good(), "short write on file: " << path);
}

DenseMatrix LoadDenseText(const std::string& path) {
  std::ifstream in(path);
  GCM_CHECK_MSG(in.good(), "cannot open file: " << path);
  std::size_t rows = 0, cols = 0;
  GCM_CHECK_MSG(static_cast<bool>(in >> rows >> cols),
                "missing dimensions header in " << path);
  DenseMatrix matrix(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      double value;
      GCM_CHECK_MSG(static_cast<bool>(in >> value),
                    "truncated matrix body in " << path << " at row " << r);
      matrix.Set(r, c, value);
    }
  }
  return matrix;
}

void SaveDenseText(const DenseMatrix& matrix, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  GCM_CHECK_MSG(out.good(), "cannot create file: " << path);
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << matrix.rows() << " " << matrix.cols() << "\n";
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (std::size_t c = 0; c < matrix.cols(); ++c) {
      out << matrix.At(r, c) << (c + 1 == matrix.cols() ? '\n' : ' ');
    }
  }
  GCM_CHECK_MSG(out.good(), "short write on file: " << path);
}

}  // namespace gcm
