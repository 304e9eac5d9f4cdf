// Container-level matrix file formats and format sniffing.
//
// This is the format-neutral floor of the io stack. The binary container
// is the AnyMatrix snapshot (encoding/snapshot.hpp), parsed by the engine;
// the readers/writers here handle the two text interchange formats users
// bring (MatrixMarket coordinate text, whitespace dense text), with
// bounds-checked parsing so corrupt or truncated files fail loudly
// (exercised by the failure-injection tests). SniffMatrixFile tells the
// formats apart by magic / leading bytes and rejects the retired binary
// containers by name; the engine-level front door (core/matrix_file.hpp
// LoadAuto) builds on it to open any supported file without the caller
// hard-coding a reader.
#pragma once

#include <string>
#include <vector>

#include "matrix/dense_matrix.hpp"
#include "matrix/sparse_builder.hpp"

namespace gcm {

/// Every format the io stack can open. Snapshots are parsed by the
/// engine (core/any_matrix.hpp); the rest by the readers below.
enum class MatrixFileKind {
  kSnapshot,      ///< "GCSN" AnyMatrix snapshot (encoding/snapshot.hpp)
  kMatrixMarket,  ///< "%%MatrixMarket" coordinate text
  kDenseText,     ///< "rows cols" header + whitespace values
};

const char* MatrixFileKindName(MatrixFileKind kind);

/// Identifies a file by its magic number / leading bytes. Unknown binary
/// content falls through to kDenseText (whose parser then reports the
/// offending token). Throws gcm::Error when the file cannot be opened or
/// carries the magic of a retired binary container (the message names the
/// format and says to re-compress its source with `mm_repair_cli
/// compress`).
MatrixFileKind SniffMatrixFile(const std::string& path);

/// MatrixMarket coordinate format ("%%MatrixMarket matrix coordinate real
/// general"), the interchange format of the paper's evaluation datasets.
/// Indices are 1-based on disk, 0-based in the returned triplets.
struct MatrixMarketData {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<Triplet> entries;
};
MatrixMarketData LoadMatrixMarket(const std::string& path);
void SaveMatrixMarket(const DenseMatrix& matrix, const std::string& path);

/// Text format: first line "rows cols", then rows lines of cols values.
/// Intended for the examples and small hand-written fixtures.
DenseMatrix LoadDenseText(const std::string& path);
void SaveDenseText(const DenseMatrix& matrix, const std::string& path);

}  // namespace gcm
