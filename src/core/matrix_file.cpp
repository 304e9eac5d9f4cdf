#include "core/matrix_file.hpp"

#include "matrix/csr.hpp"
#include "matrix/sparse_builder.hpp"

namespace gcm {

AnyMatrix LoadAuto(const std::string& path) {
  switch (SniffMatrixFile(path)) {
    case MatrixFileKind::kSnapshot:
      return AnyMatrix::Load(path);
    case MatrixFileKind::kMatrixMarket: {
      MatrixMarketData data = LoadMatrixMarket(path);
      return AnyMatrix::Wrap(
          CsrFromTriplets(data.rows, data.cols, std::move(data.entries)));
    }
    case MatrixFileKind::kDenseText:
      return AnyMatrix::Wrap(LoadDenseText(path));
  }
  throw Error("unreachable: unhandled matrix file kind for " + path);
}

}  // namespace gcm
