// Engine-level front door for matrix files.
//
// LoadAuto opens every format the io stack reads -- AnyMatrix snapshot,
// MatrixMarket coordinate text, or whitespace dense text -- by sniffing
// the leading bytes, and returns the stored representation behind the
// engine API. Retired binary containers are rejected by name (see
// SniffMatrixFile). Examples and tools call this instead of hard-coding a
// reader, so a compressed snapshot and a raw text matrix are
// interchangeable inputs:
//
//    AnyMatrix m = LoadAuto(argv[1]);       // whatever the file holds
//    m.MultiplyRightInto(x, y, {&pool});
//
// The mapping is value-preserving, not re-encoding: a snapshot yields its
// stored backend as-is (no recompression), dense text stays dense, and
// MatrixMarket -- a sparse format -- ingests as CSR without staging a
// dense copy.
#pragma once

#include <string>

#include "core/any_matrix.hpp"
#include "matrix/matrix_io.hpp"

namespace gcm {

AnyMatrix LoadAuto(const std::string& path);

}  // namespace gcm
