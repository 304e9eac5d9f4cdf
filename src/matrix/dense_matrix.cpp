#include "matrix/dense_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "encoding/byte_stream.hpp"

namespace gcm {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols,
                         ArrayRef<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  GCM_CHECK_MSG(cols == 0 || rows <= std::numeric_limits<std::size_t>::max() /
                                         cols,
                "dense payload shape " << rows << "x" << cols
                                       << " overflows its entry count");
  GCM_CHECK_MSG(data_.size() == rows * cols,
                "dense payload has " << data_.size() << " entries, expected "
                                     << rows * cols);
}

void DenseMatrix::SerializeInto(ByteWriter* writer) const {
  writer->PutVarint(rows_);
  writer->PutVarint(cols_);
  writer->PutArray(data_);
}

DenseMatrix DenseMatrix::DeserializeFrom(ByteReader* reader) {
  std::size_t rows = reader->GetVarint();
  std::size_t cols = reader->GetVarint();
  // The DenseMatrix payload ctor re-validates size == rows*cols.
  return DenseMatrix(rows, cols, reader->GetArray<double>());
}

std::size_t DenseMatrix::CountNonZeros() const {
  return static_cast<std::size_t>(
      std::count_if(data_.begin(), data_.end(),
                    [](double v) { return v != 0.0; }));
}

std::vector<double> DenseMatrix::MultiplyRight(
    const std::vector<double>& x) const {
  std::vector<double> y(rows_);
  MultiplyRightInto(x, y);
  return y;
}

std::vector<double> DenseMatrix::MultiplyLeft(
    const std::vector<double>& y) const {
  std::vector<double> x(cols_);
  MultiplyLeftInto(y, x);
  return x;
}

void DenseMatrix::MultiplyRightInto(std::span<const double> x,
                                    std::span<double> y) const {
  GCM_CHECK_MSG(x.size() == cols_, "MultiplyRight: vector length "
                                       << x.size() << " != cols " << cols_);
  GCM_CHECK_MSG(y.size() == rows_, "MultiplyRight: output length "
                                       << y.size() << " != rows " << rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

void DenseMatrix::MultiplyLeftInto(std::span<const double> y,
                                   std::span<double> x) const {
  GCM_CHECK_MSG(y.size() == rows_, "MultiplyLeft: vector length "
                                       << y.size() << " != rows " << rows_);
  GCM_CHECK_MSG(x.size() == cols_, "MultiplyLeft: output length "
                                       << x.size() << " != cols " << cols_);
  std::fill(x.begin(), x.end(), 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    double scale = y[r];
    if (scale == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) x[c] += scale * row[c];
  }
}

DenseMatrix DenseMatrix::Transposed() const {
  DenseMatrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t.Set(c, r, At(r, c));
  }
  return t;
}

DenseMatrix DenseMatrix::WithColumnOrder(const std::vector<u32>& perm) const {
  GCM_CHECK_MSG(perm.size() == cols_,
                "column permutation has wrong length " << perm.size());
  DenseMatrix out(rows_, cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    GCM_CHECK_MSG(perm[j] < cols_, "column permutation index out of range");
    for (std::size_t r = 0; r < rows_; ++r) out.Set(r, j, At(r, perm[j]));
  }
  return out;
}

DenseMatrix DenseMatrix::RowSlice(std::size_t begin, std::size_t end) const {
  GCM_CHECK_MSG(begin <= end && end <= rows_, "invalid row slice");
  return DenseMatrix(
      end - begin, cols_,
      std::vector<double>(
          data_.begin() + static_cast<std::ptrdiff_t>(begin * cols_),
          data_.begin() + static_cast<std::ptrdiff_t>(end * cols_)));
}

DenseMatrix DenseMatrix::Random(std::size_t rows, std::size_t cols,
                                double density, std::size_t distinct_values,
                                Rng* rng) {
  GCM_CHECK(rng != nullptr);
  GCM_CHECK_MSG(density >= 0.0 && density <= 1.0, "density must be in [0,1]");
  std::vector<double> dictionary;
  if (distinct_values > 0) {
    dictionary.reserve(distinct_values);
    for (std::size_t i = 0; i < distinct_values; ++i) {
      // Small, distinct, round-ish values; i+1 scaled keeps them nonzero.
      dictionary.push_back(0.5 + static_cast<double>(i + 1) * 0.25);
    }
  }
  DenseMatrix matrix(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!rng->Chance(density)) continue;
      double value = distinct_values > 0
                         ? dictionary[rng->Below(distinct_values)]
                         : rng->NextGaussian() + 2.0;
      if (value == 0.0) value = 1.0;  // keep the entry a true non-zero
      matrix.Set(r, c, value);
    }
  }
  return matrix;
}

double DenseMatrix::MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  GCM_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.data_[i] - b.data_[i]));
  }
  return max_diff;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  GCM_CHECK(a.size() == b.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

double InfinityNorm(const std::vector<double>& v) {
  double norm = 0.0;
  for (double x : v) norm = std::max(norm, std::fabs(x));
  return norm;
}

}  // namespace gcm
