#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>

namespace perfbench {
namespace {

std::string SizeMismatch(std::size_t got, std::size_t want) {
  std::ostringstream os;
  os << "length " << got << " != expected " << want;
  return os.str();
}

}  // namespace

std::string CheckBitwise(std::span<const double> got,
                         std::span<const double> want) {
  if (got.size() != want.size()) return SizeMismatch(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &got[i], sizeof a);
    std::memcpy(&b, &want[i], sizeof b);
    if (a != b) {
      std::ostringstream os;
      os.precision(17);
      os << "entry " << i << ": " << got[i] << " != expected " << want[i]
         << " (bitwise)";
      return os.str();
    }
  }
  return {};
}

std::string CheckRelative(std::span<const double> got,
                          std::span<const double> want, double rel_tol) {
  if (got.size() != want.size()) return SizeMismatch(got.size(), want.size());
  double scale = std::numeric_limits<double>::min();
  for (double v : want) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double diff = std::abs(got[i] - want[i]);
    if (!(diff <= rel_tol * scale)) {  // also rejects NaN
      std::ostringstream os;
      os.precision(17);
      os << "entry " << i << ": " << got[i] << " vs expected " << want[i]
         << " differs by " << diff / scale << " relative (tolerance "
         << rel_tol << ")";
      return os.str();
    }
  }
  return {};
}

}  // namespace perfbench
