#include "encoding/int_vector.hpp"

#include <algorithm>
#include <limits>

namespace gcm {

IntVector IntVector::Pack(const std::vector<u64>& values) {
  u64 max_value = 0;
  for (u64 v : values) max_value = std::max(max_value, v);
  IntVector packed(values.size(), BitWidth(max_value));
  for (std::size_t i = 0; i < values.size(); ++i) packed.Set(i, values[i]);
  return packed;
}

IntVector IntVector::Pack(const std::vector<u32>& values) {
  u32 max_value = 0;
  for (u32 v : values) max_value = std::max(max_value, v);
  IntVector packed(values.size(), BitWidth(max_value));
  for (std::size_t i = 0; i < values.size(); ++i) packed.Set(i, values[i]);
  return packed;
}

std::vector<u64> IntVector::ToVector() const {
  std::vector<u64> out(size_);
  for (std::size_t i = 0; i < size_; ++i) out[i] = Get(i);
  return out;
}

void IntVector::RestoreFrom(std::size_t size, u32 width,
                            ArrayRef<u64> words) {
  GCM_CHECK_MSG(width >= 1 && width <= 64, "invalid IntVector width");
  GCM_CHECK_MSG(size <= std::numeric_limits<u64>::max() / width,
                "IntVector of " << size << " " << width
                                << "-bit entries overflows its bit count");
  GCM_CHECK_MSG(words.size() == CeilDiv(static_cast<u64>(size) * width, 64),
                "IntVector word payload does not match size/width");
  width_ = width;
  size_ = size;
  words_ = std::move(words);
}

}  // namespace gcm
