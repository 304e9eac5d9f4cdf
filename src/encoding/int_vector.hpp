// Bit-packed integer array, equivalent to sdsl-lite's int_vector<0>.
//
// The paper's `re_iv` variant stores the RePair output sequences C and R as
// packed arrays with entries of w = 1 + floor(log2(N_max)) bits. This class
// provides exactly that: a fixed-width (1..64 bit) array stored in a
// contiguous 64-bit word buffer, with O(1) random get/set that may straddle
// a word boundary.
#pragma once

#include <cstddef>
#include <vector>

#include "encoding/bit_ops.hpp"
#include "util/array_ref.hpp"
#include "util/check.hpp"
#include "util/common.hpp"

namespace gcm {

class IntVector {
 public:
  /// Empty vector with entries of `width` bits (1..64).
  explicit IntVector(u32 width = 32) : width_(width) {
    GCM_CHECK_MSG(width >= 1 && width <= 64,
                  "IntVector width must be in [1,64], got " << width);
  }

  /// Vector of `size` zero entries of `width` bits.
  IntVector(std::size_t size, u32 width) : IntVector(width) { Resize(size); }

  /// Builds a packed copy of `values` with width = BitWidth(max value).
  static IntVector Pack(const std::vector<u64>& values);

  /// Builds a packed copy of a 32-bit sequence (common case: RePair output).
  static IntVector Pack(const std::vector<u32>& values);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  u32 width() const { return width_; }

  /// Heap bytes of the packed payload (what counts as "compressed size").
  u64 SizeInBytes() const { return words_.size() * sizeof(u64); }

  void Resize(std::size_t size) {
    size_ = size;
    words_ = std::vector<u64>(CeilDiv(static_cast<u64>(size) * width_, 64), 0);
  }

  /// Reads entry i. Bounds-checked in debug/sanitizer builds only (hot
  /// path): an out-of-range index in Release is UB, so the DCHECK tier is
  /// exactly where this contract belongs.
  u64 Get(std::size_t i) const {
    GCM_DCHECK_BOUNDS(i, size_);
    u64 bit = static_cast<u64>(i) * width_;
    std::size_t word = bit >> 6;
    u32 offset = bit & 63;
    GCM_DCHECK_BOUNDS(word, words_.size());
    u64 value = words_[word] >> offset;
    if (offset + width_ > 64) {
      GCM_DCHECK_BOUNDS(word + 1, words_.size());
      value |= words_[word + 1] << (64 - offset);
    }
    return value & LowMask(width_);
  }

  /// Writes entry i. `value` must fit in width() bits. Materializes owned
  /// storage when the payload is a borrowed snapshot view.
  void Set(std::size_t i, u64 value) {
    GCM_DCHECK_BOUNDS(i, size_);
    GCM_DCHECK_MSG((value & ~LowMask(width_)) == 0,
                   "value " << value << " does not fit in " << width_
                            << " bits");
    u64* words = words_.EnsureOwned();
    u64 bit = static_cast<u64>(i) * width_;
    std::size_t word = bit >> 6;
    u32 offset = bit & 63;
    GCM_DCHECK_BOUNDS(word, words_.size());
    words[word] =
        (words[word] & ~(LowMask(width_) << offset)) | (value << offset);
    if (offset + width_ > 64) {
      GCM_DCHECK_BOUNDS(word + 1, words_.size());
      u32 spill = offset + width_ - 64;
      words[word + 1] =
          (words[word + 1] & ~LowMask(spill)) | (value >> (64 - offset));
    }
  }

  u64 operator[](std::size_t i) const { return Get(i); }

  /// Unpacks the whole array (tests / debugging).
  std::vector<u64> ToVector() const;

  bool operator==(const IntVector& other) const {
    if (size_ != other.size_ || width_ != other.width_) return false;
    for (std::size_t i = 0; i < size_; ++i) {
      if (Get(i) != other.Get(i)) return false;
    }
    return true;
  }

  /// Raw word storage, for serialization. Borrowed (a view over a mapped
  /// snapshot) when restored through a zero-copy load, owned otherwise.
  const ArrayRef<u64>& words() const { return words_; }
  void RestoreFrom(std::size_t size, u32 width, ArrayRef<u64> words);

 private:
  u32 width_;
  std::size_t size_ = 0;
  ArrayRef<u64> words_;
};

}  // namespace gcm
