// Bounds-checked binary serialization streams.
//
// ByteWriter appends little-endian PODs and LEB128 varints to a growable
// buffer; ByteReader consumes them and throws gcm::Error on truncation or
// malformed varints, which the failure-injection tests rely on.
//
// Array payloads go through PutArray/GetArray, which have two coupled
// modes set by the snapshot container (encoding/snapshot.hpp):
//
//  - aligned layout (v2 sections): PutArray zero-pads after the varint
//    count so the element bytes start at a multiple of alignof(T)
//    *relative to the stream origin*; the container places each section
//    payload at an alignment-padded file offset, so relative alignment
//    implies absolute alignment. v1 streams have no padding and GetArray
//    parses them exactly like GetVector.
//  - borrowing (v2 + a live backing mapping): GetArray returns an
//    ArrayRef<T> viewing the stream bytes in place instead of copying,
//    provided the actual pointer is aligned for T (checked at runtime, so
//    a misaligned source degrades to a copy rather than UB).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/array_ref.hpp"
#include "util/check.hpp"
#include "util/common.hpp"

namespace gcm {

/// Bytes ByteWriter::PutVarint spends on `value`.
constexpr std::size_t VarintSize(u64 value) {
  std::size_t bytes = 1;
  for (; value >= 0x80; value >>= 7) ++bytes;
  return bytes;
}

class ByteWriter {
 public:
  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::size_t offset = buffer_.size();
    buffer_.resize(offset + sizeof(T));
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  /// Unsigned LEB128 varint.
  void PutVarint(u64 value) {
    while (value >= 0x80) {
      buffer_.push_back(static_cast<u8>(value) | 0x80);
      value >>= 7;
    }
    buffer_.push_back(static_cast<u8>(value));
  }

  void PutBytes(const void* data, std::size_t size) {
    // An empty vector's data() is null and memcpy's pointer arguments are
    // declared nonnull, so a zero-byte append must not reach it (UBSan).
    if (size == 0) return;
    std::size_t offset = buffer_.size();
    buffer_.resize(offset + size);
    std::memcpy(buffer_.data() + offset, data, size);
  }

  template <typename T>
  void PutVector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutVarint(values.size());
    PutBytes(values.data(), values.size() * sizeof(T));
  }

  void PutString(const std::string& value) {
    PutVarint(value.size());
    PutBytes(value.data(), value.size());
  }

  /// Array payload: varint count, then (in aligned mode) zero padding to
  /// alignof(T) relative to the stream origin, then the element bytes.
  template <typename T>
  void PutArray(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutVarint(values.size());
    if (aligned_arrays_) PadTo(alignof(T));
    PutBytes(values.data(), values.size() * sizeof(T));
  }
  template <typename T>
  void PutArray(const ArrayRef<T>& values) {
    PutArray(values.span());
  }

  /// Zero-pads the buffer to a multiple of `alignment` (stream-relative).
  void PadTo(std::size_t alignment) {
    while (buffer_.size() % alignment != 0) buffer_.push_back(0);
  }

  /// Opts this stream into the v2 aligned array layout. Writer and reader
  /// must agree; the snapshot container sets both from its version field.
  void EnableAlignedArrays() { aligned_arrays_ = true; }
  bool aligned_arrays() const { return aligned_arrays_; }

  /// Pre-sizes the buffer for `bytes` in total, so appends up to that size
  /// never reallocate.
  void Reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  const std::vector<u8>& buffer() const { return buffer_; }
  std::vector<u8> TakeBuffer() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::vector<u8> buffer_;
  bool aligned_arrays_ = false;
};

class ByteReader {
 public:
  ByteReader(const u8* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<u8>& buffer)
      : ByteReader(buffer.data(), buffer.size()) {}

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    Require(sizeof(T));
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    GCM_DCHECK(pos_ <= size_);
    return value;
  }

  u64 GetVarint() {
    u64 value = 0;
    u32 shift = 0;
    for (;;) {
      Require(1);
      u8 byte = data_[pos_++];
      GCM_CHECK_MSG(shift < 64, "malformed varint (too long)");
      value |= static_cast<u64>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
  }

  void GetBytes(void* out, std::size_t size) {
    // `out` may be an empty vector's null data(); see PutBytes.
    if (size == 0) return;
    Require(size);
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    GCM_DCHECK(pos_ <= size_);
  }

  template <typename T>
  std::vector<T> GetVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    u64 count = GetVarint();
    GCM_CHECK_MSG(count <= Remaining() / sizeof(T),
                  "vector length " << count << " exceeds remaining bytes");
    std::vector<T> values(count);
    GetBytes(values.data(), count * sizeof(T));
    return values;
  }

  std::string GetString() {
    u64 count = GetVarint();
    GCM_CHECK_MSG(count <= Remaining(), "string length exceeds buffer");
    std::string value(count, '\0');
    GetBytes(value.data(), count);
    return value;
  }

  /// Counterpart of ByteWriter::PutArray. In aligned mode the padding
  /// bytes between the count and the elements must be zero (corruption is
  /// reported by name, the checksum notwithstanding). In borrowing mode
  /// the returned ArrayRef views the stream bytes in place -- valid only
  /// while the stream's backing memory lives; misaligned element pointers
  /// fall back to an owned copy.
  template <typename T>
  ArrayRef<T> GetArray() {
    static_assert(std::is_trivially_copyable_v<T>);
    u64 count = GetVarint();
    if (aligned_layout_) {
      std::size_t pad = (alignof(T) - pos_ % alignof(T)) % alignof(T);
      Require(pad);
      for (std::size_t i = 0; i < pad; ++i) {
        GCM_CHECK_MSG(data_[pos_ + i] == 0,
                      "nonzero array padding byte at offset " << pos_ + i);
      }
      pos_ += pad;
    }
    GCM_CHECK_MSG(count <= Remaining() / sizeof(T),
                  "array length " << count << " exceeds remaining bytes");
    const u8* base = data_ + pos_;
    if (borrow_ && count > 0 &&
        reinterpret_cast<std::uintptr_t>(base) % alignof(T) == 0) {
      pos_ += count * sizeof(T);
      return ArrayRef<T>::Borrowed(
          {reinterpret_cast<const T*>(base), static_cast<std::size_t>(count)});
    }
    std::vector<T> values(count);
    GetBytes(values.data(), count * sizeof(T));
    return ArrayRef<T>(std::move(values));
  }

  /// Advances past `size` bytes without copying them.
  void Skip(std::size_t size) {
    Require(size);
    pos_ += size;
    GCM_DCHECK(pos_ <= size_);
  }

  /// v2 aligned array layout (see ByteWriter::EnableAlignedArrays).
  void EnableAlignedLayout() { aligned_layout_ = true; }
  bool aligned_layout() const { return aligned_layout_; }

  /// Lets GetArray return borrowed views over this stream's bytes. Only
  /// enable when the underlying memory outlives every deserialized object
  /// (the snapshot loader ties it to the matrix handle).
  void EnableBorrowing() { borrow_ = true; }
  bool borrowing() const { return borrow_; }

  std::size_t pos() const { return pos_; }
  std::size_t Remaining() const {
    GCM_DCHECK_MSG(pos_ <= size_, "ByteReader cursor past end: pos "
                                      << pos_ << " of " << size_);
    return size_ - pos_;
  }
  bool AtEnd() const { return pos_ == size_; }

 private:
  void Require(std::size_t bytes) {
    // The cursor never overruns the buffer (every advance re-checks), so
    // size_ - pos_ cannot wrap below.
    GCM_DCHECK(pos_ <= size_);
    GCM_CHECK_MSG(bytes <= size_ - pos_,
                  "truncated stream: need " << bytes << " bytes at offset "
                                            << pos_ << " of " << size_);
  }

  const u8* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool aligned_layout_ = false;
  bool borrow_ = false;
};

}  // namespace gcm
