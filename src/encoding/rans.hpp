// Large-alphabet semi-static rANS coder.
//
// The paper's `re_ans` variant compresses the RePair final sequence C with
// the ans-fold entropy coder of Moffat & Petri (ACM TOIS 2020). This file
// implements the same idea with a 64-bit range-variant ANS (rANS):
//
//   * Symbols below a cutoff 2^fold_bits get dedicated slots in the
//     frequency model ("literal" slots).
//   * Larger symbols are *folded*: a symbol v with b = floor(log2(v)) bits
//     is coded as an escape slot identifying b, followed by the b low-order
//     bits of v pushed into the ANS state as raw uniform bits. RePair
//     assigns small ids to frequent nonterminals, so magnitude-based folding
//     approximates frequency-based folding while keeping the model
//     self-describing (no symbol table in the header).
//
// The model is semi-static: one frequency table, built from the input and
// stored in the header, normalized to 2^kScaleBits. Decoding runs forward,
// which is exactly what the compressed MVM kernel needs when streaming over
// C.
//
// Long streams are interleaved (F. Giesen, "Interleaved entropy coders",
// arXiv:1402.3392): symbol i is coded by lane i mod kRansLanes, each lane
// with its own 64-bit state and its own chunk sub-stream, all lanes sharing
// the one frequency model. The lanes' decode steps do not depend on each
// other, so a batch decode overlaps them. Streams shorter than
// kRansInterleaveMinSymbols keep one lane, and a one-lane stream is byte
// for byte the pre-interleaving layout, so one decoder reads both.
//
// Serialized layout:
//   u8      fold_bits in the low 4 bits, lanes - 1 in the high 4 bits
//           (files written before interleaving hold 0 there: one lane)
//   varint  symbol_count
//   varint  slot count, varint nonzero count, then (slot, freq) pairs
//   varint  first chunk of lane k, for k = 1 .. lanes-1
//   array   u32 chunks: lane 0's sub-stream, then lane 1's, ...
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "encoding/byte_stream.hpp"
#include "util/array_ref.hpp"
#include "util/common.hpp"

namespace gcm {

/// Lane count of an interleaved stream (the only count besides 1).
inline constexpr u32 kRansLanes = 4;
/// The encoder interleaves streams of at least this many symbols.
inline constexpr u64 kRansInterleaveMinSymbols = 4096;

/// An encoded rANS stream plus the model needed to decode it.
struct RansStream {
  u32 fold_bits = 12;           ///< Symbols < 2^fold_bits get literal slots.
  u32 lanes = 1;                ///< Interleaved states: 1 or kRansLanes.
  u64 symbol_count = 0;         ///< Number of symbols encoded.
  std::vector<u16> freqs;       ///< Normalized slot frequencies (sum 2^14).
  /// First chunk of lanes 1 .. lanes-1 (lane 0 starts at chunk 0).
  std::vector<u64> lane_starts;
  /// 32-bit payload, in decode order, lane after lane. The bulk of the
  /// stream: borrowed from the mapping on zero-copy loads (the sparse
  /// freqs model is re-materialized either way).
  ArrayRef<u32> chunks;

  /// Total bytes attributable to this stream (payload + model header),
  /// i.e. what counts as "compressed size" in the experiments: exactly
  /// the length Serialize writes into an unaligned stream.
  u64 SizeInBytes() const;

  void Serialize(ByteWriter* writer) const;
  static RansStream Deserialize(ByteReader* reader);

  bool operator==(const RansStream&) const = default;
};

/// Encodes a u32 symbol sequence. fold_bits must be in [1, 13].
RansStream RansEncode(const std::vector<u32>& symbols, u32 fold_bits = 12);

/// Streaming decoder over a RansStream. Not thread-safe; each thread of the
/// multithreaded MVM kernel owns its own decoder over its own block stream.
class RansDecoder {
 public:
  /// Throws gcm::Error when the model or the lane layout is corrupt.
  explicit RansDecoder(const RansStream& stream);

  /// Number of symbols remaining.
  u64 Remaining() const { return remaining_; }
  bool AtEnd() const { return remaining_ == 0; }

  /// Decodes the next symbol. Throws gcm::Error when exhausted.
  u32 Next();

  /// Decodes the next min(out.size(), Remaining()) symbols into `out` and
  /// returns that count (0 only at the end). The lane states live in
  /// locals for the whole batch, so interleaved lanes decode overlapped.
  std::size_t NextBatch(std::span<u32> out);

  /// Restarts decoding from the beginning of the stream.
  void Reset();

  /// Convenience: decodes the entire stream.
  std::vector<u32> DecodeAll();

 private:
  /// One lane's coder state and its read cursor into its sub-stream.
  struct Lane {
    u64 state = 0;
    std::size_t next = 0;  ///< next chunk to read
    std::size_t end = 0;   ///< one past the lane's last chunk
  };

  const RansStream& stream_;
  std::vector<u16> slot_of_pos_;   ///< position in [0,2^14) -> slot id
  std::vector<u32> cum_;           ///< cumulative frequencies per slot
  std::array<Lane, kRansLanes> lanes_{};
  u32 lane_ = 0;                   ///< lane of the next symbol
  u64 remaining_ = 0;
};

}  // namespace gcm
