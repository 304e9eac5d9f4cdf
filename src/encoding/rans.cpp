#include "encoding/rans.hpp"

#include <algorithm>
#include <numeric>

#include "encoding/bit_ops.hpp"
#include "util/check.hpp"

namespace gcm {
namespace {

constexpr u32 kScaleBits = 14;
constexpr u32 kScale = 1u << kScaleBits;
constexpr u64 kRansL = 1ULL << 31;  // lower bound of the normalized state

// Slot layout: [0, 2^fold_bits) are literal slots; slot 2^fold_bits + k is
// the escape for symbols with (fold_bits + k) significant low bits beyond
// the leading one, i.e. floor(log2(v)) == fold_bits + k.
u32 SlotCount(u32 fold_bits) { return (1u << fold_bits) + (32 - fold_bits); }

struct FoldedSymbol {
  u32 slot;
  u32 raw_bits;   // width of the raw payload
  u32 payload;    // low-order bits of the symbol
};

FoldedSymbol Fold(u32 symbol, u32 fold_bits) {
  if (symbol < (1u << fold_bits)) return {symbol, 0, 0};
  u32 b = FloorLog2(symbol);
  return {(1u << fold_bits) + (b - fold_bits), b,
          symbol & static_cast<u32>(LowMask(b))};
}

/// Normalizes raw counts so they sum to kScale, keeping every nonzero count
/// at >= 1. Standard largest-remainder style with a correction pass.
std::vector<u16> NormalizeFreqs(const std::vector<u64>& counts, u64 total) {
  std::vector<u16> freqs(counts.size(), 0);
  GCM_CHECK_MSG(total > 0, "cannot normalize an empty frequency table");
  u64 assigned = 0;
  std::size_t max_slot = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (counts[s] == 0) continue;
    u64 scaled = counts[s] * kScale / total;
    if (scaled == 0) scaled = 1;
    GCM_ASSERT(scaled <= 0xffff);
    freqs[s] = static_cast<u16>(scaled);
    assigned += scaled;
    if (counts[s] > counts[max_slot] || freqs[max_slot] == 0) max_slot = s;
  }
  // Push the rounding error onto the most frequent slot; if that would make
  // it non-positive, lower it to 1 and steal the rest from other slots.
  i64 error = static_cast<i64>(kScale) - static_cast<i64>(assigned);
  if (static_cast<i64>(freqs[max_slot]) + error >= 1) {
    freqs[max_slot] = static_cast<u16>(freqs[max_slot] + error);
  } else {
    i64 deficit = -error - (static_cast<i64>(freqs[max_slot]) - 1);
    freqs[max_slot] = 1;
    for (std::size_t s = 0; s < freqs.size() && deficit > 0; ++s) {
      if (s == max_slot || freqs[s] <= 1) continue;
      i64 take = std::min<i64>(deficit, freqs[s] - 1);
      freqs[s] = static_cast<u16>(freqs[s] - take);
      deficit -= take;
    }
    GCM_CHECK_MSG(deficit == 0, "frequency normalization failed");
  }
  return freqs;
}

class RansEncoderState {
 public:
  void PushSlot(u32 freq, u32 cum) {
    GCM_DCHECK_MSG(freq > 0, "cannot encode a zero-frequency slot");
    u64 x_max = ((kRansL >> kScaleBits) << 32) * freq;
    while (state_ >= x_max) EmitChunk();
    state_ = (state_ / freq) * kScale + cum + state_ % freq;
  }

  void PushRawBits(u32 payload, u32 width) {
    if (width == 0) return;
    GCM_DCHECK_MSG(width <= 31, "raw-bit width " << width << " exceeds 31");
    u64 x_max = (kRansL >> width) << 32;
    while (state_ >= x_max) EmitChunk();
    state_ = (state_ << width) | payload;
  }

  std::vector<u32> Finish() {
    // Flush the 64-bit state as two chunks, then reverse so that decoding
    // reads the buffer strictly forward.
    chunks_.push_back(static_cast<u32>(state_));
    chunks_.push_back(static_cast<u32>(state_ >> 32));
    std::reverse(chunks_.begin(), chunks_.end());
    return std::move(chunks_);
  }

 private:
  void EmitChunk() {
    chunks_.push_back(static_cast<u32>(state_));
    state_ >>= 32;
  }

  u64 state_ = kRansL;
  std::vector<u32> chunks_;
};

void CheckLaneCount(u32 lanes) {
  GCM_CHECK_MSG(lanes == 1 || lanes == kRansLanes,
                "corrupt rANS header: " << lanes << " lanes (accepted: 1 or "
                                        << kRansLanes << ")");
}

/// Checks that the lane table tiles the payload into `lanes` sub-streams,
/// each holding at least its 2-chunk initial state.
void CheckLaneLayout(const RansStream& stream) {
  CheckLaneCount(stream.lanes);
  GCM_CHECK_MSG(stream.lane_starts.size() + 1 == stream.lanes,
                "corrupt rANS header: " << stream.lane_starts.size()
                                        << " lane offsets for "
                                        << stream.lanes << " lanes");
  const u64 total = stream.chunks.size();
  u64 begin = 0;
  for (u32 k = 0; k < stream.lanes; ++k) {
    u64 end = k + 1 < stream.lanes ? stream.lane_starts[k] : total;
    GCM_CHECK_MSG(end <= total, "corrupt rANS header: lane "
                                    << k + 1 << " starts at chunk " << end
                                    << ", past the " << total
                                    << "-chunk payload");
    GCM_CHECK_MSG(end >= begin, "corrupt rANS header: lane "
                                    << k + 1 << " starts at chunk " << end
                                    << ", before lane " << k << " at "
                                    << begin);
    GCM_CHECK_MSG(stream.symbol_count == 0 || end - begin >= 2,
                  "rANS payload too short: lane "
                      << k << " holds " << end - begin
                      << " chunks, fewer than its 2-chunk initial state");
    begin = end;
  }
}

}  // namespace

u64 RansStream::SizeInBytes() const {
  // Mirrors Serialize field by field; the payload is 4 bytes per chunk.
  u64 bytes = 1 + VarintSize(symbol_count) + VarintSize(freqs.size());
  u64 nonzero = 0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    ++nonzero;
    bytes += VarintSize(s) + VarintSize(freqs[s]);
  }
  bytes += VarintSize(nonzero);
  for (u64 start : lane_starts) bytes += VarintSize(start);
  return bytes + VarintSize(chunks.size()) + 4 * chunks.size();
}

void RansStream::Serialize(ByteWriter* writer) const {
  writer->Put<u8>(static_cast<u8>(fold_bits | ((lanes - 1) << 4)));
  writer->PutVarint(symbol_count);
  // count_if returns a signed ptrdiff_t; the count is non-negative.
  u64 nonzero = static_cast<u64>(std::count_if(
      freqs.begin(), freqs.end(), [](u16 f) { return f != 0; }));
  writer->PutVarint(freqs.size());
  writer->PutVarint(nonzero);
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    writer->PutVarint(s);
    writer->PutVarint(freqs[s]);
  }
  for (u64 start : lane_starts) writer->PutVarint(start);
  writer->PutArray(chunks);
}

RansStream RansStream::Deserialize(ByteReader* reader) {
  RansStream stream;
  u8 header = reader->Get<u8>();
  stream.fold_bits = header & 0x0fu;
  stream.lanes = (header >> 4u) + 1u;
  GCM_CHECK_MSG(stream.fold_bits >= 1 && stream.fold_bits <= 13,
                "corrupt rANS header: fold_bits=" << stream.fold_bits);
  CheckLaneCount(stream.lanes);
  stream.symbol_count = reader->GetVarint();
  u64 slots = reader->GetVarint();
  GCM_CHECK_MSG(slots == SlotCount(stream.fold_bits),
                "corrupt rANS header: slot count mismatch");
  u64 nonzero = reader->GetVarint();
  stream.freqs.assign(slots, 0);
  u64 sum = 0;
  for (u64 i = 0; i < nonzero; ++i) {
    u64 slot = reader->GetVarint();
    u64 freq = reader->GetVarint();
    GCM_CHECK_MSG(slot < slots, "corrupt rANS header: slot out of range");
    GCM_CHECK_MSG(freq >= 1 && freq <= kScale, "corrupt rANS frequency");
    stream.freqs[slot] = static_cast<u16>(freq);
    sum += freq;
  }
  GCM_CHECK_MSG(stream.symbol_count == 0 || sum == kScale,
                "corrupt rANS header: frequencies sum to " << sum);
  for (u32 k = 1; k < stream.lanes; ++k) {
    stream.lane_starts.push_back(reader->GetVarint());
  }
  stream.chunks = reader->GetArray<u32>();
  CheckLaneLayout(stream);
  return stream;
}

RansStream RansEncode(const std::vector<u32>& symbols, u32 fold_bits) {
  GCM_CHECK_MSG(fold_bits >= 1 && fold_bits <= 13,
                "fold_bits must be in [1,13], got " << fold_bits);
  RansStream stream;
  stream.fold_bits = fold_bits;
  stream.symbol_count = symbols.size();
  u32 slots = SlotCount(fold_bits);
  stream.freqs.assign(slots, 0);
  if (symbols.empty()) return stream;

  std::vector<u64> counts(slots, 0);
  for (u32 v : symbols) counts[Fold(v, fold_bits).slot]++;
  stream.freqs = NormalizeFreqs(counts, symbols.size());

  std::vector<u32> cum(slots + 1, 0);
  for (u32 s = 0; s < slots; ++s) cum[s + 1] = cum[s] + stream.freqs[s];

  stream.lanes =
      symbols.size() >= kRansInterleaveMinSymbols ? kRansLanes : 1;
  std::vector<RansEncoderState> lanes(stream.lanes);
  // rANS encodes in reverse; per symbol, raw bits are pushed before the slot
  // so the decoder pops slot first, then raw bits. Symbol i is lane
  // i mod lanes on both sides.
  for (std::size_t i = symbols.size(); i-- > 0;) {
    RansEncoderState& state = lanes[i % stream.lanes];
    FoldedSymbol f = Fold(symbols[i], fold_bits);
    state.PushRawBits(f.payload, f.raw_bits);
    state.PushSlot(stream.freqs[f.slot], cum[f.slot]);
  }
  std::vector<u32> chunks = lanes[0].Finish();
  for (u32 k = 1; k < stream.lanes; ++k) {
    stream.lane_starts.push_back(chunks.size());
    std::vector<u32> lane = lanes[k].Finish();
    chunks.insert(chunks.end(), lane.begin(), lane.end());
  }
  stream.chunks = std::move(chunks);
  return stream;
}

namespace {

/// Read-only views a decode step needs, hoisted out of the decoder so a
/// batch keeps them (and the lane states) in registers.
struct DecodeTables {
  std::span<const u16> slot_of_pos;
  std::span<const u16> freqs;
  std::span<const u32> cum;
  std::span<const u32> chunks;
  u32 fold_bits;
};

/// Pulls one chunk into a lane whose state fell below kRansL. Branch-free:
/// the lane always loads a chunk it owns (its last one once exhausted;
/// every lane holds at least two) and keeps it only when the state needs
/// it, so the unpredictable refill costs no mispredicted branch.
template <typename Lane>
inline void Renormalize(const DecodeTables& t, Lane& lane) {
  bool refill = lane.state < kRansL && lane.next < lane.end;
  std::size_t at = lane.next - (lane.next == lane.end ? 1u : 0u);
  GCM_DCHECK_BOUNDS(at, t.chunks.size());
  u64 chunk = t.chunks[at];
  lane.state = refill ? (lane.state << 32) | chunk : lane.state;
  lane.next += refill ? 1u : 0u;
}

template <typename Lane>
inline u32 DecodeStep(const DecodeTables& t, Lane& lane) {
  u32 pos = static_cast<u32>(lane.state & (kScale - 1));
  // The mask bounds pos to [0, kScale); slot_of_pos has exactly kScale
  // entries whenever symbols remain (built in the constructor), and every
  // slot id it holds indexes the freqs/cum tables.
  GCM_DCHECK_BOUNDS(pos, t.slot_of_pos.size());
  u32 slot = t.slot_of_pos[pos];
  GCM_DCHECK_BOUNDS(slot, t.freqs.size());
  GCM_DCHECK_BOUNDS(slot, t.cum.size());
  u32 freq = t.freqs[slot];
  GCM_DCHECK_MSG(freq > 0, "decoded slot " << slot << " has zero frequency");
  GCM_DCHECK_MSG(pos >= t.cum[slot],
                 "rANS state position " << pos
                                        << " below the slot's cumulative base "
                                        << t.cum[slot]);
  lane.state =
      static_cast<u64>(freq) * (lane.state >> kScaleBits) + pos - t.cum[slot];
  // Renormalization needs at most ONE chunk at each of the two points: before
  // each, state >= 2^(31-kScaleBits) > 0 (the decode step keeps state >=
  // freq * (state >> 14) with state >= kRansL = 2^31 beforehand; the
  // raw-bits shift below drops at most 31 bits of a state >= 2^31), and
  // (state << 32) | chunk >= 2^32 > kRansL for any state >= 1. A corrupt
  // stream can void the precondition and decode garbage, and the load-time
  // payload validation (symbol ranges, sentinel counts) rejects it
  // downstream; the lane's end bounds every read.
  Renormalize(t, lane);
  // A literal slot is the symbol; a folded one pops `width` raw low bits
  // (width 0 for literals makes the pop and second refill no-ops).
  u32 fold_base = 1u << t.fold_bits;
  bool folded = slot >= fold_base;
  u32 width = folded ? t.fold_bits + (slot - fold_base) : 0;
  GCM_DCHECK_MSG(width <= 31, "raw-bit width " << width << " exceeds 31");
  u32 payload = static_cast<u32>(lane.state & ((1ULL << width) - 1));
  lane.state >>= width;
  Renormalize(t, lane);
  return folded ? (1u << width) | payload : slot;
}

}  // namespace

RansDecoder::RansDecoder(const RansStream& stream) : stream_(stream) {
  u32 slots = SlotCount(stream.fold_bits);
  GCM_CHECK_MSG(stream.freqs.size() == slots, "rANS model size mismatch");
  CheckLaneLayout(stream);
  cum_.assign(slots + 1, 0);
  for (u32 s = 0; s < slots; ++s) cum_[s + 1] = cum_[s] + stream.freqs[s];
  if (stream.symbol_count > 0) {
    GCM_CHECK_MSG(cum_[slots] == kScale, "rANS model does not sum to 2^14");
    slot_of_pos_.resize(kScale);
    for (u32 s = 0; s < slots; ++s) {
      std::fill(slot_of_pos_.begin() + cum_[s],
                slot_of_pos_.begin() + cum_[s + 1], static_cast<u16>(s));
    }
  }
  Reset();
}

void RansDecoder::Reset() {
  lane_ = 0;
  remaining_ = stream_.symbol_count;
  if (remaining_ == 0) return;
  std::size_t begin = 0;
  for (u32 k = 0; k < stream_.lanes; ++k) {
    Lane& lane = lanes_[k];
    lane.end = k + 1 < stream_.lanes ? stream_.lane_starts[k]
                                     : stream_.chunks.size();
    lane.state = (static_cast<u64>(stream_.chunks[begin]) << 32) |
                 stream_.chunks[begin + 1];
    lane.next = begin + 2;
    begin = lane.end;
  }
}

u32 RansDecoder::Next() {
  GCM_CHECK_MSG(remaining_ > 0, "rANS stream exhausted");
  u32 symbol = 0;
  NextBatch({&symbol, 1});
  return symbol;
}

std::size_t RansDecoder::NextBatch(std::span<u32> out) {
  const std::size_t n =
      static_cast<std::size_t>(std::min<u64>(out.size(), remaining_));
  const DecodeTables t{slot_of_pos_, stream_.freqs, cum_,
                       stream_.chunks.span(), stream_.fold_bits};
  const u32 lane_mask = stream_.lanes - 1;  // lanes is a power of two
  std::size_t i = 0;
  if (stream_.lanes == kRansLanes) {
    // Step single symbols up to lane 0, then whole rounds of four with the
    // lane states in locals: the four dependency chains overlap.
    for (; i < n && lane_ != 0; ++i, lane_ = (lane_ + 1) & lane_mask) {
      out[i] = DecodeStep(t, lanes_[lane_]);
    }
    Lane a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
    for (; i + kRansLanes <= n; i += kRansLanes) {
      out[i] = DecodeStep(t, a);
      out[i + 1] = DecodeStep(t, b);
      out[i + 2] = DecodeStep(t, c);
      out[i + 3] = DecodeStep(t, d);
    }
    lanes_ = {a, b, c, d};
    for (; i < n; ++i, lane_ = (lane_ + 1) & lane_mask) {
      out[i] = DecodeStep(t, lanes_[lane_]);
    }
  } else {
    Lane a = lanes_[0];
    for (; i < n; ++i) out[i] = DecodeStep(t, a);
    lanes_[0] = a;
  }
  remaining_ -= n;
  return n;
}

std::vector<u32> RansDecoder::DecodeAll() {
  Reset();
  std::vector<u32> out(remaining_);
  NextBatch(out);
  return out;
}

}  // namespace gcm
