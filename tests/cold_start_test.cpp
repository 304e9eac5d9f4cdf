// The two passes every cold start makes over a snapshot's bytes before the
// first multiply: the CRC-32 of the container and the load-time decode of
// each re_ans block.
//
//  * Crc32 (slicing-by-16) against a byte-at-a-time reference kept only
//    here: every length 0..64 and a 1 MiB buffer at each of 16 start
//    offsets, and seed chaining across the 16-byte stride.
//  * The interleaved rANS stream: the lane rule, byte identity of one-lane
//    streams with the pre-interleaving encoder, SizeInBytes against the
//    serialized length, batch decode against the input at every batch
//    size, named errors for every corrupt lane header, and 4-lane re_ans
//    matrices multiplying bitwise like re_32 through build, snapshot and
//    mapped load.
//
// Runs under the `mmap_serving_smoke` CTest label, so the sanitizer CI jobs
// run it explicitly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "core/gc_matrix.hpp"
#include "encoding/byte_stream.hpp"
#include "encoding/rans.hpp"
#include "encoding/snapshot.hpp"
#include "matrix/csrv.hpp"
#include "matrix/dense_matrix.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

// --------------------------------------------------------------------------
// CRC-32
// --------------------------------------------------------------------------

/// The byte-at-a-time CRC-32 the slicing-by-16 loop replaced.
u32 ReferenceCrc32(const u8* bytes, std::size_t size, u32 seed = 0) {
  u32 crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0);
    }
  }
  return ~crc;
}

std::vector<u8> RandomBytes(std::size_t size, u64 seed) {
  Rng rng(seed);
  std::vector<u8> bytes(size);
  for (u8& b : bytes) b = static_cast<u8>(rng.Next());
  return bytes;
}

TEST(Crc32Test, MatchesBytewiseReferenceForShortLengths) {
  const std::vector<u8> buffer = RandomBytes(64 + 16, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const u8* start = buffer.data() + offset;
      ASSERT_EQ(Crc32(start, length), ReferenceCrc32(start, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnOneMebibyte) {
  constexpr std::size_t kMiB = 1 << 20;
  const std::vector<u8> buffer = RandomBytes(kMiB + 16, 2);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const u8* start = buffer.data() + offset;
    EXPECT_EQ(Crc32(start, kMiB), ReferenceCrc32(start, kMiB))
        << "offset " << offset;
  }
}

TEST(Crc32Test, ChainingAcrossTheSixteenByteStrideMatchesOnePass) {
  const std::vector<u8> buffer = RandomBytes(100, 3);
  const u32 whole = Crc32(buffer.data(), buffer.size());
  ASSERT_EQ(whole, ReferenceCrc32(buffer.data(), buffer.size()));
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const u32 head = Crc32(buffer.data(), split);
    EXPECT_EQ(Crc32(buffer.data() + split, buffer.size() - split, head), whole)
        << "split at " << split;
    EXPECT_EQ(Crc32(buffer.data() + split, buffer.size() - split, head),
              ReferenceCrc32(buffer.data() + split, buffer.size() - split,
                             head));
  }
}

// --------------------------------------------------------------------------
// Interleaved rANS stream
// --------------------------------------------------------------------------

/// Symbols with the shape of a RePair C sequence: mostly small literals,
/// with folded large ids mixed in.
std::vector<u32> SkewedSymbols(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u32> symbols(n);
  for (u32& s : symbols) {
    s = rng.Chance(0.8) ? static_cast<u32>(rng.SkewedBelow(4096, 0.99))
                        : static_cast<u32>(rng.Below(1u << 22));
  }
  return symbols;
}

std::vector<u8> SerializedBytes(const RansStream& stream) {
  ByteWriter writer;
  stream.Serialize(&writer);
  return writer.buffer();
}

RansStream Reparse(const std::vector<u8>& bytes) {
  ByteReader reader(bytes);
  return RansStream::Deserialize(&reader);
}

template <typename Fn>
void ExpectErrorNaming(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected an Error containing \"" << fragment << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

TEST(RansLaneTest, StreamsAtTheThresholdInterleaveAndShorterOnesDoNot) {
  for (std::size_t n : {std::size_t{1}, kRansInterleaveMinSymbols - 1,
                        kRansInterleaveMinSymbols,
                        kRansInterleaveMinSymbols + 3}) {
    std::vector<u32> input = SkewedSymbols(n, n);
    RansStream stream = RansEncode(input);
    const u32 lanes = n >= kRansInterleaveMinSymbols ? kRansLanes : 1;
    EXPECT_EQ(stream.lanes, lanes) << n << " symbols";
    EXPECT_EQ(stream.lane_starts.size(), lanes - 1);
    EXPECT_EQ(RansDecoder(stream).DecodeAll(), input) << n << " symbols";
    EXPECT_EQ(Reparse(SerializedBytes(stream)), stream);
  }
}

TEST(RansLaneTest, ShortStreamBytesMatchThePreInterleavingEncoder) {
  // Bytes written by the single-state encoder before lanes existed.
  const std::vector<u32> input = {0,    7, 7,     1, 4095,        4096, 7,
                                  70000, 2, 0xffffffffu, 7, 1, 0, 7};
  const std::vector<u8> fold12 = {
      0x0c, 0x0e, 0x94, 0x20, 0x08, 0x00, 0xa4, 0x12, 0x01, 0xa4, 0x12,
      0x02, 0x92, 0x09, 0x07, 0xde, 0x2d, 0xff, 0x1f, 0x92, 0x09, 0x80,
      0x20, 0x92, 0x09, 0x84, 0x20, 0x92, 0x09, 0x93, 0x20, 0x92, 0x09,
      0x05, 0x00, 0x00, 0x00, 0x00, 0xc0, 0xc2, 0x0c, 0xd0, 0xca, 0x24,
      0xe2, 0x3d, 0x70, 0x11, 0x17, 0x94, 0x64, 0x1d, 0x4b, 0x01};
  const std::vector<u8> fold4 = {
      0x04, 0x0e, 0x2c, 0x08, 0x00, 0xa4, 0x12, 0x01, 0xa4, 0x12,
      0x02, 0x92, 0x09, 0x07, 0xde, 0x2d, 0x17, 0x92, 0x09, 0x18,
      0x92, 0x09, 0x1c, 0x92, 0x09, 0x2b, 0x92, 0x09, 0x05, 0x80,
      0x06, 0x00, 0x00, 0x6a, 0x06, 0xd0, 0x66, 0xff, 0x07, 0xb5,
      0x5b, 0x70, 0x11, 0x17, 0x94, 0x64, 0x1d, 0x4b, 0x01};
  EXPECT_EQ(SerializedBytes(RansEncode(input, 12)), fold12);
  EXPECT_EQ(SerializedBytes(RansEncode(input, 4)), fold4);

  // The longest one-lane stream, pinned by its length and checksum.
  std::vector<u32> longest(kRansInterleaveMinSymbols - 1);
  u64 state = 18;
  for (u32& v : longest) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<u32>((state >> 40) % 3000);
  }
  const std::vector<u8> bytes = SerializedBytes(RansEncode(longest));
  EXPECT_EQ(bytes.size(), 12267u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0x6d335652u);
}

TEST(RansLaneTest, SizeInBytesEqualsTheSerializedLength) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{300},
                        kRansInterleaveMinSymbols,
                        std::size_t{50000}}) {
    for (u32 fold_bits : {4u, 12u}) {
      RansStream stream = RansEncode(SkewedSymbols(n, 7 + n), fold_bits);
      EXPECT_EQ(stream.SizeInBytes(), SerializedBytes(stream).size())
          << n << " symbols, " << stream.lanes << " lanes";
    }
  }
}

TEST(RansLaneTest, BatchDecodeMatchesTheInputAtEveryBatchSize) {
  const std::vector<u32> input = SkewedSymbols(20011, 11);
  RansStream stream = RansEncode(input);
  ASSERT_EQ(stream.lanes, kRansLanes);
  const std::size_t kBatches[] = {1, 2, 3, 4, 5, 7, 64, 255, 256, 20011};
  for (std::size_t batch : kBatches) {
    RansDecoder decoder(stream);
    std::vector<u32> out;
    std::vector<u32> buffer(batch);
    // Alternate batches with single Next() calls so batches start on
    // every lane.
    while (!decoder.AtEnd()) {
      std::size_t n = decoder.NextBatch(buffer);
      out.insert(out.end(), buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(n));
      if (!decoder.AtEnd()) out.push_back(decoder.Next());
    }
    EXPECT_EQ(decoder.NextBatch(buffer), 0u);
    EXPECT_EQ(out, input) << "batch " << batch;
  }
}

TEST(RansLaneTest, LaneCountOutsideTheAcceptedSetIsNamed) {
  std::vector<u8> bytes = SerializedBytes(RansEncode(SkewedSymbols(9000, 5)));
  ASSERT_EQ(static_cast<u32>(bytes[0] >> 4), kRansLanes - 1);
  for (u32 lanes_minus_one : {1u, 2u, 4u, 7u, 15u}) {
    std::vector<u8> bad = bytes;
    bad[0] = static_cast<u8>((bad[0] & 0x0fu) | (lanes_minus_one << 4));
    ExpectErrorNaming([&] { Reparse(bad); },
                      std::to_string(lanes_minus_one + 1) +
                          " lanes (accepted: 1 or 4)");
  }
  RansStream stream = RansEncode(SkewedSymbols(9000, 5));
  stream.lanes = 2;
  ExpectErrorNaming([&] { RansDecoder decoder(stream); },
                    "2 lanes (accepted: 1 or 4)");
}

TEST(RansLaneTest, DecreasingLaneOffsetsAreNamed) {
  RansStream stream = RansEncode(SkewedSymbols(9000, 6));
  ASSERT_EQ(stream.lane_starts.size(), 3u);
  std::swap(stream.lane_starts[0], stream.lane_starts[1]);
  ExpectErrorNaming([&] { Reparse(SerializedBytes(stream)); },
                    "before lane 1");
  ExpectErrorNaming([&] { RansDecoder decoder(stream); }, "before lane 1");
}

TEST(RansLaneTest, LaneOffsetPastThePayloadIsNamed) {
  RansStream stream = RansEncode(SkewedSymbols(9000, 8));
  stream.lane_starts[2] = stream.chunks.size() + 1;
  ExpectErrorNaming([&] { Reparse(SerializedBytes(stream)); },
                    "lane 3 starts at chunk");
  ExpectErrorNaming([&] { Reparse(SerializedBytes(stream)); },
                    "past the");
  ExpectErrorNaming([&] { RansDecoder decoder(stream); }, "past the");
}

TEST(RansLaneTest, LaneShorterThanItsInitialStateIsNamed) {
  RansStream stream = RansEncode(SkewedSymbols(9000, 9));
  // Lane 1 keeps a single chunk; lane 2 absorbs the rest.
  stream.lane_starts[1] = stream.lane_starts[0] + 1;
  ExpectErrorNaming([&] { Reparse(SerializedBytes(stream)); },
                    "fewer than its 2-chunk initial state");
  // The last lane, too, and a one-lane stream cut to one chunk.
  RansStream last = RansEncode(SkewedSymbols(9000, 9));
  last.chunks = std::vector<u32>(
      last.chunks.span().begin(),
      last.chunks.span().begin() +
          static_cast<std::ptrdiff_t>(last.lane_starts[2] + 1));
  ExpectErrorNaming([&] { RansDecoder decoder(last); },
                    "lane 3 holds 1 chunks");
  RansStream single = RansEncode({1, 2, 3});
  single.chunks = std::vector<u32>{single.chunks[0]};
  ExpectErrorNaming([&] { Reparse(SerializedBytes(single)); },
                    "rANS payload too short");
}

// --------------------------------------------------------------------------
// 4-lane re_ans matrices
// --------------------------------------------------------------------------

/// Random enough that RePair leaves every half's final sequence above the
/// lane threshold.
DenseMatrix LaneDense() {
  Rng rng(4242);
  return DenseMatrix::Random(1600, 24, 0.5, 200, &rng);
}

std::vector<double> Ramp(std::size_t n, double step) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 1.0 + step * static_cast<double>(i);
  return v;
}

TEST(ReAnsLaneMatrixTest, FourLaneStreamMultipliesBitwiseLikeRe32) {
  const CsrvMatrix csrv = CsrvMatrix::FromDense(LaneDense());
  GcMatrix ans = GcMatrix::FromCsrv(csrv, {GcFormat::kReAns, 12, 0});
  GcMatrix plain = GcMatrix::FromCsrv(csrv, {GcFormat::kRe32, 12, 0});
  ASSERT_GE(ans.final_sequence_length(), kRansInterleaveMinSymbols);
  EXPECT_EQ(ans.DecompressSequence(), plain.DecompressSequence());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(ans.ToDense(), LaneDense()), 0.0);

  // Same grammar and the same sequential C scan: bitwise equal results.
  const std::vector<double> x = Ramp(ans.cols(), 0.37);
  const std::vector<double> y = Ramp(ans.rows(), -0.011);
  EXPECT_EQ(ans.MultiplyRight(x), plain.MultiplyRight(x));
  EXPECT_EQ(ans.MultiplyLeft(y), plain.MultiplyLeft(y));
}

TEST(ReAnsLaneMatrixTest, MappedFourLaneBlocksMatchTheBuiltMatrixBitwise) {
  const DenseMatrix dense = LaneDense();
  const BlockedGcMatrix blocks =
      BlockedGcMatrix::Build(dense, 2, {GcFormat::kReAns, 12, 0});
  for (std::size_t b = 0; b < blocks.block_count(); ++b) {
    ASSERT_GE(blocks.block(b).final_sequence_length(),
              kRansInterleaveMinSymbols);
  }
  ThreadPool pool(3);
  const AnyMatrix built = AnyMatrix::Build(dense, "gcm:re_ans?blocks=2");
  const std::string path = ScratchPath("lanes.gcsnap");
  built.Save(path);
  const AnyMatrix mapped = AnyMatrix::Load(path);

  const std::vector<double> x = Ramp(dense.cols(), 0.5);
  const std::vector<double> y = Ramp(dense.rows(), 0.25);
  for (const MulContext ctx : {MulContext{}, MulContext{&pool}}) {
    std::vector<double> want(dense.rows()), got(dense.rows());
    built.MultiplyRightInto(x, want, ctx);
    mapped.MultiplyRightInto(x, got, ctx);
    EXPECT_EQ(got, want);
    std::vector<double> want_left(dense.cols()), got_left(dense.cols());
    built.MultiplyLeftInto(y, want_left, ctx);
    mapped.MultiplyLeftInto(y, got_left, ctx);
    EXPECT_EQ(got_left, want_left);
  }
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(mapped.ToDense(), dense), 0.0);
  EXPECT_EQ(mapped.SaveSnapshotBytes(), built.SaveSnapshotBytes());
}

}  // namespace
}  // namespace gcm
