// Wire protocol suite: frame + payload codec round trips, header
// validation (bad magic / version / type / oversized length -> the named
// ProtocolError), CRC tamper detection, and the mutate-and-assert
// robustness sweeps in snapshot_mutation_test.cpp's style -- every
// truncation and byte flip of a valid frame must decode or throw, never
// crash. Runs under the `net_serving_smoke` CTest label in every CI
// configuration, including the asan-ubsan and tsan presets.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "encoding/byte_stream.hpp"
#include "encoding/snapshot.hpp"
#include "net/protocol.hpp"

namespace gcm {
namespace {

std::vector<u8> ValidMvmFrame() {
  MvmRequest request;
  request.row_begin = 2;
  request.row_end = 7;
  request.x = {1.0, -2.5, 3.25};
  ByteWriter body;
  request.EncodeTo(&body);
  return EncodeFrame(MsgType::kMvmRight, 42, body.buffer());
}

/// Decodes a serialized frame the way ReadFrame does, minus the socket:
/// header validation, payload CRC, then (for MVM frames) the body codec.
void DecodeWholeFrame(const std::vector<u8>& bytes) {
  GCM_CHECK_MSG(bytes.size() >= kFrameHeaderBytes, "short frame");
  FrameHeader header = DecodeFrameHeader(
      std::span<const u8>(bytes.data(), kFrameHeaderBytes));
  GCM_CHECK_MSG(bytes.size() - kFrameHeaderBytes == header.payload_bytes,
                "frame length mismatch");
  const u8* payload = bytes.data() + kFrameHeaderBytes;
  u32 crc = Crc32(payload, header.payload_bytes);
  if (crc != header.payload_crc) {
    throw ProtocolError(NetError::kChecksumMismatch, "payload checksum");
  }
  ByteReader in(payload, header.payload_bytes);
  MvmRequest::DecodeFrom(&in);
}

// --------------------------------------------------------------------------
// Round trips
// --------------------------------------------------------------------------

TEST(NetProtocolTest, FrameHeaderRoundTrips) {
  FrameHeader header;
  header.type = static_cast<u16>(MsgType::kMvmLeft);
  header.request_id = 0xdeadbeefcafeULL;
  header.payload_bytes = 123;
  header.payload_crc = 456;
  ByteWriter out;
  EncodeFrameHeader(header, &out);
  ASSERT_EQ(out.size(), kFrameHeaderBytes);
  FrameHeader back = DecodeFrameHeader(std::span<const u8>(out.buffer()));
  EXPECT_EQ(back.magic, kNetMagic);
  EXPECT_EQ(back.version, kNetProtocolVersion);
  EXPECT_EQ(back.type, header.type);
  EXPECT_EQ(back.request_id, header.request_id);
  EXPECT_EQ(back.payload_bytes, header.payload_bytes);
  EXPECT_EQ(back.payload_crc, header.payload_crc);
}

TEST(NetProtocolTest, MvmRequestRoundTrips) {
  MvmRequest request;
  request.row_begin = 10;
  request.row_end = 20;
  request.x = {0.5, -1.0, 2.0, 1e300, -1e-300};
  ByteWriter out;
  request.EncodeTo(&out);
  ByteReader in(out.buffer());
  MvmRequest back = MvmRequest::DecodeFrom(&in);
  EXPECT_EQ(back.row_begin, request.row_begin);
  EXPECT_EQ(back.row_end, request.row_end);
  EXPECT_EQ(back.x, request.x);
}

TEST(NetProtocolTest, MvmReplyRoundTrips) {
  MvmReply reply{{1.0, 2.0, -3.0}};
  ByteWriter out;
  reply.EncodeTo(&out);
  ByteReader in(out.buffer());
  EXPECT_EQ(MvmReply::DecodeFrom(&in).values, reply.values);
}

TEST(NetProtocolTest, ServerInfoRoundTrips) {
  ServerInfo info;
  info.format_tag = "sharded(gcm:re_32 x4)";
  info.rows = 100;
  info.cols = 37;
  info.compressed_bytes = 12345;
  info.shard_count = 4;
  info.resident_shards = 2;
  info.requests_served = 999;
  info.errors_sent = 3;
  ByteWriter out;
  info.EncodeTo(&out);
  ByteReader in(out.buffer());
  ServerInfo back = ServerInfo::DecodeFrom(&in);
  EXPECT_EQ(back.format_tag, info.format_tag);
  EXPECT_EQ(back.rows, info.rows);
  EXPECT_EQ(back.cols, info.cols);
  EXPECT_EQ(back.compressed_bytes, info.compressed_bytes);
  EXPECT_EQ(back.shard_count, info.shard_count);
  EXPECT_EQ(back.resident_shards, info.resident_shards);
  EXPECT_EQ(back.requests_served, info.requests_served);
  EXPECT_EQ(back.errors_sent, info.errors_sent);
}

TEST(NetProtocolTest, ErrorReplyRoundTrips) {
  ErrorReply reply{NetError::kQueueFull, "admission queue is full (256)"};
  ByteWriter out;
  reply.EncodeTo(&out);
  ByteReader in(out.buffer());
  ErrorReply back = ErrorReply::DecodeFrom(&in);
  EXPECT_EQ(back.code, reply.code);
  EXPECT_EQ(back.message, reply.message);
}

TEST(NetProtocolTest, EncodeFrameEmbedsPayloadChecksum) {
  std::vector<u8> frame = ValidMvmFrame();
  ASSERT_GT(frame.size(), kFrameHeaderBytes);
  EXPECT_NO_THROW(DecodeWholeFrame(frame));
}

// --------------------------------------------------------------------------
// Header validation: each failure names its NetError
// --------------------------------------------------------------------------

void ExpectHeaderError(std::vector<u8> frame, NetError expected) {
  try {
    DecodeWholeFrame(frame);
    FAIL() << "expected ProtocolError " << NetErrorName(expected);
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), expected) << e.what();
  }
}

TEST(NetProtocolTest, BadMagicIsNamed) {
  std::vector<u8> frame = ValidMvmFrame();
  frame[0] ^= 0xff;
  ExpectHeaderError(std::move(frame), NetError::kBadMagic);
}

TEST(NetProtocolTest, WrongVersionIsNamed) {
  // 1 and 2 are earlier versions (1's ServerInfo had batching fields, 2
  // had separate handshake and health frames), so an old peer must be
  // named at the header, not fail a body decode.
  for (int version : {99, 1, 2}) {
    SCOPED_TRACE(version);
    std::vector<u8> frame = ValidMvmFrame();
    frame[4] = static_cast<u8>(version);  // version u16 LE, high byte 0
    try {
      DecodeWholeFrame(frame);
      ADD_FAILURE() << "expected ProtocolError bad_version";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), NetError::kBadVersion);
      // The message must state found vs supported, or nobody can debug a
      // version skew from the client's log line alone.
      EXPECT_NE(std::string(e.what()).find(std::to_string(version)),
                std::string::npos);
      EXPECT_NE(std::string(e.what())
                    .find(std::to_string(kNetProtocolVersion)),
                std::string::npos);
    }
  }
}

TEST(NetProtocolTest, UnknownTypeIsNamed) {
  std::vector<u8> frame = ValidMvmFrame();
  frame[6] = 0xee;  // type field low byte
  frame[7] = 0xee;
  ExpectHeaderError(std::move(frame), NetError::kBadType);
}

TEST(NetProtocolTest, OversizedLengthIsNamed) {
  std::vector<u8> frame = ValidMvmFrame();
  u32 huge = kNetMaxPayloadBytes + 1;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  try {
    DecodeFrameHeader(std::span<const u8>(frame.data(), kFrameHeaderBytes));
    FAIL() << "expected ProtocolError oversized_frame";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), NetError::kOversizedFrame);
  }
}

TEST(NetProtocolTest, PayloadCrcFlipIsNamed) {
  std::vector<u8> frame = ValidMvmFrame();
  frame.back() ^= 0x01;  // flip one payload bit; header CRC now disagrees
  ExpectHeaderError(std::move(frame), NetError::kChecksumMismatch);
}

// --------------------------------------------------------------------------
// Mutate-and-assert sweeps: decode-or-throw, never crash
// --------------------------------------------------------------------------

TEST(NetProtocolTest, EveryTruncationDecodesOrThrows) {
  std::vector<u8> frame = ValidMvmFrame();
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    std::vector<u8> cut(frame.begin(),
                        frame.begin() + static_cast<std::ptrdiff_t>(keep));
    try {
      DecodeWholeFrame(cut);
      FAIL() << "truncation to " << keep << " bytes decoded";
    } catch (const Error&) {
      // Named failure (includes ProtocolError); the point is no crash.
    }
  }
}

TEST(NetProtocolTest, EveryByteFlipDecodesOrThrows) {
  std::vector<u8> frame = ValidMvmFrame();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<u8> mutated = frame;
    mutated[i] ^= 0xff;
    try {
      DecodeWholeFrame(mutated);
      // A flip the codecs cannot distinguish from valid data (e.g. inside
      // a double) is fine -- the CRC check upstream catches it, which the
      // PayloadCrcFlipIsNamed test pins down.
    } catch (const Error&) {
      // Thrown is equally fine; crashing / hanging is the only failure.
    }
  }
}

TEST(NetProtocolTest, MalformedPayloadVarintThrows) {
  // A varint of 10 continuation bytes is malformed (> 64 bits).
  std::vector<u8> payload(12, 0x80);
  ByteReader in(payload);
  EXPECT_THROW(MvmRequest::DecodeFrom(&in), Error);
}

TEST(NetProtocolTest, TrailingPayloadBytesAreMalformed) {
  MvmRequest request;
  request.x = {1.0};
  ByteWriter out;
  request.EncodeTo(&out);
  out.Put<u8>(0);  // one stray byte after a valid body
  ByteReader in(out.buffer());
  EXPECT_THROW(MvmRequest::DecodeFrom(&in), Error);
}

TEST(NetProtocolTest, NetErrorNameIsTotal) {
  for (u16 code = 0; code < 64; ++code) {
    const char* name = NetErrorName(static_cast<NetError>(code));
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
  }
  EXPECT_STREQ(NetErrorName(NetError::kQueueFull), "queue_full");
  EXPECT_STREQ(NetErrorName(static_cast<NetError>(9999)), "unknown_error");
}

TEST(NetProtocolTest, RequestTypeClassification) {
  EXPECT_TRUE(IsKnownType(static_cast<u16>(MsgType::kPing)));
  EXPECT_TRUE(IsKnownType(static_cast<u16>(MsgType::kMvmRight)));
  EXPECT_TRUE(IsKnownType(static_cast<u16>(MsgType::kPong)));
  EXPECT_TRUE(IsKnownType(static_cast<u16>(MsgType::kError)));
  EXPECT_FALSE(IsKnownType(0));
  EXPECT_FALSE(IsKnownType(12345));
  // The version-2 handshake and health types (requests 5, 6; replies 68,
  // 69) are gone; their numbers are not reused.
  for (u16 retired : {5, 6, 68, 69}) {
    EXPECT_FALSE(IsKnownType(retired)) << retired;
  }
}

}  // namespace
}  // namespace gcm
