// Wire protocol for the networked serving subsystem.
//
// Length-prefixed binary frames over a byte stream (TCP), echoing the
// snapshot container's defensive idioms: magic + an exact version check up
// front, an explicit payload length with a hard cap, and a CRC32 over the
// payload so a corrupt frame is named, never parsed. One frame:
//
//    offset  size  field
//    0       4     magic          "GCNP" (0x504e4347 little-endian)
//    4       2     version        kNetProtocolVersion
//    6       2     type           MsgType
//    8       8     request_id     echoed verbatim in the response
//    16      4     payload_bytes  <= kNetMaxPayloadBytes
//    20      4     payload_crc    Crc32 of the payload bytes
//    24      n     payload        ByteWriter/ByteReader-encoded body
//
// Requests: Ping (empty), Info (empty), MvmRight / MvmLeft (MvmRequest).
// Responses: Pong (empty), InfoReply (ServerInfo), MvmReply (values), and
// Error (ErrorReply: a NetError code + message). Responses echo the
// request's id, so a pipelined client can match them out of order.
//
// There is no separate handshake: the header version must match exactly,
// so two peers that exchange any frame speak the same protocol, and Info
// is how a peer learns what a server serves (a coordinator checks a
// worker's dimensions against its manifest with it).
//
// Error discipline mirrors the snapshot loaders: anything wrong with the
// *stream* (bad magic, unknown version, oversized length) throws
// ProtocolError and the connection must close -- framing is lost. Anything
// wrong with a well-framed *request* (malformed payload, dimension
// mismatch) is answered with an Error frame and the connection stays up.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "encoding/byte_stream.hpp"
#include "util/common.hpp"

namespace gcm {

// ---------------------------------------------------------------------------
// Frame header
// ---------------------------------------------------------------------------

/// "GCNP" little-endian: GCm Network Protocol.
inline constexpr u32 kNetMagic = 0x504e4347u;
/// Version 3 deleted the separate handshake and health frames (Info is
/// the only introspection request); version 2 dropped the batching fields
/// from ServerInfo. An older peer gets kBadVersion from the frame header,
/// never a body decode error.
inline constexpr u16 kNetProtocolVersion = 3;

/// Hard cap on a frame payload (64 MiB) -- an admission bound, not a
/// correctness bound: a hostile length field must not drive allocation.
inline constexpr u32 kNetMaxPayloadBytes = 64u << 20;

enum class MsgType : u16 {
  // Requests.
  kPing = 1,
  kInfo = 2,
  kMvmRight = 3,  ///< y = M x, optionally restricted to a row range
  kMvmLeft = 4,   ///< x^t = y^t M
  // Responses.
  kPong = 64,
  kInfoReply = 65,
  kMvmReply = 66,
  kError = 67,
};

bool IsKnownType(u16 type);

/// Named protocol errors; the code travels on the wire inside ErrorReply.
enum class NetError : u16 {
  kOk = 0,
  kBadMagic = 1,
  kBadVersion = 2,
  kBadType = 3,
  kOversizedFrame = 4,
  kChecksumMismatch = 5,
  kMalformedPayload = 6,
  kDimensionMismatch = 7,
  kBadRowRange = 8,
  kQueueFull = 9,
  kShuttingDown = 10,
  kInternal = 11,
  kDeadlineExceeded = 12,  ///< a cluster request missed its deadline
  kNoReplica = 13,         ///< no replica could serve a row range
};

/// Stable lower_snake name for a NetError (total: unknown codes map to
/// "unknown_error", so logging a hostile code cannot itself fail).
const char* NetErrorName(NetError code);

/// Stream-level failure: framing is unrecoverable and the connection must
/// close. Request-level failures never throw this -- they become Error
/// frames instead.
class ProtocolError : public Error {
 public:
  ProtocolError(NetError code, const std::string& what)
      : Error(what), code_(code) {}
  NetError code() const { return code_; }

 private:
  NetError code_;
};

/// Request-level failure with a named code. The cluster layer throws this
/// when a scatter cannot complete (no replica, deadline); a server
/// executing the request catches it and answers with an Error frame
/// carrying the code -- the connection stays up.
class RpcError : public Error {
 public:
  RpcError(NetError code, const std::string& what)
      : Error(what), code_(code) {}
  NetError code() const { return code_; }

 private:
  NetError code_;
};

struct FrameHeader {
  u32 magic = kNetMagic;
  u16 version = kNetProtocolVersion;
  u16 type = 0;
  u64 request_id = 0;
  u32 payload_bytes = 0;
  u32 payload_crc = 0;
};

inline constexpr std::size_t kFrameHeaderBytes = 24;

/// A decoded frame: validated header + raw payload bytes.
struct Frame {
  MsgType type = MsgType::kPing;
  u64 request_id = 0;
  std::vector<u8> payload;
};

void EncodeFrameHeader(const FrameHeader& header, ByteWriter* out);

/// Decodes and validates 24 header bytes. Throws ProtocolError naming the
/// failure: kBadMagic, kBadVersion (lists found vs supported),
/// kBadType, kOversizedFrame.
FrameHeader DecodeFrameHeader(std::span<const u8> bytes);

/// Serializes a complete frame (header + payload, CRC computed here).
std::vector<u8> EncodeFrame(MsgType type, u64 request_id,
                            std::span<const u8> payload);

// ---------------------------------------------------------------------------
// Payload bodies
// ---------------------------------------------------------------------------

/// MvmRight / MvmLeft body. For right multiplies, [row_begin, row_end)
/// restricts the answer to a row range of y (0, 0 = all rows); left
/// multiplies require the full range. x carries cols entries (right) or
/// rows entries (left).
struct MvmRequest {
  u64 row_begin = 0;
  u64 row_end = 0;
  std::vector<double> x;

  void EncodeTo(ByteWriter* out) const;
  /// Throws gcm::Error on truncation / malformed varints (the caller maps
  /// that to kMalformedPayload).
  static MvmRequest DecodeFrom(ByteReader* in);
};

/// MvmReply body: the requested slice of the result vector.
struct MvmReply {
  std::vector<double> values;

  void EncodeTo(ByteWriter* out) const;
  static MvmReply DecodeFrom(ByteReader* in);
};

/// InfoReply body: identity plus serving counters -- the one way to ask a
/// server what it serves (handshake and monitoring alike).
struct ServerInfo {
  std::string format_tag;
  u64 rows = 0;
  u64 cols = 0;
  u64 compressed_bytes = 0;
  u64 shard_count = 0;       ///< 0 for unsharded backends
  u64 resident_shards = 0;   ///< == shard_count when unsharded or all hot
  u64 requests_served = 0;
  u64 errors_sent = 0;

  void EncodeTo(ByteWriter* out) const;
  static ServerInfo DecodeFrom(ByteReader* in);
};

/// Error body: a NetError code plus a human-readable message.
struct ErrorReply {
  NetError code = NetError::kInternal;
  std::string message;

  void EncodeTo(ByteWriter* out) const;
  static ErrorReply DecodeFrom(ByteReader* in);
};

// ---------------------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------------------

/// Thrown by Socket::RecvAll when a receive timeout set via
/// SetRecvTimeout expires before any byte arrives. Distinct from Error so
/// the cluster client can classify "slow replica" apart from "dead
/// replica" when deciding whether to fail over.
class RecvTimeout : public Error {
 public:
  using Error::Error;
};

/// Thin move-only RAII wrapper over a connected stream socket. Transport
/// failures (ECONNRESET, EPIPE, ...) throw gcm::Error; SIGPIPE is
/// suppressed per-send so a vanished peer is an exception, not a signal.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1").
  static Socket ConnectTcp(const std::string& host, u16 port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all of `data` or throws gcm::Error.
  void SendAll(std::span<const u8> data);

  /// Reads exactly data.size() bytes. Returns false on clean EOF before
  /// the first byte; EOF mid-buffer or any transport error throws.
  bool RecvAll(std::span<u8> data);

  /// Half-closes both directions (wakes a peer blocked in recv); the fd
  /// stays open until destruction.
  void ShutdownBoth();

  /// Half-closes the read side only: a local thread blocked in RecvAll
  /// observes EOF, but replies already queued on the write side still
  /// reach the peer.
  void ShutdownRead();

  /// Arms (ms > 0) or disarms (ms == 0) a receive timeout; an expired
  /// timeout surfaces from RecvAll as RecvTimeout.
  void SetRecvTimeout(u64 ms);

  void Close();

 private:
  int fd_ = -1;
};

/// Reads one frame. Returns std::nullopt on clean EOF at a frame boundary
/// (peer closed between frames). Throws ProtocolError when the stream is
/// malformed (bad magic/version/type, oversized length, payload CRC
/// mismatch) and gcm::Error on transport failures / mid-frame EOF.
std::optional<Frame> ReadFrame(Socket& socket);

/// Writes one frame (EncodeFrame + SendAll).
void WriteFrame(Socket& socket, MsgType type, u64 request_id,
                std::span<const u8> payload);

}  // namespace gcm
