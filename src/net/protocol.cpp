#include "net/protocol.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "encoding/snapshot.hpp"

namespace gcm {
namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw Error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame header
// ---------------------------------------------------------------------------

bool IsKnownType(u16 type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kPing:
    case MsgType::kInfo:
    case MsgType::kMvmRight:
    case MsgType::kMvmLeft:
    case MsgType::kPong:
    case MsgType::kInfoReply:
    case MsgType::kMvmReply:
    case MsgType::kError:
      return true;
    default:
      return false;
  }
}

const char* NetErrorName(NetError code) {
  switch (code) {
    case NetError::kOk: return "ok";
    case NetError::kBadMagic: return "bad_magic";
    case NetError::kBadVersion: return "bad_version";
    case NetError::kBadType: return "bad_type";
    case NetError::kOversizedFrame: return "oversized_frame";
    case NetError::kChecksumMismatch: return "checksum_mismatch";
    case NetError::kMalformedPayload: return "malformed_payload";
    case NetError::kDimensionMismatch: return "dimension_mismatch";
    case NetError::kBadRowRange: return "bad_row_range";
    case NetError::kQueueFull: return "queue_full";
    case NetError::kShuttingDown: return "shutting_down";
    case NetError::kInternal: return "internal";
    case NetError::kDeadlineExceeded: return "deadline_exceeded";
    case NetError::kNoReplica: return "no_replica";
  }
  return "unknown_error";
}

void EncodeFrameHeader(const FrameHeader& header, ByteWriter* out) {
  out->Put<u32>(header.magic);
  out->Put<u16>(header.version);
  out->Put<u16>(header.type);
  out->Put<u64>(header.request_id);
  out->Put<u32>(header.payload_bytes);
  out->Put<u32>(header.payload_crc);
}

FrameHeader DecodeFrameHeader(std::span<const u8> bytes) {
  GCM_CHECK_MSG(bytes.size() == kFrameHeaderBytes,
                "frame header needs " << kFrameHeaderBytes << " bytes, got "
                                      << bytes.size());
  ByteReader in(bytes.data(), bytes.size());
  FrameHeader header;
  header.magic = in.Get<u32>();
  header.version = in.Get<u16>();
  header.type = in.Get<u16>();
  header.request_id = in.Get<u64>();
  header.payload_bytes = in.Get<u32>();
  header.payload_crc = in.Get<u32>();
  if (header.magic != kNetMagic) {
    throw ProtocolError(NetError::kBadMagic,
                        "frame does not start with the GCNP magic");
  }
  if (header.version != kNetProtocolVersion) {
    throw ProtocolError(
        NetError::kBadVersion,
        "unsupported protocol version " + std::to_string(header.version) +
            " (this build speaks " + std::to_string(kNetProtocolVersion) +
            ")");
  }
  if (!IsKnownType(header.type)) {
    throw ProtocolError(NetError::kBadType, "unknown frame type " +
                                                std::to_string(header.type));
  }
  if (header.payload_bytes > kNetMaxPayloadBytes) {
    throw ProtocolError(
        NetError::kOversizedFrame,
        "frame payload of " + std::to_string(header.payload_bytes) +
            " bytes exceeds the " + std::to_string(kNetMaxPayloadBytes) +
            "-byte cap");
  }
  return header;
}

std::vector<u8> EncodeFrame(MsgType type, u64 request_id,
                            std::span<const u8> payload) {
  GCM_CHECK_MSG(payload.size() <= kNetMaxPayloadBytes,
                "frame payload of " << payload.size()
                                    << " bytes exceeds the cap");
  FrameHeader header;
  header.type = static_cast<u16>(type);
  header.request_id = request_id;
  header.payload_bytes = static_cast<u32>(payload.size());
  header.payload_crc = Crc32(payload.data(), payload.size());
  ByteWriter out;
  EncodeFrameHeader(header, &out);
  out.PutBytes(payload.data(), payload.size());
  return out.TakeBuffer();
}

// ---------------------------------------------------------------------------
// Payload bodies
// ---------------------------------------------------------------------------

namespace {

/// A request body with trailing garbage is as malformed as a truncated
/// one; every decoder finishes with this.
void CheckFullyConsumed(const ByteReader& in, const char* what) {
  GCM_CHECK_MSG(in.AtEnd(), what << ": " << in.Remaining()
                                 << " trailing payload bytes");
}

}  // namespace

void MvmRequest::EncodeTo(ByteWriter* out) const {
  out->PutVarint(row_begin);
  out->PutVarint(row_end);
  out->PutVector(x);
}

MvmRequest MvmRequest::DecodeFrom(ByteReader* in) {
  MvmRequest request;
  request.row_begin = in->GetVarint();
  request.row_end = in->GetVarint();
  request.x = in->GetVector<double>();
  CheckFullyConsumed(*in, "MvmRequest");
  return request;
}

void MvmReply::EncodeTo(ByteWriter* out) const { out->PutVector(values); }

MvmReply MvmReply::DecodeFrom(ByteReader* in) {
  MvmReply reply;
  reply.values = in->GetVector<double>();
  CheckFullyConsumed(*in, "MvmReply");
  return reply;
}

void ServerInfo::EncodeTo(ByteWriter* out) const {
  out->PutString(format_tag);
  out->PutVarint(rows);
  out->PutVarint(cols);
  out->PutVarint(compressed_bytes);
  out->PutVarint(shard_count);
  out->PutVarint(resident_shards);
  out->PutVarint(requests_served);
  out->PutVarint(errors_sent);
}

ServerInfo ServerInfo::DecodeFrom(ByteReader* in) {
  ServerInfo info;
  info.format_tag = in->GetString();
  info.rows = in->GetVarint();
  info.cols = in->GetVarint();
  info.compressed_bytes = in->GetVarint();
  info.shard_count = in->GetVarint();
  info.resident_shards = in->GetVarint();
  info.requests_served = in->GetVarint();
  info.errors_sent = in->GetVarint();
  CheckFullyConsumed(*in, "ServerInfo");
  return info;
}

void ErrorReply::EncodeTo(ByteWriter* out) const {
  out->Put<u16>(static_cast<u16>(code));
  out->PutString(message);
}

ErrorReply ErrorReply::DecodeFrom(ByteReader* in) {
  ErrorReply reply;
  reply.code = static_cast<NetError>(in->Get<u16>());
  reply.message = in->GetString();
  CheckFullyConsumed(*in, "ErrorReply");
  return reply;
}

// ---------------------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------------------

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::ConnectTcp(const std::string& host, u16 port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket");
  Socket socket(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw Error("invalid IPv4 address \"" + host + '"');
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ThrowErrno("connect");
  }
  // Frames are small and latency-bound; never wait for Nagle coalescing.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

void Socket::SendAll(std::span<const u8> data) {
  GCM_CHECK_MSG(valid(), "send on a closed socket");
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as gcm::Error, not
    // SIGPIPE terminating the process.
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool Socket::RecvAll(std::span<u8> data) {
  GCM_CHECK_MSG(valid(), "recv on a closed socket");
  std::size_t got = 0;
  while (got < data.size()) {
    ssize_t n = ::recv(fd_, data.data() + got, data.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Only reachable with a SetRecvTimeout armed (sockets here are
        // blocking otherwise); name it so callers can classify "slow".
        throw RecvTimeout("recv timed out (" + std::to_string(got) + " of " +
                          std::to_string(data.size()) + " bytes)");
      }
      ThrowErrno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF before the first byte
      throw Error("connection closed mid-buffer (" + std::to_string(got) +
                  " of " + std::to_string(data.size()) + " bytes)");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::ShutdownBoth() {
  if (valid()) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::ShutdownRead() {
  if (valid()) ::shutdown(fd_, SHUT_RD);
}

void Socket::SetRecvTimeout(u64 ms) {
  GCM_CHECK_MSG(valid(), "timeout on a closed socket");
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    ThrowErrno("setsockopt(SO_RCVTIMEO)");
  }
}

void Socket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<Frame> ReadFrame(Socket& socket) {
  u8 header_bytes[kFrameHeaderBytes];
  if (!socket.RecvAll(std::span<u8>(header_bytes, kFrameHeaderBytes))) {
    return std::nullopt;  // peer closed at a frame boundary
  }
  FrameHeader header =
      DecodeFrameHeader(std::span<const u8>(header_bytes, kFrameHeaderBytes));
  Frame frame;
  frame.type = static_cast<MsgType>(header.type);
  frame.request_id = header.request_id;
  frame.payload.resize(header.payload_bytes);
  if (header.payload_bytes > 0 &&
      !socket.RecvAll(std::span<u8>(frame.payload))) {
    throw Error("connection closed between frame header and payload");
  }
  u32 crc = Crc32(frame.payload.data(), frame.payload.size());
  if (crc != header.payload_crc) {
    throw ProtocolError(NetError::kChecksumMismatch,
                        "frame payload fails its checksum (header says " +
                            std::to_string(header.payload_crc) +
                            ", computed " + std::to_string(crc) + ")");
  }
  return frame;
}

void WriteFrame(Socket& socket, MsgType type, u64 request_id,
                std::span<const u8> payload) {
  std::vector<u8> frame = EncodeFrame(type, request_id, payload);
  socket.SendAll(frame);
}

}  // namespace gcm
