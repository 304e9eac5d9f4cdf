#include "net/client.hpp"

#include <utility>

namespace gcm {

Client Client::Connect(const std::string& host, u16 port) {
  return Client(Socket::ConnectTcp(host, port));
}

u64 Client::SendRequest(MsgType type, std::span<const u8> payload) {
  u64 id = next_id_++;
  WriteFrame(socket_, type, id, payload);
  return id;
}

u64 Client::SendMvmRight(std::span<const double> x, u64 row_begin,
                         u64 row_end) {
  MvmRequest request;
  request.row_begin = row_begin;
  request.row_end = row_end;
  request.x.assign(x.begin(), x.end());
  ByteWriter out;
  request.EncodeTo(&out);
  return SendRequest(MsgType::kMvmRight, out.buffer());
}

u64 Client::SendMvmLeft(std::span<const double> y, u64 row_begin,
                        u64 row_end) {
  MvmRequest request;
  request.row_begin = row_begin;
  request.row_end = row_end;
  request.x.assign(y.begin(), y.end());
  ByteWriter out;
  request.EncodeTo(&out);
  return SendRequest(MsgType::kMvmLeft, out.buffer());
}

u64 Client::SendPing() { return SendRequest(MsgType::kPing, {}); }

u64 Client::SendInfo() { return SendRequest(MsgType::kInfo, {}); }

Client::Response Client::Await(u64 request_id) {
  for (;;) {
    auto it = buffered_.find(request_id);
    if (it != buffered_.end()) {
      Response response = std::move(it->second);
      buffered_.erase(it);
      return response;
    }
    std::optional<Frame> frame = ReadFrame(socket_);
    if (!frame.has_value()) {
      throw Error("connection closed while awaiting reply " +
                  std::to_string(request_id));
    }
    Response response;
    response.type = frame->type;
    response.recv_time = std::chrono::steady_clock::now();
    ByteReader in(frame->payload);
    switch (frame->type) {
      case MsgType::kPong:
        break;
      case MsgType::kInfoReply:
        response.info = ServerInfo::DecodeFrom(&in);
        break;
      case MsgType::kMvmReply:
        response.values = std::move(MvmReply::DecodeFrom(&in).values);
        break;
      case MsgType::kError: {
        ErrorReply reply = ErrorReply::DecodeFrom(&in);
        response.error = reply.code;
        response.message = std::move(reply.message);
        break;
      }
      default:
        throw ProtocolError(NetError::kBadType,
                            "server sent a request-type frame");
    }
    if (frame->request_id == request_id) return response;
    buffered_.emplace(frame->request_id, std::move(response));
  }
}

namespace {

[[noreturn]] void ThrowErrorReply(const char* what,
                                  const Client::Response& response) {
  throw Error(std::string(what) + " failed: " + NetErrorName(response.error) +
              " (" + response.message + ")");
}

}  // namespace

std::vector<double> Client::MvmRight(std::span<const double> x, u64 row_begin,
                                     u64 row_end) {
  Response response = Await(SendMvmRight(x, row_begin, row_end));
  if (response.type != MsgType::kMvmReply) ThrowErrorReply("MvmRight", response);
  return std::move(response.values);
}

std::vector<double> Client::MvmLeft(std::span<const double> y, u64 row_begin,
                                    u64 row_end) {
  Response response = Await(SendMvmLeft(y, row_begin, row_end));
  if (response.type != MsgType::kMvmReply) ThrowErrorReply("MvmLeft", response);
  return std::move(response.values);
}

ServerInfo Client::Info() {
  Response response = Await(SendInfo());
  if (response.type != MsgType::kInfoReply) ThrowErrorReply("Info", response);
  return response.info;
}

void Client::Ping() {
  Response response = Await(SendPing());
  if (response.type != MsgType::kPong) ThrowErrorReply("Ping", response);
}

void Client::Close() { socket_.ShutdownBoth(); }

}  // namespace gcm
