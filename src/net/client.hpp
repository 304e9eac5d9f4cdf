// Client side of the serving protocol: blocking calls + pipelined sends.
//
// Two usage modes over one connection:
//
//   * Blocking: MvmRight / MvmLeft / Info / Ping send one request and wait
//     for its reply (error replies become gcm::Error).
//   * Pipelined: SendMvmRight / SendMvmLeft / ... return a request id
//     immediately; Await(id) blocks until that id's reply arrives,
//     buffering any other replies read along the way. This is how the
//     load generator keeps several requests in flight per connection.
//
// A Client is deliberately single-threaded (no internal locking): one
// connection belongs to one thread. Run more threads with one Client each
// for concurrency, like bench/serve_load.cpp does.
#pragma once

#include <chrono>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace gcm {

class Client {
 public:
  /// A reply, classified. `error` is kOk for success replies; for kError
  /// frames it carries the named code and `message` the server's text.
  struct Response {
    MsgType type = MsgType::kError;
    NetError error = NetError::kOk;
    std::string message;
    std::vector<double> values;  ///< kMvmReply payload
    ServerInfo info;             ///< kInfoReply payload
    std::chrono::steady_clock::time_point recv_time;  ///< frame read time
  };

  /// Connects to a running server (numeric IPv4 host).
  static Client Connect(const std::string& host, u16 port);

  // ---- Pipelined mode: send now, Await(id) later.

  /// y = M x over [row_begin, row_end) (0, 0 = every row).
  u64 SendMvmRight(std::span<const double> x, u64 row_begin = 0,
                   u64 row_end = 0);
  /// Partial left multiply over [row_begin, row_end) (0, 0 = every row;
  /// ranged lefts need a shard-aligned range on a sharded server and `y`
  /// carries row_end - row_begin entries).
  u64 SendMvmLeft(std::span<const double> y, u64 row_begin = 0,
                  u64 row_end = 0);
  u64 SendPing();
  u64 SendInfo();

  /// Blocks until the reply for `request_id` arrives. Replies for other
  /// in-flight ids read along the way are buffered for their own Await.
  /// Throws gcm::Error when the connection dies first and ProtocolError
  /// when the server speaks a malformed stream.
  Response Await(u64 request_id);

  // ---- Blocking conveniences; error replies become gcm::Error.

  std::vector<double> MvmRight(std::span<const double> x, u64 row_begin = 0,
                               u64 row_end = 0);
  std::vector<double> MvmLeft(std::span<const double> y, u64 row_begin = 0,
                              u64 row_end = 0);
  ServerInfo Info();
  void Ping();

  /// Half-closes the connection (the server sees a clean EOF).
  void Close();

  Socket& socket() { return socket_; }

 private:
  explicit Client(Socket socket) : socket_(std::move(socket)) {}

  u64 SendRequest(MsgType type, std::span<const u8> payload);

  Socket socket_;
  u64 next_id_ = 1;
  std::map<u64, Response> buffered_;  ///< out-of-order replies by id
};

}  // namespace gcm
