#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "serving/sharded_matrix.hpp"
#include "util/thread_pool.hpp"

namespace gcm {

/// The one kernel pool of every Server in the process (not one per server:
/// that spawns a worker set per node of a loopback cluster), made on first
/// use; null on a one-core host, where the kernels run sequentially.
static ThreadPool* KernelPool() {
  static const std::unique_ptr<ThreadPool> pool =
      MakePoolForThreads(std::thread::hardware_concurrency());
  return pool.get();
}

struct Server::Connection {
  Socket socket;
  std::mutex write_mu;  ///< reader + dispatcher interleave whole frames
  std::thread reader;
  std::atomic<bool> done{false};
};

Server::Server(AnyMatrix matrix, ServerConfig config)
    : matrix_(std::move(matrix)), config_(std::move(config)) {
  GCM_CHECK_MSG(matrix_.valid(), "Server needs a valid matrix");
  GCM_CHECK_MSG(config_.admission_queue_limit >= 1,
                "admission_queue_limit must be >= 1");
  sharded_ = ShardedMatrix::FromKernel(matrix_.kernel());
}

Server::~Server() { Stop(); }

void Server::Start() {
  GCM_CHECK_MSG(!running_, "Server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("invalid IPv4 address \"" + config_.host + '"');
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("cannot serve on " + config_.host + ":" +
                std::to_string(config_.port) + ": " + what);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  stopping_ = false;
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  dispatcher_thread_ = std::thread([this] { DispatcherLoop(); });
}

void Server::Stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();

  // The dispatcher exits at the top of its loop (after finishing any
  // in-flight request).
  if (dispatcher_thread_.joinable()) dispatcher_thread_.join();

  // Shutdown (not close) wakes the blocked ::accept; the fd is closed
  // after the join so the accept loop never reads a recycled descriptor,
  // and a rapid bind/stop cycle in tests can re-bind immediately
  // (SO_REUSEADDR covers the TIME_WAIT remnants of the connections).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Join the reader threads BEFORE draining the queue: a reader still
  // inside HandleFrame could otherwise admit a request after the drain
  // swapped the queue, and that request would never be answered. Read-side
  // shutdown only -- the write sides must stay open so the drain's
  // kShuttingDown replies below still reach the peers.
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections.swap(connections_);
  }
  for (const std::shared_ptr<Connection>& conn : connections) {
    conn->socket.ShutdownRead();
  }
  for (const std::shared_ptr<Connection>& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
  }

  // Answer everything still queued while the reply sockets are open.
  {
    std::deque<PendingMvm> drained;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      drained.swap(queue_);
    }
    for (PendingMvm& pending : drained) {
      SendErrorTo(*pending.conn, pending.request_id, NetError::kShuttingDown,
                  "server is shutting down");
    }
  }

  for (const std::shared_ptr<Connection>& conn : connections) {
    conn->socket.ShutdownBoth();
  }
  running_ = false;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::size_t Server::QueueDepth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

void Server::PauseDispatcher() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  paused_ = true;
}

void Server::ResumeDispatcher() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

ServerInfo Server::Info() const {
  ServerInfo info;
  info.format_tag = matrix_.FormatTag();
  info.rows = matrix_.rows();
  info.cols = matrix_.cols();
  info.compressed_bytes = matrix_.CompressedBytes();
  if (sharded_ != nullptr) {
    info.shard_count = sharded_->shard_count();
    info.resident_shards = sharded_->LoadedShardCount();
  }
  ServerStats snapshot = stats();
  info.requests_served = snapshot.replies_sent;
  info.errors_sent = snapshot.errors_sent;
  return info;
}

// ---------------------------------------------------------------------------
// Accept + connection readers
// ---------------------------------------------------------------------------

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down by Stop(), or fatal
    }
    if (stopping_) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard<std::mutex> lock(conn_mu_);
    // Reap readers that finished on their own (peer hung up) so a
    // long-lived server does not accumulate joinable threads.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done) {
        if ((*it)->reader.joinable()) (*it)->reader.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    if (connections_.size() >= config_.max_connections) {
      Socket refused(fd);
      try {
        ByteWriter out;
        ErrorReply{NetError::kQueueFull, "connection limit reached"}.EncodeTo(
            &out);
        WriteFrame(refused, MsgType::kError, 0, out.buffer());
      } catch (const Error&) {
        // Best effort; the close below is the real answer.
      }
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->socket = Socket(fd);
    connections_.push_back(conn);
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.connections_accepted;
    }
    conn->reader = std::thread([this, conn] { ConnectionLoop(conn); });
  }
}

void Server::ConnectionLoop(std::shared_ptr<Connection> conn) {
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = ReadFrame(conn->socket);
    } catch (const ProtocolError& e) {
      // Stream-level corruption: framing is lost, so name the problem in
      // one last error frame and close. (A request-level problem never
      // lands here -- HandleFrame answers those and keeps the stream up.)
      SendErrorTo(*conn, 0, e.code(), e.what());
      break;
    } catch (const Error&) {
      break;  // transport failure / mid-frame disconnect: just close
    }
    if (!frame.has_value()) break;  // clean EOF between frames
    HandleFrame(conn, *frame);
  }
  // During Stop() the teardown sequence owns the socket: replies to
  // drained requests still need the write side, so only shut it ourselves
  // when the peer (not Stop) ended the stream.
  if (!stopping_) conn->socket.ShutdownBoth();
  conn->done = true;
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         const Frame& frame) {
  const u64 id = frame.request_id;
  switch (frame.type) {
    case MsgType::kPing:
      SendFrameTo(*conn, MsgType::kPong, id, {});
      return;
    case MsgType::kInfo: {
      ByteWriter out;
      Info().EncodeTo(&out);
      SendFrameTo(*conn, MsgType::kInfoReply, id, out.buffer());
      return;
    }
    case MsgType::kMvmRight:
    case MsgType::kMvmLeft:
      break;
    default:
      // A well-framed frame of a response type: the peer is confused but
      // the stream is intact, so answer and keep the connection.
      SendErrorTo(*conn, id, NetError::kBadType,
                  "server expects request frames");
      return;
  }

  const bool right = frame.type == MsgType::kMvmRight;
  MvmRequest request;
  try {
    ByteReader in(frame.payload);
    request = MvmRequest::DecodeFrom(&in);
  } catch (const Error& e) {
    SendErrorTo(*conn, id, NetError::kMalformedPayload, e.what());
    return;
  }

  // Range first, dimensions second: a ranged *left* multiply carries one
  // input entry per row in the range, so the expected size depends on a
  // validated range.
  const bool full_range = request.row_begin == 0 && request.row_end == 0;
  if (full_range) {
    request.row_end = matrix_.rows();  // normalize: full range spelled out
  } else if (request.row_begin >= request.row_end ||
             request.row_end > matrix_.rows()) {
    SendErrorTo(*conn, id, NetError::kBadRowRange,
                "row range [" + std::to_string(request.row_begin) + ", " +
                    std::to_string(request.row_end) + ") invalid for " +
                    std::to_string(matrix_.rows()) + " rows");
    return;
  } else if (!right && (sharded_ == nullptr ||
                        !sharded_->RangeAlignedToShards(request.row_begin,
                                                        request.row_end))) {
    // A ranged left multiply is a *partial sum* over the named rows; it is
    // served only when the range tiles exactly onto shards, so the
    // cluster-gathered sum stays bitwise equal to the local fold.
    SendErrorTo(*conn, id, NetError::kBadRowRange,
                "left multiplies take the full row range" +
                    std::string(sharded_ != nullptr
                                    ? " or a shard-aligned range"
                                    : ""));
    return;
  }

  const std::size_t expected =
      right ? matrix_.cols()
            : static_cast<std::size_t>(request.row_end - request.row_begin);
  if (request.x.size() != expected) {
    SendErrorTo(*conn, id, NetError::kDimensionMismatch,
                "input has " + std::to_string(request.x.size()) +
                    " entries, matrix expects " + std::to_string(expected));
    return;
  }

  PendingMvm pending;
  pending.conn = conn;
  pending.request_id = id;
  pending.right = right;
  pending.row_begin = request.row_begin;
  pending.row_end = request.row_end;
  pending.x = std::move(request.x);

  // Admission decision under the queue lock, the (blocking) error send
  // outside it, so a slow client cannot stall admission for everyone.
  NetError verdict = NetError::kOk;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      verdict = NetError::kShuttingDown;
    } else if (queue_.size() >= config_.admission_queue_limit) {
      verdict = NetError::kQueueFull;
    } else {
      queue_.push_back(std::move(pending));
    }
  }
  if (verdict == NetError::kShuttingDown) {
    SendErrorTo(*conn, id, verdict, "server is shutting down");
    return;
  }
  if (verdict == NetError::kQueueFull) {
    SendErrorTo(*conn, id, verdict,
                "admission queue is full (" +
                    std::to_string(config_.admission_queue_limit) + ")");
    return;
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.requests_admitted;
  }
  queue_cv_.notify_one();
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

void Server::DispatcherLoop() {
  for (;;) {
    PendingMvm pending;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (stopping_) return;  // Stop() answers what is left in the queue
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    Execute(pending);
    if (sharded_ != nullptr && config_.max_resident_bytes > 0) {
      std::size_t evicted =
          sharded_->EvictToResidentBytes(config_.max_resident_bytes);
      if (evicted > 0) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.shard_evictions += evicted;
      }
    }
  }
}

void Server::Execute(PendingMvm& pending) {
  const MulContext ctx{KernelPool()};
  const std::size_t begin = pending.row_begin;
  const std::size_t end = pending.row_end;
  const bool full = begin == 0 && end == matrix_.rows();
  std::vector<double> result;
  try {
    if (full) {
      result = pending.right ? matrix_.MultiplyRight(pending.x, ctx)
                             : matrix_.MultiplyLeft(pending.x, ctx);
    } else if (pending.right && sharded_ != nullptr) {
      // Admission-aware touch: only shards overlapping the range are
      // faulted in, so a residency-limited store stays bounded.
      result.resize(end - begin);
      sharded_->MultiplyRightRangeInto(pending.x, result, begin, end, ctx);
    } else if (pending.right) {
      std::vector<double> y = matrix_.MultiplyRight(pending.x, ctx);
      result.assign(y.begin() + static_cast<std::ptrdiff_t>(begin),
                    y.begin() + static_cast<std::ptrdiff_t>(end));
    } else {
      // HandleFrame admits ranged lefts only when sharded_ != nullptr and
      // the range is shard-aligned.
      result.resize(matrix_.cols());
      sharded_->MultiplyLeftRangeInto(pending.x, result, begin, end, ctx);
    }
  } catch (const RpcError& e) {
    // A named request-level failure (the cluster layer classifying a
    // scatter failure): forward the code so clients see no_replica /
    // deadline_exceeded instead of a generic internal error.
    SendErrorTo(*pending.conn, pending.request_id, e.code(), e.what());
    return;
  } catch (const std::exception& e) {
    SendErrorTo(*pending.conn, pending.request_id, NetError::kInternal,
                e.what());
    return;
  }

  // Counters first, reply second: an Info pipelined behind an MVM reply
  // must see its request counted.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches_dispatched;
    stats_.max_batch = 1;
    ++stats_.replies_sent;
  }
  ByteWriter out;
  MvmReply{std::move(result)}.EncodeTo(&out);
  SendFrameTo(*pending.conn, MsgType::kMvmReply, pending.request_id,
              out.buffer());
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

void Server::SendFrameTo(Connection& conn, MsgType type, u64 request_id,
                         std::span<const u8> payload) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  try {
    WriteFrame(conn.socket, type, request_id, payload);
  } catch (const Error&) {
    // The peer vanished mid-reply; its reader thread will observe the
    // same condition and retire the connection.
  }
}

void Server::SendErrorTo(Connection& conn, u64 request_id, NetError code,
                         const std::string& message) {
  ByteWriter out;
  ErrorReply{code, message}.EncodeTo(&out);
  SendFrameTo(conn, MsgType::kError, request_id, out.buffer());
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.errors_sent;
}

}  // namespace gcm
