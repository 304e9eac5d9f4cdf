// Async MVM server: TCP accept loop + bounded admission queue + one
// dispatcher thread.
//
// Serving architecture (one process, one matrix, N connections):
//
//    accept loop ──> per-connection reader threads
//                        |  decode + validate, answer Ping/Info inline
//                        v
//                 bounded admission queue        (kQueueFull when over)
//                        |
//                        v
//                 dispatcher thread: takes the oldest request, executes
//                 it as ONE single-vector kernel call (MultiplyRight /
//                 MultiplyLeft, or the shard-range form) on the process
//                 kernel pool, and sends its MvmReply
//
// Requests dispatch in admission order, one kernel call each, so a reply
// is bitwise identical to the same local call (a pooled kernel equals the
// sequential one). The process-wide pool runs a request's shards or row
// blocks in parallel; a pipelining client overlaps round trips, not kernels.
//
// Residency: when the matrix is sharded and max_resident_bytes is set,
// the dispatcher evicts least-recently-used shards back under the byte
// budget after every request, so a row-range workload over a big store
// serves from a bounded working set (range requests only fault in
// overlapping shards).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/any_matrix.hpp"
#include "net/protocol.hpp"

namespace gcm {

class ShardedMatrix;

struct ServerConfig {
  std::string host = "127.0.0.1";
  u16 port = 0;  ///< 0 = ephemeral; read the bound port via port()

  std::size_t admission_queue_limit = 256;  ///< kQueueFull beyond this
  std::size_t max_connections = 64;

  /// When > 0 and the matrix is sharded: evict LRU shards until their
  /// resident bytes fit this budget after every request (0 = never evict).
  u64 max_resident_bytes = 0;
};

/// Monotonic serving counters (a consistent snapshot via stats()).
struct ServerStats {
  u64 connections_accepted = 0;
  u64 requests_admitted = 0;
  u64 replies_sent = 0;
  u64 errors_sent = 0;
  /// One dispatch per request (max_batch <= 1, batched_requests == 0); kept
  /// while the benchmark reads them, until the metrics registry folds them.
  u64 batches_dispatched = 0;
  u64 batched_requests = 0;
  u64 max_batch = 0;
  u64 shard_evictions = 0;
};

class Server {
 public:
  /// Takes the matrix to serve (a cheap shared handle). The server only
  /// ever uses const kernel calls, so the same AnyMatrix can be shared
  /// with other readers.
  Server(AnyMatrix matrix, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the accept + dispatcher threads. Throws
  /// gcm::Error when the address cannot be bound.
  void Start();

  /// Stops accepting, answers every queued request with kShuttingDown,
  /// closes all connections and joins every thread. Idempotent; the
  /// destructor calls it.
  void Stop();

  bool running() const { return running_; }

  /// The bound TCP port (resolves port 0 after Start()).
  u16 port() const { return port_; }

  ServerStats stats() const;

  /// Admitted requests not yet taken by the dispatcher (test observable).
  std::size_t QueueDepth() const;

  /// Holds the dispatcher before its next request: admission keeps running
  /// (up to admission_queue_limit, then kQueueFull) but nothing executes
  /// until ResumeDispatcher(). A maintenance valve -- e.g. swap shard
  /// files under a quiesced kernel -- and what makes the admission-control
  /// tests deterministic. Stop() while paused still drains the queue.
  void PauseDispatcher();
  void ResumeDispatcher();

  /// The InfoReply body an Info request returns right now.
  ServerInfo Info() const;

 private:
  struct Connection;

  /// A validated MVM request waiting for the dispatcher. Holding the
  /// connection by shared_ptr keeps the reply socket alive even if the
  /// reader thread exits while the request is still queued.
  struct PendingMvm {
    std::shared_ptr<Connection> conn;
    u64 request_id = 0;
    bool right = true;  ///< kMvmRight vs kMvmLeft
    u64 row_begin = 0;  ///< normalized: full range spelled out
    u64 row_end = 0;
    std::vector<double> x;
  };

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  void DispatcherLoop();
  void Execute(PendingMvm& pending);

  void SendFrameTo(Connection& conn, MsgType type, u64 request_id,
                   std::span<const u8> payload);
  void SendErrorTo(Connection& conn, u64 request_id, NetError code,
                   const std::string& message);

  AnyMatrix matrix_;
  const ShardedMatrix* sharded_ = nullptr;  ///< non-null iff matrix is sharded
  ServerConfig config_;

  int listen_fd_ = -1;
  u16 port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread accept_thread_;
  std::thread dispatcher_thread_;

  mutable std::mutex conn_mu_;
  std::vector<std::shared_ptr<Connection>> connections_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingMvm> queue_;
  bool paused_ = false;  ///< guarded by queue_mu_; gates new pops only

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace gcm
