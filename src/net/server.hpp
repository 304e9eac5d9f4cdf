// Async MVM server: TCP accept loop + bounded admission queue + batching.
//
// Serving architecture (one process, one matrix, N connections):
//
//    accept loop ──> per-connection reader threads
//                        |  decode + validate, answer Ping/Info inline
//                        v
//                 bounded admission queue        (kQueueFull when over)
//                        |
//                        v
//                 dispatcher thread: takes the oldest request, then keeps
//                 pulling *compatible* requests (same direction + row
//                 range) from the queue front until batch_max is reached
//                 or batch_window_ms elapses, executes the batch as ONE
//                 MultiplyRightMulti / MultiplyLeftMulti call, and
//                 scatters one MvmReply per request
//
// Batching changes throughput, never answers: vector j of a multi-vector
// kernel is bitwise identical to the sequential single-vector call (the
// engine contract in core/any_matrix.hpp), so a request's reply does not
// depend on who it shared a batch with. Only the queue head is ever
// pulled into a batch, so requests dispatch in admission order; the
// window is waited out only while the queue is idle -- an incompatible
// request reaching the head flushes the batch immediately, so coalescing
// never delays unrelated work behind it.
//
// Residency: when the matrix is sharded and max_resident_bytes is set,
// the dispatcher evicts least-recently-used shards back under the byte
// budget after every batch, so a row-range workload over a big store serves from
// a bounded working set (range requests only fault in overlapping shards).
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
class ThreadPool;

struct ServerConfig {
  std::string host = "127.0.0.1";
  u16 port = 0;  ///< 0 = ephemeral; read the bound port via port()

  bool batching = true;
  std::size_t batch_max = 16;      ///< max requests per kernel call
  double batch_window_ms = 0.25;   ///< how long a batch waits to fill

  std::size_t admission_queue_limit = 256;  ///< kQueueFull beyond this
  std::size_t max_connections = 64;

  /// Worker threads for the kernel calls: 1 = sequential (no pool),
  /// 0 = hardware concurrency (util/thread_pool.hpp policy).
  std::size_t kernel_threads = 1;

  /// When > 0 and the matrix is sharded: evict LRU shards until their
  /// resident bytes fit this budget after every batch (0 = never evict).
  u64 max_resident_bytes = 0;
};

/// Monotonic serving counters (a consistent snapshot via stats()).
struct ServerStats {
  u64 connections_accepted = 0;
  u64 requests_admitted = 0;
  u64 replies_sent = 0;
  u64 errors_sent = 0;
  u64 batches_dispatched = 0;
  u64 batched_requests = 0;  ///< requests that shared a batch (size >= 2)
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

  /// Holds the dispatcher before its next batch: admission keeps running
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
  void ExecuteBatch(std::vector<PendingMvm>& batch);

  void SendFrameTo(Connection& conn, MsgType type, u64 request_id,
                   std::span<const u8> payload);
  void SendErrorTo(Connection& conn, u64 request_id, NetError code,
                   const std::string& message);

  static bool Compatible(const PendingMvm& a, const PendingMvm& b) {
    return a.right == b.right && a.row_begin == b.row_begin &&
           a.row_end == b.row_end;
  }

  AnyMatrix matrix_;
  const ShardedMatrix* sharded_ = nullptr;  ///< non-null iff matrix is sharded
  ServerConfig config_;
  std::unique_ptr<ThreadPool> pool_;

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
  bool paused_ = false;  ///< guarded by queue_mu_; gates new batch pops only

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace gcm
