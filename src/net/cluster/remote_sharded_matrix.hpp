// RemoteShardedMatrix: the coordinator-side scatter/gather kernel.
//
// An IMatrixKernel whose "shards" live on remote worker servers: each
// ClusterManifest range is served by one or more workers speaking the
// ordinary wire protocol (net/protocol.hpp). A multiply scatters as one
// row-range MvmRequest per range on pipelined per-worker connections and
// gathers the partials deterministically:
//
//    right:  y[range] = reply, ranges are disjoint -- concatenation by
//            range, trivially bitwise equal to the local ShardedMatrix.
//    left:   x = 0; then x += partial(range) in manifest order. Each range
//            covers exactly one shard (DeriveClusterManifest never merges),
//            and the worker's shard-aligned left kernel writes that shard's
//            partial directly -- so the fold reproduces the local kernel's
//            zero-then-add-per-shard sequence bitwise.
//
// Because the coordinator is itself an ordinary Server over this kernel,
// existing clients talk to a cluster without knowing it exists.
//
// Robustness is part of the kernel, not an afterthought: every request
// carries a receive deadline (RecvTimeout), failures retry with capped
// exponential backoff (net/backoff.hpp) and fail over to the next replica
// in the range's worker list on timeout / disconnect / kShuttingDown /
// kQueueFull. When no replica can serve a range within the attempt budget,
// the multiply throws RpcError with a named code (kNoReplica, or
// kDeadlineExceeded when the last failure was a timeout) -- which a
// coordinator Server forwards to its clients as a named error frame.
//
// Each connection opens with an Info round trip whose dimensions are
// checked against the manifest, so a worker serving the wrong matrix is
// rejected by name before any row range is routed to it (a worker speaking
// another protocol version already fails at the frame header).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "net/backoff.hpp"
#include "net/client.hpp"
#include "net/cluster/cluster_manifest.hpp"

namespace gcm {

struct ClusterConfig {
  /// Receive deadline per request, milliseconds (0 = wait forever).
  u64 deadline_ms = 5000;
  /// Total attempts per range per multiply (across replicas and retries).
  std::size_t max_attempts = 3;
  /// Backoff between retry attempts (not applied after a timeout -- the
  /// deadline itself already consumed the wait).
  BackoffPolicy backoff{};
  u64 backoff_seed = 0;
};

/// Monotonic scatter counters (a consistent snapshot via stats()).
struct ClusterStats {
  u64 scatters = 0;          ///< multiply calls
  u64 requests_sent = 0;     ///< row-range requests, including retries
  u64 retries = 0;           ///< re-sends after any failure
  u64 failovers = 0;         ///< retries that switched replica
  u64 deadline_timeouts = 0; ///< RecvTimeout classified failures
  u64 connects = 0;          ///< channel (re)connects incl. handshake
};

class RemoteShardedMatrix final : public IMatrixKernel {
 public:
  /// Validates the manifest and asks every distinct endpoint for its Info
  /// (the dimensions must match the manifest's). Unreachable endpoints are
  /// tolerated -- their channels reconnect lazily per request -- but at
  /// least one worker must answer, or this throws.
  static std::shared_ptr<RemoteShardedMatrix> Connect(
      ClusterManifest manifest, ClusterConfig config = {});

  // ---- IMatrixKernel.

  std::size_t rows() const override { return manifest_.rows; }
  std::size_t cols() const override { return manifest_.cols; }
  /// The store size reported by the first worker that answered the
  /// connect-time Info (workers serve the same store).
  u64 CompressedBytes() const override { return compressed_bytes_; }
  std::string FormatTag() const override { return manifest_.FormatTag(); }

  void MultiplyRightInto(std::span<const double> x, std::span<double> y,
                         const MulContext& ctx) const override;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x,
                        const MulContext& ctx) const override;

  /// IMatrixKernel's per-vector multi loop over the identity columns: one
  /// scatter per column. Multi-vector calls use the same default loop.
  DenseMatrix ToDense() const override;

  const ClusterManifest& manifest() const { return manifest_; }
  ClusterStats stats() const;

 private:
  /// One pipelined connection to a worker, Info-validated. The epoch
  /// lets in-flight jobs detect that their channel was dropped and
  /// re-route instead of awaiting a dead socket.
  struct Channel {
    std::unique_ptr<Client> client;
    u64 epoch = 0;
  };

  /// One in-flight row-range request: range index, input payload, retry
  /// bookkeeping, and the gathered partial.
  struct RangeJob {
    std::size_t range = 0;
    std::vector<double> x;
    std::size_t attempt = 0;
    bool sent = false;
    std::string channel_key;
    u64 epoch = 0;
    u64 request_id = 0;
    std::vector<double> result;
  };

  RemoteShardedMatrix(ClusterManifest manifest, ClusterConfig config)
      : manifest_(std::move(manifest)), config_(std::move(config)) {}

  /// Finds or opens the channel to `worker`; opening one asks the worker
  /// for its Info and checks the dimensions, and `answer` (when given)
  /// receives that reply, also when the check then refuses it. Throws
  /// gcm::Error when the worker is unreachable or serves another shape.
  Channel& GetChannel(const WorkerEndpoint& worker,
                      std::optional<ServerInfo>* answer = nullptr) const;
  void DropChannel(const std::string& key) const;

  /// Sends `job` to the next replica in its range's worker list,
  /// advancing job.attempt per try; throws RpcError(kNoReplica) when the
  /// attempt budget is exhausted without a successful send.
  void SendJob(RangeJob& job, bool right, Backoff& backoff) const;

  /// Blocks until `job` has a reply, failing over (re-SendJob) on
  /// timeout / disconnect / retryable error replies. Throws RpcError with
  /// a named code when the attempt budget is exhausted or the worker
  /// answers a non-retryable error.
  void GatherJob(RangeJob& job, bool right, Backoff& backoff) const;

  /// Scatter all jobs, then gather them in order.
  void RunJobs(std::vector<RangeJob>& jobs, bool right) const;

  void SleepBackoff(Backoff& backoff) const;

  ClusterManifest manifest_;
  ClusterConfig config_;
  u64 compressed_bytes_ = 0;

  /// One mutex serializes multiplies and guards channels_/stats_: the
  /// coordinator's dispatcher is single-threaded, so contention is not a
  /// concern, and serialization keeps channel failover reasoning simple.
  mutable std::mutex mu_;
  mutable std::map<std::string, Channel> channels_;
  mutable u64 next_epoch_ = 0;
  mutable ClusterStats stats_;
};

}  // namespace gcm
