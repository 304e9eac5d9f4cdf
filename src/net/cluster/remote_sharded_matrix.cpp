#include "net/cluster/remote_sharded_matrix.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "matrix/dense_matrix.hpp"

namespace gcm {
namespace {

std::vector<WorkerEndpoint> DistinctEndpoints(const ClusterManifest& manifest) {
  std::vector<WorkerEndpoint> endpoints;
  for (const ClusterRange& range : manifest.ranges) {
    for (const WorkerEndpoint& worker : range.workers) {
      if (std::find(endpoints.begin(), endpoints.end(), worker) ==
          endpoints.end()) {
        endpoints.push_back(worker);
      }
    }
  }
  return endpoints;
}

}  // namespace

std::shared_ptr<RemoteShardedMatrix> RemoteShardedMatrix::Connect(
    ClusterManifest manifest, ClusterConfig config) {
  manifest.Validate();
  GCM_CHECK_MSG(config.max_attempts >= 1,
                "cluster config needs max_attempts >= 1");
  auto remote = std::shared_ptr<RemoteShardedMatrix>(
      new RemoteShardedMatrix(std::move(manifest), std::move(config)));
  std::lock_guard<std::mutex> lock(remote->mu_);
  // Handshake every distinct endpoint now so a worker serving the wrong
  // matrix (or speaking the wrong protocol) is rejected by name before any
  // row range routes to it. Unreachable endpoints are tolerated -- they
  // reconnect lazily on first use -- but a cluster with zero usable
  // workers is a configuration error, not a retry loop. A worker that
  // answered Info and was refused is named as such, apart from the
  // unreachable ones.
  bool any = false;
  std::string unreachable = "manifest names no endpoints";
  std::string refused;
  for (const WorkerEndpoint& worker : DistinctEndpoints(remote->manifest_)) {
    std::optional<ServerInfo> info;
    try {
      remote->GetChannel(worker, &info);
      if (!any) remote->compressed_bytes_ = info->compressed_bytes;
      any = true;
    } catch (const Error& e) {
      (info ? refused : unreachable) = worker.ToString() + ": " + e.what();
    }
  }
  GCM_CHECK_MSG(any || refused.empty(),
                "cluster workers reached but refused (last: " << refused
                                                              << ")");
  GCM_CHECK_MSG(any, "no cluster worker reachable (last: " << unreachable
                                                           << ")");
  return remote;
}

ClusterStats RemoteShardedMatrix::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Channel management
// ---------------------------------------------------------------------------

RemoteShardedMatrix::Channel& RemoteShardedMatrix::GetChannel(
    const WorkerEndpoint& worker, std::optional<ServerInfo>* answer) const {
  const std::string key = worker.ToString();
  auto it = channels_.find(key);
  if (it != channels_.end()) return it->second;

  Client client = Client::Connect(worker.host, worker.port);
  if (config_.deadline_ms > 0) {
    client.socket().SetRecvTimeout(config_.deadline_ms);
  }
  ServerInfo info = client.Info();  // error replies throw gcm::Error
  if (answer != nullptr) *answer = info;
  GCM_CHECK_MSG(info.rows == manifest_.rows && info.cols == manifest_.cols,
                "worker " << key << " serves a " << info.rows << "x"
                          << info.cols << " matrix but the manifest expects "
                          << manifest_.rows << "x" << manifest_.cols);

  Channel channel;
  channel.client = std::make_unique<Client>(std::move(client));
  channel.epoch = ++next_epoch_;
  ++stats_.connects;
  return channels_.emplace(key, std::move(channel)).first->second;
}

void RemoteShardedMatrix::DropChannel(const std::string& key) const {
  channels_.erase(key);
}

void RemoteShardedMatrix::SleepBackoff(Backoff& backoff) const {
  std::this_thread::sleep_for(std::chrono::milliseconds(backoff.NextDelayMs()));
}

// ---------------------------------------------------------------------------
// Scatter engine
// ---------------------------------------------------------------------------

void RemoteShardedMatrix::SendJob(RangeJob& job, bool right,
                                  Backoff& backoff) const {
  const ClusterRange& range = manifest_.ranges[job.range];
  NetError last = NetError::kNoReplica;
  std::string detail = "no send attempted";
  while (job.attempt < config_.max_attempts) {
    const WorkerEndpoint& worker =
        range.workers[job.attempt % range.workers.size()];
    const std::string key = worker.ToString();
    ++job.attempt;
    if (!job.channel_key.empty() && key != job.channel_key) {
      ++stats_.failovers;
    }
    try {
      Channel& channel = GetChannel(worker);
      // A range covering the whole matrix travels as (0, 0) -- the wire
      // spelling of "every row" -- so even an unsharded worker serves it.
      u64 begin = range.row_begin;
      u64 end = range.row_end;
      if (begin == 0 && end == manifest_.rows) end = 0;
      job.request_id = right
                           ? channel.client->SendMvmRight(job.x, begin, end)
                           : channel.client->SendMvmLeft(job.x, begin, end);
      job.channel_key = key;
      job.epoch = channel.epoch;
      job.sent = true;
      ++stats_.requests_sent;
      return;
    } catch (const Error& e) {
      detail = key + ": " + e.what();
      DropChannel(key);
      ++stats_.retries;
      if (job.attempt < config_.max_attempts) SleepBackoff(backoff);
    }
  }
  throw RpcError(last, "range [" + std::to_string(range.row_begin) + ", " +
                           std::to_string(range.row_end) +
                           "): no replica accepted the request after " +
                           std::to_string(config_.max_attempts) +
                           " attempts (last: " + detail + ")");
}

void RemoteShardedMatrix::GatherJob(RangeJob& job, bool right,
                                    Backoff& backoff) const {
  const ClusterRange& range = manifest_.ranges[job.range];
  const std::size_t expected = right ? range.rows() : manifest_.cols;
  NetError last = NetError::kNoReplica;
  std::string detail = "request never sent";
  for (;;) {
    if (!job.sent) SendJob(job, right, backoff);
    auto it = channels_.find(job.channel_key);
    if (it == channels_.end() || it->second.epoch != job.epoch) {
      // The channel died under another job's failure; re-route. SendJob
      // enforces the shared attempt budget.
      job.sent = false;
      continue;
    }

    Client::Response response;
    bool have_response = false;
    try {
      response = it->second.client->Await(job.request_id);
      have_response = true;
    } catch (const RecvTimeout& e) {
      last = NetError::kDeadlineExceeded;
      detail = job.channel_key + ": " + e.what();
      DropChannel(job.channel_key);
      job.sent = false;
      ++stats_.retries;
      ++stats_.deadline_timeouts;
      if (job.attempt >= config_.max_attempts) break;
      continue;  // the deadline consumed the wait; no extra backoff
    } catch (const Error& e) {
      // Disconnect / malformed stream: the replica is gone or confused
      // either way -- drop the channel and fail over.
      last = NetError::kNoReplica;
      detail = job.channel_key + ": " + e.what();
      DropChannel(job.channel_key);
      job.sent = false;
      ++stats_.retries;
      if (job.attempt >= config_.max_attempts) break;
      SleepBackoff(backoff);
      continue;
    }

    if (have_response && response.type == MsgType::kMvmReply) {
      if (response.values.size() != expected) {
        throw RpcError(NetError::kInternal,
                       "worker " + job.channel_key + " answered " +
                           std::to_string(response.values.size()) +
                           " values for range [" +
                           std::to_string(range.row_begin) + ", " +
                           std::to_string(range.row_end) + "), expected " +
                           std::to_string(expected));
      }
      job.result = std::move(response.values);
      return;
    }
    // A named error reply on a healthy connection.
    if (response.error == NetError::kShuttingDown ||
        response.error == NetError::kQueueFull) {
      last = response.error;
      detail = job.channel_key + ": " + response.message;
      job.sent = false;
      ++stats_.retries;
      if (job.attempt >= config_.max_attempts) break;
      SleepBackoff(backoff);
      continue;
    }
    // Anything else (dimension mismatch, bad range) is a configuration or
    // software error retries cannot fix.
    throw RpcError(response.error,
                   "worker " + job.channel_key + " answered " +
                       NetErrorName(response.error) + ": " + response.message);
  }
  throw RpcError(last,
                 "range [" + std::to_string(range.row_begin) + ", " +
                     std::to_string(range.row_end) +
                     "): no replica could serve after " +
                     std::to_string(config_.max_attempts) +
                     " attempts (last: " + detail + ")");
}

void RemoteShardedMatrix::RunJobs(std::vector<RangeJob>& jobs,
                                  bool right) const {
  Backoff backoff(config_.backoff, config_.backoff_seed);
  ++stats_.scatters;
  try {
    // Scatter everything before the first await: per-worker connections
    // are pipelined, so all ranges are in flight at once.
    for (RangeJob& job : jobs) SendJob(job, right, backoff);
    for (RangeJob& job : jobs) GatherJob(job, right, backoff);
  } catch (...) {
    // A failed multiply may leave un-awaited replies in channel buffers;
    // drop the connections so stale frames die with their sockets.
    channels_.clear();
    throw;
  }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

void RemoteShardedMatrix::MultiplyRightInto(std::span<const double> x,
                                            std::span<double> y,
                                            const MulContext&) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RangeJob> jobs(manifest_.ranges.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].range = i;
    jobs[i].x.assign(x.begin(), x.end());
  }
  RunJobs(jobs, /*right=*/true);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ClusterRange& range = manifest_.ranges[i];
    std::copy(jobs[i].result.begin(), jobs[i].result.end(),
              y.begin() + static_cast<std::ptrdiff_t>(range.row_begin));
  }
}

void RemoteShardedMatrix::MultiplyLeftInto(std::span<const double> y,
                                           std::span<double> x,
                                           const MulContext&) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RangeJob> jobs(manifest_.ranges.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ClusterRange& range = manifest_.ranges[i];
    jobs[i].range = i;
    auto slice = y.subspan(range.row_begin, range.rows());
    jobs[i].x.assign(slice.begin(), slice.end());
  }
  RunJobs(jobs, /*right=*/false);
  // Fold per-range partials in manifest order from a zeroed accumulator --
  // the exact zero-then-add-per-shard sequence of the local kernel, so the
  // gathered left multiply is bitwise equal to ShardedMatrix.
  std::fill(x.begin(), x.end(), 0.0);
  for (const RangeJob& job : jobs) {
    for (std::size_t c = 0; c < x.size(); ++c) x[c] += job.result[c];
  }
}

DenseMatrix RemoteShardedMatrix::ToDense() const {
  DenseMatrix identity(cols(), cols());
  for (std::size_t c = 0; c < cols(); ++c) identity.Set(c, c, 1.0);
  DenseMatrix dense(rows(), cols());
  MultiplyRightMulti(identity, &dense, MulContext{});
  return dense;
}

}  // namespace gcm
