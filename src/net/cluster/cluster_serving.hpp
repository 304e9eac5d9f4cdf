// Cluster serving glue: the "cluster" spec family and self-hosted
// loopback clusters.
//
// Three ways a cluster becomes an engine matrix:
//
//   * LoopbackCluster::Start(local, options): spin N worker Servers on
//     ephemeral loopback ports over one local sharded matrix, derive a
//     ClusterManifest (round-robin shards -> workers, `replicas` deep) and
//     connect a RemoteShardedMatrix across them. The result is an
//     IMatrixKernel whose multiplies really scatter over TCP while
//     ToDense / persistence / stats delegate to the local matrix -- which
//     is what lets "cluster?..." participate in the ordinary spec registry
//     (AnyMatrix::Build, snapshots, the conformance suite) with no test
//     infrastructure knowing about sockets.
//
//   * ConnectCluster(manifest, config): pure client of an existing
//     deployment -- workers are someone else's processes (model_server
//     --worker); the returned matrix is the bare RemoteShardedMatrix.
//
//   * The spec registry (core/any_matrix.cpp):
//       Build  "cluster?inner=SPEC&shards=N&workers=W&replicas=R"
//              builds the sharded matrix locally, then LoopbackCluster.
//       Load   a LoopbackCluster snapshot (embedded sharded sections)
//              reloads the shards and re-serves them on fresh loopback
//              workers; a saved ClusterManifest (section "cluster", e.g.
//              written by DeriveClusterManifest + Save) connects to the
//              live external workers it names.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "net/cluster/remote_sharded_matrix.hpp"
#include "net/server.hpp"

namespace gcm {

struct LoopbackClusterOptions {
  std::size_t workers = 2;
  std::size_t replicas = 1;
  /// Per-worker serving knobs. host/port are overridden (loopback,
  /// ephemeral); everything else applies to each worker as-is.
  ServerConfig server{};
  /// Coordinator-side knobs (deadline, retry budget, backoff).
  ClusterConfig cluster{};
  /// FormatTag() of the resulting kernel. The registry build path passes
  /// the canonical "cluster?..." spec string so snapshots round-trip;
  /// empty falls back to the derived manifest's tag.
  std::string format_tag{};
};

/// A self-hosted cluster: worker servers + coordinator kernel in one
/// object. Multiplies go through the remote scatter path (the whole point);
/// ToDense, stats and persistence delegate to the local matrix, so a
/// loopback cluster snapshot is the *sharded* payload -- self-contained
/// bytes that reload anywhere (workers are respun on load, not referenced
/// by address).
class LoopbackCluster final : public IMatrixKernel {
 public:
  /// `local` must be a sharded matrix (the shard layout defines the
  /// cluster ranges). Starts options.workers servers, derives the
  /// manifest, connects the coordinator kernel. Throws gcm::Error when a
  /// server cannot bind or the handshake fails.
  static std::shared_ptr<LoopbackCluster> Start(
      AnyMatrix local, LoopbackClusterOptions options = {});

  /// Stops every worker server.
  ~LoopbackCluster() override;

  // ---- IMatrixKernel.

  std::size_t rows() const override { return local_.rows(); }
  std::size_t cols() const override { return local_.cols(); }
  u64 CompressedBytes() const override { return local_.CompressedBytes(); }
  std::string FormatTag() const override { return format_tag_; }

  void MultiplyRightInto(std::span<const double> x, std::span<double> y,
                         const MulContext& ctx) const override;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x,
                        const MulContext& ctx) const override;

  DenseMatrix ToDense() const override;
  void SaveSections(SnapshotWriter* out) const override;

  // ---- Cluster access (tests, benches, the serving CLI).

  const ClusterManifest& manifest() const { return remote_->manifest(); }
  const RemoteShardedMatrix& remote() const { return *remote_; }
  AnyMatrix local() const { return local_; }
  std::size_t worker_count() const { return workers_.size(); }
  Server& worker(std::size_t i) { return *workers_[i]; }
  /// Stops worker `i` (it stays stopped; in-flight requests see
  /// kShuttingDown or a closed connection). The failover test seam.
  void StopWorker(std::size_t i) { workers_[i]->Stop(); }

 private:
  LoopbackCluster() = default;

  AnyMatrix local_;
  std::string format_tag_;
  std::vector<std::unique_ptr<Server>> workers_;
  /// Declared after workers_ so the coordinator (and its connections)
  /// tears down before the servers it talks to.
  std::shared_ptr<RemoteShardedMatrix> remote_;
};

/// Client of an external deployment: validates + connects, returns the
/// coordinator kernel as an engine matrix.
AnyMatrix ConnectCluster(ClusterManifest manifest, ClusterConfig config = {});

// ---- Spec-registry hooks (called from core/any_matrix.cpp).

/// Extracts and validates the inner spec of a "cluster" spec (default
/// "csr"); rejects sharded and cluster inners with std::invalid_argument.
MatrixSpec InnerSpecFromCluster(const MatrixSpec& spec);

/// Builds the local sharded matrix per the spec (shards defaults to
/// `workers`, one shard per worker) and self-hosts it as a loopback
/// cluster. The "manifest" key is rejected here: an external cluster is
/// connected, not built -- load its saved manifest instead.
AnyMatrix BuildClusterFromSpec(const DenseMatrix& dense,
                               const MatrixSpec& spec,
                               const BuildContext& ctx);

/// Restores a cluster from a snapshot: a saved ClusterManifest (section
/// "cluster") connects to the external workers it names; a loopback
/// cluster snapshot (embedded sharded sections) reloads the shards and
/// re-serves them on fresh loopback workers.
AnyMatrix LoadClusterFromSnapshot(const SnapshotReader& in,
                                  const MatrixSpec& spec,
                                  const std::string& origin_path);

}  // namespace gcm
