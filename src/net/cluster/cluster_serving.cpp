#include "net/cluster/cluster_serving.hpp"

#include <stdexcept>
#include <utility>

#include "encoding/snapshot.hpp"
#include "matrix/dense_matrix.hpp"
#include "serving/shard_manifest.hpp"
#include "serving/sharded_matrix.hpp"

namespace gcm {

// ---------------------------------------------------------------------------
// LoopbackCluster
// ---------------------------------------------------------------------------

std::shared_ptr<LoopbackCluster> LoopbackCluster::Start(
    AnyMatrix local, LoopbackClusterOptions options) {
  GCM_CHECK_MSG(local.valid(), "loopback cluster needs a matrix to serve");
  const ShardedMatrix* sharded = ShardedMatrix::FromKernel(local.kernel());
  GCM_CHECK_MSG(sharded != nullptr,
                "loopback cluster serves a sharded matrix; got \""
                    << local.FormatTag() << "\"");
  GCM_CHECK_MSG(options.workers >= 1, "loopback cluster needs >= 1 worker");

  auto cluster = std::shared_ptr<LoopbackCluster>(new LoopbackCluster());
  cluster->local_ = local;
  std::vector<WorkerEndpoint> endpoints;
  endpoints.reserve(options.workers);
  for (std::size_t i = 0; i < options.workers; ++i) {
    ServerConfig config = options.server;
    config.host = "127.0.0.1";
    config.port = 0;  // ephemeral; the endpoint is read back after Start
    auto server = std::make_unique<Server>(local, config);
    server->Start();
    endpoints.push_back(WorkerEndpoint{"127.0.0.1", server->port()});
    cluster->workers_.push_back(std::move(server));
  }
  ClusterManifest manifest = DeriveClusterManifest(
      sharded->manifest(), endpoints, options.replicas);
  cluster->remote_ =
      RemoteShardedMatrix::Connect(std::move(manifest), options.cluster);
  cluster->format_tag_ = options.format_tag.empty()
                             ? cluster->remote_->manifest().FormatTag()
                             : std::move(options.format_tag);
  return cluster;
}

LoopbackCluster::~LoopbackCluster() {
  // Close the coordinator's connections first so the servers' readers see
  // clean EOFs instead of resets mid-teardown.
  remote_.reset();
  for (std::unique_ptr<Server>& worker : workers_) worker->Stop();
}

void LoopbackCluster::MultiplyRightInto(std::span<const double> x,
                                        std::span<double> y,
                                        const MulContext& ctx) const {
  remote_->MultiplyRightInto(x, y, ctx);
}

void LoopbackCluster::MultiplyLeftInto(std::span<const double> y,
                                       std::span<double> x,
                                       const MulContext& ctx) const {
  remote_->MultiplyLeftInto(y, x, ctx);
}

DenseMatrix LoopbackCluster::ToDense() const { return local_.ToDense(); }

void LoopbackCluster::SaveSections(SnapshotWriter* out) const {
  // The snapshot is the *sharded* payload: self-contained bytes, no worker
  // addresses baked in. Loading re-serves the shards on fresh loopback
  // workers (LoadClusterFromSnapshot).
  local_.kernel().SaveSections(out);
}

AnyMatrix ConnectCluster(ClusterManifest manifest, ClusterConfig config) {
  return AnyMatrix(
      RemoteShardedMatrix::Connect(std::move(manifest), std::move(config)));
}

// ---------------------------------------------------------------------------
// Spec-registry hooks
// ---------------------------------------------------------------------------

MatrixSpec InnerSpecFromCluster(const MatrixSpec& spec) {
  auto it = spec.params.find("inner");
  std::string inner_text =
      it == spec.params.end() ? std::string("csr") : DecodeInnerSpec(it->second);
  MatrixSpec inner = MatrixSpec::Parse(inner_text);
  if (inner.family == "sharded" || inner.family == "cluster") {
    throw std::invalid_argument(
        "cluster inner spec \"" + inner_text +
        "\" must be a plain backend (sharding is implied by the cluster, "
        "and clusters cannot nest)");
  }
  return inner;
}

AnyMatrix BuildClusterFromSpec(const DenseMatrix& dense,
                               const MatrixSpec& spec,
                               const BuildContext& ctx) {
  if (spec.params.count("manifest") != 0) {
    throw std::invalid_argument(
        "cluster?manifest=... names an existing deployment; connect to it "
        "by loading the saved manifest (AnyMatrix::Load) instead of "
        "building from data");
  }
  MatrixSpec inner = InnerSpecFromCluster(spec);
  std::size_t workers = spec.GetSize("workers", 2);
  std::size_t replicas = spec.GetSize("replicas", 1);
  if (workers == 0) {
    throw std::invalid_argument("cluster?workers=0: need >= 1 worker");
  }

  MatrixSpec sharded;
  sharded.family = "sharded";
  sharded.params["inner"] = EncodeInnerSpec(inner.ToString());
  if (auto s = spec.params.find("shards"); s != spec.params.end()) {
    sharded.params["shards"] = s->second;
  } else if (auto r = spec.params.find("rows_per_shard");
             r != spec.params.end()) {
    sharded.params["rows_per_shard"] = r->second;
  } else {
    // Default layout: one shard per worker, so every worker is the
    // preferred replica of exactly one range.
    sharded.params["shards"] = std::to_string(workers);
  }
  AnyMatrix local = AnyMatrix::Build(dense, sharded, ctx);
  const ShardedMatrix* kernel = ShardedMatrix::FromKernel(local.kernel());

  // Canonical spec string: what FormatTag() reports and snapshots carry,
  // with the *actual* shard count so a reload rebuilds the same topology.
  MatrixSpec tag;
  tag.family = "cluster";
  tag.params["inner"] = EncodeInnerSpec(inner.ToString());
  tag.params["replicas"] = std::to_string(replicas);
  tag.params["shards"] = std::to_string(kernel->shard_count());
  tag.params["workers"] = std::to_string(workers);

  LoopbackClusterOptions options;
  options.workers = workers;
  options.replicas = replicas;
  options.format_tag = tag.ToString();
  return AnyMatrix(LoopbackCluster::Start(std::move(local), std::move(options)));
}

AnyMatrix LoadClusterFromSnapshot(const SnapshotReader& in,
                                  const MatrixSpec& spec,
                                  const std::string& origin_path) {
  if (in.HasSection(kClusterManifestSection)) {
    // A saved ClusterManifest: the matrix lives on external workers.
    return ConnectCluster(ClusterManifest::FromSnapshot(in));
  }
  // A loopback-cluster snapshot: the sharded payload is embedded. Reload
  // it through the sharded family (the embedded manifest defines the
  // shard layout; no policy keys are forwarded) and re-serve.
  MatrixSpec sharded;
  sharded.family = "sharded";
  if (auto it = spec.params.find("inner"); it != spec.params.end()) {
    sharded.params["inner"] = it->second;
  }
  AnyMatrix local = LoadShardedFromSnapshot(in, sharded, origin_path);

  LoopbackClusterOptions options;
  options.workers = spec.GetSize("workers", 2);
  options.replicas = spec.GetSize("replicas", 1);
  options.format_tag = spec.ToString();
  return AnyMatrix(LoopbackCluster::Start(std::move(local), std::move(options)));
}

}  // namespace gcm
