// Domain example: serving predictions from a compressed model store over
// the network protocol (src/net/).
//
//   $ ./model_server [--dataset Mnist2m] [--rows 2000] [--batches 50]
//                    [--spec gcm:re_ans] [--snapshot model.gcsnap]
//                    [--store store_dir] [--shards 8]
//                    [--max-resident-bytes 1048576] [--port 0] [--serve]
//                    [--eager]
//
// The paper's introduction motivates compression for ML model/data storage
// and for the bandwidth of server-to-client transmission. This example
// plays both roles. The deployment artifact is either a single AnyMatrix
// snapshot (--snapshot) or a sharded MatrixStore directory (--store,
// produced on the first run with --shards row-range shards). Startup
// deserializes nothing it does not need -- when the artifact already
// exists on disk, the dataset is never generated and the store path reads
// only the manifest; shard payloads stream in lazily on first network
// touch. The RePair invocation counter makes the no-recompression claim
// checkable: the load phase must report 0 grammar constructions.
//
// The loaded matrix is then served by a Server (TCP, length-prefixed
// frames, one kernel call per request). By default the example is its own
// client: it connects over loopback, pipelines scoring requests, checks
// the replies against the locally computed scores, and prints the
// server's counters.
// With --serve it stays up instead, for an external client:
//
//   $ ./model_server --store store_dir --port 7070 --serve
//
// Multi-node deployment (src/net/cluster/): the same binary plays every
// role. Workers are ordinary servers over the full store; the coordinator
// loads a cluster manifest (row range -> worker endpoints), scatters each
// request across the workers and re-exports the same protocol -- clients
// cannot tell a coordinator from a single server:
//
//   $ ./model_server --store store_dir --worker --port 7101
//   $ ./model_server --store store_dir --worker --port 7102
//   $ ./model_server --store store_dir
//       --workers 127.0.0.1:7101,127.0.0.1:7102 --replicas 2
//       --cluster-manifest cluster.gcsnap          # derive + write, exit
//   $ ./model_server --coordinator --cluster-manifest cluster.gcsnap
//       --port 7070 --serve

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/any_matrix.hpp"
#include "encoding/snapshot.hpp"
#include "grammar/repair.hpp"
#include "matrix/datasets.hpp"
#include "net/client.hpp"
#include "net/cluster/cluster_manifest.hpp"
#include "net/cluster/cluster_serving.hpp"
#include "net/server.hpp"
#include "serving/matrix_store.hpp"
#include "serving/sharded_matrix.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace gcm;

namespace {

/// Builds the deployment artifact (only reached when nothing is on disk):
/// a sharded store under `store`, or a single snapshot at `snapshot`.
/// --build-threads parallelizes the per-shard / per-block construction;
/// the artifact bytes do not depend on it.
AnyMatrix BuildArtifact(const CliParser& cli, const std::string& snapshot,
                        const std::string& store) {
  const DatasetProfile& profile = DatasetByName(cli.GetString("dataset"));
  DenseMatrix dense = GenerateDatasetRows(
      profile, static_cast<std::size_t>(cli.GetInt("rows")));
  std::string spec = cli.GetString("spec");
  std::unique_ptr<ThreadPool> build_pool = MakePoolForThreads(
      static_cast<std::size_t>(cli.GetInt("build-threads")));
  BuildContext build_ctx{.pool = build_pool.get()};
  if (!store.empty()) {
    ShardingPolicy policy;
    policy.shards = static_cast<std::size_t>(cli.GetInt("shards"));
    ShardManifest manifest =
        MatrixStore::Partition(dense, spec, policy, store, build_ctx);
    std::printf("partitioned %zux%zu %s into %zu shards under %s\n",
                manifest.rows, manifest.cols, spec.c_str(),
                manifest.shards.size(), store.c_str());
    return AnyMatrix();  // caller reopens through the manifest
  }
  AnyMatrix model = AnyMatrix::Build(dense, spec, build_ctx);
  if (!snapshot.empty()) {
    model.Save(snapshot);
    std::printf("built %s and saved snapshot to %s\n",
                model.FormatTag().c_str(), snapshot.c_str());
  }
  return model;
}

/// Loopback client demo: pipelined scoring requests against the server,
/// every reply checked against the locally computed oracle. Returns the
/// max abs diff seen (the server executes the same kernels with the
/// default sequential kernel context, so the answers are bitwise
/// identical; 1e9 flags a request the server refused).
double RunClientDemo(const AnyMatrix& served, u16 port,
                     std::size_t batches) {
  Client client = Client::Connect("127.0.0.1", port);
  ServerInfo info = client.Info();
  std::printf("connected: serving %s, %llux%llu, %s compressed\n",
              info.format_tag.c_str(),
              static_cast<unsigned long long>(info.rows),
              static_cast<unsigned long long>(info.cols),
              FormatBytes(info.compressed_bytes).c_str());

  Rng rng(777);
  const std::size_t depth = 4;  // pipelined requests in flight
  struct InFlight {
    u64 id;
    std::vector<double> weights;
  };
  std::deque<InFlight> window;
  double max_diff = 0.0;
  double checksum = 0.0;
  std::size_t sent = 0;
  std::size_t done = 0;
  Timer serve_timer;
  while (done < batches) {
    while (sent < batches && window.size() < depth) {
      std::vector<double> weights(served.cols());
      for (auto& w : weights) w = rng.NextGaussian();
      u64 id = client.SendMvmRight(weights);
      window.push_back({id, std::move(weights)});
      ++sent;
    }
    InFlight head = std::move(window.front());
    window.pop_front();
    Client::Response reply = client.Await(head.id);
    if (reply.type != MsgType::kMvmReply) {
      std::fprintf(stderr, "request %llu failed: %s (%s)\n",
                   static_cast<unsigned long long>(head.id),
                   NetErrorName(reply.error), reply.message.c_str());
      return 1e9;
    }
    std::vector<double> local = served.MultiplyRight(head.weights);
    max_diff = std::max(max_diff, MaxAbsDiff(reply.values, local));
    checksum += reply.values[done % reply.values.size()];
    ++done;
  }
  double total = serve_timer.Seconds();
  std::printf("%zu scoring requests over loopback in %s (%.3f ms each, "
              "checksum %.3f)\n",
              batches, FormatSeconds(total).c_str(),
              1e3 * total / static_cast<double>(batches), checksum);

  // A row-range request serves just a slice -- on a lazy store this only
  // faults in the overlapping shards.
  std::size_t rows = served.rows();
  u64 begin = static_cast<u64>(rows) / 4;
  u64 end = static_cast<u64>(rows) / 2;
  if (begin < end) {
    std::vector<double> weights(served.cols(), 1.0);
    std::vector<double> slice = client.MvmRight(weights, begin, end);
    std::vector<double> full = served.MultiplyRight(weights);
    std::vector<double> expected(
        full.begin() + static_cast<std::ptrdiff_t>(begin),
        full.begin() + static_cast<std::ptrdiff_t>(end));
    max_diff = std::max(max_diff, MaxAbsDiff(slice, expected));
    std::printf("row-range request [%llu, %llu): %zu values\n",
                static_cast<unsigned long long>(begin),
                static_cast<unsigned long long>(end), slice.size());
  }
  client.Close();
  return max_diff;
}

/// Parses "host:port[,host:port...]" into endpoints; throws gcm::Error on
/// malformed entries.
std::vector<WorkerEndpoint> ParseEndpoints(const std::string& text) {
  std::vector<WorkerEndpoint> endpoints;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    std::string entry = text.substr(pos, comma - pos);
    std::size_t colon = entry.rfind(':');
    GCM_CHECK_MSG(colon != std::string::npos && colon > 0 &&
                      colon + 1 < entry.size(),
                  "worker endpoint \"" << entry << "\" is not host:port");
    WorkerEndpoint endpoint;
    endpoint.host = entry.substr(0, colon);
    endpoint.port = static_cast<u16>(std::stoul(entry.substr(colon + 1)));
    endpoints.push_back(std::move(endpoint));
    pos = comma + 1;
  }
  return endpoints;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("model_server",
                "serve a snapshot- or shard-backed compressed matrix over "
                "the network protocol, with a loopback client demo");
  cli.AddFlag("dataset", "Mnist2m", "dataset profile to generate");
  cli.AddFlag("rows", "2000", "rows of the feature matrix");
  cli.AddFlag("batches", "50", "scoring requests the client demo sends");
  cli.AddFlag("spec", "gcm:re_ans", "engine spec of the deployed model");
  cli.AddFlag("snapshot", "",
              "single-snapshot path: load from it when present, else build "
              "once and save to it (empty = in-memory round trip)");
  cli.AddFlag("store", "",
              "sharded store directory: open its manifest when present, "
              "else partition the dataset into it (overrides --snapshot)");
  cli.AddFlag("shards", "8", "shard count when partitioning a new store");
  cli.AddFlag("max-resident-bytes", "0",
              "evict least-recently-used shards until their resident bytes "
              "fit this budget after every request (0 = unlimited)");
  cli.AddFlag("port", "0", "TCP port to serve on (0 = ephemeral)");
  cli.AddFlag("serve", "false",
              "stay up for external clients instead of running the "
              "loopback demo");
  cli.AddFlag("build-threads", "1",
              "worker pool for shard-parallel construction when the "
              "artifact must be built (1 = sequential, 0 = all hardware "
              "threads); artifact bytes are identical either way");
  cli.AddFlag("eager", "false",
              "load every shard at open instead of on first touch");
  cli.AddFlag("worker", "false",
              "serve the artifact for a cluster coordinator and stay up "
              "(implies --serve)");
  cli.AddFlag("coordinator", "false",
              "serve as a cluster coordinator: scatter every request over "
              "the workers named by --cluster-manifest");
  cli.AddFlag("cluster-manifest", "",
              "cluster manifest path: --coordinator loads it; with "
              "--workers it is derived from the store manifest and written "
              "here (default <store>/cluster.gcsnap)");
  cli.AddFlag("workers", "",
              "comma-separated host:port endpoints: derive a cluster "
              "manifest routing the store's shards round-robin across "
              "these workers, write it, and exit");
  cli.AddFlag("replicas", "1",
              "replica endpoints per row range when deriving a manifest");
  cli.AddFlag("deadline-ms", "5000",
              "coordinator per-request receive deadline (0 = none)");
  cli.AddFlag("max-attempts", "3",
              "coordinator attempts per range across replicas and retries");
  cli.AddFlag("stats", "false",
              "after the demo, print each shard's mapped and resident "
              "bytes");
  if (!cli.Parse(argc, argv)) return 0;

  std::string snapshot_path = cli.GetString("snapshot");
  std::string store_dir = cli.GetString("store");
  bool serve_store = !store_dir.empty();
  std::string artifact = serve_store
                             ? MatrixStore::ManifestPath(store_dir)
                             : snapshot_path;

  // ---- Coordinator mode: no artifact of its own -- the matrix lives on
  // the workers. Connect, then fall through to the ordinary server setup;
  // the scatter kernel re-exports the same protocol, so everything below
  // (client demo included) is oblivious to the cluster.
  if (cli.GetBool("coordinator")) {
    std::string manifest_path = cli.GetString("cluster-manifest");
    if (manifest_path.empty()) {
      std::fprintf(stderr, "--coordinator needs --cluster-manifest\n");
      return 2;
    }
    AnyMatrix served;
    try {
      ClusterManifest manifest = ClusterManifest::Load(manifest_path);
      ClusterConfig cluster_config;
      cluster_config.deadline_ms =
          static_cast<u64>(cli.GetInt("deadline-ms"));
      cluster_config.max_attempts =
          static_cast<std::size_t>(cli.GetInt("max-attempts"));
      served = ConnectCluster(manifest, cluster_config);
      std::printf("coordinator: %zu row ranges over %zu distinct workers "
                  "(%s)\n",
                  manifest.ranges.size(), manifest.WorkerCount(),
                  manifest.FormatTag().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error connecting cluster: %s\n", e.what());
      return 1;
    }
    ServerConfig config;
    config.port = static_cast<u16>(cli.GetInt("port"));
    Server server(served, config);
    server.Start();
    std::printf("coordinating on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    if (cli.GetBool("serve")) {
      while (server.running()) {
        std::this_thread::sleep_for(std::chrono::seconds(1));
      }
      return 0;
    }
    double max_diff =
        RunClientDemo(served, server.port(),
                      static_cast<std::size_t>(cli.GetInt("batches")));
    server.Stop();
    std::printf("serving correctness: max diff vs local oracle = %.2e\n",
                max_diff);
    return max_diff < 1e-9 ? 0 : 1;
  }

  // ---- Producer side. The dataset is generated ONLY when the artifact is
  // absent: a server restart touches no construction code at all (not even
  // to regenerate the dense matrix it would immediately discard).
  bool built_now = false;
  AnyMatrix in_memory;
  if (artifact.empty() || !std::filesystem::exists(artifact)) {
    try {
      in_memory = BuildArtifact(cli, snapshot_path, store_dir);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bad --spec: %s\n", e.what());
      return 2;
    }
    built_now = true;
  } else {
    std::printf("found existing %s %s (skipping dataset generation and "
                "construction)\n",
                serve_store ? "store manifest" : "snapshot",
                artifact.c_str());
  }

  // ---- Server side: deserialize once; loading must never recompress.
  u64 repair_before_load = RePairInvocationCount();
  Timer load_timer;
  AnyMatrix served;
  try {
    if (serve_store) {
      served = MatrixStore::Open(store_dir, cli.GetBool("eager")
                                                ? ShardLoadMode::kEager
                                                : ShardLoadMode::kLazy);
    } else if (!snapshot_path.empty()) {
      served = AnyMatrix::Load(snapshot_path);
    } else {
      // In-memory round trip: exercise the wire format without a file.
      served = AnyMatrix::LoadSnapshotBytes(in_memory.SaveSnapshotBytes());
    }
  } catch (const std::exception& e) {
    // Corrupt/truncated/foreign artifact: report instead of terminating
    // (delete it to rebuild on the next run).
    std::fprintf(stderr, "error loading %s: %s\n", artifact.c_str(),
                 e.what());
    return 1;
  }
  double load_seconds = load_timer.Seconds();
  u64 repair_during_load = RePairInvocationCount() - repair_before_load;
  const ShardedMatrix* sharded = ShardedMatrix::FromKernel(served.kernel());
  std::printf("loaded %s (%s) in %s (%llu RePair constructions during "
              "load)\n",
              served.FormatTag().c_str(),
              FormatBytes(served.CompressedBytes()).c_str(),
              FormatSeconds(load_seconds).c_str(),
              static_cast<unsigned long long>(repair_during_load));
  if (sharded != nullptr) {
    std::printf("store: %zu shards, %zu resident after open\n",
                sharded->shard_count(), sharded->LoadedShardCount());
  }
  if (repair_during_load != 0) {
    std::fprintf(stderr, "error: artifact load re-ran grammar compression\n");
    return 1;
  }

  // ---- Cluster-manifest derivation: map the store's row ranges onto the
  // named worker endpoints (round-robin, --replicas endpoints per range),
  // write the manifest, and exit -- a coordinator then loads it.
  if (!cli.GetString("workers").empty()) {
    if (sharded == nullptr) {
      std::fprintf(stderr,
                   "--workers needs a sharded --store artifact (the cluster "
                   "manifest routes its row ranges)\n");
      return 2;
    }
    try {
      std::vector<WorkerEndpoint> endpoints =
          ParseEndpoints(cli.GetString("workers"));
      ClusterManifest cluster = DeriveClusterManifest(
          sharded->manifest(), endpoints,
          static_cast<std::size_t>(cli.GetInt("replicas")));
      std::string out = cli.GetString("cluster-manifest");
      if (out.empty()) out = store_dir + "/" + kClusterManifestFileName;
      cluster.Save(out);
      std::printf("wrote %s: %zu row ranges over %zu workers to %s\n",
                  cluster.FormatTag().c_str(), cluster.ranges.size(),
                  cluster.WorkerCount(), out.c_str());
      for (const ClusterRange& range : cluster.ranges) {
        std::printf("  rows [%llu, %llu) -> %s%s\n",
                    static_cast<unsigned long long>(range.row_begin),
                    static_cast<unsigned long long>(range.row_end),
                    range.workers.front().ToString().c_str(),
                    range.workers.size() > 1 ? " (+replicas)" : "");
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error deriving cluster manifest: %s\n",
                   e.what());
      return 1;
    }
    return 0;
  }

  // ---- Network side: the loaded matrix goes straight behind the server
  // (the same compressed representation answers every request, one
  // single-vector kernel call each).
  ServerConfig config;
  config.port = static_cast<u16>(cli.GetInt("port"));
  config.max_resident_bytes =
      static_cast<u64>(cli.GetInt("max-resident-bytes"));
  Server server(served, config);
  server.Start();
  std::printf("serving on 127.0.0.1:%u%s\n",
              static_cast<unsigned>(server.port()),
              cli.GetBool("worker") ? " (worker)" : "");

  if (cli.GetBool("serve") || cli.GetBool("worker")) {
    // Stay up for external clients until killed.
    while (server.running()) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    return 0;
  }

  double max_diff =
      RunClientDemo(served, server.port(),
                    static_cast<std::size_t>(cli.GetInt("batches")));
  ServerStats stats = server.stats();
  std::printf("server counters: %llu replies, %llu shard evictions\n",
              static_cast<unsigned long long>(stats.replies_sent),
              static_cast<unsigned long long>(stats.shard_evictions));
  if (sharded != nullptr && config.max_resident_bytes > 0) {
    std::printf("residency cap %s: %zu shards resident at shutdown\n",
                FormatBytes(config.max_resident_bytes).c_str(),
                sharded->LoadedShardCount());
  }
  server.Stop();

  if (cli.GetBool("stats") && sharded != nullptr) {
    // Page-granular residency: a mapped shard is charged only the pages
    // the OS holds (mincore), so "resident" can sit well below "mapped"
    // when requests touched a fraction of the payload -- the zero-copy
    // snapshot path's whole point.
    std::printf("shard residency (mapped = live mmap span, resident = "
                "pages in RAM):\n");
    u64 total_mapped = 0;
    u64 total_resident = 0;
    for (std::size_t i = 0; i < sharded->shard_count(); ++i) {
      ShardedMatrix::ShardResidency info = sharded->ShardResidencyInfo(i);
      total_mapped += info.mapped_bytes;
      total_resident += info.resident_bytes;
      std::printf("  shard %zu: %s mapped, %s resident%s\n", i,
                  FormatBytes(info.mapped_bytes).c_str(),
                  FormatBytes(info.resident_bytes).c_str(),
                  info.resident ? "" : " (evicted)");
    }
    std::printf("  total: %s mapped, %s resident across %zu shards\n",
                FormatBytes(total_mapped).c_str(),
                FormatBytes(total_resident).c_str(),
                sharded->shard_count());
  }

  std::printf("serving correctness: max diff vs local oracle = %.2e\n",
              max_diff);
  if (built_now && in_memory.valid()) {
    std::vector<double> probe(served.cols(), 1.0);
    double rebuild_diff = MaxAbsDiff(served.MultiplyRight(probe),
                                     in_memory.MultiplyRight(probe));
    std::printf("artifact round trip: max diff vs built model = %.2e\n",
                rebuild_diff);
    max_diff = std::max(max_diff, rebuild_diff);
  }
  return max_diff < 1e-9 ? 0 : 1;
}
