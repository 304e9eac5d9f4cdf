// Multi-node cluster serving suite: backoff policy unit tests, cluster
// manifest round trips, Info progress counters, shard-aligned left
// ranges, and -- the core contract -- a coordinator scattering over real
// loopback worker servers with results bitwise equal to the local
// ShardedMatrix, including under failure: worker killed mid-request
// (failover to a replica, answer unchanged), no replica left (named
// kNoReplica error, connection stays usable), and a stuck worker (named
// kDeadlineExceeded, no hang). Carries the `cluster_serving_smoke` CTest
// label; CI runs it on every configuration and under the asan-ubsan +
// tsan presets.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "matrix/dense_matrix.hpp"
#include "net/backoff.hpp"
#include "net/client.hpp"
#include "net/cluster/cluster_manifest.hpp"
#include "net/cluster/cluster_serving.hpp"
#include "net/cluster/remote_sharded_matrix.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serving/sharded_matrix.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

constexpr const char* kHost = "127.0.0.1";

DenseMatrix TestDense() {
  Rng rng(9902);
  return DenseMatrix::Random(60, 11, 0.5, 5, &rng);
}

std::vector<double> RandomVector(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextDouble() * 2.0 - 1.0;
  return v;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

AnyMatrix TestSharded(std::size_t shards = 3) {
  return AnyMatrix::Build(TestDense(),
                          "sharded?inner=csr&shards=" + std::to_string(shards));
}

// --------------------------------------------------------------------------
// Backoff policy
// --------------------------------------------------------------------------

TEST(BackoffTest, GrowsExponentiallyAndCaps) {
  Backoff backoff({.initial_ms = 10, .multiplier = 2.0, .max_ms = 35,
                   .jitter = 0.0});
  EXPECT_EQ(backoff.NextDelayMs(), 10u);
  EXPECT_EQ(backoff.NextDelayMs(), 20u);
  EXPECT_EQ(backoff.NextDelayMs(), 35u);  // 40 capped
  EXPECT_EQ(backoff.NextDelayMs(), 35u);  // stays capped
  EXPECT_EQ(backoff.attempt(), 4u);
}

TEST(BackoffTest, ResetRestartsTheSchedule) {
  Backoff backoff({.initial_ms = 5, .multiplier = 3.0, .max_ms = 1000,
                   .jitter = 0.0});
  EXPECT_EQ(backoff.NextDelayMs(), 5u);
  EXPECT_EQ(backoff.NextDelayMs(), 15u);
  backoff.Reset();
  EXPECT_EQ(backoff.attempt(), 0u);
  EXPECT_EQ(backoff.NextDelayMs(), 5u);
}

TEST(BackoffTest, JitterShrinksOnlyAndIsSeedDeterministic) {
  BackoffPolicy policy{.initial_ms = 100, .multiplier = 2.0, .max_ms = 1000,
                       .jitter = 0.5};
  Backoff a(policy, /*seed=*/42);
  Backoff b(policy, /*seed=*/42);
  Backoff c(policy, /*seed=*/43);
  bool any_differs = false;
  u64 ceiling = 100;
  for (int i = 0; i < 6; ++i) {
    u64 da = a.NextDelayMs();
    EXPECT_EQ(da, b.NextDelayMs());  // same seed, same schedule
    if (da != c.NextDelayMs()) any_differs = true;
    // Jitter only ever shrinks the capped exponential, so max_ms stays a
    // hard upper bound and the delay never collapses below half of it.
    EXPECT_LE(da, ceiling);
    EXPECT_GE(da, (ceiling - ceiling / 2));
    ceiling = std::min<u64>(ceiling * 2, 1000);
  }
  EXPECT_TRUE(any_differs);  // different seed, different schedule
}

TEST(BackoffTest, RejectsInvalidPolicies) {
  EXPECT_THROW(Backoff({.multiplier = 0.5}), Error);
  EXPECT_THROW(Backoff({.jitter = 1.5}), Error);
  EXPECT_THROW(Backoff({.jitter = -0.1}), Error);
}

// --------------------------------------------------------------------------
// Cluster manifest
// --------------------------------------------------------------------------

ClusterManifest SmallManifest() {
  ClusterManifest manifest;
  manifest.rows = 10;
  manifest.cols = 4;
  manifest.ranges = {
      {0, 6, {{"127.0.0.1", 7001}, {"127.0.0.1", 7002}}},
      {6, 10, {{"127.0.0.1", 7002}}},
  };
  return manifest;
}

TEST(ClusterManifestTest, ValidateNamesTheOffender) {
  ClusterManifest manifest = SmallManifest();
  manifest.Validate();

  ClusterManifest gap = manifest;
  gap.ranges[1].row_begin = 7;
  EXPECT_THROW(gap.Validate(), Error);

  ClusterManifest short_cover = manifest;
  short_cover.rows = 11;
  EXPECT_THROW(short_cover.Validate(), Error);

  ClusterManifest no_worker = manifest;
  no_worker.ranges[0].workers.clear();
  EXPECT_THROW(no_worker.Validate(), Error);

  ClusterManifest empty_host = manifest;
  empty_host.ranges[1].workers[0].host.clear();
  EXPECT_THROW(empty_host.Validate(), Error);
}

TEST(ClusterManifestTest, FileRoundTripPreservesEverything) {
  ClusterManifest manifest = SmallManifest();
  EXPECT_EQ(manifest.WorkerCount(), 2u);
  EXPECT_EQ(manifest.FormatTag(), "cluster?shards=2&workers=2");

  std::string path = ScratchPath("cluster_manifest.gcsnap");
  manifest.Save(path);
  ClusterManifest loaded = ClusterManifest::Load(path);
  EXPECT_EQ(loaded, manifest);
}

TEST(ClusterManifestTest, DeriveRoutesShardsRoundRobinWithReplicas) {
  AnyMatrix local = TestSharded(3);
  const ShardedMatrix* sharded = ShardedMatrix::FromKernel(local.kernel());
  ASSERT_NE(sharded, nullptr);
  std::vector<WorkerEndpoint> workers = {{"127.0.0.1", 7001},
                                         {"127.0.0.1", 7002}};

  ClusterManifest cluster =
      DeriveClusterManifest(sharded->manifest(), workers, /*replicas=*/2);
  ASSERT_EQ(cluster.ranges.size(), 3u);  // one range per shard, never merged
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.ranges[i].row_begin,
              sharded->manifest().shards[i].row_begin);
    EXPECT_EQ(cluster.ranges[i].row_end, sharded->manifest().shards[i].row_end);
    ASSERT_EQ(cluster.ranges[i].workers.size(), 2u);
    EXPECT_EQ(cluster.ranges[i].workers[0], workers[i % 2]);
    EXPECT_EQ(cluster.ranges[i].workers[1], workers[(i + 1) % 2]);
  }

  // Replica fan is clamped to the distinct worker count.
  ClusterManifest clamped =
      DeriveClusterManifest(sharded->manifest(), workers, /*replicas=*/5);
  EXPECT_EQ(clamped.ranges[0].workers.size(), 2u);

  EXPECT_THROW(DeriveClusterManifest(sharded->manifest(), {}, 1), Error);
  EXPECT_THROW(DeriveClusterManifest(sharded->manifest(), workers, 0), Error);
}

// --------------------------------------------------------------------------
// Info counters
// --------------------------------------------------------------------------

/// Server on an ephemeral loopback port, stopped on destruction.
struct TestServer {
  explicit TestServer(AnyMatrix matrix, ServerConfig config = {}) {
    config.host = kHost;
    config.port = 0;
    server = std::make_unique<Server>(std::move(matrix), config);
    server->Start();
  }
  Client Connect() const { return Client::Connect(kHost, server->port()); }
  std::unique_ptr<Server> server;
};

TEST(ClusterProtocolTest, InfoReportsProgressAndResidentShards) {
  TestServer ts(TestSharded());
  Client client = ts.Connect();
  ServerInfo before = client.Info();

  std::vector<double> x = RandomVector(11, 31);
  client.MvmRight(x);
  ServerInfo after = client.Info();
  EXPECT_GE(after.requests_served, before.requests_served + 1);
  EXPECT_EQ(after.resident_shards, 3u);
}

// --------------------------------------------------------------------------
// Shard-aligned left ranges over the wire
// --------------------------------------------------------------------------

TEST(ClusterProtocolTest, RangedLeftMatchesLocalRangeKernelBitwise) {
  AnyMatrix m = TestSharded(3);
  const ShardedMatrix* sharded = ShardedMatrix::FromKernel(m.kernel());
  ASSERT_NE(sharded, nullptr);
  TestServer ts(m);
  Client client = ts.Connect();

  for (const ShardManifestEntry& shard : sharded->manifest().shards) {
    std::vector<double> y = RandomVector(shard.rows(), 40 + shard.row_begin);
    std::vector<double> served =
        client.MvmLeft(y, shard.row_begin, shard.row_end);
    std::vector<double> local(m.cols());
    sharded->MultiplyLeftRangeInto(y, local, shard.row_begin, shard.row_end);
    EXPECT_TRUE(BitwiseEqual(served, local))
        << "range [" << shard.row_begin << ", " << shard.row_end << ")";
  }
}

TEST(ClusterProtocolTest, MisalignedLeftRangeIsNamedError) {
  TestServer ts(TestSharded(3));
  Client client = ts.Connect();
  std::vector<double> y(5, 1.0);
  try {
    client.MvmLeft(y, 1, 6);  // no shard starts at row 1
    FAIL() << "misaligned left range not rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad_row_range"), std::string::npos)
        << e.what();
  }
  client.Ping();
}

// --------------------------------------------------------------------------
// Coordinator scatter/gather: bitwise vs the local sharded matrix
// --------------------------------------------------------------------------

TEST(RemoteShardedMatrixTest, ScatterGatherBitwiseEqualToLocal) {
  AnyMatrix local = TestSharded(3);
  auto cluster = LoopbackCluster::Start(local, {.workers = 2});
  ASSERT_GE(cluster->worker_count(), 2u);
  ASSERT_EQ(cluster->manifest().ranges.size(), 3u);
  const RemoteShardedMatrix& remote = cluster->remote();

  std::vector<double> x = RandomVector(local.cols(), 51);
  std::vector<double> y = RandomVector(local.rows(), 52);
  std::vector<double> right(local.rows());
  std::vector<double> left(local.cols());
  remote.MultiplyRightInto(x, right, {});
  remote.MultiplyLeftInto(y, left, {});
  EXPECT_TRUE(BitwiseEqual(right, local.MultiplyRight(x)));
  EXPECT_TRUE(BitwiseEqual(left, local.MultiplyLeft(y)));

  // Multi-vector calls (IMatrixKernel's per-vector loop, one scatter per
  // vector): every column/row bitwise equal too.
  const std::size_t k = 4;
  Rng rng(53);
  DenseMatrix xr(local.cols(), k);
  DenseMatrix xl(k, local.rows());
  for (std::size_t r = 0; r < xr.rows(); ++r)
    for (std::size_t c = 0; c < k; ++c)
      xr.Set(r, c, rng.NextDouble() * 2.0 - 1.0);
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < xl.cols(); ++c)
      xl.Set(r, c, rng.NextDouble() * 2.0 - 1.0);
  DenseMatrix right_multi(local.rows(), k);
  DenseMatrix left_multi(k, local.cols());
  remote.MultiplyRightMulti(xr, &right_multi, {});
  remote.MultiplyLeftMulti(xl, &left_multi, {});
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(right_multi, local.MultiplyRightMulti(xr)),
            0.0);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(left_multi, local.MultiplyLeftMulti(xl)),
            0.0);

  // ToDense is the same loop over the identity columns.
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(remote.ToDense(), local.ToDense()), 0.0);

  ClusterStats stats = remote.stats();
  EXPECT_GE(stats.scatters, 5u);
  EXPECT_GE(stats.requests_sent, 3u * 2u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(RemoteShardedMatrixTest, CoordinatorReExportsTheOrdinaryProtocol) {
  AnyMatrix local = TestSharded(3);
  auto cluster = LoopbackCluster::Start(local, {.workers = 2});
  // The coordinator is an ordinary Server over the cluster kernel; a
  // stock client speaks plain MVM and cannot tell it is talking to a
  // cluster.
  TestServer coordinator{AnyMatrix(cluster)};
  Client client = coordinator.Connect();

  ServerInfo info = client.Info();
  EXPECT_EQ(info.rows, local.rows());
  EXPECT_EQ(info.cols, local.cols());

  std::vector<double> x = RandomVector(local.cols(), 61);
  std::vector<double> y = RandomVector(local.rows(), 62);
  EXPECT_TRUE(BitwiseEqual(client.MvmRight(x), local.MultiplyRight(x)));
  EXPECT_TRUE(BitwiseEqual(client.MvmLeft(y), local.MultiplyLeft(y)));
}

TEST(RemoteShardedMatrixTest, ConnectRejectsUnreachableCluster) {
  ClusterManifest manifest = SmallManifest();  // nothing listens there
  try {
    RemoteShardedMatrix::Connect(manifest, {.max_attempts = 1});
    FAIL() << "connect to a dead cluster succeeded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no cluster worker reachable"),
              std::string::npos)
        << e.what();
  }
}

TEST(RemoteShardedMatrixTest, ConnectRejectsWorkerOfAnotherShape) {
  // The only worker serves a 60x11 matrix; the manifest expects 10x4.
  TestServer worker(TestSharded());
  ClusterManifest manifest;
  manifest.rows = 10;
  manifest.cols = 4;
  manifest.ranges = {{0, 10, {{kHost, worker.server->port()}}}};
  try {
    RemoteShardedMatrix::Connect(manifest, {.max_attempts = 1});
    FAIL() << "connect to a worker of another shape succeeded";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("60x11"), std::string::npos) << message;
    EXPECT_NE(message.find("10x4"), std::string::npos) << message;
    // The worker answered: it was refused, not unreachable.
    EXPECT_EQ(message.find("no cluster worker reachable"), std::string::npos)
        << message;
    EXPECT_NE(message.find("reached but refused"), std::string::npos)
        << message;
  }
}

// --------------------------------------------------------------------------
// Failure paths: failover, no replica, deadline
// --------------------------------------------------------------------------

TEST(ClusterFailoverTest, WorkerKilledMidRequestFailsOverBitwiseIdentical) {
  AnyMatrix local = TestSharded(4);
  auto cluster = LoopbackCluster::Start(
      local, {.workers = 2,
              .replicas = 2,
              .cluster = {.backoff = {.initial_ms = 1, .max_ms = 5}}});
  const RemoteShardedMatrix& remote = cluster->remote();

  std::vector<double> x = RandomVector(local.cols(), 71);
  std::vector<double> want = local.MultiplyRight(x);
  std::vector<double> got(local.rows());
  remote.MultiplyRightInto(x, got, {});  // channels to both workers now open
  EXPECT_TRUE(BitwiseEqual(got, want));

  // Kill worker 0 under the open connections: in-flight sends to it see a
  // dead socket or a kShuttingDown drain, and every range it preferred
  // must fail over to the surviving replica with the answer unchanged.
  cluster->StopWorker(0);
  std::fill(got.begin(), got.end(), 0.0);
  remote.MultiplyRightInto(x, got, {});
  EXPECT_TRUE(BitwiseEqual(got, want));

  std::vector<double> y = RandomVector(local.rows(), 72);
  std::vector<double> left(local.cols());
  remote.MultiplyLeftInto(y, left, {});
  EXPECT_TRUE(BitwiseEqual(left, local.MultiplyLeft(y)));

  ClusterStats stats = remote.stats();
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.failovers, 1u);
}

TEST(ClusterFailoverTest, NoReplicaLeftIsNamedErrorAndConnectionSurvives) {
  AnyMatrix local = TestSharded(2);
  auto cluster = LoopbackCluster::Start(
      local, {.workers = 2,
              .replicas = 1,
              .cluster = {.max_attempts = 2,
                          .backoff = {.initial_ms = 1, .max_ms = 2}}});
  TestServer coordinator{AnyMatrix(cluster)};
  Client client = coordinator.Connect();

  std::vector<double> x = RandomVector(local.cols(), 81);
  EXPECT_TRUE(BitwiseEqual(client.MvmRight(x), local.MultiplyRight(x)));

  // With one replica per range, killing a worker strands its ranges: the
  // coordinator must answer a *named* error frame (not hang, not close)
  // and keep serving the connection.
  cluster->StopWorker(0);
  try {
    client.MvmRight(x);
    FAIL() << "multiply over a dead range succeeded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no_replica"), std::string::npos)
        << e.what();
  }
  client.Ping();  // same connection, still alive

  // The kernel itself reports the same named code.
  try {
    std::vector<double> y(local.rows());
    cluster->remote().MultiplyRightInto(x, y, {});
    FAIL() << "kernel multiply over a dead range succeeded";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), NetError::kNoReplica);
  }
}

TEST(ClusterFailoverTest, StuckWorkerHitsDeadlineNotAHang) {
  AnyMatrix local = TestSharded(2);
  auto cluster = LoopbackCluster::Start(
      local, {.workers = 1,
              .cluster = {.deadline_ms = 100,
                          .max_attempts = 2,
                          .backoff = {.initial_ms = 1, .max_ms = 2}}});
  // Admit requests but never execute them: every attempt must time out at
  // the 100 ms receive deadline instead of blocking forever.
  cluster->worker(0).PauseDispatcher();

  std::vector<double> x = RandomVector(local.cols(), 91);
  std::vector<double> y(local.rows());
  try {
    cluster->remote().MultiplyRightInto(x, y, {});
    FAIL() << "multiply against a stuck worker returned";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), NetError::kDeadlineExceeded);
  }
  EXPECT_GE(cluster->remote().stats().deadline_timeouts, 1u);

  // Un-stick the worker: the next multiply reconnects and serves.
  cluster->worker(0).ResumeDispatcher();
  std::vector<double> got(local.rows());
  cluster->remote().MultiplyRightInto(x, got, {});
  EXPECT_TRUE(BitwiseEqual(got, local.MultiplyRight(x)));
}

// --------------------------------------------------------------------------
// Restart robustness (SO_REUSEADDR + reader join in Stop)
// --------------------------------------------------------------------------

TEST(ClusterLifecycleTest, RestartsOnTheSamePortImmediately) {
  AnyMatrix m = TestSharded(2);
  u16 port = 0;
  {
    Server first(m, ServerConfig{.host = kHost, .port = 0});
    first.Start();
    port = first.port();
    Client client = Client::Connect(kHost, port);
    client.Ping();
    first.Stop();
  }
  // The listener was just closed with live connections: rebinding the
  // same port must succeed right away (SO_REUSEADDR), repeatedly.
  for (u64 round = 0; round < 3; ++round) {
    Server next(m, ServerConfig{.host = kHost, .port = port});
    next.Start();
    EXPECT_EQ(next.port(), port);
    Client client = Client::Connect(kHost, port);
    std::vector<double> x = RandomVector(m.cols(), 95 + round);
    EXPECT_TRUE(BitwiseEqual(client.MvmRight(x), m.MultiplyRight(x)));
    next.Stop();
  }
}

}  // namespace
}  // namespace gcm
