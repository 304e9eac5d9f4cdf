// Serving subsystem suite over a real loopback socket: server lifecycle,
// request/reply correctness against the local engine oracle (bitwise),
// pipelined replies identical to sequential local calls (sharded and
// unsharded), admission control (queue-full, shutdown
// drain), protocol robustness against a hostile peer (malformed frames,
// mid-stream disconnects -- named error or clean close, never a crash or
// hang), residency-limited serving, and a concurrent mixed-workload
// stress run. Carries the `net_serving_smoke` CTest label; CI runs it on
// every compiler configuration and under the asan-ubsan + tsan presets.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/any_matrix.hpp"
#include "encoding/snapshot.hpp"
#include "matrix/dense_matrix.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serving/matrix_store.hpp"
#include "serving/sharded_matrix.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

constexpr const char* kHost = "127.0.0.1";

DenseMatrix TestDense() {
  Rng rng(7701);
  return DenseMatrix::Random(60, 11, 0.5, 5, &rng);
}

std::vector<double> RandomVector(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextDouble() * 2.0 - 1.0;
  return v;
}

std::vector<u8> ValidPingFrameBytes() {
  return EncodeFrame(MsgType::kPing, 1, {});
}

/// Server bound to an ephemeral loopback port, stopped on destruction.
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

// --------------------------------------------------------------------------
// Lifecycle + basics
// --------------------------------------------------------------------------

TEST(NetServerTest, StartStopIsClean) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  Server server(m, ServerConfig{.host = kHost, .port = 0});
  server.Start();
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(NetServerTest, PingAndInfo) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "gcm:re_32");
  TestServer ts(m);
  Client client = ts.Connect();
  client.Ping();
  ServerInfo info = client.Info();
  EXPECT_EQ(info.rows, m.rows());
  EXPECT_EQ(info.cols, m.cols());
  EXPECT_EQ(info.format_tag, m.FormatTag());
  EXPECT_EQ(info.compressed_bytes, m.CompressedBytes());
}

// --------------------------------------------------------------------------
// Correctness against the local engine oracle (bitwise)
// --------------------------------------------------------------------------

TEST(NetServerTest, RightAndLeftMatchLocalOracleBitwise) {
  DenseMatrix dense = TestDense();
  for (const char* spec :
       {"dense", "csrv", "gcm:re_32", "sharded?inner=csr&shards=3"}) {
    AnyMatrix m = AnyMatrix::Build(dense, spec);
    TestServer ts(m);
    Client client = ts.Connect();

    std::vector<double> x = RandomVector(m.cols(), 11);
    std::vector<double> served = client.MvmRight(x);
    std::vector<double> local = m.MultiplyRight(x);
    EXPECT_EQ(served, local) << spec;  // bitwise, not approximate

    std::vector<double> y = RandomVector(m.rows(), 12);
    EXPECT_EQ(client.MvmLeft(y), m.MultiplyLeft(y)) << spec;
  }
}

TEST(NetServerTest, RowRangeMatchesSliceOfLocalOracle) {
  DenseMatrix dense = TestDense();
  for (const char* spec : {"csr", "sharded?inner=csrv&shards=4"}) {
    AnyMatrix m = AnyMatrix::Build(dense, spec);
    TestServer ts(m);
    Client client = ts.Connect();
    std::vector<double> x = RandomVector(m.cols(), 21);
    std::vector<double> local = m.MultiplyRight(x);
    for (auto [begin, end] : {std::pair<u64, u64>{0, 5},
                              {13, 37},
                              {59, 60},
                              {0, 60}}) {
      std::vector<double> served = client.MvmRight(x, begin, end);
      ASSERT_EQ(served.size(), end - begin) << spec;
      for (u64 r = begin; r < end; ++r) {
        EXPECT_EQ(served[r - begin], local[r])
            << spec << " row " << r << " of [" << begin << ", " << end << ")";
      }
    }
  }
}

// --------------------------------------------------------------------------
// Pipelining: requests in flight on one connection never change an answer
// --------------------------------------------------------------------------

// The test names predate the removal of request batching: the server now
// runs every request as its own kernel call, and these tests check that
// requests pipelined on one connection still get the sequential answer.
void CheckPipelinedBitwise(const AnyMatrix& m) {
  constexpr std::size_t kInFlight = 4;
  TestServer ts(m);
  Client client = ts.Connect();
  // Full-range rights, all sent before the first reply is read.
  std::vector<std::vector<double>> inputs;
  std::vector<u64> ids;
  for (std::size_t j = 0; j < kInFlight; ++j) {
    inputs.push_back(RandomVector(m.cols(), 100 + j));
    ids.push_back(client.SendMvmRight(inputs.back()));
  }
  for (std::size_t j = 0; j < kInFlight; ++j) {
    Client::Response response = client.Await(ids[j]);
    ASSERT_EQ(response.type, MsgType::kMvmReply) << response.message;
    // The oracle: a sequential single-vector engine call.
    EXPECT_EQ(response.values, m.MultiplyRight(inputs[j])) << "request " << j;
  }

  // Same through the left kernels.
  std::vector<std::vector<double>> left_inputs;
  ids.clear();
  for (std::size_t j = 0; j < kInFlight; ++j) {
    left_inputs.push_back(RandomVector(m.rows(), 200 + j));
    ids.push_back(client.SendMvmLeft(left_inputs.back()));
  }
  for (std::size_t j = 0; j < kInFlight; ++j) {
    Client::Response response = client.Await(ids[j]);
    ASSERT_EQ(response.type, MsgType::kMvmReply) << response.message;
    EXPECT_EQ(response.values, m.MultiplyLeft(left_inputs[j]));
  }
}

TEST(NetServerTest, BatchedRepliesBitwiseIdenticalUnsharded) {
  CheckPipelinedBitwise(AnyMatrix::Build(TestDense(), "gcm:re_32"));
}

TEST(NetServerTest, BatchedRepliesBitwiseIdenticalSharded) {
  CheckPipelinedBitwise(
      AnyMatrix::Build(TestDense(), "sharded?inner=gcm:re_32&shards=3"));
}

TEST(NetServerTest, BatchedRangeRepliesBitwiseIdentical) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "sharded?inner=csr&shards=4");
  TestServer ts(m);
  Client client = ts.Connect();
  // Pipelined ranged rights: each reply is the [10, 40) slice of the full
  // result.
  std::vector<std::vector<double>> inputs;
  std::vector<u64> ids;
  for (std::size_t j = 0; j < 3; ++j) {
    inputs.push_back(RandomVector(m.cols(), 31 + j));
    ids.push_back(client.SendMvmRight(inputs[j], 10, 40));
  }
  for (std::size_t j = 0; j < 3; ++j) {
    Client::Response response = client.Await(ids[j]);
    ASSERT_EQ(response.type, MsgType::kMvmReply) << response.message;
    std::vector<double> full = m.MultiplyRight(inputs[j]);
    ASSERT_EQ(response.values.size(), 30u);
    for (std::size_t r = 0; r < 30; ++r) {
      EXPECT_EQ(response.values[r], full[10 + r]);
    }
  }
}

// --------------------------------------------------------------------------
// Request-level errors: named reply, connection stays usable
// --------------------------------------------------------------------------

TEST(NetServerTest, DimensionMismatchIsNamedAndRecoverable) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  TestServer ts(m);
  Client client = ts.Connect();
  std::vector<double> wrong(m.cols() + 3, 1.0);
  Client::Response response = client.Await(client.SendMvmRight(wrong));
  EXPECT_EQ(response.type, MsgType::kError);
  EXPECT_EQ(response.error, NetError::kDimensionMismatch);
  // The stream is intact; the same connection keeps serving.
  client.Ping();
  EXPECT_EQ(client.MvmRight(RandomVector(m.cols(), 41)).size(), m.rows());
}

TEST(NetServerTest, BadRowRangeIsNamed) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  TestServer ts(m);
  Client client = ts.Connect();
  std::vector<double> x = RandomVector(m.cols(), 51);
  // end beyond rows, inverted range, and a range on a left multiply.
  Client::Response r1 = client.Await(client.SendMvmRight(x, 10, 1000));
  EXPECT_EQ(r1.error, NetError::kBadRowRange);
  Client::Response r2 = client.Await(client.SendMvmRight(x, 20, 10));
  EXPECT_EQ(r2.error, NetError::kBadRowRange);
  MvmRequest left;
  left.row_begin = 1;
  left.row_end = 2;
  left.x = RandomVector(m.rows(), 52);
  ByteWriter body;
  left.EncodeTo(&body);
  WriteFrame(client.socket(), MsgType::kMvmLeft, 777, body.buffer());
  Client::Response r3 = client.Await(777);
  EXPECT_EQ(r3.error, NetError::kBadRowRange);
  client.Ping();  // still serving
}

TEST(NetServerTest, MalformedPayloadIsNamedAndRecoverable) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  TestServer ts(m);
  Client client = ts.Connect();
  // A well-framed request whose body is garbage: header + CRC valid, so
  // only the payload codec can reject it.
  std::vector<u8> garbage(12, 0x80);
  WriteFrame(client.socket(), MsgType::kMvmRight, 9, garbage);
  Client::Response response = client.Await(9);
  EXPECT_EQ(response.type, MsgType::kError);
  EXPECT_EQ(response.error, NetError::kMalformedPayload);
  client.Ping();
}

TEST(NetServerTest, ResponseTypeRequestIsRejectedButKeepsConnection) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  TestServer ts(m);
  Client client = ts.Connect();
  WriteFrame(client.socket(), MsgType::kMvmReply, 5, {});
  Client::Response response = client.Await(5);
  EXPECT_EQ(response.error, NetError::kBadType);
  client.Ping();
}

// --------------------------------------------------------------------------
// Stream-level errors: named error (best effort), then the server closes
// --------------------------------------------------------------------------

/// Expects: optionally one kError frame carrying `code`, then EOF.
void ExpectErrorThenClose(Socket& socket, NetError code) {
  std::optional<Frame> frame = ReadFrame(socket);
  if (frame.has_value()) {
    ASSERT_EQ(frame->type, MsgType::kError);
    ByteReader in(frame->payload);
    EXPECT_EQ(ErrorReply::DecodeFrom(&in).code, code);
    EXPECT_FALSE(ReadFrame(socket).has_value());  // then clean close
  }
}

TEST(NetServerTest, BadMagicGetsNamedErrorThenClose) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  TestServer ts(m);
  Socket socket = Socket::ConnectTcp(kHost, ts.server->port());
  std::vector<u8> frame = EncodeFrame(MsgType::kPing, 1, {});
  frame[0] ^= 0xff;
  socket.SendAll(frame);
  ExpectErrorThenClose(socket, NetError::kBadMagic);
  // The server survives; a fresh client works.
  Client client = ts.Connect();
  client.Ping();
}

TEST(NetServerTest, WrongVersionGetsNamedErrorThenClose) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  TestServer ts(m);
  Socket socket = Socket::ConnectTcp(kHost, ts.server->port());
  std::vector<u8> frame = EncodeFrame(MsgType::kPing, 1, {});
  frame[4] = 99;
  socket.SendAll(frame);
  ExpectErrorThenClose(socket, NetError::kBadVersion);
  Client client = ts.Connect();
  client.Ping();
}

TEST(NetServerTest, VersionTwoHandshakeGetsBadVersionThenClose) {
  // A version-2 peer opened with a handshake frame (type 5) whose body was
  // version, capability bits, required bits and a peer name. The header's
  // version is checked before anything else, so the body is never parsed.
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  TestServer ts(m);
  Socket socket = Socket::ConnectTcp(kHost, ts.server->port());
  ByteWriter body;
  body.Put<u16>(2);
  body.PutVarint(3);
  body.PutVarint(1);
  body.PutString("coordinator");
  FrameHeader header;
  header.version = 2;
  header.type = 5;
  header.request_id = 1;
  header.payload_bytes = static_cast<u32>(body.buffer().size());
  header.payload_crc = Crc32(body.buffer().data(), body.buffer().size());
  ByteWriter out;
  EncodeFrameHeader(header, &out);
  out.PutBytes(body.buffer().data(), body.buffer().size());
  socket.SendAll(out.buffer());
  ExpectErrorThenClose(socket, NetError::kBadVersion);
  Client client = ts.Connect();
  client.Ping();
}

TEST(NetServerTest, OversizedFrameGetsNamedErrorThenClose) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  TestServer ts(m);
  Socket socket = Socket::ConnectTcp(kHost, ts.server->port());
  FrameHeader header;
  header.type = static_cast<u16>(MsgType::kMvmRight);
  header.request_id = 1;
  header.payload_bytes = kNetMaxPayloadBytes + 1;  // never sent, never read
  ByteWriter out;
  EncodeFrameHeader(header, &out);
  socket.SendAll(out.buffer());
  ExpectErrorThenClose(socket, NetError::kOversizedFrame);
  Client client = ts.Connect();
  client.Ping();
}

TEST(NetServerTest, CorruptPayloadChecksumClosesConnection) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  TestServer ts(m);
  Socket socket = Socket::ConnectTcp(kHost, ts.server->port());
  MvmRequest request;
  request.x = RandomVector(m.cols(), 61);
  ByteWriter body;
  request.EncodeTo(&body);
  std::vector<u8> frame =
      EncodeFrame(MsgType::kMvmRight, 3, body.buffer());
  frame.back() ^= 0x01;  // payload no longer matches the header CRC
  socket.SendAll(frame);
  ExpectErrorThenClose(socket, NetError::kChecksumMismatch);
  Client client = ts.Connect();
  client.Ping();
}

TEST(NetServerTest, MidStreamDisconnectsNeverWedgeTheServer) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  TestServer ts(m);
  std::vector<u8> frame = ValidPingFrameBytes();
  // Disconnect after every possible prefix of a valid frame, including
  // zero bytes (connect-and-vanish).
  for (std::size_t keep = 0; keep <= frame.size(); ++keep) {
    Socket socket = Socket::ConnectTcp(kHost, ts.server->port());
    socket.SendAll(std::span<const u8>(frame.data(), keep));
    socket.Close();
  }
  // The server took no damage: a real client still gets served.
  Client client = ts.Connect();
  client.Ping();
  EXPECT_EQ(client.MvmRight(RandomVector(m.cols(), 71)),
            AnyMatrix::Build(TestDense(), "csr")
                .MultiplyRight(RandomVector(m.cols(), 71)));
}

// --------------------------------------------------------------------------
// Admission control + shutdown drain
// --------------------------------------------------------------------------

TEST(NetServerTest, QueueFullIsNamedAndShutdownDrainsPending) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  // The pause valve parks the dispatcher, so admission control is
  // deterministic: one connection's requests are admitted in send order
  // by its reader thread and nothing leaves the queue until resume.
  TestServer ts(m, ServerConfig{.admission_queue_limit = 2});
  ts.server->PauseDispatcher();
  Client client = ts.Connect();
  std::vector<double> x = RandomVector(m.cols(), 81);
  std::vector<double> expect = m.MultiplyRight(x);

  u64 q1 = client.SendMvmRight(x);       // queued
  u64 q2 = client.SendMvmRight(x);       // queued (limit reached)
  u64 rejected = client.SendMvmRight(x);  // over the limit
  Client::Response over = client.Await(rejected);
  EXPECT_EQ(over.type, MsgType::kError);
  EXPECT_EQ(over.error, NetError::kQueueFull);
  EXPECT_EQ(ts.server->QueueDepth(), 2u);

  // Resume: the parked requests are served normally, bitwise correct.
  ts.server->ResumeDispatcher();
  Client::Response r1 = client.Await(q1);
  ASSERT_EQ(r1.type, MsgType::kMvmReply) << r1.message;
  EXPECT_EQ(r1.values, expect);
  Client::Response r2 = client.Await(q2);
  ASSERT_EQ(r2.type, MsgType::kMvmReply) << r2.message;
  EXPECT_EQ(r2.values, expect);

  // Stop with requests parked behind a paused dispatcher: every queued
  // request gets the named shutdown error -- nothing is silently
  // dropped, nothing hangs. The Ping round trip pins admission order
  // (same reader thread), so both sends are queued before Stop().
  ts.server->PauseDispatcher();
  u64 q3 = client.SendMvmRight(x);
  u64 q4 = client.SendMvmRight(x);
  client.Ping();
  ASSERT_EQ(ts.server->QueueDepth(), 2u);
  ts.server->Stop();
  Client::Response d3 = client.Await(q3);
  EXPECT_EQ(d3.error, NetError::kShuttingDown);
  Client::Response d4 = client.Await(q4);
  EXPECT_EQ(d4.error, NetError::kShuttingDown);
}

TEST(NetServerTest, ConnectionLimitRefusedWithNamedError) {
  AnyMatrix m = AnyMatrix::Build(TestDense(), "csr");
  TestServer ts(m, ServerConfig{.max_connections = 1});
  Client first = ts.Connect();
  first.Ping();  // the slot is taken
  Socket refused = Socket::ConnectTcp(kHost, ts.server->port());
  std::optional<Frame> frame = ReadFrame(refused);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kError);
  ByteReader in(frame->payload);
  EXPECT_EQ(ErrorReply::DecodeFrom(&in).code, NetError::kQueueFull);
  EXPECT_FALSE(ReadFrame(refused).has_value());
  first.Ping();  // unaffected
}

// --------------------------------------------------------------------------
// Residency-aware serving (EMBANKS-style bounded working set)
// --------------------------------------------------------------------------

TEST(NetServerTest, RangeRequestsTouchOnlyOverlappingShards) {
  DenseMatrix dense = TestDense();  // 60 rows
  std::string dir = ScratchPath("range_touch");
  MatrixStore::Partition(dense, "csr", {.shards = 6}, dir);  // 10 rows each
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  const ShardedMatrix* sharded = ShardedMatrix::FromKernel(m.kernel());
  ASSERT_NE(sharded, nullptr);
  ASSERT_EQ(sharded->LoadedShardCount(), 0u);

  TestServer ts(m);
  Client client = ts.Connect();
  std::vector<double> x = RandomVector(m.cols(), 91);
  std::vector<double> served = client.MvmRight(x, 25, 35);  // shards 2 and 3
  EXPECT_EQ(sharded->LoadedShardCount(), 2u);

  std::vector<double> local = m.MultiplyRight(x);
  ASSERT_EQ(served.size(), 10u);
  for (std::size_t r = 0; r < 10; ++r) EXPECT_EQ(served[r], local[25 + r]);
}

TEST(NetServerTest, ResidencyLimitBoundsTheWorkingSet) {
  DenseMatrix dense = TestDense();
  std::string dir = ScratchPath("residency");
  MatrixStore::Partition(dense, "csr", {.shards = 6}, dir);
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  const ShardedMatrix* sharded = ShardedMatrix::FromKernel(m.kernel());
  ASSERT_NE(sharded, nullptr);

  std::vector<double> x = RandomVector(m.cols(), 95);
  std::vector<double> local = m.MultiplyRight(x);  // every shard resident
  // Twice the smallest shard's footprint holds at most two shards.
  u64 smallest = ~0ULL;
  for (std::size_t i = 0; i < sharded->shard_count(); ++i) {
    smallest =
        std::min(smallest, sharded->ShardResidencyInfo(i).resident_bytes);
  }
  ASSERT_GT(smallest, 0u);

  TestServer ts(m, ServerConfig{.max_resident_bytes = 2 * smallest});
  Client client = ts.Connect();
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(client.MvmRight(x), local);  // touches all six shards
    std::vector<double> slice = client.MvmRight(x, 5, 15);
    for (std::size_t r = 0; r < slice.size(); ++r) {
      EXPECT_EQ(slice[r], local[5 + r]);
    }
  }
  // Eviction runs after each request, before the next one starts; after
  // the last reply the previous requests' evictions have all been applied,
  // so the working set is at most the limit plus the last request's
  // touches.
  EXPECT_LE(sharded->LoadedShardCount(), 4u);
  EXPECT_GT(ts.server->stats().shard_evictions, 0u);
}

TEST(NetServerTest, PooledShardFailureIsNamedAndConnectionSurvives) {
  // A full multiply fans its four shards out on the kernel pool; a shard
  // that fails to load there must come back as a named error reply, and
  // the connection must keep serving the healthy shards afterwards.
  DenseMatrix dense = TestDense();
  std::string dir = ScratchPath("pooled_shard_failure");
  ShardManifest manifest =
      MatrixStore::Partition(dense, "gcm:re_iv?blocks=2", {.shards = 4}, dir);
  std::vector<double> x = RandomVector(dense.cols(), 97);
  // The oracle maps every shard before the corruption; the rewrite below
  // replaces the file by rename, so this mapping keeps the healthy bytes.
  AnyMatrix oracle = MatrixStore::Open(dir, ShardLoadMode::kEager);
  const std::vector<double> want = oracle.MultiplyRight(x);

  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  ASSERT_EQ(ShardedMatrix::FromKernel(m.kernel())->LoadedShardCount(), 0u);
  const std::string victim =
      (std::filesystem::path(dir) / manifest.shards[2].file).string();
  std::vector<u8> bytes = ReadFileBytes(victim);
  bytes[bytes.size() / 2] ^= 0x40;
  WriteFileBytes(victim, bytes);

  TestServer ts(m);
  Client client = ts.Connect();
  Client::Response failed = client.Await(client.SendMvmRight(x));
  ASSERT_EQ(failed.type, MsgType::kError);
  EXPECT_EQ(failed.error, NetError::kInternal);
  EXPECT_NE(failed.message.find("shard file " + victim), std::string::npos)
      << failed.message;

  const ShardManifestEntry& healthy = manifest.shards[1];
  std::vector<double> slice =
      client.MvmRight(x, healthy.row_begin, healthy.row_end);
  ASSERT_EQ(slice.size(), healthy.row_end - healthy.row_begin);
  for (std::size_t r = 0; r < slice.size(); ++r) {
    EXPECT_EQ(slice[r], want[healthy.row_begin + r]) << "row " << r;
  }
}

// --------------------------------------------------------------------------
// Concurrent mixed workload (the tsan preset runs this with race detection)
// --------------------------------------------------------------------------

TEST(NetServerTest, ConcurrentMixedWorkloadServesEveryoneCorrectly) {
  DenseMatrix dense = TestDense();
  AnyMatrix m = AnyMatrix::Build(dense, "sharded?inner=csr&shards=3");
  // Every server runs its kernels on the process kernel pool, so this
  // exercises the pooled shard scatter under serving concurrency; the
  // sharded kernels are bitwise pool-invariant, so the oracle assertions
  // still hold exactly.
  TestServer ts(m);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRequests = 25;
  std::vector<std::thread> workers;
  std::vector<std::string> failures(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      try {
        Client client = ts.Connect();
        for (std::size_t i = 0; i < kRequests; ++i) {
          u64 seed = 1000 + t * 100 + i;
          switch ((t + i) % 3) {
            case 0: {
              std::vector<double> x = RandomVector(m.cols(), seed);
              if (client.MvmRight(x) != m.MultiplyRight(x)) {
                failures[t] = "right mismatch";
                return;
              }
              break;
            }
            case 1: {
              std::vector<double> y = RandomVector(m.rows(), seed);
              if (client.MvmLeft(y) != m.MultiplyLeft(y)) {
                failures[t] = "left mismatch";
                return;
              }
              break;
            }
            default: {
              std::vector<double> x = RandomVector(m.cols(), seed);
              std::vector<double> full = m.MultiplyRight(x);
              std::vector<double> slice = client.MvmRight(x, 20, 45);
              for (std::size_t r = 0; r < 25; ++r) {
                if (slice[r] != full[20 + r]) {
                  failures[t] = "range mismatch";
                  return;
                }
              }
              break;
            }
          }
        }
      } catch (const std::exception& e) {
        failures[t] = e.what();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "worker " << t;
  }
  ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.requests_admitted, kThreads * kRequests);
  EXPECT_EQ(stats.replies_sent, kThreads * kRequests);
}

}  // namespace
}  // namespace gcm
