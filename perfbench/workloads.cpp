#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/any_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "core/gc_matrix.hpp"
#include "encoding/byte_stream.hpp"
#include "encoding/snapshot.hpp"
#include "matrix/datasets.hpp"
#include "matrix/dense_matrix.hpp"
#include "net/client.hpp"
#include "net/cluster/cluster_serving.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serving/matrix_store.hpp"
#include "serving/sharded_matrix.hpp"
#include "util/mapped_file.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "oracles.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using gcm::AnyMatrix;
using gcm::DenseMatrix;

// ---------------------------------------------------------------------------
// Workload definitions (README.md records why each size was chosen).
// ---------------------------------------------------------------------------

// Pool and client threads: the benchmark targets 4-core machines, and no
// role may use more threads than there are cores.
constexpr std::size_t kThreads = 4;
constexpr std::size_t kSetupRepeats = 21;

// Tails are printed, not gated (README.md says why). A run goes on until
// its tail has 10 samples beyond it: p99 (1000 samples) where operations
// take milliseconds, p90 (100 samples) for ingest at ~6 partitions/s.
constexpr double kReportedTailPct = 99.0;
constexpr double kIngestTailPct = 90.0;

constexpr const char* kSolveDataset = "Mnist2m";
constexpr std::size_t kSolveRows = 10000;
constexpr const char* kSolveSpec = "gcm:re_ans?blocks=16";
// CSR sums each row and column in another order than the grammar kernels;
// power iteration contracts the difference, so agreement stays near 1e-14.
constexpr double kSolveRelTolerance = 1e-9;

constexpr const char* kStoreDataset = "Census";
constexpr std::size_t kStoreRows = 25000;
constexpr const char* kStoreInnerSpec = "gcm:re_iv?blocks=2";
constexpr std::size_t kStoreShards = 4;
constexpr const char* kLocalShardedSpec =
    "sharded?inner=gcm:re_iv?blocks=2&shards=4";
constexpr const char* kClusterSpec =
    "cluster?inner=gcm:re_iv?blocks=2&workers=2&shards=4";

constexpr std::size_t kConnections = 2;  // serve: a sender + a receiver each
constexpr std::size_t kVectorBank = 16;  // request vectors per request kind
constexpr double kRefRate = 150.0;       // requests/s, ladder rung 0
constexpr double kLadderStep = 1.04;     // rung i offers kRefRate * step^i
constexpr int kLadderLowest = -13;       // ~90 requests/s
constexpr int kLadderHighest = 88;       // ~4.7k requests/s
constexpr double kLatencyLimitS = 0.050;  // p99 limit that defines goodput
constexpr std::size_t kMaxOutstanding = 64;  // per connection, then abort
constexpr double kAbortLatencyS = 4 * kLatencyLimitS;
constexpr double kSaturationShare = 0.25;    // of --seconds
constexpr std::size_t kSaturationDepth = 2;  // in flight per connection
constexpr double kSaturationPlanRate = 8000;  // requests/s the plan covers
constexpr gcm::u64 kSentinelId = ~gcm::u64{0};

// ---------------------------------------------------------------------------
// Metric tables.
// ---------------------------------------------------------------------------

/// The gated end-to-end metrics (name, unit) every workload reports.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"op_ms_p50", "ms"},
    {"bytes_ratio", "ratio"},
    {"mem_mb", "MB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"encoding.crc_mbps", "MB/s"},
    {"encoding.decode_ms", "ms"},
    {"encoding.parse_ms", "ms"},
    {"util.map_ms", "ms"},
    {"encoding.save_ms", "ms"},
    {"grammar.build_s", "s"},
    {"grammar.rules", "count"},
    {"grammar.c_len", "count"},
    {"core.right_ms", "ms"},
    {"core.left_ms", "ms"},
    {"core.norm_ms", "ms"},
    {"core.block_ms_max", "ms"},
    {"core.block_ms_mean", "ms"},
    {"core.bytes_per_iter", "B"},
    {"core.kernel_us.right", "us"},
    {"core.kernel_us.left", "us"},
    {"core.kernel_us.range", "us"},
    {"core.multi_us_per_vec", "us"},
    {"serving.open_ms", "ms"},
    {"serving.faultin_ms", "ms"},
    {"serving.faultin_ms_max", "ms"},
    {"serving.resident_mb", "MB"},
    {"net.ping_us", "us"},
    {"net.frame_us", "us"},
    {"net.wait_us", "us"},
    {"net.batch_mean", "count"},
    {"net.max_batch", "count"},
    {"net.batched_share", "ratio"},
    {"net.errors", "count"},
    {"net.late_ms_p99", "ms"},
    {"cluster.worker_us", "us"},
    {"cluster.fanout", "count"},
    {"cluster.retries", "count"},
    {"cluster.failovers", "count"},
    {"cluster.deadline_timeouts", "count"},
    {"self_ms.bench", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.serving", "ms"},
    {"self_ms.net", "ms"},
    {"trace.ops", "count"},
    {"trace.unaccounted_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

/// Per-layer values of one run; every metric starts at 0 (layer bypassed).
class LayerSheet {
 public:
  LayerSheet() {
    for (const auto& [name, unit] : kPerLayer) values_[name] = 0.0;
  }
  void Set(const std::string& name, double value) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      throw std::logic_error("unknown per-layer metric " + name);
    }
    it->second = value;
  }
  double Get(const std::string& name) const { return values_.at(name); }
  std::vector<Metric> Emit() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : kPerLayer) {
      out.push_back({name, values_.at(name), unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToS(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Times `fn` `reps` times and returns the median duration in seconds.
template <typename F>
double MedianSeconds(std::size_t reps, F&& fn) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = NowS();
    fn();
    t.push_back(NowS() - t0);
  }
  return Median(t);
}

std::vector<double> RandomVector(gcm::Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.NextDouble() * 2.0 - 1.0;
  return v;
}

gcm::u64 DirBytes(const std::string& dir) {
  gcm::u64 total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::vector<std::string> ShardPaths(const std::string& store_dir) {
  std::vector<std::string> paths;
  for (const auto& shard : gcm::MatrixStore::ReadManifest(store_dir).shards) {
    paths.push_back((fs::path(store_dir) / shard.file).string());
  }
  return paths;
}

/// Deserializes the blocked grammar payload of a snapshot file into an
/// owned BlockedGcMatrix (per-block probes need the concrete type).
gcm::BlockedGcMatrix LoadBlocked(const std::string& path) {
  gcm::SnapshotReader reader = gcm::SnapshotReader::FromFile(path);
  gcm::ByteReader in = reader.OpenSection("gcm_blocked");
  return gcm::BlockedGcMatrix::DeserializeFrom(&in);
}

/// Heap high-water, and heap held now, above the level at construction.
class HeapWatch {
 public:
  HeapWatch() : baseline_(gcm::MemoryTracker::CurrentBytes()) {
    gcm::MemoryTracker::ResetPeak();
  }
  double PeakAboveBaselineMb() const {
    return AboveBaselineMb(gcm::MemoryTracker::PeakBytes());
  }
  double RetainedMb() const {
    return AboveBaselineMb(gcm::MemoryTracker::CurrentBytes());
  }

 private:
  double AboveBaselineMb(gcm::u64 bytes) const {
    return bytes > baseline_ ? static_cast<double>(bytes - baseline_) / 1e6
                             : 0.0;
  }

 private:
  gcm::u64 baseline_;
};

/// Failure bookkeeping shared by all workloads.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void Check(const std::string& what, const std::string& mismatch) {
    ++attempted;
    if (mismatch.empty()) return;
    ++failed;
    if (notes.size() < 8) notes.push_back(what + ": " + mismatch);
  }
  void Fail(const std::string& why) { Check("failure", why); }
};

/// Sample statistics of a workload's unit of work (see WindowedTail).
struct OpStats {
  std::size_t n = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
};

OpStats SummarizeOps(const std::vector<double>& in_order) {
  OpStats s;
  s.n = in_order.size();
  s.p50_ms = Median(in_order) * 1e3;
  s.p90_ms = WindowedTail(in_order, 90.0) * 1e3;
  s.p99_ms = WindowedTail(in_order, 99.0) * 1e3;
  return s;
}

/// True while a measured loop should go on: until `seconds` have passed
/// and the tail percentile is supported, capped at three times `seconds`.
bool KeepMeasuring(double started, double seconds, std::size_t samples,
                   double tail_pct) {
  const double elapsed = NowS() - started;
  if (elapsed >= 3.0 * seconds) return false;
  return elapsed < seconds || samples < SamplesForPercentile(tail_pct);
}

void NoteTailSupport(std::size_t n, double pct,
                     std::vector<std::string>* notes) {
  if (n < SamplesForPercentile(pct)) {
    notes->push_back(
        "only " + std::to_string(n) + " samples: p" +
        std::to_string(static_cast<int>(pct)) +
        " has fewer than 10 beyond it; the highest percentile that has is p" +
        std::to_string(static_cast<int>(HighestSupportedPercentile(n))));
  }
}

/// Per-layer self time, per root operation, from a traced phase.
void SetSelfTimes(const std::vector<Span>& spans, const std::string& root,
                  LayerSheet* sheet) {
  std::size_t roots = 0;
  double root_self = 0.0;
  const auto totals = TotalsByName(spans);
  if (auto it = totals.find(root); it != totals.end()) {
    roots = it->second.count;
    root_self = it->second.self_ms;
  }
  if (roots == 0) return;
  const double per = 1.0 / static_cast<double>(roots);
  for (const auto& [layer, ms] : SelfMsByLayer(spans)) {
    sheet->Set("self_ms." + layer, ms * per);
  }
  sheet->Set("trace.ops", static_cast<double>(roots));
  sheet->Set("trace.unaccounted_ms", root_self * per);
}

// ---------------------------------------------------------------------------
// Layer probes shared by workloads: each times one public call directly.
// ---------------------------------------------------------------------------

/// Snapshot-file probes: CRC throughput, map, parse + load, grammar sizes,
/// C-sequence decode and per-block kernel times. `extra_crc_bytes` adds a
/// reply-sized buffer to the CRC sample for the serving workloads.
void ProbeSnapshotFiles(const std::vector<std::string>& paths,
                        std::size_t extra_crc_bytes, gcm::u64 seed,
                        LayerSheet* sheet) {
  std::vector<gcm::SnapshotReader> readers;
  std::size_t crc_bytes = extra_crc_bytes;
  for (const auto& p : paths) {
    readers.push_back(gcm::SnapshotReader::FromFile(p));
    crc_bytes += readers.back().bytes().size();
  }
  const std::vector<gcm::u8> extra(extra_crc_bytes, 0x5a);
  volatile gcm::u32 sink = 0;  // keeps the checksums from being elided
  const double crc_s = MedianSeconds(5, [&] {
    for (const auto& r : readers) {
      sink = sink ^ gcm::Crc32(r.bytes().data(), r.bytes().size());
    }
    sink = sink ^ gcm::Crc32(extra.data(), extra.size());
  });
  sheet->Set("encoding.crc_mbps", static_cast<double>(crc_bytes) / 1e6 / crc_s);
  readers.clear();

  sheet->Set("util.map_ms", 1e3 * MedianSeconds(5, [&] {
    for (const auto& p : paths) gcm::MappedFile::TryMap(p);
  }));
  sheet->Set("encoding.parse_ms", 1e3 * MedianSeconds(5, [&] {
    for (const auto& p : paths) {
      gcm::AnyMatrix::LoadSnapshot(gcm::SnapshotReader::FromFile(p), p);
    }
  }));

  std::vector<gcm::BlockedGcMatrix> blocked;
  double rules = 0.0;
  double c_len = 0.0;
  for (const auto& p : paths) {
    blocked.push_back(LoadBlocked(p));
    for (std::size_t b = 0; b < blocked.back().block_count(); ++b) {
      rules += static_cast<double>(blocked.back().block(b).rule_count());
      c_len += static_cast<double>(
          blocked.back().block(b).final_sequence_length());
    }
  }
  sheet->Set("grammar.rules", rules);
  sheet->Set("grammar.c_len", c_len);
  sheet->Set("encoding.decode_ms", 1e3 * MedianSeconds(3, [&] {
    for (const auto& m : blocked) {
      for (std::size_t b = 0; b < m.block_count(); ++b) {
        m.block(b).DecompressSequence();
      }
    }
  }));

  // Each block's right + left kernel, run sequentially: the pool's
  // critical path is the slowest block.
  gcm::Rng rng(seed ^ 0xb10cull);
  std::vector<double> block_ms;
  for (const auto& m : blocked) {
    const std::vector<double> x = RandomVector(rng, m.cols());
    std::vector<double> xo(m.cols());
    for (std::size_t b = 0; b < m.block_count(); ++b) {
      const gcm::GcMatrix& block = m.block(b);
      std::vector<double> y(block.rows());
      block_ms.push_back(1e3 * MedianSeconds(3, [&] {
        block.MultiplyRightInto(x, y);
        block.MultiplyLeftInto(y, xo);
      }));
    }
  }
  double sum = 0.0;
  for (double v : block_ms) sum += v;
  sheet->Set("core.block_ms_max",
             *std::max_element(block_ms.begin(), block_ms.end()));
  sheet->Set("core.block_ms_mean", sum / static_cast<double>(block_ms.size()));
}

/// The store's construction split by layer: each shard's row slice built
/// with the inner spec (grammar) and saved (encoding), sequentially.
void ProbeShardBuild(const DenseMatrix& dense, const std::string& store_dir,
                     const std::string& scratch, LayerSheet* sheet) {
  double build_s = 0.0;
  double save_s = 0.0;
  const auto manifest = gcm::MatrixStore::ReadManifest(store_dir);
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    const auto& shard = manifest.shards[i];
    const DenseMatrix slice = dense.RowSlice(shard.row_begin, shard.row_end);
    double t0 = NowS();
    const AnyMatrix built = AnyMatrix::Build(slice, kStoreInnerSpec);
    build_s += NowS() - t0;
    const std::string path =
        (fs::path(scratch) / ("probe_shard_" + std::to_string(i) + ".gcsnap"))
            .string();
    t0 = NowS();
    built.Save(path);
    save_s += NowS() - t0;
    fs::remove(path);
  }
  sheet->Set("grammar.build_s", build_s);
  sheet->Set("encoding.save_ms", save_s * 1e3);
}

/// MatrixStore::Open, then each shard's first LoadShard (fault-in), on
/// fresh handles. Returns the resident MB once every shard is loaded.
double ProbeStoreOpen(const std::string& store_dir, LayerSheet* sheet) {
  std::vector<double> open_ms, sum_ms, max_ms;
  double resident_mb = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    double t0 = NowS();
    const AnyMatrix m = gcm::MatrixStore::Open(store_dir);
    open_ms.push_back((NowS() - t0) * 1e3);
    const auto* sharded = gcm::ShardedMatrix::FromKernel(m.kernel());
    double sum = 0.0;
    double max = 0.0;
    for (std::size_t i = 0; i < sharded->shard_count(); ++i) {
      t0 = NowS();
      sharded->LoadShard(i);
      const double ms = (NowS() - t0) * 1e3;
      sum += ms;
      max = std::max(max, ms);
    }
    sum_ms.push_back(sum);
    max_ms.push_back(max);
    resident_mb = static_cast<double>(sharded->ResidentPayloadBytes()) / 1e6;
  }
  sheet->Set("serving.open_ms", Median(open_ms));
  sheet->Set("serving.faultin_ms", Median(sum_ms));
  sheet->Set("serving.faultin_ms_max", Median(max_ms));
  return resident_mb;
}

// ---------------------------------------------------------------------------
// Requests for the serving workloads.
// ---------------------------------------------------------------------------

enum Kind : std::size_t { kRight = 0, kLeft = 1, kRange = 2, kKinds = 3 };

/// Request vectors drawn from the seed, with the answers of an in-process
/// sequential call on an in-memory copy of the served matrix.
struct RequestBank {
  std::size_t range_begin = 0;
  std::size_t range_end = 0;
  std::vector<std::vector<double>> input[kKinds];
  std::vector<std::vector<double>> expected[kKinds];
  std::vector<std::vector<gcm::u8>> payload[kKinds];  // MvmRequest bodies

  static gcm::MsgType Type(std::size_t kind) {
    return kind == kLeft ? gcm::MsgType::kMvmLeft : gcm::MsgType::kMvmRight;
  }
};

RequestBank MakeBank(const AnyMatrix& oracle, std::uint64_t seed) {
  RequestBank bank;
  bank.range_begin = oracle.rows() / 4;
  bank.range_end = oracle.rows() / 2;
  const auto* sharded = gcm::ShardedMatrix::FromKernel(oracle.kernel());
  if (sharded == nullptr) throw std::logic_error("oracle must be sharded");
  gcm::Rng rng(seed);
  for (std::size_t i = 0; i < kVectorBank; ++i) {
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      gcm::MvmRequest request;
      std::vector<double> want;
      if (kind == kLeft) {
        request.x = RandomVector(rng, oracle.rows());
        want.resize(oracle.cols());
        oracle.MultiplyLeftInto(request.x, want);
      } else if (kind == kRight) {
        request.x = RandomVector(rng, oracle.cols());
        want.resize(oracle.rows());
        oracle.MultiplyRightInto(request.x, want);
      } else {
        request.x = RandomVector(rng, oracle.cols());
        request.row_begin = bank.range_begin;
        request.row_end = bank.range_end;
        want.resize(bank.range_end - bank.range_begin);
        sharded->MultiplyRightRangeInto(request.x, want, bank.range_begin,
                                        bank.range_end);
      }
      gcm::ByteWriter out;
      request.EncodeTo(&out);
      bank.payload[kind].push_back(out.buffer());
      bank.input[kind].push_back(std::move(request.x));
      bank.expected[kind].push_back(std::move(want));
    }
  }
  return bank;
}

/// When a blocking request's stages ended (steady-clock ns).
struct ClientTimes {
  std::int64_t sent_ns = 0;     // request frame written
  std::int64_t read_ns = 0;     // reply frame read
  std::int64_t decoded_ns = 0;  // reply decoded (Await returned)
};

/// Sends bank request (kind, i) through a Client, waits for the reply and
/// checks it; returns the oracle verdict ("" = correct).
std::string ClientRequest(gcm::Client& client, const RequestBank& bank,
                          std::size_t kind, std::size_t i, ClientTimes* times) {
  const auto& x = bank.input[kind][i];
  gcm::u64 id = 0;
  if (kind == kLeft) {
    id = client.SendMvmLeft(x);
  } else if (kind == kRight) {
    id = client.SendMvmRight(x);
  } else {
    id = client.SendMvmRight(x, bank.range_begin, bank.range_end);
  }
  times->sent_ns = Tracer::NowNs();
  const gcm::Client::Response response = client.Await(id);
  times->decoded_ns = Tracer::NowNs();
  times->read_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       response.recv_time.time_since_epoch())
                       .count();
  if (response.error != gcm::NetError::kOk) {
    return std::string("error reply ") + gcm::NetErrorName(response.error) +
           ": " + response.message;
  }
  return CheckBitwise(response.values, bank.expected[kind][i]);
}


/// In-process kernel times of the three request kinds on `m` (sequential,
/// like the server's dispatcher), plus the multi-vector kernel at batch
/// size `k`, per vector.
void ProbeKernels(const AnyMatrix& m, const RequestBank& bank, double k,
                  LayerSheet* sheet, double* kernel_mix_us) {
  const auto* sharded = gcm::ShardedMatrix::FromKernel(m.kernel());
  std::vector<double> y(m.rows());
  std::vector<double> xo(m.cols());
  std::vector<double> yr(bank.range_end - bank.range_begin);
  const double right = 1e6 * MedianSeconds(30, [&] {
    m.MultiplyRightInto(bank.input[kRight][0], y);
  });
  const double left = 1e6 * MedianSeconds(30, [&] {
    m.MultiplyLeftInto(bank.input[kLeft][0], xo);
  });
  const double range = 1e6 * MedianSeconds(30, [&] {
    sharded->MultiplyRightRangeInto(bank.input[kRange][0], yr,
                                    bank.range_begin, bank.range_end);
  });
  sheet->Set("core.kernel_us.right", right);
  sheet->Set("core.kernel_us.left", left);
  sheet->Set("core.kernel_us.range", range);
  *kernel_mix_us = (right + left + range) / 3.0;

  const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(k)));
  DenseMatrix x(m.cols(), batch);
  gcm::Rng rng(17);
  for (std::size_t r = 0; r < m.cols(); ++r) {
    for (std::size_t c = 0; c < batch; ++c) x.Set(r, c, rng.NextDouble());
  }
  sheet->Set("core.multi_us_per_vec", 1e6 * MedianSeconds(10, [&] {
    m.MultiplyRightMulti(x);
  }) / static_cast<double>(batch));
}

/// Network probes against a running server: Ping RTT and the cost of
/// framing one reply-sized payload.
void ProbeNet(gcm::u16 port, std::size_t reply_values, LayerSheet* sheet) {
  gcm::Client client = gcm::Client::Connect("127.0.0.1", port);
  sheet->Set("net.ping_us", 1e6 * MedianSeconds(50, [&] { client.Ping(); }));
  gcm::MvmReply reply;
  reply.values.assign(reply_values, 0.25);
  gcm::ByteWriter body;
  reply.EncodeTo(&body);
  sheet->Set("net.frame_us", 1e6 * MedianSeconds(20, [&] {
    gcm::EncodeFrame(gcm::MsgType::kMvmReply, 1, body.buffer());
  }));
}

/// Derived, not measured: the part of the p50 latency left after the
/// ping RTT, framing one reply and the mean kernel of the request mix.
void SetWaitUs(double latency_p50_us, double kernel_mix_us,
               LayerSheet* sheet) {
  sheet->Set("net.wait_us",
             latency_p50_us - (sheet->Get("net.ping_us") +
                               sheet->Get("net.frame_us") + kernel_mix_us));
}

void SetServerStats(const gcm::ServerStats& before,
                    const gcm::ServerStats& after, LayerSheet* sheet) {
  const double admitted =
      static_cast<double>(after.requests_admitted - before.requests_admitted);
  const double batches =
      static_cast<double>(after.batches_dispatched - before.batches_dispatched);
  sheet->Set("net.batch_mean", batches > 0 ? admitted / batches : 0.0);
  sheet->Set("net.max_batch", static_cast<double>(after.max_batch));
  sheet->Set("net.batched_share",
             admitted > 0 ? static_cast<double>(after.batched_requests -
                                                before.batched_requests) /
                                admitted
                          : 0.0);
  sheet->Set("net.errors",
             static_cast<double>(after.errors_sent - before.errors_sent));
}

// ---------------------------------------------------------------------------
// Open-loop generator (serve).
// ---------------------------------------------------------------------------

/// One scheduled request. The schedule fields are fixed before the
/// threads start; the sender and the receiver each write their own fields.
struct Scheduled {
  double offset_s = 0.0;  // due time after the phase origin
  std::size_t kind = 0;
  std::size_t vec = 0;
  std::int64_t sent_ns = 0;       // sender
  std::int64_t send_done_ns = 0;  // sender
  std::int64_t read_ns = 0;       // receiver: reply frame read
  std::int64_t decoded_ns = 0;    // receiver: values decoded
  std::int64_t checked_ns = 0;    // receiver: oracle done
  bool ok = false;                // receiver
};

struct OpenLoopRun {
  std::int64_t origin_ns = 0;
  std::vector<Scheduled> requests;
  bool aborted = false;
  std::vector<std::string> notes;
  OpenLoopSummary summary;
};

void SleepUntilNs(std::int64_t due_ns) {
  // Sleep to just short of the deadline, then spin: the kernel's wake-up
  // slack would otherwise make every send late by tens of microseconds.
  constexpr std::int64_t kSpinNs = 100'000;
  const std::int64_t now = Tracer::NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (Tracer::NowNs() < due_ns) {
  }
}

/// Offers Poisson arrivals at `rate` for `duration_s` over kConnections
/// connections (request k on connection k % kConnections, kind k % 3).
/// A connection that falls kMaxOutstanding replies behind, or a reply
/// later than kAbortLatencyS, aborts the phase: the rung is over capacity
/// and going on would only grow the server's queue.
///
/// With `window` > 0 the schedule only fixes the request sequence: each
/// connection sends as soon as fewer than `window` of its requests are in
/// flight, until `duration_s` has passed, and latency counts from the
/// send (the saturation phase). Each connection still has its own sender
/// and receiver, so replies are always drained and the server never waits
/// on a client that is busy sending.
OpenLoopRun RunOpenLoop(gcm::u16 port, const RequestBank& bank, double rate,
                        double duration_s, std::uint64_t seed,
                        std::size_t window = 0) {
  OpenLoopRun run;
  gcm::Rng rng(seed);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration_s) break;
    Scheduled s;
    s.offset_s = t;
    s.kind = run.requests.size() % kKinds;
    s.vec = static_cast<std::size_t>(rng.Below(kVectorBank));
    run.requests.push_back(s);
  }

  struct Connection {
    gcm::Socket socket;
    std::atomic<std::size_t> sent{0};
    std::atomic<std::size_t> received{0};
    std::atomic<bool> sender_done{false};
    std::mutex mu;                   // guards error; pairs with replied
    std::condition_variable replied;  // window mode: a slot came free
    bool receiver_done = false;       // guarded by mu
    std::string error;  // first failure seen by this connection's threads
    void Note(const std::string& e) {
      std::lock_guard<std::mutex> lock(mu);
      if (error.empty()) error = e;
    }
  };
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>());
    conns.back()->socket = gcm::Socket::ConnectTcp("127.0.0.1", port);
    conns.back()->socket.SetRecvTimeout(3000);
  }
  std::atomic<bool> abort{false};
  run.origin_ns = Tracer::NowNs() + 5'000'000;  // let the threads start
  const std::int64_t abort_ns =
      static_cast<std::int64_t>(kAbortLatencyS * 1e9);

  const std::int64_t end_ns =
      run.origin_ns + static_cast<std::int64_t>(duration_s * 1e9);
  auto sender = [&](std::size_t c) {
    Connection& conn = *conns[c];
    try {
      SleepUntilNs(run.origin_ns);
      for (std::size_t k = c; k < run.requests.size(); k += kConnections) {
        if (abort.load()) break;
        Scheduled& r = run.requests[k];
        if (window > 0) {
          std::unique_lock<std::mutex> lock(conn.mu);
          conn.replied.wait(lock, [&] {
            return conn.sent.load() - conn.received.load() < window ||
                   conn.receiver_done || abort.load();
          });
          lock.unlock();
          if (Tracer::NowNs() >= end_ns) break;
        } else {
          if (conn.sent.load() - conn.received.load() > kMaxOutstanding) {
            abort = true;
            break;
          }
          SleepUntilNs(run.origin_ns +
                       static_cast<std::int64_t>(r.offset_s * 1e9));
        }
        r.sent_ns = Tracer::NowNs();
        gcm::WriteFrame(conn.socket, RequestBank::Type(r.kind), k + 1,
                        bank.payload[r.kind][r.vec]);
        r.send_done_ns = Tracer::NowNs();
        conn.sent.fetch_add(1);
      }
      conn.sender_done = true;
      // Wakes the receiver if it is blocked with nothing left in flight.
      gcm::WriteFrame(conn.socket, gcm::MsgType::kPing, kSentinelId, {});
    } catch (const std::exception& e) {
      conn.Note(std::string("send: ") + e.what());
      conn.sender_done = true;
      abort = true;
    }
  };
  auto receiver = [&](std::size_t c) {
    Connection& conn = *conns[c];
    try {
      while (!(conn.sender_done.load() &&
               conn.received.load() == conn.sent.load())) {
        std::optional<gcm::Frame> frame = gcm::ReadFrame(conn.socket);
        const std::int64_t read_ns = Tracer::NowNs();
        if (!frame.has_value()) {
          conn.Note("server closed the connection");
          break;
        }
        if (frame->type == gcm::MsgType::kPong) continue;
        if (frame->request_id == 0 ||
            frame->request_id > run.requests.size()) {
          conn.Note("reply with unknown request id");
          break;
        }
        Scheduled& r = run.requests[frame->request_id - 1];
        r.read_ns = read_ns;
        gcm::ByteReader in(frame->payload);
        std::string verdict;
        if (frame->type == gcm::MsgType::kMvmReply) {
          const gcm::MvmReply reply = gcm::MvmReply::DecodeFrom(&in);
          r.decoded_ns = Tracer::NowNs();
          verdict = CheckBitwise(reply.values, bank.expected[r.kind][r.vec]);
        } else if (frame->type == gcm::MsgType::kError) {
          const gcm::ErrorReply error = gcm::ErrorReply::DecodeFrom(&in);
          r.decoded_ns = Tracer::NowNs();
          verdict = std::string("error reply ") +
                    gcm::NetErrorName(error.code) + ": " + error.message;
        } else {
          r.decoded_ns = Tracer::NowNs();
          verdict = "unexpected reply type";
        }
        r.checked_ns = Tracer::NowNs();
        r.ok = verdict.empty();
        if (!r.ok) conn.Note(verdict);
        {
          std::lock_guard<std::mutex> lock(conn.mu);
          conn.received.fetch_add(1);
        }
        conn.replied.notify_one();
        const std::int64_t due =
            run.origin_ns + static_cast<std::int64_t>(r.offset_s * 1e9);
        if (window == 0 && r.decoded_ns - due > abort_ns) abort = true;
      }
    } catch (const std::exception& e) {
      conn.Note(std::string("receive: ") + e.what());
      abort = true;
    }
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.receiver_done = true;
    }
    conn.replied.notify_all();  // a waiting sender must not outlive us
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(sender, c);
    threads.emplace_back(receiver, c);
  }
  for (auto& t : threads) t.join();
  for (auto& conn : conns) {
    if (!conn->error.empty()) run.notes.push_back(conn->error);
  }
  run.aborted = abort.load();

  std::vector<OpenLoopSample> samples;
  for (const Scheduled& r : run.requests) {
    if (r.sent_ns == 0) continue;  // never offered (phase aborted)
    OpenLoopSample s;
    s.scheduled = window > 0 ? NsToS(r.sent_ns)
                             : NsToS(run.origin_ns) + r.offset_s;
    s.sent = NsToS(r.sent_ns);
    s.received = NsToS(r.decoded_ns);
    s.ok = r.ok;
    samples.push_back(s);
  }
  run.summary = SummarizeOpenLoop(samples);
  return run;
}

/// Spans of an open-loop phase, rebuilt from the recorded timestamps: the
/// request (scheduled send to checked reply) over generator lateness,
/// client send, the wait for the reply (server + network), decode and
/// the oracle.
void RecordOpenLoopSpans(const OpenLoopRun& run, Tracer& tracer) {
  for (std::size_t k = 0; k < run.requests.size(); ++k) {
    const Scheduled& r = run.requests[k];
    if (r.sent_ns == 0 || r.checked_ns == 0) continue;
    const std::int64_t due =
        run.origin_ns + static_cast<std::int64_t>(r.offset_s * 1e9);
    const std::uint64_t id = k + 1;
    const std::uint64_t root =
        tracer.Record("bench.request", 0, id, due, r.checked_ns);
    tracer.Record("bench.late", root, id, due, std::max(due, r.sent_ns));
    tracer.Record("net.send", root, id, r.sent_ns, r.send_done_ns);
    tracer.Record("net.wait", root, id, r.send_done_ns, r.read_ns);
    tracer.Record("net.decode", root, id, r.read_ns, r.decoded_ns);
    tracer.Record("bench.check", root, id, r.decoded_ns, r.checked_ns);
  }
}

void TallyOpenLoop(const OpenLoopRun& run, const std::string& phase,
                   Tally* tally) {
  tally->attempted += run.summary.attempted;
  tally->failed += run.summary.failed;
  for (const auto& n : run.notes) tally->notes.push_back(phase + ": " + n);
}

/// One line per offered rate: the latency curve behind the goodput.
std::string DescribeRung(double rate, const OpenLoopRun& run, bool pass) {
  const OpenLoopSummary& s = run.summary;
  std::ostringstream os;
  os.precision(4);
  os << "rung " << rate << " req/s: " << s.latency_s.size() << " replies, p50 "
     << s.p50_s * 1e3 << " ms, p99 " << s.p99_s * 1e3 << " ms, backlog "
     << s.backlog_s * 1e3 << " ms, late p99 " << s.late_p99_s * 1e3 << " ms"
     << (run.aborted ? ", aborted" : "") << (pass ? " -> meets" : " -> misses")
     << " the limit";
  return os.str();
}

// ---------------------------------------------------------------------------
// solve
// ---------------------------------------------------------------------------

/// One Eq. (4) iteration: y = M x, z^t = y^t M, x = z / ||z||_inf.
void Eq4Step(const AnyMatrix& m, std::vector<double>& x, std::vector<double>& y,
             std::vector<double>& z, const gcm::MulContext& ctx,
             Tracer& tracer, std::uint64_t parent) {
  {
    ScopedSpan span(tracer, "core.right", parent);
    m.MultiplyRightInto(x, y, ctx);
  }
  {
    ScopedSpan span(tracer, "core.left", parent);
    m.MultiplyLeftInto(y, z, ctx);
  }
  {
    ScopedSpan span(tracer, "core.norm", parent);
    const double norm = gcm::InfinityNorm(z);
    if (norm != 0.0) {
      for (double& v : z) v /= norm;
    }
  }
  std::swap(x, z);
}

RunResult RunSolve(const RunOptions& opt) {
  RunResult result;
  Tally tally;
  LayerSheet sheet;
  Tracer quiet(false);
  gcm::ThreadPool pool(kThreads);
  const gcm::MulContext ctx{&pool};
  const std::string path = (fs::path(opt.workdir) / "solve.gcsnap").string();

  // Inputs: the dataset replica, its snapshot, a CSR copy for the oracle
  // and the seed's start vector.
  double dense_bytes = 0.0;
  AnyMatrix csr;
  {
    const DenseMatrix dense = gcm::GenerateDatasetRows(
        gcm::DatasetByName(kSolveDataset), kSolveRows);
    dense_bytes = static_cast<double>(dense.UncompressedBytes());
    double t0 = NowS();
    const AnyMatrix built = AnyMatrix::Build(dense, kSolveSpec, {&pool});
    sheet.Set("grammar.build_s", NowS() - t0);
    t0 = NowS();
    built.Save(path);
    sheet.Set("encoding.save_ms", (NowS() - t0) * 1e3);
    csr = AnyMatrix::Build(dense, "csr");
  }
  gcm::Rng rng(opt.seed);
  std::vector<double> x0(csr.cols());
  for (double& v : x0) v = rng.NextDouble();
  const std::size_t rows = csr.rows();
  const std::size_t cols = csr.cols();

  auto csr_run = [&](std::size_t iterations) {
    std::vector<double> x = x0, y(rows), z(cols);
    for (std::size_t i = 0; i < iterations; ++i) {
      Eq4Step(csr, x, y, z, ctx, quiet, 0);
    }
    return x;
  };
  const std::vector<double> csr_first = csr_run(1);

  // Set-up: map + CRC + parse + first iteration, on fresh handles.
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    std::vector<double> x = x0, y(rows), z(cols);
    const double t0 = NowS();
    const AnyMatrix m =
        AnyMatrix::LoadSnapshot(gcm::SnapshotReader::FromFile(path), path);
    Eq4Step(m, x, y, z, ctx, quiet, 0);
    setup_s.push_back(NowS() - t0);
    tally.Check("setup first iteration",
                CheckRelative(x, csr_first, kSolveRelTolerance));
  }

  // Measured iterations on one mapped handle. The traced run splits its
  // time: an untraced half (for the overhead) then a traced half.
  std::vector<double> iter_s;
  iter_s.reserve(100000);
  std::vector<double> x = x0, y(rows), z(cols);
  HeapWatch heap;
  gcm::SnapshotReader reader = gcm::SnapshotReader::FromFile(path);
  const std::shared_ptr<gcm::MappedFile> mapping = reader.mapped_file();
  const gcm::u64 stored_bytes = reader.bytes().size();
  const AnyMatrix m = AnyMatrix::LoadSnapshot(std::move(reader), path);

  auto iterate = [&](Tracer& tracer, double seconds, std::vector<double>* out) {
    const double started = NowS();
    while (KeepMeasuring(started, seconds, out->size(), kReportedTailPct)) {
      const double t0 = NowS();
      {
        ScopedSpan span(tracer, "bench.iter");
        Eq4Step(m, x, y, z, ctx, tracer, span.id());
      }
      out->push_back(NowS() - t0);
    }
  };
  Tracer tracer(true);
  std::vector<double> traced_s;
  if (opt.trace) {
    iterate(quiet, opt.seconds / 2, &iter_s);
    traced_s.reserve(100000);
    iterate(tracer, opt.seconds / 2, &traced_s);
  } else {
    iterate(quiet, opt.seconds, &iter_s);
  }
  const double peak_mb =
      heap.PeakAboveBaselineMb() +
      (mapping ? static_cast<double>(mapping->ResidentBytes()) / 1e6 : 0.0);
  const std::size_t total_iterations = iter_s.size() + traced_s.size();
  tally.Check("final vector vs CSR after " + std::to_string(total_iterations) +
                  " iterations",
              CheckRelative(x, csr_run(total_iterations), kSolveRelTolerance));

  const OpStats ops = SummarizeOps(iter_s);
  NoteTailSupport(ops.n, kReportedTailPct, &tally.notes);
  double total_s = 0.0;
  for (double s : iter_s) total_s += s;
  const double bytes_ratio = static_cast<double>(stored_bytes) / dense_bytes;
  result.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"op_ms_p50", ops.p50_ms, "ms"},
      {"bytes_ratio", bytes_ratio, "ratio"},
      {"mem_mb", peak_mb, "MB"},
  };
  result.reported = {
      {"setup_s", Median(setup_s), "s"},
      {"iter_ms_p50", ops.p50_ms, "ms"},
      {"iter_ms_p90", ops.p90_ms, "ms"},
      {"iter_ms_p99", ops.p99_ms, "ms"},
      {"iterations", static_cast<double>(ops.n), "count"},
      {"iterations_per_s", static_cast<double>(iter_s.size()) / total_s, "1/s"},
      {"peak_mem_mb", peak_mb, "MB"},
      {"bytes_ratio", bytes_ratio, "ratio"},
      {"dense_bytes", dense_bytes, "B"},
      {"stored_bytes", static_cast<double>(stored_bytes), "B"},
  };

  if (opt.trace) {
    const std::vector<Span> spans = tracer.Spans();
    const auto totals = TotalsByName(spans);
    const double n = static_cast<double>(traced_s.size());
    for (const char* name : {"right", "left", "norm"}) {
      const std::string span = std::string("core.") + name;
      if (auto it = totals.find(span); it != totals.end()) {
        sheet.Set(span + "_ms", it->second.self_ms / n);
      }
    }
    SetSelfTimes(spans, "bench.iter", &sheet);
    sheet.Set("trace.overhead_ms",
              SummarizeOps(traced_s).p50_ms - ops.p50_ms);
    // Computed, not measured: each multiply streams the compressed matrix
    // once; right reads x and writes y, left reads y and writes z, and the
    // rescale reads and writes z.
    sheet.Set("core.bytes_per_iter",
              2.0 * static_cast<double>(m.CompressedBytes()) +
                  8.0 * static_cast<double>(4 * cols + 2 * rows));
    ProbeSnapshotFiles({path}, 0, opt.seed, &sheet);
    result.per_layer = sheet.Emit();
    result.spans = spans;
  }
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.notes = tally.notes;
  return result;
}

// ---------------------------------------------------------------------------
// Shared store preparation (serve, ingest, cluster).
// ---------------------------------------------------------------------------

struct StoreInputs {
  DenseMatrix dense;
  AnyMatrix oracle;  // in-memory sharded copy, called sequentially
  RequestBank bank;
};

StoreInputs MakeStoreInputs(std::uint64_t seed) {
  StoreInputs in;
  in.dense = gcm::GenerateDatasetRows(gcm::DatasetByName(kStoreDataset),
                                      kStoreRows);
  in.oracle = AnyMatrix::Build(in.dense, kLocalShardedSpec);
  in.bank = MakeBank(in.oracle, seed);
  return in;
}

gcm::ShardManifest PartitionStore(const DenseMatrix& dense,
                                  const std::string& dir,
                                  gcm::ThreadPool* pool) {
  gcm::ShardingPolicy policy;
  policy.shards = kStoreShards;
  return gcm::MatrixStore::Partition(dense, kStoreInnerSpec, policy, dir,
                                     {pool});
}

/// Checked right and left multiplies, in process: after them the served
/// matrix holds what every request needs (shards loaded, workers
/// connected), so the heap it retains is its serving footprint, measured
/// apart from the load, which only adds buffers of requests in flight.
/// Returns the smallest heap above `heap`'s baseline seen after each of
/// three rounds, each read after a pause: loopback workers free a reply's
/// buffers on their own threads, shortly after the reply arrives.
double WarmUpRetainedMb(const AnyMatrix& m, const RequestBank& bank,
                        const HeapWatch& heap, Tally* tally) {
  double retained = 0.0;
  for (int round = 0; round < 3; ++round) {
    {
      std::vector<double> y(m.rows());
      m.MultiplyRightInto(bank.input[kRight][0], y);
      tally->Check("warm-up right", CheckBitwise(y, bank.expected[kRight][0]));
      std::vector<double> x(m.cols());
      m.MultiplyLeftInto(bank.input[kLeft][0], x);
      tally->Check("warm-up left", CheckBitwise(x, bank.expected[kLeft][0]));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const double now = heap.RetainedMb();
    retained = round == 0 ? now : std::min(retained, now);
  }
  return retained;
}

/// Open + Start + the first verified reply, for one fresh server over
/// `open()`'s matrix. Returns seconds; the server is stopped afterwards.
template <typename OpenFn>
double TimeServerSetup(OpenFn&& open, const RequestBank& bank, Tally* tally) {
  const double t0 = NowS();
  const AnyMatrix m = open();
  gcm::Server server(m, gcm::ServerConfig{});
  server.Start();
  gcm::Client client = gcm::Client::Connect("127.0.0.1", server.port());
  ClientTimes times;
  const std::string verdict = ClientRequest(client, bank, kRight, 0, &times);
  const double elapsed = NowS() - t0;
  tally->Check("setup first reply", verdict);
  client.Close();
  server.Stop();
  return elapsed;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

double RungRate(int rung) { return kRefRate * std::pow(kLadderStep, rung); }

/// Enough time for the p99 of a rung to have 10 samples beyond it.
double RungSeconds(double rate) {
  return std::max(0.5, 1.1 * static_cast<double>(SamplesForPercentile(99)) /
                           rate);
}

bool RungMeetsLimit(const OpenLoopRun& run) {
  const OpenLoopSummary& s = run.summary;
  return !run.aborted && s.failed == 0 &&
         s.latency_s.size() >= SamplesForPercentile(99) &&
         s.p99_s <= kLatencyLimitS && s.backlog_s <= kLatencyLimitS;
}

/// Goodput: binary search over the fixed ladder for the highest rung whose
/// p99 meets the limit with no failure and no growing backlog (assumes a
/// rung passes whenever a higher one does). Rung 0 is the reference rung,
/// already run. Rungs far above the saturation throughput cannot pass and
/// are not offered. A rung that misses is offered once more before it
/// counts as missed, so one stall cannot send the search below the knee.
/// Returns 0 when no rung passes.
double SearchGoodput(gcm::u16 port, const RequestBank& bank, bool ref_passed,
                     double saturation, std::uint64_t seed,
                     std::size_t* probes, std::vector<std::string>* rungs,
                     Tally* tally) {
  int pass = ref_passed ? 0 : kLadderLowest - 1;
  int fail = 0;
  if (ref_passed) {
    while (fail <= kLadderHighest && RungRate(fail) <= 1.25 * saturation) {
      ++fail;
    }
  }
  auto offer = [&](int rung_index) {
    const double rate = RungRate(rung_index);
    const OpenLoopRun rung = RunOpenLoop(port, bank, rate, RungSeconds(rate),
                                         seed * 1000 + 2 + (*probes)++);
    TallyOpenLoop(rung, "ladder rung " + std::to_string(rung_index), tally);
    rungs->push_back(DescribeRung(rate, rung, RungMeetsLimit(rung)));
    return RungMeetsLimit(rung);
  };
  while (fail - pass > 1) {
    const int mid = pass + (fail - pass) / 2;
    (offer(mid) || offer(mid) ? pass : fail) = mid;
  }
  return pass >= kLadderLowest ? RungRate(pass) : 0.0;
}

RunResult RunServe(const RunOptions& opt) {
  RunResult result;
  Tally tally;
  LayerSheet sheet;
  gcm::ThreadPool pool(kThreads);
  const StoreInputs in = MakeStoreInputs(opt.seed);
  const std::string store = (fs::path(opt.workdir) / "store").string();
  PartitionStore(in.dense, store, &pool);
  const double bytes_ratio = static_cast<double>(DirBytes(store)) /
                             static_cast<double>(in.dense.UncompressedBytes());

  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    setup_s.push_back(TimeServerSetup(
        [&] { return gcm::MatrixStore::Open(store); }, in.bank, &tally));
  }

  HeapWatch heap;
  const AnyMatrix m = gcm::MatrixStore::Open(store);
  const auto* sharded = gcm::ShardedMatrix::FromKernel(m.kernel());
  const double mem_mb =
      WarmUpRetainedMb(m, in.bank, heap, &tally) +
      static_cast<double>(sharded->ResidentPayloadBytes()) / 1e6;
  gcm::Server server(m, gcm::ServerConfig{});
  server.Start();

  // Reference rung: the latency metrics (and, traced, a second half with
  // spans for the overhead).
  const double ref_seconds = opt.seconds / 2;
  const gcm::ServerStats before = server.stats();
  const OpenLoopRun ref = RunOpenLoop(server.port(), in.bank, kRefRate,
                                      std::max(ref_seconds, RungSeconds(kRefRate)),
                                      opt.seed * 1000 + 1);
  const gcm::ServerStats after = server.stats();
  TallyOpenLoop(ref, "reference rung", &tally);
  std::vector<std::string> rungs = {
      DescribeRung(kRefRate, ref, RungMeetsLimit(ref))};
  const OpenLoopSummary& s = ref.summary;

  double saturation = 0.0;
  double goodput = 0.0;
  std::size_t probes = 0;
  if (!opt.trace) {
    const double seconds = kSaturationShare * opt.seconds;
    const OpenLoopRun sat =
        RunOpenLoop(server.port(), in.bank, kSaturationPlanRate, seconds,
                    opt.seed * 1000, kSaturationDepth);
    TallyOpenLoop(sat, "saturation", &tally);
    saturation = static_cast<double>(sat.summary.latency_s.size()) / seconds;
    goodput = SearchGoodput(server.port(), in.bank, RungMeetsLimit(ref),
                            saturation, opt.seed, &probes, &rungs, &tally);
  }

  result.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"op_ms_p50", s.p50_s * 1e3, "ms"},
      {"bytes_ratio", bytes_ratio, "ratio"},
      {"mem_mb", mem_mb, "MB"},
  };
  result.reported = {
      {"setup_s", Median(setup_s), "s"},
      {"latency_ms_p50", s.p50_s * 1e3, "ms"},
      {"latency_ms_p90", s.p90_s * 1e3, "ms"},
      {"latency_ms_p99", s.p99_s * 1e3, "ms"},
      {"reference_rps", kRefRate, "1/s"},
      {"requests", static_cast<double>(s.latency_s.size()), "count"},
      {"late_ms_p99", s.late_p99_s * 1e3, "ms"},
      {"mem_mb", mem_mb, "MB"},
      {"bytes_ratio", bytes_ratio, "ratio"},
      {"dense_bytes", static_cast<double>(in.dense.UncompressedBytes()), "B"},
      {"stored_bytes", static_cast<double>(DirBytes(store)), "B"},
  };
  if (!opt.trace) {
    result.reported.push_back({"saturation_rps", saturation, "1/s"});
    result.reported.push_back({"goodput_rps", goodput, "1/s"});
    result.reported.push_back(
        {"ladder_probes", static_cast<double>(probes), "count"});
  }
  tally.notes.insert(tally.notes.end(), rungs.begin(), rungs.end());
  NoteTailSupport(s.latency_s.size(), kReportedTailPct, &tally.notes);

  if (opt.trace) {
    const OpenLoopRun traced = RunOpenLoop(server.port(), in.bank, kRefRate,
                                           std::max(ref_seconds, RungSeconds(kRefRate)),
                                           opt.seed * 1000 + 1);
    TallyOpenLoop(traced, "traced reference rung", &tally);
    Tracer tracer(true);
    RecordOpenLoopSpans(traced, tracer);
    const std::vector<Span> spans = tracer.Spans();
    SetSelfTimes(spans, "bench.request", &sheet);
    sheet.Set("trace.overhead_ms",
              (traced.summary.p50_s - s.p50_s) * 1e3);
    SetServerStats(before, after, &sheet);
    sheet.Set("net.late_ms_p99", s.late_p99_s * 1e3);
    sheet.Set("serving.resident_mb",
              static_cast<double>(sharded->ResidentPayloadBytes()) / 1e6);
    double kernel_mix_us = 0.0;
    ProbeKernels(m, in.bank, sheet.Get("net.batch_mean"), &sheet,
                 &kernel_mix_us);
    ProbeNet(server.port(), m.rows(), &sheet);
    server.Stop();
    SetWaitUs(s.p50_s * 1e6, kernel_mix_us, &sheet);
    ProbeStoreOpen(store, &sheet);
    ProbeSnapshotFiles(ShardPaths(store), m.rows() * sizeof(double), opt.seed,
                       &sheet);
    ProbeShardBuild(in.dense, store, opt.workdir, &sheet);
    result.per_layer = sheet.Emit();
    result.spans = spans;
  }
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.notes = tally.notes;
  return result;
}

// ---------------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------------

RunResult RunIngest(const RunOptions& opt) {
  RunResult result;
  Tally tally;
  LayerSheet sheet;
  gcm::ThreadPool pool(kThreads);
  const StoreInputs in = MakeStoreInputs(opt.seed);
  const double dense_bytes = static_cast<double>(in.dense.UncompressedBytes());
  Tracer quiet(false);
  Tracer tracer(true);

  std::vector<double> ingest_s, traced_s, setup_s, peak_mb;
  double bytes_ratio = 0.0;
  std::size_t iteration = 0;
  auto ingest_loop = [&](Tracer& tr, double seconds, std::vector<double>* out) {
    const double started = NowS();
    while (KeepMeasuring(started, seconds, out->size(), kIngestTailPct)) {
      // Two directories in turn, so Partition always writes a fresh one.
      const std::string dir =
          (fs::path(opt.workdir) / ("store" + std::to_string(iteration % 2)))
              .string();
      fs::remove_all(dir);
      const std::size_t vec = iteration % kVectorBank;
      ScopedSpan root(tr, "bench.ingest", 0, ++iteration);
      HeapWatch heap;
      double t0 = NowS();
      {
        ScopedSpan span(tr, "serving.partition", root.id(), iteration);
        PartitionStore(in.dense, dir, &pool);
      }
      out->push_back(NowS() - t0);
      peak_mb.push_back(heap.PeakAboveBaselineMb());
      if (bytes_ratio == 0.0) {
        bytes_ratio = static_cast<double>(DirBytes(dir)) / dense_bytes;
      }
      // Files on disk to the first correct result, then the lossless check.
      t0 = NowS();
      AnyMatrix m;
      {
        ScopedSpan span(tr, "serving.open", root.id(), iteration);
        m = gcm::MatrixStore::Open(dir);
      }
      std::vector<double> y(m.rows());
      {
        ScopedSpan span(tr, "core.first_multiply", root.id(), iteration);
        m.MultiplyRightInto(in.bank.input[kRight][vec], y);
      }
      setup_s.push_back(NowS() - t0);
      DenseMatrix round_trip;
      {
        ScopedSpan span(tr, "core.todense", root.id(), iteration);
        round_trip = m.ToDense();
      }
      ScopedSpan check(tr, "bench.check", root.id(), iteration);
      std::string verdict = CheckBitwise(y, in.bank.expected[kRight][vec]);
      if (verdict.empty()) {
        verdict = CheckBitwise(round_trip.data().span(), in.dense.data().span());
        if (!verdict.empty()) verdict = "ToDense after reopen: " + verdict;
      }
      tally.Check("ingest " + std::to_string(iteration), verdict);
    }
  };
  if (opt.trace) {
    ingest_loop(quiet, opt.seconds / 2, &ingest_s);
    ingest_loop(tracer, opt.seconds / 2, &traced_s);
  } else {
    ingest_loop(quiet, opt.seconds, &ingest_s);
  }

  const OpStats ops = SummarizeOps(ingest_s);
  NoteTailSupport(ops.n, kIngestTailPct, &tally.notes);
  double total = 0.0;
  for (double v : ingest_s) total += v;
  result.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"op_ms_p50", ops.p50_ms, "ms"},
      {"bytes_ratio", bytes_ratio, "ratio"},
      {"mem_mb", Median(peak_mb), "MB"},
  };
  result.reported = {
      {"ingest_s", ops.p50_ms / 1e3, "s"},
      {"ingest_s_p90", ops.p90_ms / 1e3, "s"},
      {"partitions", static_cast<double>(ops.n), "count"},
      {"partitions_per_s", static_cast<double>(ingest_s.size()) / total, "1/s"},
      {"setup_s", Median(setup_s), "s"},
      {"bytes_ratio", bytes_ratio, "ratio"},
      {"peak_mem_mb", Median(peak_mb), "MB"},
      {"dense_bytes", dense_bytes, "B"},
      {"stored_bytes", bytes_ratio * dense_bytes, "B"},
  };

  if (opt.trace) {
    const std::vector<Span> spans = tracer.Spans();
    SetSelfTimes(spans, "bench.ingest", &sheet);
    sheet.Set("trace.overhead_ms",
              SummarizeOps(traced_s).p50_ms - ops.p50_ms);
    const std::string dir =
        (fs::path(opt.workdir) / ("store" + std::to_string((iteration - 1) % 2)))
            .string();
    sheet.Set("serving.resident_mb", ProbeStoreOpen(dir, &sheet));
    ProbeSnapshotFiles(ShardPaths(dir), 0, opt.seed, &sheet);
    ProbeShardBuild(in.dense, dir, opt.workdir, &sheet);
    result.per_layer = sheet.Emit();
    result.spans = spans;
  }
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.notes = tally.notes;
  return result;
}

// ---------------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------------

struct ClosedLoopRun {
  std::vector<double> latency_s;  // ok requests, in order of their start
  double elapsed_s = 0.0;
  std::vector<Span> spans;
};

/// kConnections callers, each waiting for its reply before the next
/// request (the scatter path's callers are synchronous).
ClosedLoopRun RunClosedLoop(gcm::u16 port, const RequestBank& bank,
                            double seconds, std::uint64_t seed, bool traced,
                            Tally* tally) {
  ClosedLoopRun run;
  Tracer tracer(traced);
  std::mutex mu;  // guards `timed` and tally
  std::vector<std::pair<std::int64_t, double>> timed;  // (start, latency)
  const double started = NowS();
  auto caller = [&](std::size_t c) {
    gcm::Rng rng(seed * 7919 + c);
    std::vector<std::pair<std::int64_t, double>> latency;
    std::uint64_t request = 0;
    try {
      gcm::Client client = gcm::Client::Connect("127.0.0.1", port);
      for (std::size_t k = c;
           KeepMeasuring(started, seconds, latency.size() * kConnections,
                         kReportedTailPct);
           k += kConnections) {
        const std::size_t kind = k % kKinds;
        const auto vec = static_cast<std::size_t>(rng.Below(kVectorBank));
        const std::uint64_t id = (c << 48) | ++request;
        const std::int64_t t0 = Tracer::NowNs();
        ClientTimes times;
        const std::string verdict =
            ClientRequest(client, bank, kind, vec, &times);
        const std::int64_t checked = Tracer::NowNs();
        {
          std::lock_guard<std::mutex> lock(mu);
          tally->Check("cluster request", verdict);
        }
        if (verdict.empty()) {
          latency.emplace_back(t0, NsToS(times.decoded_ns - t0));
        }
        if (traced) {
          const std::uint64_t root =
              tracer.Record("bench.request", 0, id, t0, checked);
          tracer.Record("net.send", root, id, t0, times.sent_ns);
          tracer.Record("net.wait", root, id, times.sent_ns, times.read_ns);
          tracer.Record("net.decode", root, id, times.read_ns,
                        times.decoded_ns);
          tracer.Record("bench.check", root, id, times.decoded_ns, checked);
        }
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      tally->Fail(std::string("caller: ") + e.what());
    }
    std::lock_guard<std::mutex> lock(mu);
    timed.insert(timed.end(), latency.begin(), latency.end());
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) threads.emplace_back(caller, c);
  for (auto& t : threads) t.join();
  run.elapsed_s = NowS() - started;
  std::sort(timed.begin(), timed.end());
  for (const auto& [start, latency] : timed) run.latency_s.push_back(latency);
  run.spans = tracer.Spans();
  return run;
}

RunResult RunCluster(const RunOptions& opt) {
  RunResult result;
  Tally tally;
  LayerSheet sheet;
  gcm::ThreadPool pool(kThreads);
  const StoreInputs in = MakeStoreInputs(opt.seed);
  const std::string path = (fs::path(opt.workdir) / "cluster.gcsnap").string();
  gcm::u64 stored_bytes = 0;
  {
    const AnyMatrix built = AnyMatrix::Build(in.dense, kClusterSpec, {&pool});
    built.Save(path);
    stored_bytes = fs::file_size(path);
  }
  const double bytes_ratio = static_cast<double>(stored_bytes) /
                             static_cast<double>(in.dense.UncompressedBytes());
  auto load = [&] {
    return AnyMatrix::LoadSnapshot(gcm::SnapshotReader::FromFile(path), path);
  };

  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    setup_s.push_back(TimeServerSetup(load, in.bank, &tally));
  }

  HeapWatch heap;
  gcm::SnapshotReader reader = gcm::SnapshotReader::FromFile(path);
  const std::shared_ptr<gcm::MappedFile> mapping = reader.mapped_file();
  const AnyMatrix m = AnyMatrix::LoadSnapshot(std::move(reader), path);
  const auto* loopback =
      dynamic_cast<const gcm::LoopbackCluster*>(&m.kernel());
  if (loopback == nullptr) throw std::runtime_error("not a loopback cluster");
  const double mem_mb =
      WarmUpRetainedMb(m, in.bank, heap, &tally) +
      (mapping ? static_cast<double>(mapping->ResidentBytes()) / 1e6 : 0.0);
  gcm::Server server(m, gcm::ServerConfig{});
  server.Start();

  const gcm::ClusterStats cs_before = loopback->remote().stats();
  const gcm::ServerStats before = server.stats();
  const ClosedLoopRun run = RunClosedLoop(
      server.port(), in.bank, opt.trace ? opt.seconds / 2 : opt.seconds,
      opt.seed, false, &tally);
  const gcm::ServerStats after = server.stats();
  const gcm::ClusterStats cs_after = loopback->remote().stats();

  const OpStats ops = SummarizeOps(run.latency_s);
  NoteTailSupport(ops.n, kReportedTailPct, &tally.notes);
  const double throughput =
      static_cast<double>(run.latency_s.size()) / run.elapsed_s;
  result.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"op_ms_p50", ops.p50_ms, "ms"},
      {"bytes_ratio", bytes_ratio, "ratio"},
      {"mem_mb", mem_mb, "MB"},
  };
  result.reported = {
      {"setup_s", Median(setup_s), "s"},
      {"latency_ms_p50", ops.p50_ms, "ms"},
      {"latency_ms_p90", ops.p90_ms, "ms"},
      {"latency_ms_p99", ops.p99_ms, "ms"},
      {"requests", static_cast<double>(ops.n), "count"},
      {"throughput_rps", throughput, "1/s"},
      {"mem_mb", mem_mb, "MB"},
      {"bytes_ratio", bytes_ratio, "ratio"},
      {"dense_bytes", static_cast<double>(in.dense.UncompressedBytes()), "B"},
      {"stored_bytes", static_cast<double>(stored_bytes), "B"},
  };

  if (opt.trace) {
    const ClosedLoopRun traced = RunClosedLoop(
        server.port(), in.bank, opt.seconds / 2, opt.seed, true, &tally);
    SetSelfTimes(traced.spans, "bench.request", &sheet);
    sheet.Set("trace.overhead_ms",
              SummarizeOps(traced.latency_s).p50_ms - ops.p50_ms);
    SetServerStats(before, after, &sheet);
    const double scatters =
        static_cast<double>(cs_after.scatters - cs_before.scatters);
    sheet.Set("cluster.fanout",
              scatters > 0 ? static_cast<double>(cs_after.requests_sent -
                                                 cs_before.requests_sent) /
                                 scatters
                           : 0.0);
    sheet.Set("cluster.retries",
              static_cast<double>(cs_after.retries - cs_before.retries));
    sheet.Set("cluster.failovers",
              static_cast<double>(cs_after.failovers - cs_before.failovers));
    sheet.Set("cluster.deadline_timeouts",
              static_cast<double>(cs_after.deadline_timeouts -
                                  cs_before.deadline_timeouts));
    // The same right request sent straight to one worker (one hop).
    const gcm::WorkerEndpoint& worker =
        loopback->manifest().ranges.front().workers.front();
    gcm::Client direct = gcm::Client::Connect(worker.host, worker.port);
    sheet.Set("cluster.worker_us", 1e6 * MedianSeconds(30, [&] {
      direct.MvmRight(in.bank.input[kRight][0]);
    }));
    direct.Close();
    double kernel_mix_us = 0.0;
    ProbeKernels(loopback->local(), in.bank, sheet.Get("net.batch_mean"),
                 &sheet, &kernel_mix_us);
    ProbeNet(server.port(), m.rows(), &sheet);
    server.Stop();
    SetWaitUs(ops.p50_ms * 1e3, kernel_mix_us, &sheet);
    const std::string store = (fs::path(opt.workdir) / "store").string();
    PartitionStore(in.dense, store, &pool);
    ProbeSnapshotFiles(ShardPaths(store), m.rows() * sizeof(double), opt.seed,
                       &sheet);
    ProbeShardBuild(in.dense, store, opt.workdir, &sheet);
    result.per_layer = sheet.Emit();
    result.spans = traced.spans;
  }
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.notes = tally.notes;
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"solve", "serve", "ingest",
                                                 "cluster"};
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  RunResult result;
  if (options.workload == "solve") {
    result = RunSolve(options);
  } else if (options.workload == "serve") {
    result = RunServe(options);
  } else if (options.workload == "ingest") {
    result = RunIngest(options);
  } else if (options.workload == "cluster") {
    result = RunCluster(options);
  } else {
    throw std::invalid_argument("unknown workload " + options.workload);
  }
  // Every workload must report every gated metric, in one order.
  bool same = result.end_to_end.size() == kEndToEnd.size();
  for (std::size_t i = 0; same && i < kEndToEnd.size(); ++i) {
    same = result.end_to_end[i].name == kEndToEnd[i].first &&
           result.end_to_end[i].unit == kEndToEnd[i].second;
  }
  if (!same) {
    throw std::logic_error(options.workload +
                           " does not report the gated metric set");
  }
  return result;
}

}  // namespace perfbench
