// Microbenchmarks of the individual kernels (google-benchmark): RePair
// construction, rANS encode/decode, packed-array access, the four MVM
// formats, engine dispatch, CSM computation and CLA compression. These
// quantify the constant factors behind the table-level results (e.g. why
// re_32 multiplies faster than re_iv, and re_iv faster than re_ans).
//
//   $ ./micro_kernels            # full timed run
//   $ ./micro_kernels --smoke    # every kernel exactly once, untimed
//
// --smoke is the CI mode (a CTest target registers it): it exercises the
// rANS and packed-int-vector kernels on every run without paying for
// statistically meaningful timings.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cla/cla_matrix.hpp"
#include "core/any_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "core/gc_matrix.hpp"
#include "encoding/snapshot.hpp"
#include "grammar/repair.hpp"
#include "matrix/datasets.hpp"
#include "reorder/column_similarity.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

/// Attaches the throughput columns the bench gate tracks for the MVM-style
/// kernels: bytes_per_second (GB/s over the *compressed* payload -- the
/// bandwidth the compressed kernel actually streams) and rows_per_second.
void SetMvmThroughput(benchmark::State& state, u64 compressed_bytes,
                      std::size_t rows_per_iteration) {
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<benchmark::IterationCount>(compressed_bytes));
  state.counters["rows_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(rows_per_iteration),
      benchmark::Counter::kIsRate);
}

const DenseMatrix& CensusMatrix() {
  static const DenseMatrix matrix =
      GenerateDatasetRows(DatasetByName("Census"), 3000);
  return matrix;
}

const CsrvMatrix& CensusCsrv() {
  static const CsrvMatrix csrv = CsrvMatrix::FromDense(CensusMatrix());
  return csrv;
}

std::vector<double> RandomVector(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextDouble() * 2.0 - 1.0;
  return v;
}

void BM_RePairCompress(benchmark::State& state) {
  const CsrvMatrix& csrv = CensusCsrv();
  u64 alphabet = 1 + csrv.dictionary().size() * csrv.cols();
  RePairConfig config;
  config.forbidden_terminal = kCsrvSentinel;
  for (auto _ : state) {
    RePairResult result = RePairCompress(
        csrv.sequence().ToVector(), static_cast<u32>(alphabet), config);
    benchmark::DoNotOptimize(result.final_sequence.data());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<benchmark::IterationCount>(csrv.sequence().size()));
}
BENCHMARK(BM_RePairCompress)->Unit(benchmark::kMillisecond);

void BM_RansEncode(benchmark::State& state) {
  Rng rng(1);
  std::vector<u32> symbols(1 << 18);
  for (auto& s : symbols) s = static_cast<u32>(rng.SkewedBelow(65536, 0.999));
  for (auto _ : state) {
    RansStream stream = RansEncode(symbols);
    benchmark::DoNotOptimize(stream.chunks.data());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<benchmark::IterationCount>(symbols.size()));
}
BENCHMARK(BM_RansEncode)->Unit(benchmark::kMillisecond);

void BM_RansDecode(benchmark::State& state) {
  Rng rng(2);
  std::vector<u32> symbols(1 << 18);
  for (auto& s : symbols) s = static_cast<u32>(rng.SkewedBelow(65536, 0.999));
  RansStream stream = RansEncode(symbols);
  for (auto _ : state) {
    RansDecoder decoder(stream);
    std::vector<u32> out = decoder.DecodeAll();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<benchmark::IterationCount>(symbols.size()));
}
BENCHMARK(BM_RansDecode)->Unit(benchmark::kMillisecond);

void BM_IntVectorAccess(benchmark::State& state) {
  Rng rng(3);
  IntVector packed(1 << 20, 13);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    packed.Set(i, rng.Next() & 0x1fff);
  }
  for (auto _ : state) {
    u64 sum = 0;
    for (std::size_t i = 0; i < packed.size(); ++i) sum += packed.Get(i);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<benchmark::IterationCount>(packed.size()));
}
BENCHMARK(BM_IntVectorAccess);

void BM_PlainVectorAccess(benchmark::State& state) {
  Rng rng(4);
  std::vector<u32> plain(1 << 20);
  for (auto& v : plain) v = static_cast<u32>(rng.Next() & 0x1fff);
  for (auto _ : state) {
    u64 sum = 0;
    for (u32 v : plain) sum += v;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<benchmark::IterationCount>(plain.size()));
}
BENCHMARK(BM_PlainVectorAccess);

void MvmRight(benchmark::State& state, GcFormat format) {
  GcMatrix gc = GcMatrix::FromCsrv(CensusCsrv(), {format, 12, 0});
  std::vector<double> x = RandomVector(gc.cols(), 5);
  for (auto _ : state) {
    std::vector<double> y = gc.MultiplyRight(x);
    benchmark::DoNotOptimize(y.data());
  }
  SetMvmThroughput(state, gc.CompressedBytes(), gc.rows());
}
void BM_MvmRightCsrv(benchmark::State& s) { MvmRight(s, GcFormat::kCsrv); }
void BM_MvmRightRe32(benchmark::State& s) { MvmRight(s, GcFormat::kRe32); }
void BM_MvmRightReIv(benchmark::State& s) { MvmRight(s, GcFormat::kReIv); }
void BM_MvmRightReAns(benchmark::State& s) { MvmRight(s, GcFormat::kReAns); }
BENCHMARK(BM_MvmRightCsrv)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MvmRightRe32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MvmRightReIv)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MvmRightReAns)->Unit(benchmark::kMicrosecond);

void MvmLeft(benchmark::State& state, GcFormat format) {
  GcMatrix gc = GcMatrix::FromCsrv(CensusCsrv(), {format, 12, 0});
  std::vector<double> y = RandomVector(gc.rows(), 6);
  for (auto _ : state) {
    std::vector<double> x = gc.MultiplyLeft(y);
    benchmark::DoNotOptimize(x.data());
  }
  SetMvmThroughput(state, gc.CompressedBytes(), gc.rows());
}
void BM_MvmLeftCsrv(benchmark::State& s) { MvmLeft(s, GcFormat::kCsrv); }
void BM_MvmLeftRe32(benchmark::State& s) { MvmLeft(s, GcFormat::kRe32); }
void BM_MvmLeftReIv(benchmark::State& s) { MvmLeft(s, GcFormat::kReIv); }
void BM_MvmLeftReAns(benchmark::State& s) { MvmLeft(s, GcFormat::kReAns); }
BENCHMARK(BM_MvmLeftCsrv)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MvmLeftRe32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MvmLeftReIv)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MvmLeftReAns)->Unit(benchmark::kMicrosecond);

// Multi-vector kernels at the batching server's grain (k = 16): one
// grammar expansion serves 16 vectors, so the kb-wide accumulate loops
// (simd::Add / simd::Axpy) dominate -- these are the rows the SIMD gate
// watches most closely.
constexpr std::size_t kMultiK = 16;

DenseMatrix RandomDense(std::size_t rows, std::size_t cols, u64 seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.Set(r, c, rng.NextDouble() * 2.0 - 1.0);
    }
  }
  return m;
}

void MvmRightMulti(benchmark::State& state, const std::string& spec) {
  AnyMatrix m = AnyMatrix::Build(CensusMatrix(), spec);
  DenseMatrix x = RandomDense(m.cols(), kMultiK, 11);
  for (auto _ : state) {
    DenseMatrix y = m.MultiplyRightMulti(x);
    benchmark::DoNotOptimize(y.At(0, 0));
  }
  SetMvmThroughput(state, m.CompressedBytes(), m.rows() * kMultiK);
}
void BM_MvmRightMulti16Re32(benchmark::State& s) {
  MvmRightMulti(s, "gcm:re_32");
}
void BM_MvmRightMulti16Csrv(benchmark::State& s) {
  MvmRightMulti(s, "gcm:csrv");
}
BENCHMARK(BM_MvmRightMulti16Re32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MvmRightMulti16Csrv)->Unit(benchmark::kMicrosecond);

void BM_MvmLeftMulti16Re32(benchmark::State& state) {
  AnyMatrix m = AnyMatrix::Build(CensusMatrix(), "gcm:re_32");
  DenseMatrix x = RandomDense(kMultiK, m.rows(), 12);
  for (auto _ : state) {
    DenseMatrix y = m.MultiplyLeftMulti(x);
    benchmark::DoNotOptimize(y.At(0, 0));
  }
  SetMvmThroughput(state, m.CompressedBytes(), m.rows() * kMultiK);
}
BENCHMARK(BM_MvmLeftMulti16Re32)->Unit(benchmark::kMicrosecond);

// Raw facade primitive: the peak the kb-wide kernels chase. The run name
// carries the compiled backend so scalar and avx2 CSVs are tellable apart.
void BM_SimdAxpy(benchmark::State& state) {
  constexpr std::size_t kN = 4096;
  std::vector<double> x = RandomVector(kN, 13);
  std::vector<double> out(kN, 0.0);
  double v = 1.000000059604645;  // keeps out finite across iterations
  for (auto _ : state) {
    simd::Axpy(out.data(), v, x.data(), kN);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<benchmark::IterationCount>(2 * kN * sizeof(double)));
  state.SetLabel(simd::BackendName());
}
BENCHMARK(BM_SimdAxpy);

// Row extraction: re-walks the grammar per row (assignment-style path,
// see GcMatrix::ExtractRow).
void BM_ExtractRowCold(benchmark::State& state) {
  GcMatrix gc = GcMatrix::FromCsrv(CensusCsrv(), {GcFormat::kRe32, 12, 0});
  std::size_t r = 0;
  for (auto _ : state) {
    std::vector<double> row = gc.ExtractRow(r);
    benchmark::DoNotOptimize(row.data());
    r = (r + 1) % gc.rows();
  }
  state.counters["rows_per_second"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExtractRowCold)->Unit(benchmark::kMicrosecond);

void BM_CsmCompute(benchmark::State& state) {
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Covtype"), 512);
  for (auto _ : state) {
    ColumnSimilarityMatrix csm = ColumnSimilarityMatrix::Compute(m);
    benchmark::DoNotOptimize(csm.edge_count());
  }
}
BENCHMARK(BM_CsmCompute)->Unit(benchmark::kMillisecond);

void BM_ClaCompress(benchmark::State& state) {
  const DenseMatrix& m = CensusMatrix();
  for (auto _ : state) {
    ClaMatrix cla = ClaMatrix::Compress(m);
    benchmark::DoNotOptimize(cla.CompressedBytes());
  }
}
BENCHMARK(BM_ClaCompress)->Unit(benchmark::kMillisecond);

void BM_ClaMvmRight(benchmark::State& state) {
  ClaMatrix cla = ClaMatrix::Compress(CensusMatrix());
  std::vector<double> x = RandomVector(cla.cols(), 7);
  for (auto _ : state) {
    std::vector<double> y = cla.MultiplyRight(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ClaMvmRight)->Unit(benchmark::kMicrosecond);

// Engine dispatch overhead: same kernel as BM_MvmRightRe32 but through the
// type-erased AnyMatrix *Into path with a preallocated output. The delta
// against the direct call is the cost of the virtual dispatch + checks.
void BM_AnyMatrixMvmRight(benchmark::State& state) {
  AnyMatrix m = AnyMatrix::Build(CensusMatrix(), "gcm:re_32");
  std::vector<double> x = RandomVector(m.cols(), 8);
  std::vector<double> y(m.rows());
  for (auto _ : state) {
    m.MultiplyRightInto(x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AnyMatrixMvmRight)->Unit(benchmark::kMicrosecond);

// Scatter/gather overhead of the serving layer: the same matrix as
// BM_AnyMatrixMvmRight but split into row-range shards, sequential and
// shard-parallel. The sequential delta against the unsharded engine call
// is the cost of the scatter bookkeeping; the pooled run shows what the
// shards buy back.
void ShardedMvmRight(benchmark::State& state, bool pooled) {
  AnyMatrix sharded = AnyMatrix::Build(
      CensusMatrix(), "sharded?inner=gcm:re_32&shards=8");
  ThreadPool pool(4);
  MulContext ctx{pooled ? &pool : nullptr};
  std::vector<double> x = RandomVector(sharded.cols(), 9);
  std::vector<double> y(sharded.rows());
  for (auto _ : state) {
    sharded.MultiplyRightInto(x, y, ctx);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<benchmark::IterationCount>(sharded.rows()));
}

void BM_ShardedMvmRightSequential(benchmark::State& state) {
  ShardedMvmRight(state, false);
}
BENCHMARK(BM_ShardedMvmRightSequential)->Unit(benchmark::kMicrosecond);

void BM_ShardedMvmRightPooled(benchmark::State& state) {
  ShardedMvmRight(state, true);
}
BENCHMARK(BM_ShardedMvmRightPooled)->Unit(benchmark::kMicrosecond);

// Cold-start cost of bringing one shard snapshot into service: the
// copying path (read the whole file into a heap buffer, every array
// owned) vs the zero-copy path (map the file, borrow payload arrays out
// of the mapping). Each iteration deserializes and then runs one multiply
// so the mapped variant pays its first-touch page faults inside the
// timed region -- the honest comparison, since an untouched mapping is
// free by construction. bytes_per_second is over the snapshot file, i.e.
// cold shards brought into service per second per byte of store.
const std::string& ShardSnapshotPath() {
  // The pid keeps concurrent bench processes off each other's file; the
  // file is removed when the process exits.
  struct SnapshotFile {
    std::string path = (std::filesystem::temp_directory_path() /
                        ("gcm_bench_shard_" + std::to_string(getpid()) +
                         ".gcsnap"))
                           .string();
    SnapshotFile() { AnyMatrix::Build(CensusMatrix(), "csr").Save(path); }
    ~SnapshotFile() {
      std::error_code ignored;
      std::filesystem::remove(path, ignored);
    }
  };
  static const SnapshotFile file;
  return file.path;
}

void ShardLoad(benchmark::State& state, bool mapped) {
  const std::string& path = ShardSnapshotPath();
  u64 file_bytes = ReadFileBytes(path).size();
  std::vector<double> x = RandomVector(CensusMatrix().cols(), 17);
  for (auto _ : state) {
    AnyMatrix m = mapped ? AnyMatrix::Load(path)
                         : AnyMatrix::LoadSnapshotBytes(ReadFileBytes(path));
    std::vector<double> y = m.MultiplyRight(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(
      state.iterations() * static_cast<benchmark::IterationCount>(file_bytes));
}

void BM_ShardLoadCopy(benchmark::State& state) { ShardLoad(state, false); }
BENCHMARK(BM_ShardLoadCopy)->Unit(benchmark::kMicrosecond);

void BM_ShardLoadMmap(benchmark::State& state) { ShardLoad(state, true); }
BENCHMARK(BM_ShardLoadMmap)->Unit(benchmark::kMicrosecond);

// Construction throughput of the producer pipeline: per-block RePair
// builds of a blocked matrix, sequential vs on a 4-thread BuildContext
// pool. items_per_second in micro_kernels.csv is blocks/sec; wall time is
// the honest measure of a pooled build, so both variants use real time
// (cpu_time would only show the calling thread). bench_gate picks the new
// rows up like every other micro kernel: first run passes with a note,
// later runs gate against the uploaded baseline.
void BlockedGcBuild(benchmark::State& state, std::size_t threads) {
  const DenseMatrix& m = CensusMatrix();
  constexpr std::size_t kBlocks = 8;
  std::unique_ptr<ThreadPool> pool;
  BuildContext ctx;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    ctx.pool = pool.get();
  }
  for (auto _ : state) {
    BlockedGcMatrix built =
        BlockedGcMatrix::Build(m, kBlocks, {GcFormat::kRe32, 12, 0}, {}, ctx);
    benchmark::DoNotOptimize(built.CompressedBytes());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<benchmark::IterationCount>(kBlocks));
}

void BM_BlockedGcBuildSequential(benchmark::State& state) {
  BlockedGcBuild(state, 0 /* no pool */);
}
BENCHMARK(BM_BlockedGcBuildSequential)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BlockedGcBuildPooled4(benchmark::State& state) {
  BlockedGcBuild(state, 4);
}
BENCHMARK(BM_BlockedGcBuildPooled4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace gcm

int main(int argc, char** argv) {
  // --smoke: run every registered kernel exactly once (min_time=0 makes
  // google-benchmark stop after the first iteration) -- the CI guard that
  // keeps these code paths exercised without timing them.
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  char min_time[] = "--benchmark_min_time=0";
  if (smoke) args.push_back(min_time);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
