// mm-repair command-line tool: compress / decompress / multiply matrix
// files, mirroring the utility programs shipped with the paper's original
// repository (gitlab.com/manzai/mm-repair).
//
//   $ ./mm_repair_cli compress   input output.gcsnap [--spec gcm:re_ans]
//   $ ./mm_repair_cli decompress input output.gcsnap  # dense snapshot
//   $ ./mm_repair_cli multiply   input [--iters N]   # Eq. (4) style loop
//   $ ./mm_repair_cli info       input
//
// Every command opens its input through the LoadAuto front door, so the
// input may be an AnyMatrix snapshot, a MatrixMarket file, or plain dense
// text -- no flags needed. `compress` writes a versioned snapshot (the
// deployment artifact: reloading it never re-runs RePair); `decompress`
// writes the matrix back out as a `dense` snapshot. `--save-snapshot
// PATH` on multiply/info re-saves whatever was loaded as a snapshot, i.e.
// converts any readable input; with `--shards N` (N > 1) PATH becomes a
// sharded store *directory* (MatrixStore::Partition writes per-shard
// snapshots plus a manifest), so this CLI is the producer-side tool of the
// serving API.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "core/any_matrix.hpp"
#include "core/matrix_file.hpp"
#include "core/power_iteration.hpp"
#include "encoding/snapshot.hpp"
#include "serving/matrix_store.hpp"
#include "serving/sharded_matrix.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"

using namespace gcm;

namespace {

int Usage() {
  std::fputs(
      "usage: mm_repair_cli <compress|decompress|multiply|info> <input> "
      "[output]\n"
      "       [--spec SPEC] [--format csrv|re_32|re_iv|re_ans] [--iters N]\n"
      "       [--save-snapshot PATH] [--shards N] [--build-threads N]\n"
      "       [--resave]\n"
      "`decompress input output.gcsnap` writes a dense snapshot;\n"
      "inputs may be snapshots, MatrixMarket, dense text, or a sharded\n"
      "store manifest; --save-snapshot with --shards > 1 writes a sharded\n"
      "store directory instead of a single snapshot file;\n"
      "`info --resave` rewrites a snapshot file or store in place in the\n"
      "current container version (a store commits by one manifest rename)\n",
      stderr);
  return 2;
}

/// The inner spec used when re-sharding the loaded matrix: an explicit
/// --spec wins; otherwise the matrix's own tag (unwrapping an existing
/// sharded tag so stores can be re-partitioned with a different layout).
std::string ReshardInnerSpec(const AnyMatrix& matrix, const CliParser& cli) {
  std::string spec = cli.GetString("spec");
  if (!spec.empty()) return spec;
  spec = matrix.FormatTag();
  MatrixSpec parsed = MatrixSpec::Parse(spec);
  if (parsed.family == "sharded") {
    return InnerSpecFromSharded(parsed).ToString();
  }
  return spec;
}

/// The construction pool per --build-threads (1 = sequential default, 0 =
/// all hardware threads; pool and no-pool builds are byte-identical, so
/// the flag only changes how long the build takes). Created lazily at the
/// build sites, so commands that never construct (decompress, plain
/// multiply/info) spawn no workers.
std::unique_ptr<ThreadPool> BuildPool(const CliParser& cli) {
  return MakePoolForThreads(
      static_cast<std::size_t>(cli.GetInt("build-threads")));
}

void MaybeSaveSnapshot(const AnyMatrix& matrix, const CliParser& cli) {
  std::string path = cli.GetString("save-snapshot");
  if (path.empty()) return;
  std::size_t shards = static_cast<std::size_t>(cli.GetInt("shards"));
  if (shards > 1) {
    std::unique_ptr<ThreadPool> build_pool = BuildPool(cli);
    std::string inner = ReshardInnerSpec(matrix, cli);
    ShardManifest manifest = MatrixStore::Partition(
        matrix.ToDense(), inner, {.shards = shards}, path,
        {.pool = build_pool.get()});
    std::printf("saved %zu-shard store (%s inner, %s) to %s/\n",
                manifest.shards.size(), inner.c_str(),
                FormatBytes(manifest.TotalCompressedBytes()).c_str(),
                path.c_str());
    return;
  }
  matrix.Save(path);
  std::printf("saved %s snapshot (%s) to %s\n", matrix.FormatTag().c_str(),
              FormatBytes(matrix.CompressedBytes()).c_str(), path.c_str());
}

/// `info --resave`: rewrites `input` in place in the current container
/// version. A store (directory, or a manifest file referencing sibling
/// shards) gets its shards rewritten as the next generation's files and
/// commits by replacing the manifest (MatrixStore::Resave), so a failure
/// before that leaves the old store in service; a single snapshot file is
/// replaced by AnyMatrix::Save (staged temp + rename), so a crash leaves
/// the old file intact. Payloads are adopted as-is -- no RePair / rANS
/// encoding re-runs.
void ResaveInput(const std::string& input) {
  namespace fs = std::filesystem;
  if (fs::is_directory(input)) {
    ShardManifest manifest = MatrixStore::Resave(input);
    std::printf("resaved %zu-shard store %s in container v%u\n",
                manifest.shards.size(), input.c_str(), kSnapshotVersion);
    return;
  }
  SnapshotReader reader = SnapshotReader::FromFile(input);
  u32 from_version = reader.version();
  MatrixSpec spec = MatrixSpec::Parse(reader.spec());
  bool store_manifest = spec.family == "sharded" &&
                        reader.HasSection(kShardManifestSection) &&
                        !reader.HasSection(ShardSectionName(0));
  if (store_manifest) {
    ShardManifest manifest = MatrixStore::Resave(input);
    std::printf("resaved %zu-shard store %s (manifest v%u -> v%u)\n",
                manifest.shards.size(), input.c_str(), from_version,
                kSnapshotVersion);
    return;
  }
  AnyMatrix matrix = AnyMatrix::LoadSnapshot(std::move(reader), input);
  matrix.Save(input);
  std::printf("resaved %s (v%u -> v%u, %s)\n", input.c_str(), from_version,
              kSnapshotVersion, FormatBytes(fs::file_size(input)).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("mm_repair_cli", "compress/decompress/multiply matrices");
  cli.AddFlag("spec", "", "engine spec for `compress` (overrides --format)");
  cli.AddFlag("format", "re_ans", "gcm variant for `compress`");
  cli.AddFlag("iters", "100", "iterations for `multiply`");
  cli.AddFlag("save-snapshot", "",
              "re-save the loaded matrix as a snapshot at this path");
  cli.AddFlag("shards", "1",
              "with --save-snapshot: partition into this many shards "
              "(PATH becomes a store directory)");
  cli.AddFlag("build-threads", "1",
              "construction worker threads (1 = sequential, 0 = all "
              "hardware threads); output is identical either way");
  cli.AddFlag("resave", "false",
              "with `info`: rewrite the input snapshot or store in place "
              "in the current container version (atomic)");
  if (!cli.Parse(argc, argv)) return 0;
  if (cli.positional().size() < 2) return Usage();
  const std::string& command = cli.positional()[0];
  const std::string& input = cli.positional()[1];

  try {
    if (command == "compress") {
      if (cli.positional().size() != 3) return Usage();
      std::string spec = cli.GetString("spec");
      if (spec.empty()) spec = "gcm:" + cli.GetString("format");
      DenseMatrix dense = LoadAuto(input).ToDense();
      std::unique_ptr<ThreadPool> build_pool = BuildPool(cli);
      AnyMatrix compressed;
      try {
        compressed = AnyMatrix::Build(dense, spec, {.pool = build_pool.get()});
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "bad --spec/--format: %s\n", e.what());
        return 2;
      }
      compressed.Save(cli.positional()[2]);
      std::printf("%s: %s -> %s (%.2f%% of dense, spec %s)\n", input.c_str(),
                  FormatBytes(dense.UncompressedBytes()).c_str(),
                  FormatBytes(compressed.CompressedBytes()).c_str(),
                  100.0 * static_cast<double>(compressed.CompressedBytes()) /
                      static_cast<double>(dense.UncompressedBytes()),
                  compressed.FormatTag().c_str());
    } else if (command == "decompress") {
      if (cli.positional().size() != 3) return Usage();
      AnyMatrix matrix = LoadAuto(input);
      AnyMatrix::Wrap(matrix.ToDense()).Save(cli.positional()[2]);
      std::printf("restored %zux%zu dense snapshot to %s\n", matrix.rows(),
                  matrix.cols(), cli.positional()[2].c_str());
    } else if (command == "multiply") {
      AnyMatrix matrix = LoadAuto(input);
      std::size_t iters = static_cast<std::size_t>(cli.GetInt("iters"));
      PowerIterationResult result = RunPowerIteration(matrix, iters);
      std::printf("%zu iterations of y=Mx; x=(y^tM)/|.|_inf : %.4f s/iter, "
                  "peak %s\n",
                  result.iterations, result.seconds_per_iteration,
                  FormatBytes(result.peak_heap_bytes).c_str());
      MaybeSaveSnapshot(matrix, cli);
    } else if (command == "info") {
      if (cli.GetBool("resave")) {
        ResaveInput(input);
        return 0;
      }
      MatrixFileKind kind = SniffMatrixFile(input);
      AnyMatrix matrix = LoadAuto(input);
      std::printf("%s: %s file, %zux%zu, backend %s, %s\n", input.c_str(),
                  MatrixFileKindName(kind), matrix.rows(), matrix.cols(),
                  matrix.FormatTag().c_str(),
                  FormatBytes(matrix.CompressedBytes()).c_str());
      MaybeSaveSnapshot(matrix, cli);
    } else {
      return Usage();
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
