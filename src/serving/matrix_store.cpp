#include "serving/matrix_store.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "encoding/snapshot.hpp"
#include "matrix/dense_matrix.hpp"
#include "matrix/sparse_builder.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

namespace fs = std::filesystem;

/// The tiling Partition cuts: `per_shard` rows per shard, the last one
/// possibly shorter. Only the dimensions and row ranges are set.
ShardManifest UniformLayout(std::size_t rows, std::size_t cols,
                            std::size_t per_shard) {
  ShardManifest layout{.rows = rows, .cols = cols};
  for (std::size_t begin = 0; begin < rows; begin += per_shard) {
    layout.shards.push_back(
        {.row_begin = begin, .row_end = std::min(rows, begin + per_shard)});
  }
  return layout;
}

/// Every shard file in `dir` with its generation (ShardFileGeneration);
/// files with other names are never touched. A listing error is reported
/// in `ec`.
std::vector<std::pair<fs::path, u64>> ListShardFiles(const std::string& dir,
                                                     std::error_code& ec) {
  std::vector<std::pair<fs::path, u64>> files;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (auto generation =
            ShardFileGeneration(it->path().filename().string())) {
      files.emplace_back(it->path(), *generation);
    }
  }
  return files;
}

/// Shared producer pipeline: `manifest` arrives holding the dimensions
/// and each shard's row range, and shard i is built by `build_shard(i)`.
///
/// Shard files are immutable and named by store generation: this call
/// writes generation g = 1 + the highest generation named in `dir` (so a
/// fresh directory always gets the same names), each shard once under its
/// final name, concurrently on the BuildContext pool. Each task holds only
/// its own shard in memory, and the manifest entries land in per-shard
/// slots, so every file is byte-identical to the sequential output.
///
/// Replacing the manifest is the only commit: until it lands, Open reads
/// the old manifest, which names only older generations. A failure before
/// it removes this generation's files (and `dir` if this call created
/// it), leaving an existing store as it was. After it, every shard file
/// of another generation is collected: the old store, a killed run's
/// uncommitted files, and the surplus shards of a repartition into fewer
/// shards.
ShardManifest WriteStore(
    ShardManifest manifest, const std::string& dir, const BuildContext& ctx,
    const std::function<AnyMatrix(std::size_t)>& build_shard) {
  std::error_code ec;
  bool created_dir = fs::create_directories(dir, ec);
  GCM_CHECK_MSG(!ec, "cannot create store directory " << dir << ": "
                                                      << ec.message());
  u64 generation = 0;
  for (const auto& file : ListShardFiles(dir, ec)) {
    generation = std::max(generation, file.second);
  }
  GCM_CHECK_MSG(!ec, "cannot list store directory " << dir << ": "
                                                    << ec.message());
  ++generation;

  try {
    MaybeParallelFor(ctx.pool, manifest.shards.size(), [&](std::size_t i) {
      AnyMatrix shard = build_shard(i);
      std::vector<u8> bytes = shard.SaveSnapshotBytes();
      ShardManifestEntry& entry = manifest.shards[i];
      entry.file = ShardFileName(generation, i);
      entry.spec = shard.FormatTag();
      entry.crc32 = Crc32(bytes.data(), bytes.size());
      entry.snapshot_bytes = bytes.size();
      entry.compressed_bytes = shard.CompressedBytes();
      WriteFileBytes((fs::path(dir) / entry.file).string(), bytes);
    });
    manifest.Save((fs::path(dir) / kShardManifestFileName).string());
  } catch (...) {
    std::error_code ignore;
    for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
      fs::remove(fs::path(dir) / ShardFileName(generation, i), ignore);
    }
    // remove() refuses a non-empty directory, so only a directory this
    // call created and left empty goes.
    if (created_dir) fs::remove(dir, ignore);
    throw;
  }
  std::error_code ignore;
  for (const auto& [path, file_generation] : ListShardFiles(dir, ignore)) {
    if (file_generation != generation) fs::remove(path, ignore);
  }
  return manifest;
}

MatrixSpec ParseInnerSpec(const std::string& inner_spec) {
  MatrixSpec inner = MatrixSpec::Parse(inner_spec);
  if (inner.family == "sharded") {
    throw std::invalid_argument(
        "MatrixStore::Partition inner spec \"" + inner_spec +
        "\" is itself sharded; shards hold concrete backends");
  }
  return inner;
}

}  // namespace

ShardManifest MatrixStore::Partition(const DenseMatrix& dense,
                                     const std::string& inner_spec,
                                     const ShardingPolicy& policy,
                                     const std::string& dir,
                                     const BuildContext& ctx) {
  MatrixSpec inner = ParseInnerSpec(inner_spec);
  ShardManifest layout = UniformLayout(
      dense.rows(), dense.cols(),
      policy.ResolveRowsPerShard(dense.rows(), dense.cols()));
  return WriteStore(layout, dir, ctx, [&](std::size_t i) {
    const ShardManifestEntry& shard = layout.shards[i];
    return AnyMatrix::Build(dense.RowSlice(shard.row_begin, shard.row_end),
                            inner, ctx);
  });
}

ShardManifest MatrixStore::Partition(std::size_t rows, std::size_t cols,
                                     std::vector<Triplet> entries,
                                     const std::string& inner_spec,
                                     const ShardingPolicy& policy,
                                     const std::string& dir,
                                     const BuildContext& ctx) {
  MatrixSpec inner = ParseInnerSpec(inner_spec);
  std::size_t per_shard = policy.ResolveRowsPerShard(rows, cols);
  std::vector<std::vector<Triplet>> buckets =
      BucketTripletsByShard(rows, per_shard, std::move(entries));
  ShardManifest layout = UniformLayout(rows, cols, per_shard);
  return WriteStore(layout, dir, ctx, [&](std::size_t i) {
    return AnyMatrix::Build(layout.shards[i].rows(), cols,
                            std::move(buckets[i]), inner, ctx);
  });
}

std::string MatrixStore::ManifestPath(const std::string& dir_or_manifest) {
  fs::path path(dir_or_manifest);
  std::error_code ec;
  bool is_directory = fs::is_directory(path, ec);
  // Nonexistence is not an error here -- the caller's manifest read
  // reports a missing file with the usual cannot-open message. Anything
  // else (EACCES on a parent, an I/O error) is a real filesystem failure
  // that must not masquerade as "not a directory" and send the caller to
  // a nonexistent manifest path.
  if (ec == std::errc::no_such_file_or_directory ||
      ec == std::errc::not_a_directory) {
    ec.clear();
  }
  GCM_CHECK_MSG(!ec, "cannot inspect " << dir_or_manifest << ": "
                                       << ec.message());
  if (is_directory) path /= kShardManifestFileName;
  return path.string();
}

ShardManifest MatrixStore::ReadManifest(const std::string& dir_or_manifest) {
  return ShardManifest::Load(ManifestPath(dir_or_manifest));
}

ShardManifest MatrixStore::Resave(const std::string& dir_or_manifest) {
  std::string manifest_path = ManifestPath(dir_or_manifest);
  ShardManifest old = ShardManifest::Load(manifest_path);
  std::string dir = fs::path(manifest_path).parent_path().string();
  // Each "build" is just a load of the existing shard file: the snapshot
  // payload is adopted as-is and re-emitted in the current container
  // version under the next generation's names, keeping the old tiling.
  return WriteStore(old, dir, {}, [&](std::size_t i) {
    return AnyMatrix::Load((fs::path(dir) / old.shards[i].file).string());
  });
}

AnyMatrix MatrixStore::Open(const std::string& dir_or_manifest,
                            ShardLoadMode mode) {
  std::string manifest_path = ManifestPath(dir_or_manifest);
  ShardManifest manifest = ShardManifest::Load(manifest_path);
  std::string dir = fs::path(manifest_path).parent_path().string();
  return AnyMatrix(
      ShardedMatrix::FromManifest(std::move(manifest), dir, mode));
}

}  // namespace gcm
