// MatrixStore: the directory layout of a sharded serving store.
//
// Producer side -- Partition cuts a matrix into row-range shards, builds
// each shard with an inner engine spec, and writes one snapshot file per
// shard plus a checksummed manifest:
//
//    MatrixStore::Partition(dense, "gcm:re_ans",
//                           {.rows_per_shard = 100000}, "store/");
//    store/manifest.gcsnap, store/shard_g1_00000.gcsnap, ...
//
// Shard files are never rewritten: each Partition or Resave writes the
// next generation's files (shard_g<gen>_<i>), and replacing the manifest
// is its single commit point. Open reads whichever manifest is in place,
// so it sees the old store or the new one, never a mix; files the
// committed manifest does not name are deleted after the commit. (A
// handle opened before a commit keeps the shards it has loaded; one it
// has not loaded yet is gone, and touching it fails naming the file.)
//
// Consumer side -- Open reads only the manifest and returns the store as
// an engine matrix (a ShardedMatrix behind AnyMatrix), so startup cost is
// independent of the model size; shard payloads stream in lazily on first
// touch (or eagerly on request) and can be evicted between requests for
// memory-bounded serving:
//
//    AnyMatrix m = MatrixStore::Open("store/");   // lazy by default
//    m.MultiplyRightInto(x, y, {.pool = &pool});  // shard-parallel
//
// Reopening a store never re-runs any construction pipeline: each shard
// file is an ordinary AnyMatrix snapshot whose stored grammar / rANS
// payload is adopted as-is (RePairInvocationCount() stays flat across
// Open + multiply). Every shard load is checksum-verified against the
// manifest; a swapped, truncated or bit-rotted shard file fails with an
// error naming the shard.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "serving/shard_manifest.hpp"
#include "serving/sharded_matrix.hpp"

namespace gcm {

class DenseMatrix;
struct Triplet;

class MatrixStore {
 public:
  /// Partitions `dense` into row-range shards built with `inner_spec`
  /// (any non-sharded engine spec) and writes shard snapshots plus the
  /// manifest into `dir` (created if absent). Returns the manifest.
  ///
  /// A BuildContext pool builds and writes the shards concurrently; shard
  /// files and the manifest are byte-identical to the sequential output.
  /// Shards land under the next generation's names and the manifest
  /// replace commits them, so a failed Partition never leaves a directory
  /// Open would half-accept: it removes its own files, and an existing
  /// store being overwritten stays as it was.
  static ShardManifest Partition(const DenseMatrix& dense,
                                 const std::string& inner_spec,
                                 const ShardingPolicy& policy,
                                 const std::string& dir,
                                 const BuildContext& ctx = {});

  /// Dense-free producer path: triplets are bucketed per shard and each
  /// bucket runs through the inner spec's own ingestion pipeline. Same
  /// parallelism, determinism and atomicity as the dense overload.
  static ShardManifest Partition(std::size_t rows, std::size_t cols,
                                 std::vector<Triplet> entries,
                                 const std::string& inner_spec,
                                 const ShardingPolicy& policy,
                                 const std::string& dir,
                                 const BuildContext& ctx = {});

  /// Opens a store directory (or a manifest file path directly) as an
  /// engine matrix. kLazy reads shard files on first touch; kEager loads
  /// all shards now. Errors name the manifest / shard that failed.
  static AnyMatrix Open(const std::string& dir_or_manifest,
                        ShardLoadMode mode = ShardLoadMode::kLazy);

  /// Rewrites every file of an existing store in the current container
  /// version (`mm_repair_cli --resave`): each shard snapshot is loaded
  /// (any supported version) and re-emitted as the next generation's file,
  /// and a fresh manifest with the new checksums commits them -- the same
  /// pipeline as Partition, so a failure mid-migration leaves the original
  /// store byte-for-byte intact. No construction pipeline runs (grammars /
  /// rANS payloads are adopted as-is), and the row ranges are kept as the
  /// manifest records them, even or not. Returns the refreshed manifest.
  static ShardManifest Resave(const std::string& dir_or_manifest);

  /// Reads and validates the manifest alone (no shard file is touched).
  static ShardManifest ReadManifest(const std::string& dir_or_manifest);

  /// The manifest path for a store directory (the argument unchanged if
  /// it already names a file).
  static std::string ManifestPath(const std::string& dir_or_manifest);
};

}  // namespace gcm
