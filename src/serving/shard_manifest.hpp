// Shard manifest: the small versioned file that turns a directory of
// per-shard snapshots into one servable matrix.
//
// A sharded store on disk is
//
//   store/
//     manifest.gcsnap        <- this file (a snapshot container, spec
//                               "sharded?inner=...&shards=N", sections
//                               "meta" + "manifest")
//     shard_g1_00000.gcsnap  <- ordinary AnyMatrix snapshots, one per
//     shard_g1_00001.gcsnap     contiguous row range, named by the store
//     ...                       generation that wrote them
//
// Shard files are immutable: each write of a store (MatrixStore) puts a
// new generation's shards beside the old ones and then replaces the
// manifest, so the manifest alone decides which files are the store.
//
// The manifest records, per shard: the row range it covers, the snapshot
// file name (relative to the manifest's directory), the shard's engine
// spec tag, and content checksums (CRC-32 + byte length of the shard
// file), so a reader can open any subset of shards independently and
// detect a swapped or bit-rotted shard before trusting its payload.
// Ranges must tile [0, rows) contiguously -- Validate() enforces it, and
// every loader calls Validate() before touching a shard.
//
// The same serialized form doubles as the "manifest" section of a
// single-file sharded snapshot (ShardedMatrix::SaveSections embeds each
// shard's snapshot bytes as sibling "shard_<i>" sections; there the file
// name fields are empty and the checksums describe the embedded bytes).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace gcm {

class ByteReader;
class ByteWriter;
class SnapshotReader;

/// File name of the manifest inside a sharded store directory.
inline constexpr const char* kShardManifestFileName = "manifest.gcsnap";

/// Snapshot section names used by the sharded formats.
inline constexpr const char* kShardManifestSection = "manifest";

/// Name of shard file `index` of store generation `generation` inside a
/// store directory ("shard_g1_00000.gcsnap"; stores written before
/// generations existed use "shard_00000.gcsnap", read as generation 0).
std::string ShardFileName(u64 generation, std::size_t index);

/// The generation of a shard file name in a store directory: g for
/// "shard_g<g>_<i>.gcsnap" (g of at most 18 digits, so every generation
/// and its successor fit a u64), 0 for the legacy "shard_<i>.gcsnap", and
/// nothing for any other name.
std::optional<u64> ShardFileGeneration(const std::string& name);

/// Name of shard `index`'s embedded section in the single-file form
/// ("shard_0").
std::string ShardSectionName(std::size_t index);

/// The sharded spec grammar nests a full inner spec inside one ?key=value
/// pair. '&' would terminate the pair early, so inner specs are encoded
/// with '+' in its place ("gcm:re_32?blocks=2&fold_bits=10" becomes
/// "gcm:re_32?blocks=2+fold_bits=10"). '+' appears nowhere else in the
/// spec grammar, so the mapping is total in both directions.
std::string EncodeInnerSpec(std::string spec);
std::string DecodeInnerSpec(std::string spec);

/// One shard of a sharded store: a contiguous row range backed by one
/// AnyMatrix snapshot.
struct ShardManifestEntry {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;    ///< exclusive
  std::string file;           ///< shard snapshot file name, relative to the
                              ///< manifest's directory; empty in the
                              ///< single-file (embedded) form
  std::string spec;           ///< the shard's engine FormatTag
  u32 crc32 = 0;              ///< CRC-32 of the shard snapshot bytes
  u64 snapshot_bytes = 0;     ///< length of the shard snapshot bytes
  u64 compressed_bytes = 0;   ///< the shard backend's CompressedBytes()

  std::size_t rows() const { return row_end - row_begin; }
  bool operator==(const ShardManifestEntry&) const = default;
};

/// Row-range -> shard-snapshot mapping for one sharded matrix.
struct ShardManifest {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<ShardManifestEntry> shards;

  bool operator==(const ShardManifest&) const = default;

  /// Sum of the recorded per-shard compressed sizes (reported without
  /// loading any shard).
  u64 TotalCompressedBytes() const;

  /// The engine spec tag of the matrix this manifest describes, e.g.
  /// "sharded?inner=gcm:re_ans&shards=4" (inner spec '&'-escaped).
  std::string FormatTag() const;

  /// Checks structural integrity: at least one shard, ranges non-empty,
  /// contiguous, and tiling exactly [0, rows); every shard carries a spec
  /// tag. Throws gcm::Error naming the offending shard.
  void Validate() const;

  /// Payload serialization (used for the "manifest" snapshot section).
  void SerializeInto(ByteWriter* writer) const;
  static ShardManifest DeserializeFrom(ByteReader* reader);

  /// Whole-file persistence: a snapshot container whose spec string is
  /// FormatTag(), holding "meta" (dims + total compressed bytes, the same
  /// layout the engine writes) and "manifest" sections. Load validates the
  /// result; errors name the path.
  void Save(const std::string& path) const;
  static ShardManifest Load(const std::string& path);

  /// Extracts and validates the manifest section of an already-open
  /// snapshot (shared by ShardedMatrix deserialization and Load).
  static ShardManifest FromSnapshot(const SnapshotReader& reader);
};

}  // namespace gcm
