#include "serving/shard_manifest.hpp"

#include <algorithm>
#include <cstdio>

#include "core/any_matrix.hpp"
#include "encoding/byte_stream.hpp"
#include "encoding/snapshot.hpp"

namespace gcm {
namespace {

/// Version of the manifest *section* payload, independent of the container
/// version (bump on layout changes to this payload alone).
constexpr u64 kManifestPayloadVersion = 1;

}  // namespace

std::string ShardFileName(std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%05zu.gcsnap", index);
  return name;
}

std::string ShardSectionName(std::size_t index) {
  return "shard_" + std::to_string(index);
}

std::string EncodeInnerSpec(std::string spec) {
  std::replace(spec.begin(), spec.end(), '&', '+');
  return spec;
}

std::string DecodeInnerSpec(std::string spec) {
  std::replace(spec.begin(), spec.end(), '+', '&');
  return spec;
}

u64 ShardManifest::TotalCompressedBytes() const {
  u64 total = 0;
  for (const ShardManifestEntry& shard : shards) {
    total += shard.compressed_bytes;
  }
  return total;
}

std::string ShardManifest::FormatTag() const {
  std::string inner = shards.empty() ? std::string("dense") : shards[0].spec;
  return "sharded?inner=" + EncodeInnerSpec(inner) +
         "&shards=" + std::to_string(shards.size());
}

void ShardManifest::Validate() const {
  GCM_CHECK_MSG(rows > 0 && cols > 0,
                "shard manifest describes an empty " << rows << "x" << cols
                                                     << " matrix");
  GCM_CHECK_MSG(!shards.empty(), "shard manifest has no shards");
  std::size_t expected_begin = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardManifestEntry& shard = shards[i];
    GCM_CHECK_MSG(shard.row_begin == expected_begin,
                  "shard " << i << " starts at row " << shard.row_begin
                           << " but the previous shard ends at row "
                           << expected_begin
                           << " (ranges must tile the matrix contiguously)");
    GCM_CHECK_MSG(shard.row_end > shard.row_begin,
                  "shard " << i << " covers an empty row range ["
                           << shard.row_begin << ", " << shard.row_end << ")");
    GCM_CHECK_MSG(!shard.spec.empty(), "shard " << i << " has no spec tag");
    expected_begin = shard.row_end;
  }
  GCM_CHECK_MSG(expected_begin == rows,
                "shards cover rows [0, " << expected_begin
                                         << ") but the manifest declares "
                                         << rows << " rows");
}

void ShardManifest::SerializeInto(ByteWriter* writer) const {
  writer->PutVarint(kManifestPayloadVersion);
  writer->PutVarint(rows);
  writer->PutVarint(cols);
  writer->PutVarint(shards.size());
  for (const ShardManifestEntry& shard : shards) {
    writer->PutVarint(shard.row_begin);
    writer->PutVarint(shard.row_end);
    writer->PutString(shard.file);
    writer->PutString(shard.spec);
    writer->Put<u32>(shard.crc32);
    writer->PutVarint(shard.snapshot_bytes);
    writer->PutVarint(shard.compressed_bytes);
  }
}

ShardManifest ShardManifest::DeserializeFrom(ByteReader* reader) {
  u64 version = reader->GetVarint();
  GCM_CHECK_MSG(version == kManifestPayloadVersion,
                "unsupported shard manifest payload version "
                    << version << " (this build reads version "
                    << kManifestPayloadVersion << ")");
  ShardManifest manifest;
  manifest.rows = reader->GetVarint();
  manifest.cols = reader->GetVarint();
  u64 count = reader->GetVarint();
  // Each entry needs >= 7 bytes even with empty strings; reject absurd
  // counts before reserving an untrusted size.
  GCM_CHECK_MSG(count <= reader->Remaining() / 7,
                "shard manifest declares " << count << " shards in "
                                           << reader->Remaining()
                                           << " remaining bytes");
  manifest.shards.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    ShardManifestEntry shard;
    shard.row_begin = reader->GetVarint();
    shard.row_end = reader->GetVarint();
    shard.file = reader->GetString();
    shard.spec = StoredSpecTag(reader->GetString());
    shard.crc32 = reader->Get<u32>();
    shard.snapshot_bytes = reader->GetVarint();
    shard.compressed_bytes = reader->GetVarint();
    manifest.shards.push_back(std::move(shard));
  }
  return manifest;
}

void ShardManifest::Save(const std::string& path) const {
  Validate();
  SnapshotWriter writer(FormatTag());
  // Mirror the engine's "meta" layout (rows, cols, compressed bytes) so a
  // manifest is introspectable with the same tooling as any snapshot.
  ByteWriter& meta = writer.BeginSection("meta");
  meta.PutVarint(rows);
  meta.PutVarint(cols);
  meta.Put<u64>(TotalCompressedBytes());
  SerializeInto(&writer.BeginSection(kShardManifestSection));
  writer.WriteFile(path);
}

ShardManifest ShardManifest::Load(const std::string& path) {
  try {
    return FromSnapshot(SnapshotReader::FromFile(path));
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

ShardManifest ShardManifest::FromSnapshot(const SnapshotReader& reader) {
  ShardManifest manifest;
  try {
    ByteReader section = reader.OpenSection(kShardManifestSection);
    manifest = DeserializeFrom(&section);
    GCM_CHECK_MSG(section.AtEnd(), "trailing bytes");
  } catch (const Error& e) {
    throw Error("snapshot section \"" + std::string(kShardManifestSection) +
                "\" is corrupt: " + e.what());
  }
  manifest.Validate();
  return manifest;
}

}  // namespace gcm
