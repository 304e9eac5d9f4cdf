// Versioned binary snapshot container: the on-disk format for every
// AnyMatrix backend.
//
// A snapshot is a self-describing file holding one serialized matrix:
//
//   offset  field
//   ------  -----------------------------------------------------------
//   0       u32   magic "GCSN"
//   4       u32   format version (currently 2)
//   8       u32   CRC-32 of every byte after this field
//   12      spec string  (varint length + bytes, e.g. "gcm:re_ans?blocks=8")
//           varint section count
//           per section: name (varint length + bytes),
//                        u8 alignment (v2 only; power of two <= 64),
//                        payload length (varint),
//                        zero padding to the declared alignment (v2 only,
//                        relative to the file start),
//                        payload bytes
//
// The spec string is the AnyMatrix FormatTag of the stored backend; the
// engine parses it with MatrixSpec::Parse and dispatches deserialization
// through the same registry that builds matrices from spec strings. Each
// section carries its own length, so a reader can locate (and bounds-check)
// any section without understanding the others, and corruption errors can
// name the section they hit. The trailing state of the checksum guards the
// whole file: readers verify it before looking at any section.
//
// v2 (zero-copy layout): each section declares its payload alignment
// (payload sections use 64, small metadata sections 8) and the writer pads
// the file so the payload starts at that alignment. Inside a section,
// arrays written with ByteWriter::PutArray are additionally padded to
// alignof(T) relative to the section start. Together these make every
// array in a mapped file naturally aligned, so deserializers can borrow
// spans straight out of the mapping (util/array_ref.hpp) instead of
// copying. All padding bytes must be zero; readers verify this and name
// the offending section.
//
// Version policy: the version field counts breaking layout changes. A
// reader accepts the versions it knows (currently: 1 and 2) and reports
// both the found and the supported version on a mismatch, so stale files
// fail with an actionable message instead of a parse error deep inside a
// payload. v1 files (no alignment bytes, no padding) still load through
// the same reader; their sections are parsed with the v1 layout and are
// never borrowed, only copied. The writer always emits v2; `mm_repair_cli
// --resave` migrates old files in place.
//
// Zero-copy lifetime contract: a SnapshotReader opened with FromFile maps
// the file (util/mapped_file.hpp; falls back to a heap copy when mmap is
// unavailable) and owns the backing. Borrowing is opt-in via
// EnableZeroCopy(): sections opened afterwards hand out ByteReaders whose
// GetArray borrows. Whoever lets deserialized objects outlive the reader
// must retain backing() alongside them -- AnyMatrix::Load attaches it to
// the loaded matrix handle, which is the only borrow path the engine
// exposes.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "encoding/byte_stream.hpp"
#include "util/common.hpp"

namespace gcm {

class MappedFile;

constexpr u32 kSnapshotMagic = 0x4e534347;  // "GCSN"
constexpr u32 kSnapshotVersion = 2;
constexpr u32 kMinSnapshotVersion = 1;

/// Section payload alignments (v2): metadata sections vs borrowable
/// payload sections (cache-line aligned so SIMD loads over mapped arrays
/// start on a friendly boundary).
constexpr std::size_t kSectionAlignment = 8;
constexpr std::size_t kPayloadSectionAlignment = 64;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `size` bytes; `seed` chains
/// incremental updates (pass a previous result to continue).
u32 Crc32(const void* data, std::size_t size, u32 seed = 0);

/// Whole-file helpers shared by the container formats (throw gcm::Error on
/// open/short-read/short-write failures, naming the path).
std::vector<u8> ReadFileBytes(const std::string& path);
/// The one writer of snapshot-shaped files: stages `bytes` in a sibling
/// temp file unique to this process and call, then renames it onto
/// `path`. It replaces and never truncates, so a reader that mapped the
/// old file keeps reading the old bytes. On failure the temp file is
/// removed and `path` is left as it was. No fsync: the rename is atomic
/// against readers, not durable against a power cut.
void WriteFileBytes(const std::string& path, const std::vector<u8>& bytes);
/// First min(16, file size) bytes of `path` -- magic sniffing without
/// reading (or mapping) the rest of a multi-GB file.
std::vector<u8> ReadFileHeader(const std::string& path);

/// Assembles a snapshot: declare sections in order, fill each through the
/// returned ByteWriter, then Finish() (or WriteFile) to emit the container.
/// Always emits the current (v2) format.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::string spec);

  /// Starts a new section whose payload will be placed at a file offset
  /// that is a multiple of `alignment` (a power of two <= 64). The
  /// returned writer stays valid until the next BeginSection/Finish and
  /// has the aligned array layout enabled. Duplicate names are rejected
  /// (the reader resolves sections by name).
  ByteWriter& BeginSection(const std::string& name,
                           std::size_t alignment = kSectionAlignment);

  /// Emits the assembled container (header + sections + checksum).
  std::vector<u8> Finish() const;
  void WriteFile(const std::string& path) const;

 private:
  struct PendingSection {
    std::string name;
    std::size_t alignment;
    ByteWriter writer;
  };
  std::string spec_;
  std::vector<PendingSection> sections_;
};

/// Parses and validates a snapshot container: magic, version and checksum
/// are checked up front, the section table is indexed, and OpenSection
/// returns a reader bounded to exactly one section's payload.
class SnapshotReader {
 public:
  /// Throws gcm::Error naming what is wrong (bad magic, unsupported
  /// version, checksum mismatch, truncated section table, corrupt
  /// padding). The vector overload owns a heap copy of the bytes.
  explicit SnapshotReader(std::vector<u8> bytes);

  /// Maps `path` read-only (falling back to a heap read where mmap is
  /// unavailable) and parses the container. The reader owns the backing.
  static SnapshotReader FromFile(const std::string& path);

  /// Parses a container embedded in a larger buffer (a shard section of a
  /// single-file sharded snapshot) without copying it. `backing` keeps the
  /// viewed memory alive and becomes this reader's backing().
  static SnapshotReader FromSpan(std::span<const u8> bytes,
                                 std::shared_ptr<const void> backing);

  /// The spec string stored in the header (AnyMatrix FormatTag).
  const std::string& spec() const { return spec_; }

  /// Container format version of the parsed file (1 or 2).
  u32 version() const { return version_; }

  /// True when the bytes come from a live memory mapping (FromFile with a
  /// working mmap) rather than a heap buffer.
  bool mapped() const { return mapped_file_ != nullptr; }
  const std::shared_ptr<MappedFile>& mapped_file() const {
    return mapped_file_;
  }

  /// Keepalive for the viewed bytes. Anyone letting borrowed views outlive
  /// this reader must retain it (AnyMatrix attaches it to loaded handles).
  const std::shared_ptr<const void>& backing() const { return backing_; }

  /// The whole container's byte span (header through checksum), borrowed
  /// from backing(). Lets callers checksum or re-embed the raw file
  /// without a second read (the sharded serving layer CRC-gates shard
  /// files against their manifest this way).
  std::span<const u8> bytes() const { return bytes_; }

  /// Opts OpenSection into handing out borrowing readers (v2 containers
  /// only; v1 sections are always copied). Call before OpenSection and
  /// honor the backing() lifetime contract above.
  void EnableZeroCopy() { zero_copy_ = version_ >= 2; }
  bool zero_copy() const { return zero_copy_; }

  std::size_t section_count() const { return sections_.size(); }
  std::vector<std::string> SectionNames() const;
  bool HasSection(const std::string& name) const;

  /// Payload bytes of section `name` (throws gcm::Error naming the section
  /// when absent).
  std::size_t SectionBytes(const std::string& name) const;

  /// Raw payload span of section `name` (borrowed from the backing).
  std::span<const u8> SectionSpan(const std::string& name) const;

  /// Bounded reader over one section's payload; reads past the section end
  /// throw the usual ByteReader truncation error. The reader has the v2
  /// aligned layout enabled for v2 containers, and borrowing enabled when
  /// EnableZeroCopy() was called.
  ByteReader OpenSection(const std::string& name) const;

 private:
  struct Section {
    std::string name;
    std::size_t offset;
    std::size_t length;
  };

  SnapshotReader() = default;
  void Parse();
  const Section& Find(const std::string& name) const;

  std::span<const u8> bytes_;
  std::shared_ptr<const void> backing_;     ///< owns/retains bytes_
  std::shared_ptr<MappedFile> mapped_file_;  ///< set by mapped FromFile
  std::string spec_;
  u32 version_ = kSnapshotVersion;
  bool zero_copy_ = false;
  std::vector<Section> sections_;
};

}  // namespace gcm
