#include "encoding/snapshot.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/mapped_file.hpp"

namespace gcm {
namespace {

bool IsValidSectionAlignment(std::size_t alignment) {
  return alignment > 0 && alignment <= 64 &&
         (alignment & (alignment - 1)) == 0;
}

/// Slicing-by-16 tables: table[k][b] is the CRC register after feeding
/// byte b followed by k zero bytes, so one round folds 16 input bytes with
/// 16 independent lookups instead of a 16-step dependency chain.
using CrcTables = std::array<std::array<u32, 256>, 16>;

CrcTables BuildCrcTables() {
  CrcTables table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0);
    }
    table[0][i] = crc;
  }
  for (std::size_t k = 1; k < table.size(); ++k) {
    for (u32 i = 0; i < 256; ++i) {
      u32 prev = table[k - 1][i];
      table[k][i] = (prev >> 8) ^ table[0][prev & 0xff];
    }
  }
  return table;
}

u32 LoadLe32(const u8* p) {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

}  // namespace

u32 Crc32(const void* data, std::size_t size, u32 seed) {
  static const CrcTables t = BuildCrcTables();
  const u8* bytes = static_cast<const u8*>(data);
  u32 crc = ~seed;
  for (; size >= 16; bytes += 16, size -= 16) {
    u32 w0 = LoadLe32(bytes) ^ crc;
    u32 w1 = LoadLe32(bytes + 4);
    u32 w2 = LoadLe32(bytes + 8);
    u32 w3 = LoadLe32(bytes + 12);
    crc = t[15][w0 & 0xff] ^ t[14][(w0 >> 8) & 0xff] ^
          t[13][(w0 >> 16) & 0xff] ^ t[12][w0 >> 24] ^ t[11][w1 & 0xff] ^
          t[10][(w1 >> 8) & 0xff] ^ t[9][(w1 >> 16) & 0xff] ^
          t[8][w1 >> 24] ^ t[7][w2 & 0xff] ^ t[6][(w2 >> 8) & 0xff] ^
          t[5][(w2 >> 16) & 0xff] ^ t[4][w2 >> 24] ^ t[3][w3 & 0xff] ^
          t[2][(w3 >> 8) & 0xff] ^ t[1][(w3 >> 16) & 0xff] ^ t[0][w3 >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xff];
  }
  return ~crc;
}

std::vector<u8> ReadFileBytes(const std::string& path) {
  // POSIX lets an ifstream "open" a directory and then report a garbage
  // size; reject it by name before sizing the buffer.
  std::error_code ec;
  GCM_CHECK_MSG(!std::filesystem::is_directory(path, ec),
                path << " is a directory, not a file");
  std::ifstream in(path, std::ios::binary);
  GCM_CHECK_MSG(in.good(), "cannot open file: " << path);
  in.seekg(0, std::ios::end);
  std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<u8> data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  GCM_CHECK_MSG(in.good(), "short read on file: " << path);
  return data;
}

void WriteFileBytes(const std::string& path, const std::vector<u8>& bytes) {
  // Replace, never rewrite: a reader that mapped `path` keeps the old
  // inode, where truncating it in place would hand that reader the new
  // bytes (or SIGBUS past a shorter end). The staged sibling is unique per
  // process and per call, so concurrent writers never share one.
  static std::atomic<u64> calls{0};
  std::string staged = path + ".tmp." + std::to_string(getpid()) + "." +
                       std::to_string(calls.fetch_add(1));
  try {
    std::ofstream out(staged, std::ios::binary);
    GCM_CHECK_MSG(out.good(), "cannot create file: " << path);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();  // flushes, so a full disk is reported here
    GCM_CHECK_MSG(!out.fail(), "short write on file: " << path);
    std::error_code ec;
    std::filesystem::rename(staged, path, ec);
    GCM_CHECK_MSG(!ec, "cannot replace " << path << ": " << ec.message());
  } catch (...) {
    std::error_code ignore;
    std::filesystem::remove(staged, ignore);
    throw;
  }
}

std::vector<u8> ReadFileHeader(const std::string& path) {
  std::error_code ec;
  GCM_CHECK_MSG(!std::filesystem::is_directory(path, ec),
                path << " is a directory, not a file");
  std::ifstream in(path, std::ios::binary);
  GCM_CHECK_MSG(in.good(), "cannot open file: " << path);
  std::vector<u8> header(16);
  in.read(reinterpret_cast<char*>(header.data()),
          static_cast<std::streamsize>(header.size()));
  header.resize(static_cast<std::size_t>(in.gcount()));
  return header;
}

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

SnapshotWriter::SnapshotWriter(std::string spec) : spec_(std::move(spec)) {
  GCM_CHECK_MSG(!spec_.empty(), "snapshot spec string must not be empty");
}

ByteWriter& SnapshotWriter::BeginSection(const std::string& name,
                                         std::size_t alignment) {
  GCM_CHECK_MSG(!name.empty(), "snapshot section name must not be empty");
  GCM_CHECK_MSG(IsValidSectionAlignment(alignment),
                "snapshot section alignment " << alignment
                                              << " is not a power of two <= 64");
  for (const PendingSection& section : sections_) {
    GCM_CHECK_MSG(section.name != name,
                  "duplicate snapshot section \"" << name << "\"");
  }
  sections_.push_back({name, alignment, ByteWriter()});
  // Array payloads inside the section follow the v2 aligned layout (the
  // section itself is placed at an aligned file offset below, so
  // section-relative alignment carries through to the file).
  sections_.back().writer.EnableAlignedArrays();
  return sections_.back().writer;
}

std::vector<u8> SnapshotWriter::Finish() const {
  // Header (magic, version, checksum placeholder), then the body: spec and
  // section table, padding included, each payload at a file offset that is
  // a multiple of its declared alignment. The checksum covers the body and
  // is patched into the header last, so every payload is copied once.
  constexpr std::size_t kCrcOffset = 8;
  constexpr std::size_t kHeaderBytes = 12;
  std::size_t capacity = kHeaderBytes + VarintSize(spec_.size()) +
                         spec_.size() + VarintSize(sections_.size());
  for (const PendingSection& section : sections_) {
    capacity += VarintSize(section.name.size()) + section.name.size() + 1 +
                VarintSize(section.writer.size()) + section.alignment - 1 +
                section.writer.size();
  }
  ByteWriter out;
  out.Reserve(capacity);  // an upper bound: the appends never reallocate
  out.Put<u32>(kSnapshotMagic);
  out.Put<u32>(kSnapshotVersion);
  out.Put<u32>(0);
  out.PutString(spec_);
  out.PutVarint(sections_.size());
  for (const PendingSection& section : sections_) {
    out.PutString(section.name);
    out.Put<u8>(static_cast<u8>(section.alignment));
    out.PutVarint(section.writer.size());
    out.PadTo(section.alignment);
    out.PutBytes(section.writer.buffer().data(), section.writer.size());
  }
  std::vector<u8> bytes = out.TakeBuffer();
  const u32 crc = Crc32(bytes.data() + kHeaderBytes,
                        bytes.size() - kHeaderBytes);
  std::memcpy(bytes.data() + kCrcOffset, &crc, sizeof(crc));
  return bytes;
}

void SnapshotWriter::WriteFile(const std::string& path) const {
  WriteFileBytes(path, Finish());
}

// ---------------------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------------------

SnapshotReader::SnapshotReader(std::vector<u8> bytes) {
  auto owned = std::make_shared<std::vector<u8>>(std::move(bytes));
  bytes_ = {owned->data(), owned->size()};
  backing_ = std::move(owned);
  Parse();
}

SnapshotReader SnapshotReader::FromFile(const std::string& path) {
  if (std::shared_ptr<MappedFile> map = MappedFile::TryMap(path)) {
    SnapshotReader reader;
    reader.bytes_ = map->bytes();
    reader.backing_ = map;
    reader.mapped_file_ = std::move(map);
    reader.Parse();
    return reader;
  }
  return SnapshotReader(ReadFileBytes(path));
}

SnapshotReader SnapshotReader::FromSpan(std::span<const u8> bytes,
                                        std::shared_ptr<const void> backing) {
  SnapshotReader reader;
  reader.bytes_ = bytes;
  reader.backing_ = std::move(backing);
  reader.Parse();
  return reader;
}

void SnapshotReader::Parse() {
  GCM_CHECK_MSG(bytes_.size() >= 12,
                "not a gcm snapshot: " << bytes_.size()
                                       << " bytes is shorter than the header");
  ByteReader reader(bytes_.data(), bytes_.size());
  GCM_CHECK_MSG(reader.Get<u32>() == kSnapshotMagic,
                "not a gcm snapshot (bad magic)");
  version_ = reader.Get<u32>();
  GCM_CHECK_MSG(version_ >= kMinSnapshotVersion && version_ <= kSnapshotVersion,
                "unsupported snapshot version "
                    << version_ << " (this build reads versions "
                    << kMinSnapshotVersion << ".." << kSnapshotVersion << ")");
  u32 stored_crc = reader.Get<u32>();
  u32 actual_crc = Crc32(bytes_.data() + 12, bytes_.size() - 12);
  GCM_CHECK_MSG(stored_crc == actual_crc,
                "snapshot checksum mismatch (stored " << stored_crc
                                                      << ", computed "
                                                      << actual_crc << ")");
  spec_ = reader.GetString();
  u64 count = reader.GetVarint();
  // Each section needs at least 2 bytes (empty name + zero length), so an
  // untrusted count beyond that is corrupt -- reject before reserving.
  GCM_CHECK_MSG(count <= reader.Remaining() / 2,
                "snapshot declares " << count << " sections in "
                                     << reader.Remaining()
                                     << " remaining bytes");
  sections_.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    Section section;
    section.name = reader.GetString();
    std::size_t alignment = 1;
    if (version_ >= 2) {
      alignment = reader.Get<u8>();
      GCM_CHECK_MSG(IsValidSectionAlignment(alignment),
                    "snapshot section \"" << section.name
                                          << "\" declares alignment "
                                          << alignment
                                          << " (not a power of two <= 64)");
    }
    u64 length = reader.GetVarint();
    if (version_ >= 2) {
      // Skip (and verify) the padding that places the payload at the
      // declared alignment; nonzero pad bytes are corruption by name even
      // though the checksum already vouched for them.
      while (reader.pos() % alignment != 0) {
        GCM_CHECK_MSG(reader.Remaining() > 0,
                      "snapshot section \"" << section.name
                                            << "\" truncated inside its "
                                               "alignment padding");
        GCM_CHECK_MSG(reader.Get<u8>() == 0,
                      "snapshot section \"" << section.name
                                            << "\" has nonzero padding");
      }
    }
    GCM_CHECK_MSG(length <= reader.Remaining(),
                  "snapshot section \"" << section.name << "\" truncated: "
                                        << length << " bytes declared, "
                                        << reader.Remaining() << " remain");
    section.offset = reader.pos();
    section.length = static_cast<std::size_t>(length);
    reader.Skip(section.length);
    sections_.push_back(std::move(section));
  }
  GCM_CHECK_MSG(reader.AtEnd(), "trailing bytes after the last snapshot "
                                "section");
}

std::vector<std::string> SnapshotReader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& section : sections_) names.push_back(section.name);
  return names;
}

bool SnapshotReader::HasSection(const std::string& name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return true;
  }
  return false;
}

const SnapshotReader::Section& SnapshotReader::Find(
    const std::string& name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return section;
  }
  throw Error("snapshot has no section \"" + name + "\"");
}

std::size_t SnapshotReader::SectionBytes(const std::string& name) const {
  return Find(name).length;
}

std::span<const u8> SnapshotReader::SectionSpan(
    const std::string& name) const {
  const Section& section = Find(name);
  return bytes_.subspan(section.offset, section.length);
}

ByteReader SnapshotReader::OpenSection(const std::string& name) const {
  const Section& section = Find(name);
  ByteReader reader(bytes_.data() + section.offset, section.length);
  if (version_ >= 2) reader.EnableAlignedLayout();
  if (zero_copy_) reader.EnableBorrowing();
  return reader;
}

}  // namespace gcm
