// Deterministic byte-mutation negative suite for the snapshot container
// and the store manifest: every mutant of a valid artifact must either
// load successfully (the mutation landed somewhere representation-neutral)
// or throw a named error -- never crash, hang, or silently corrupt. The
// mutation stream is a fixed-seed LCG, so a failure reproduces exactly;
// the assertion is the process surviving every load attempt (under the
// asan-ubsan preset this doubles as a memory-safety fuzz of the readers).
// Runs under the `snapshot_mutation_smoke` CTest label on every compiler
// configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "encoding/snapshot.hpp"
#include "matrix/dense_matrix.hpp"
#include "serving/matrix_store.hpp"
#include "serving/shard_manifest.hpp"
#include "test_paths.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

namespace fs = std::filesystem;

/// Minimal LCG (MMIX constants) so the mutation stream is pinned by the
/// seed alone -- independent of the library's own Rng, which is free to
/// evolve without re-rolling this suite's corpus.
class Lcg {
 public:
  explicit Lcg(u64 seed) : state_(seed) {}
  u64 Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }
  std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }

 private:
  u64 state_;
};

DenseMatrix TestMatrix() {
  Rng rng(777);
  return DenseMatrix::Random(40, 9, 0.5, 5, &rng);
}

/// One mutant per call, cycling flip -> truncate -> duplicate so every
/// mutation class gets equal coverage from one stream.
std::vector<u8> Mutate(const std::vector<u8>& original, int kind, Lcg* lcg) {
  std::vector<u8> bytes = original;
  switch (kind % 3) {
    case 0: {  // flip one random byte (never a no-op XOR)
      std::size_t pos = lcg->Below(bytes.size());
      bytes[pos] ^= static_cast<u8>(1 + lcg->Below(255));
      break;
    }
    case 1: {  // truncate to a random prefix (possibly empty)
      bytes.resize(lcg->Below(bytes.size()));
      break;
    }
    default: {  // duplicate a random run in place (shifts everything after)
      std::size_t begin = lcg->Below(bytes.size());
      std::size_t len = 1 + lcg->Below(bytes.size() - begin);
      std::vector<u8> run(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                          bytes.begin() +
                              static_cast<std::ptrdiff_t>(begin + len));
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                   run.begin(), run.end());
      break;
    }
  }
  return bytes;
}

/// The contract under test: a mutated artifact loads or throws a named
/// error. Returns a description of what happened for failure messages.
template <typename LoadFn>
void ExpectLoadOrNamedThrow(LoadFn&& load, int mutant, int kind) {
  try {
    load();  // success is legal: the mutation may be representation-neutral
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()), "")
        << "mutant " << mutant << " (kind " << kind % 3
        << ") threw an unnamed error";
  }
  // Anything else -- a crash, an abort, a non-std exception -- fails the
  // whole test binary, which is exactly the point.
}

TEST(SnapshotMutationTest, MutatedSnapshotBytesLoadOrThrow) {
  DenseMatrix dense = TestMatrix();
  // Cover the structurally distinct payload families: grammar+rANS (the
  // deepest decode path), plain grammar, and raw CSR.
  const char* kSpecs[] = {"gcm:re_ans?blocks=2", "gcm:re_32", "csr"};
  Lcg lcg(20260807);
  for (const char* spec : kSpecs) {
    std::vector<u8> valid = AnyMatrix::Build(dense, spec).SaveSnapshotBytes();
    ASSERT_FALSE(valid.empty());
    for (int mutant = 0; mutant < 120; ++mutant) {
      std::vector<u8> bytes = Mutate(valid, mutant, &lcg);
      ExpectLoadOrNamedThrow(
          [&] {
            AnyMatrix m = AnyMatrix::LoadSnapshotBytes(bytes);
            // A mutant that loads must still be usable end to end.
            std::vector<double> x(m.cols(), 1.0);
            std::vector<double> y(m.rows());
            m.MultiplyRightInto(x, y, MulContext{});
          },
          mutant, mutant);
    }
  }
}

// --------------------------------------------------------------------------
// Targeted v2 structural mutations
// --------------------------------------------------------------------------
//
// The random stream above almost always trips the checksum guard first.
// These cases re-stamp the checksum after each mutation, so the v2
// structural validators themselves (alignment byte, zero padding, pad
// truncation) are what the reader must reject -- each with an error
// naming the section, never a crash.

/// Re-stamps the header checksum after a targeted mutation, so the
/// structural validator (not the checksum guard) is what trips.
void FixChecksum(std::vector<u8>* bytes) {
  u32 crc = Crc32(bytes->data() + 12, bytes->size() - 12);
  std::memcpy(bytes->data() + 8, &crc, sizeof(crc));
}

/// A v2 container with a small metadata section followed by a cache-line
/// aligned payload section -- guaranteed to contain padding bytes before
/// the payload. Returns the bytes and the payload's file offset.
std::vector<u8> AlignedContainer(std::size_t* payload_offset) {
  SnapshotWriter writer("dense");
  writer.BeginSection("meta").PutString("structural mutation fixture");
  ByteWriter& payload =
      writer.BeginSection("payload", kPayloadSectionAlignment);
  for (u8 i = 0; i < 32; ++i) payload.Put<u8>(i);
  std::vector<u8> bytes = writer.Finish();

  SnapshotReader pristine(bytes);
  std::span<const u8> span = pristine.SectionSpan("payload");
  *payload_offset =
      static_cast<std::size_t>(span.data() - pristine.bytes().data());
  EXPECT_EQ(*payload_offset % kPayloadSectionAlignment, 0u);
  return bytes;
}

template <typename Fn>
void ExpectThrowNaming(Fn&& fn, const std::string& fragment,
                       const std::string& section) {
  try {
    fn();
    FAIL() << "expected Error containing \"" << fragment << "\"";
  } catch (const Error& e) {
    std::string message = e.what();
    EXPECT_NE(message.find(fragment), std::string::npos) << message;
    EXPECT_NE(message.find(section), std::string::npos)
        << "error must name the section: " << message;
  }
}

TEST(SnapshotStructuralMutationTest, NonzeroPaddingByteIsNamedCorruption) {
  std::size_t offset = 0;
  std::vector<u8> bytes = AlignedContainer(&offset);
  // The byte just before a 64-aligned payload is a pad byte (the varint
  // length of a 32-byte payload is the nonzero byte 32, so a zero here
  // can only be padding).
  ASSERT_GT(offset, 0u);
  ASSERT_EQ(bytes[offset - 1], 0u) << "expected a pad byte before payload";
  bytes[offset - 1] = 0x5a;
  FixChecksum(&bytes);
  ExpectThrowNaming([&] { SnapshotReader reader(bytes); },
                    "nonzero padding", "payload");
}

TEST(SnapshotStructuralMutationTest, InvalidAlignmentByteIsNamed) {
  std::size_t offset = 0;
  std::vector<u8> bytes = AlignedContainer(&offset);
  // The alignment byte follows the section's name encoding
  // (varint length 7 + "payload"); patch it to a non-power-of-two.
  const u8 needle[] = {7, 'p', 'a', 'y', 'l', 'o', 'a', 'd'};
  auto it = std::search(bytes.begin(), bytes.end(), std::begin(needle),
                        std::end(needle));
  ASSERT_NE(it, bytes.end());
  std::size_t align_pos =
      static_cast<std::size_t>(it - bytes.begin()) + sizeof(needle);
  ASSERT_EQ(bytes[align_pos], kPayloadSectionAlignment);
  bytes[align_pos] = 3;
  FixChecksum(&bytes);
  ExpectThrowNaming([&] { SnapshotReader reader(bytes); },
                    "alignment 3", "payload");
}

TEST(SnapshotStructuralMutationTest, TruncationInsidePaddingIsNamed) {
  std::size_t offset = 0;
  std::vector<u8> bytes = AlignedContainer(&offset);
  ASSERT_EQ(bytes[offset - 1], 0u) << "expected a pad byte before payload";
  bytes.resize(offset - 1);  // cut inside the pad run, before the payload
  FixChecksum(&bytes);
  ExpectThrowNaming([&] { SnapshotReader reader(bytes); },
                    "truncated inside its alignment padding", "payload");
}

TEST(SnapshotMutationTest, MutatedStoreManifestLoadsOrThrows) {
  DenseMatrix dense = TestMatrix();
  fs::path dir = ScratchPath("store");
  MatrixStore::Partition(dense, "csr", {.shards = 3}, dir.string());

  fs::path manifest_path = dir / kShardManifestFileName;
  std::vector<u8> valid;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    valid.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(valid.empty());

  Lcg lcg(20260808);
  for (int mutant = 0; mutant < 90; ++mutant) {
    std::vector<u8> bytes = Mutate(valid, mutant, &lcg);
    {
      std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    ExpectLoadOrNamedThrow(
        [&] {
          AnyMatrix m = MatrixStore::Open(dir.string());
          // A manifest that still opens must serve or name what broke --
          // shard checksums in a tampered manifest may legitimately fail
          // here, which the contract allows.
          std::vector<double> x(m.cols(), 1.0);
          std::vector<double> y(m.rows());
          m.MultiplyRightInto(x, y, MulContext{});
        },
        mutant, mutant);
  }

  // Restore the pristine manifest and prove the store still opens -- the
  // mutation loop must not have damaged anything it didn't mean to.
  {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(valid.data()),
              static_cast<std::streamsize>(valid.size()));
  }
  AnyMatrix m = MatrixStore::Open(dir.string());
  EXPECT_EQ(m.rows(), dense.rows());
  EXPECT_EQ(m.cols(), dense.cols());
}

}  // namespace
}  // namespace gcm
