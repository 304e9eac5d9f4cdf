// Snapshot subsystem suite: the container format (magic / version / spec /
// sections / checksum), its failure modes (bad magic, wrong version,
// checksum mismatch, truncation, missing or corrupt sections -- each error
// naming what broke), the engine Save/Load dispatch, and the io front door
// (SniffMatrixFile + MatrixMarket + LoadAuto). Runs under the
// `snapshot_roundtrip_smoke` CTest label so CI exercises the format on
// every compiler configuration.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "core/matrix_file.hpp"
#include "encoding/snapshot.hpp"
#include "matrix/csrv.hpp"
#include "matrix/matrix_io.hpp"
#include "matrix/sparse_builder.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

DenseMatrix TestMatrix() {
  Rng rng(1337);
  return DenseMatrix::Random(20, 9, 0.6, 4, &rng);
}

/// Re-stamps the header checksum after a test mutated the body, so the
/// mutation (not the checksum guard) is what the reader trips over.
void FixChecksum(std::vector<u8>* bytes) {
  u32 crc = Crc32(bytes->data() + 12, bytes->size() - 12);
  std::memcpy(bytes->data() + 8, &crc, sizeof(crc));
}

// --------------------------------------------------------------------------
// Container format
// --------------------------------------------------------------------------

TEST(SnapshotContainerTest, MultiSectionRoundTrip) {
  SnapshotWriter writer("gcm:re_ans?blocks=2");
  writer.BeginSection("alpha").PutVarint(42);
  ByteWriter& beta = writer.BeginSection("beta");
  beta.PutString("payload");
  beta.Put<u64>(7);
  writer.BeginSection("empty");
  std::vector<u8> bytes = writer.Finish();

  SnapshotReader reader(bytes);
  EXPECT_EQ(reader.spec(), "gcm:re_ans?blocks=2");
  EXPECT_EQ(reader.section_count(), 3u);
  EXPECT_EQ(reader.SectionNames(),
            (std::vector<std::string>{"alpha", "beta", "empty"}));
  EXPECT_TRUE(reader.HasSection("beta"));
  EXPECT_FALSE(reader.HasSection("gamma"));

  ByteReader alpha = reader.OpenSection("alpha");
  EXPECT_EQ(alpha.GetVarint(), 42u);
  EXPECT_TRUE(alpha.AtEnd());
  ByteReader beta_reader = reader.OpenSection("beta");
  EXPECT_EQ(beta_reader.GetString(), "payload");
  EXPECT_EQ(beta_reader.Get<u64>(), 7u);
  EXPECT_EQ(reader.SectionBytes("empty"), 0u);
}

TEST(SnapshotContainerTest, RejectsDuplicateSections) {
  SnapshotWriter writer("dense");
  writer.BeginSection("payload");
  EXPECT_THROW(writer.BeginSection("payload"), Error);
}

TEST(SnapshotContainerTest, MissingSectionErrorNamesIt) {
  SnapshotWriter writer("dense");
  writer.BeginSection("payload");
  SnapshotReader reader(writer.Finish());
  try {
    reader.OpenSection("grammar");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("grammar"), std::string::npos);
  }
}

TEST(SnapshotContainerTest, RejectsBadMagic) {
  SnapshotWriter writer("dense");
  writer.BeginSection("payload").PutVarint(1);
  std::vector<u8> bytes = writer.Finish();
  bytes[0] ^= 0xff;
  try {
    SnapshotReader reader(bytes);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(SnapshotContainerTest, RejectsWrongVersion) {
  SnapshotWriter writer("dense");
  writer.BeginSection("payload").PutVarint(1);
  std::vector<u8> bytes = writer.Finish();
  u32 future_version = 99;
  std::memcpy(bytes.data() + 4, &future_version, sizeof(future_version));
  try {
    SnapshotReader reader(bytes);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("version 99"), std::string::npos);
    EXPECT_NE(message.find("versions 1..2"), std::string::npos)
        << "error must state the supported version range: " << message;
  }
}

TEST(SnapshotContainerTest, RejectsChecksumMismatch) {
  SnapshotWriter writer("dense");
  writer.BeginSection("payload").PutString("precious bits");
  std::vector<u8> bytes = writer.Finish();
  bytes.back() ^= 0x01;  // silent bit rot in the last payload byte
  try {
    SnapshotReader reader(bytes);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(SnapshotContainerTest, RejectsTruncatedPayload) {
  SnapshotWriter writer("dense");
  writer.BeginSection("payload").PutString("0123456789abcdef");
  std::vector<u8> bytes = writer.Finish();
  bytes.resize(bytes.size() - 5);
  FixChecksum(&bytes);  // isolate the truncation from the checksum guard
  try {
    SnapshotReader reader(std::move(bytes));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(SnapshotContainerTest, RejectsShortHeader) {
  EXPECT_THROW(SnapshotReader(std::vector<u8>{1, 2, 3}), Error);
}

TEST(SnapshotContainerTest, RejectsAbsurdSectionCount) {
  // Hand-assembled container whose (checksum-valid) body declares far more
  // sections than its bytes could hold; must fail with a gcm::Error, not
  // an allocator exception from reserving the untrusted count.
  ByteWriter body;
  body.PutString("dense");
  body.PutVarint(u64{1} << 60);
  ByteWriter file;
  file.Put<u32>(kSnapshotMagic);
  file.Put<u32>(kSnapshotVersion);
  file.Put<u32>(Crc32(body.buffer().data(), body.size()));
  file.PutBytes(body.buffer().data(), body.size());
  try {
    SnapshotReader reader(file.TakeBuffer());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("sections"), std::string::npos);
  }
}

// --------------------------------------------------------------------------
// Engine Save/Load dispatch
// --------------------------------------------------------------------------

TEST(SnapshotEngineTest, UnknownSpecFamilyListsRegisteredSpecs) {
  SnapshotWriter writer("wavelet");
  writer.BeginSection("meta");
  try {
    AnyMatrix::LoadSnapshotBytes(writer.Finish());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("wavelet"), std::string::npos);
    for (const std::string& spec : AnyMatrix::ListSpecs()) {
      EXPECT_NE(message.find(spec), std::string::npos)
          << "error message must list " << spec;
    }
  }
}

TEST(SnapshotEngineTest, AutoSpecIsNotStorable) {
  SnapshotWriter writer("auto");
  writer.BeginSection("meta");
  EXPECT_THROW(AnyMatrix::LoadSnapshotBytes(writer.Finish()),
               std::invalid_argument);
}

TEST(SnapshotEngineTest, MissingMetaSectionNamesIt) {
  SnapshotWriter writer("dense");
  writer.BeginSection("dense");
  try {
    AnyMatrix::LoadSnapshotBytes(writer.Finish());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("meta"), std::string::npos);
  }
}

TEST(SnapshotEngineTest, MissingPayloadSectionNamesIt) {
  DenseMatrix dense = TestMatrix();
  std::vector<u8> bytes = AnyMatrix::Wrap(DenseMatrix(dense))
                              .SaveSnapshotBytes();
  // Rebuild the container with the payload section dropped.
  SnapshotReader reader(bytes);
  SnapshotWriter stripped(reader.spec());
  ByteWriter& meta = stripped.BeginSection("meta");
  ByteReader original_meta = reader.OpenSection("meta");
  std::vector<u8> meta_bytes(original_meta.Remaining());
  original_meta.GetBytes(meta_bytes.data(), meta_bytes.size());
  meta.PutBytes(meta_bytes.data(), meta_bytes.size());
  try {
    AnyMatrix::LoadSnapshotBytes(stripped.Finish());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dense"), std::string::npos);
  }
}

TEST(SnapshotEngineTest, CorruptPayloadErrorNamesSection) {
  SnapshotWriter writer("csrv");
  ByteWriter& meta = writer.BeginSection("meta");
  meta.PutVarint(2);
  meta.PutVarint(2);
  meta.Put<u64>(0);
  // A CSRV payload whose sequence references a value id beyond the
  // (empty) dictionary: structurally parseable, semantically corrupt.
  ByteWriter& payload = writer.BeginSection("csrv");
  payload.PutVarint(2);             // rows
  payload.PutVarint(2);             // cols
  payload.PutVarint(0);             // empty dictionary
  payload.PutVarint(4);             // sequence length
  for (u32 symbol : {5u, 0u, 5u, 0u}) payload.Put<u32>(symbol);
  try {
    AnyMatrix::LoadSnapshotBytes(writer.Finish());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("\"csrv\""), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotEngineTest, OutOfRangeGrammarSymbolsAreRejectedAtLoad) {
  // A checksum-valid gcm:re_32 payload whose final sequence references a
  // symbol far outside alphabet+rules. Without load-time range checks the
  // multiply kernels would index the W array out of bounds; the loader
  // must reject it, naming the section.
  SnapshotWriter writer("gcm:re_32");
  ByteWriter& meta = writer.BeginSection("meta");
  meta.PutVarint(1);
  meta.PutVarint(1);
  meta.Put<u64>(0);
  ByteWriter& payload = writer.BeginSection("gcm");
  payload.PutVarint(1);            // dictionary: one value
  payload.Put<double>(2.5);
  payload.Put<u8>(1);              // format = kRe32
  payload.PutVarint(1);            // rows
  payload.PutVarint(1);            // cols
  payload.PutVarint(2);            // alphabet = 1 + |V|*cols
  payload.PutVarint(2);            // |C|
  payload.PutVarint(0);            // |R|
  // C payload: symbol 999 far outside the alphabet, then a row sentinel.
  payload.PutArray(ArrayRef<u32>({999u, 0u}));
  payload.PutArray(ArrayRef<u32>());  // R payload (empty)
  try {
    AnyMatrix::LoadSnapshotBytes(writer.Finish());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("\"gcm\""), std::string::npos) << message;
    EXPECT_NE(message.find("999"), std::string::npos) << message;
  }
}

TEST(SnapshotEngineTest, MetaDimensionMismatchIsRejected) {
  DenseMatrix dense = TestMatrix();
  SnapshotWriter writer("dense");
  ByteWriter& meta = writer.BeginSection("meta");
  meta.PutVarint(dense.rows() + 1);  // lies about the row count
  meta.PutVarint(dense.cols());
  meta.Put<u64>(dense.UncompressedBytes());
  dense.SerializeInto(&writer.BeginSection("dense"));
  try {
    AnyMatrix::LoadSnapshotBytes(writer.Finish());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("meta"), std::string::npos);
  }
}

TEST(SnapshotEngineTest, TrailingBytesInPayloadSectionAreRejected) {
  DenseMatrix dense = TestMatrix();
  SnapshotWriter writer("dense");
  ByteWriter& meta = writer.BeginSection("meta");
  meta.PutVarint(dense.rows());
  meta.PutVarint(dense.cols());
  meta.Put<u64>(dense.UncompressedBytes());
  ByteWriter& payload = writer.BeginSection("dense");
  dense.SerializeInto(&payload);
  payload.Put<u32>(0xdeadbeef);  // stray bytes after the payload
  EXPECT_THROW(AnyMatrix::LoadSnapshotBytes(writer.Finish()), Error);
}

TEST(SnapshotEngineTest, LoadReportsFilePath) {
  try {
    AnyMatrix::Load(ScratchPath("does_not_exist.gcsnap"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("does_not_exist.gcsnap"),
              std::string::npos);
  }
}

// --------------------------------------------------------------------------
// io front door: sniffing, MatrixMarket, LoadAuto
// --------------------------------------------------------------------------

TEST(MatrixFileTest, SniffsAllFiveKinds) {
  DenseMatrix dense = TestMatrix();
  std::string snapshot = ScratchPath("sniff.gcsnap");
  std::string dense_bin = ScratchPath("sniff.dmat");
  std::string csrv_bin = ScratchPath("sniff.csrv");
  std::string market = ScratchPath("sniff.mtx");
  std::string text = ScratchPath("sniff.txt");
  AnyMatrix::Wrap(DenseMatrix(dense)).Save(snapshot);
  SaveDense(dense, dense_bin);
  SaveCsrv(CsrvMatrix::FromDense(dense), csrv_bin);
  SaveMatrixMarket(dense, market);
  SaveDenseText(dense, text);

  EXPECT_EQ(SniffMatrixFile(snapshot), MatrixFileKind::kSnapshot);
  EXPECT_EQ(SniffMatrixFile(dense_bin), MatrixFileKind::kDenseBinary);
  EXPECT_EQ(SniffMatrixFile(csrv_bin), MatrixFileKind::kCsrvBinary);
  EXPECT_EQ(SniffMatrixFile(market), MatrixFileKind::kMatrixMarket);
  EXPECT_EQ(SniffMatrixFile(text), MatrixFileKind::kDenseText);

  for (const std::string& path :
       {snapshot, dense_bin, csrv_bin, market, text}) {
    AnyMatrix loaded = LoadAuto(path);
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(loaded.ToDense(), dense), 0.0)
        << path;
    std::remove(path.c_str());
  }
}

TEST(MatrixFileTest, LoadAutoPreservesStoredBackend) {
  DenseMatrix dense = TestMatrix();
  std::string path = ScratchPath("backend.gcsnap");
  AnyMatrix::Build(dense, "gcm:re_iv?blocks=3").Save(path);
  AnyMatrix loaded = LoadAuto(path);
  EXPECT_EQ(loaded.FormatTag(), "gcm:re_iv?blocks=3");
  std::remove(path.c_str());

  // MatrixMarket is a sparse text format; it ingests as CSR.
  std::string market = ScratchPath("backend.mtx");
  SaveMatrixMarket(dense, market);
  EXPECT_EQ(LoadAuto(market).FormatTag(), "csr");
  std::remove(market.c_str());
}

TEST(MatrixFileTest, LegacyGcmFilesAreRejectedWithAMessage) {
  std::string path = ScratchPath("legacy.gcm");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("GCM1\x01\x02\x03\x04 binary soup", f);
  std::fclose(f);
  try {
    SniffMatrixFile(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("legacy"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(MatrixFileTest, TextFormatsPreserveFullDoublePrecision) {
  // Values that need all 17 significant digits to survive a text round
  // trip; the writers must not truncate to the default 6.
  DenseMatrix dense(2, 2, {2.718281828459045, 0.0, -1.0 / 3.0, 1e-300});
  std::string market = ScratchPath("precision.mtx");
  SaveMatrixMarket(dense, market);
  MatrixMarketData data = LoadMatrixMarket(market);
  DenseMatrix restored =
      CsrFromTriplets(data.rows, data.cols, std::move(data.entries))
          .ToDense();
  EXPECT_EQ(restored, dense);
  std::remove(market.c_str());

  std::string text = ScratchPath("precision.txt");
  SaveDenseText(dense, text);
  EXPECT_EQ(LoadDenseText(text), dense);
  std::remove(text.c_str());
}

TEST(MatrixFileTest, MatrixMarketRoundTrip) {
  DenseMatrix dense = TestMatrix();
  std::string path = ScratchPath("roundtrip.mtx");
  SaveMatrixMarket(dense, path);
  MatrixMarketData data = LoadMatrixMarket(path);
  EXPECT_EQ(data.rows, dense.rows());
  EXPECT_EQ(data.cols, dense.cols());
  EXPECT_EQ(data.entries.size(), dense.CountNonZeros());
  DenseMatrix restored =
      CsrFromTriplets(data.rows, data.cols, std::move(data.entries))
          .ToDense();
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(restored, dense), 0.0);
  std::remove(path.c_str());
}

TEST(MatrixFileTest, MatrixMarketRejectsMalformedFiles) {
  std::string path = ScratchPath("bad.mtx");
  auto write = [&](const char* content) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(content, f);
    std::fclose(f);
  };
  write("%%MatrixMarket matrix array real general\n2 2\n1 2 3 4\n");
  EXPECT_THROW(LoadMatrixMarket(path), Error);  // array format unsupported
  write("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 5\n");
  EXPECT_THROW(LoadMatrixMarket(path), Error);  // truncated body
  write("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5\n");
  EXPECT_THROW(LoadMatrixMarket(path), Error);  // out-of-range index
  std::remove(path.c_str());
}

TEST(MatrixFileTest, EmptyFileIsRejectedByName) {
  std::string path = ScratchPath("empty.any");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  for (auto probe : {+[](const std::string& p) { SniffMatrixFile(p); },
                     +[](const std::string& p) { LoadAuto(p); }}) {
    try {
      probe(path);
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(MatrixFileTest, DirectoryPathIsRejectedByName) {
  // TempDir itself is a convenient directory that certainly exists.
  std::string dir = ::testing::TempDir();
  for (auto probe : {+[](const std::string& p) { SniffMatrixFile(p); },
                     +[](const std::string& p) { LoadAuto(p); },
                     +[](const std::string& p) { AnyMatrix::Load(p); }}) {
    try {
      probe(dir);
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("directory"), std::string::npos)
          << e.what();
    }
  }
}

TEST(MatrixFileTest, ZeroByteSectionSnapshotIsRejectedByName) {
  // A structurally valid container whose payload section is empty: the
  // backend parser must fail with the section named, not crash.
  DenseMatrix dense = TestMatrix();
  SnapshotWriter writer("csrv");
  ByteWriter& meta = writer.BeginSection("meta");
  meta.PutVarint(dense.rows());
  meta.PutVarint(dense.cols());
  meta.Put<u64>(0);
  writer.BeginSection("csrv");  // declared, zero bytes
  std::string path = ScratchPath("zero_section.gcsnap");
  writer.WriteFile(path);
  EXPECT_EQ(SniffMatrixFile(path), MatrixFileKind::kSnapshot);
  try {
    LoadAuto(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("\"csrv\""), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(MatrixFileTest, CommentsOnlyMatrixMarketIsRejectedByName) {
  std::string path = ScratchPath("comments_only.mtx");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a banner followed by nothing but commentary\n"
      "% (no size header, no entries)\n",
      f);
  std::fclose(f);
  EXPECT_EQ(SniffMatrixFile(path), MatrixFileKind::kMatrixMarket);
  try {
    LoadAuto(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("size header"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(MatrixFileTest, Crc32MatchesKnownVector) {
  // The classic IEEE test vector: crc32("123456789") = 0xcbf43926.
  const char* digits = "123456789";
  EXPECT_EQ(Crc32(digits, 9), 0xcbf43926u);
  EXPECT_EQ(Crc32(digits, 0), 0u);
}

}  // namespace
}  // namespace gcm
