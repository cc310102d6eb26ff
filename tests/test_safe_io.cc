#include "ipin/common/safe_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/common/simd_target.h"

namespace ipin {
namespace {

constexpr uint32_t kType = 0x54534554;  // "TEST"
constexpr uint32_t kOtherType = 0x52485430;

class SafeIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ipin_safeio_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".bin";
    SetLogLevel(LogLevel::kError);
  }
  void TearDown() override {
    failpoint::ClearAll();
    std::remove(path_.c_str());
  }

  void WriteFrames(const std::vector<std::string>& payloads,
                   uint32_t version = 1) {
    SafeFileWriter writer(path_, kType, version);
    for (const auto& p : payloads) ASSERT_TRUE(writer.AppendFrame(p));
    ASSERT_TRUE(writer.Commit());
  }
  std::string ReadFileBytes() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  void WriteFileBytes(const std::string& contents) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  std::string path_;
};

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: crc32c of 32 zero bytes.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
  // Standard check value: crc32c("123456789").
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, SeedChainsIncrementally) {
  const std::string data = "the quick brown fox";
  const uint32_t whole = Crc32c(data);
  const uint32_t chained =
      Crc32c(data.substr(7), Crc32c(data.substr(0, 7)));
  EXPECT_EQ(whole, chained);
}

// Bit-at-a-time CRC-32C straight from the polynomial: the reference the
// table-driven implementation must match.
uint32_t BitwiseCrc32c(const unsigned char* data, size_t size) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32cTest, Rfc3720Vectors) {
  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
}

// Every length 0..1024 at every start alignment mod 8, so the eight-byte
// loop, its tail and an unaligned head are all covered.
TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(11);
  std::vector<unsigned char> buffer(1024 + 8);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.NextUint64());
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 1024; ++len) {
      const unsigned char* data = buffer.data() + align;
      ASSERT_EQ(Crc32c(data, len), BitwiseCrc32c(data, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32cTest, SeedChainsAcrossEverySplit) {
  Rng rng(12);
  std::string data(100, '\0');
  for (char& c : data) c = static_cast<char>(rng.NextUint64());
  const uint32_t whole = Crc32c(data);
  const std::string_view view = data;
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32c(view.substr(split), Crc32c(view.substr(0, split))),
              whole)
        << "split " << split;
  }
}

// Both implementations behind Crc32c, checked directly rather than through
// whichever one IPIN_SIMD and the CPU select for the process.
struct Crc32cImpl {
  const char* name;
  uint32_t (*fn)(const void*, size_t, uint32_t);
};

std::vector<Crc32cImpl> Crc32cImpls() {
  std::vector<Crc32cImpl> impls = {{"portable", &internal::Crc32cPortable}};
  if (CpuHasSse42Crc32()) impls.push_back({"sse4.2", &internal::Crc32cSse42});
  return impls;
}

uint32_t Crc(const Crc32cImpl& impl, std::string_view data,
             uint32_t seed = 0) {
  return impl.fn(data.data(), data.size(), seed);
}

TEST(Crc32cImplTest, Rfc3720Vectors) {
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  for (const Crc32cImpl& impl : Crc32cImpls()) {
    SCOPED_TRACE(impl.name);
    EXPECT_EQ(Crc(impl, std::string(32, '\0')), 0x8A9136AAu);
    EXPECT_EQ(Crc(impl, std::string(32, '\xff')), 0x62A8AB43u);
    EXPECT_EQ(Crc(impl, ascending), 0x46DD794Eu);
    EXPECT_EQ(Crc(impl, descending), 0x113FDB5Cu);
    EXPECT_EQ(Crc(impl, "123456789"), 0xE3069283u);
    EXPECT_EQ(Crc(impl, ""), 0u);
  }
}

TEST(Crc32cImplTest, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(13);
  std::vector<unsigned char> buffer(1024 + 8);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.NextUint64());
  }
  for (const Crc32cImpl& impl : Crc32cImpls()) {
    for (size_t align = 0; align < 8; ++align) {
      for (size_t len = 0; len <= 1024; ++len) {
        const unsigned char* data = buffer.data() + align;
        ASSERT_EQ(impl.fn(data, len, 0), BitwiseCrc32c(data, len))
            << impl.name << " align " << align << " len " << len;
      }
    }
  }
}

TEST(Crc32cImplTest, SeedChainsAtEverySplit) {
  Rng rng(14);
  std::string data(300, '\0');
  for (char& c : data) c = static_cast<char>(rng.NextUint64());
  const std::string_view view = data;
  const uint32_t whole = BitwiseCrc32c(
      reinterpret_cast<const unsigned char*>(data.data()), data.size());
  for (const Crc32cImpl& impl : Crc32cImpls()) {
    for (size_t split = 0; split <= data.size(); ++split) {
      const uint32_t head = Crc(impl, view.substr(0, split));
      ASSERT_EQ(Crc(impl, view.substr(split), head), whole)
          << impl.name << " split " << split;
    }
  }
}

// The three-stream path at its block boundaries, at every start offset mod
// 8: lengths around one run of three 8 KiB blocks, a long run followed by
// short runs and a word tail (5 x 8192 + 3), and 1 MiB + 5.
TEST(Crc32cImplTest, MatchesBitwiseReferenceAtLongBlockBoundaries) {
  constexpr size_t kLongRun = 3 * 8192;
  Rng rng(16);
  std::vector<unsigned char> buffer((size_t{1} << 20) + 5 + 8);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.NextUint64());
  }
  std::vector<size_t> lengths;
  for (size_t len = kLongRun - 1; len <= kLongRun + 9; ++len) {
    lengths.push_back(len);
  }
  lengths.push_back(5 * 8192 + 3);
  lengths.push_back((size_t{1} << 20) + 5);
  for (size_t align = 0; align < 8; ++align) {
    for (const size_t len : lengths) {
      const unsigned char* data = buffer.data() + align;
      const uint32_t want = BitwiseCrc32c(data, len);
      for (const Crc32cImpl& impl : Crc32cImpls()) {
        ASSERT_EQ(impl.fn(data, len, 0), want)
            << impl.name << " align " << align << " len " << len;
      }
    }
  }
}

// A seed chained across a split inside a long block: the head ends, and
// the seeded tail starts, part-way through one of the three streams.
TEST(Crc32cImplTest, SeedChainsAcrossSplitsInsideLongBlocks) {
  Rng rng(17);
  std::string data(4 * 8192 + 100, '\0');
  for (char& c : data) c = static_cast<char>(rng.NextUint64());
  const std::string_view view = data;
  const uint32_t whole = BitwiseCrc32c(
      reinterpret_cast<const unsigned char*>(data.data()), data.size());
  for (const Crc32cImpl& impl : Crc32cImpls()) {
    for (const size_t split : {size_t{7}, size_t{8192 + 5}, size_t{12345},
                               size_t{3 * 8192 - 3}, size_t{3 * 8192 + 1}}) {
      const uint32_t head = Crc(impl, view.substr(0, split));
      ASSERT_EQ(Crc(impl, view.substr(split), head), whole)
          << impl.name << " split " << split;
    }
  }
}

// The dispatched Crc32c is one of the two, so it agrees with both.
TEST(Crc32cImplTest, DispatchedAgreesWithEveryImplementation) {
  Rng rng(15);
  std::string data(4099, '\0');
  for (char& c : data) c = static_cast<char>(rng.NextUint64());
  for (const Crc32cImpl& impl : Crc32cImpls()) {
    EXPECT_EQ(Crc32c(data, 7), Crc(impl, data, 7)) << impl.name;
  }
}

TEST_F(SafeIoTest, RoundtripMultipleFrames) {
  WriteFrames({"alpha", std::string(10000, 'x'), "", "omega"}, 7);
  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  EXPECT_EQ(reader.version(), 7u);
  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "alpha");
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, std::string(10000, 'x'));
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "");
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "omega");
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kEndOfFile);
}

TEST_F(SafeIoTest, MissingFile) {
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path_ + ".nope", kType), SafeOpenStatus::kMissing);
}

TEST_F(SafeIoTest, WrongFileTypeRejected) {
  WriteFrames({"data"});
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path_, kOtherType), SafeOpenStatus::kCorrupt);
}

TEST_F(SafeIoTest, TruncatedHeaderDetected) {
  WriteFrames({"data"});
  WriteFileBytes(ReadFileBytes().substr(0, 10));
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path_, kType), SafeOpenStatus::kTruncated);
}

TEST_F(SafeIoTest, CorruptHeaderDetected) {
  WriteFrames({"data"});
  std::string bytes = ReadFileBytes();
  bytes[9] ^= 0xff;  // inside file_type
  WriteFileBytes(bytes);
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path_, kType), SafeOpenStatus::kCorrupt);
}

// Payload corruption is contained: the damaged frame reports kCorrupt and
// the reader continues with the following frames.
TEST_F(SafeIoTest, CorruptPayloadSkippedReaderContinues) {
  WriteFrames({"first", "second", "third"});
  std::string bytes = ReadFileBytes();
  // Header is 20 bytes, each frame header 12; flip a byte of "second"'s
  // payload: 20 + (12 + 5) + 12 = 49.
  bytes[49] ^= 0x01;
  WriteFileBytes(bytes);

  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "first");
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kCorrupt);
  EXPECT_TRUE(reader.CanContinue());
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "third");
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kEndOfFile);
}

// A corrupted frame *header* cannot be trusted for resync: the reader stops.
TEST_F(SafeIoTest, CorruptFrameHeaderEndsFile) {
  WriteFrames({"first", "second", "third"});
  std::string bytes = ReadFileBytes();
  bytes[20 + 17 + 1] ^= 0xff;  // length field of the second frame header
  WriteFileBytes(bytes);

  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kCorrupt);
  EXPECT_FALSE(reader.CanContinue());
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kEndOfFile);
}

TEST_F(SafeIoTest, TruncationMidFrameDetected) {
  WriteFrames({"first", "second"});
  const std::string bytes = ReadFileBytes();
  WriteFileBytes(bytes.substr(0, bytes.size() - 3));

  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kTruncated);
  EXPECT_FALSE(reader.CanContinue());
}

// Abandoning a writer (destruction without Commit) must leave the previous
// destination untouched and no temp litter.
TEST_F(SafeIoTest, AbandonedWriterLeavesDestinationIntact) {
  WriteFrames({"original"});
  const std::string before = ReadFileBytes();
  {
    SafeFileWriter writer(path_, kType, 1);
    ASSERT_TRUE(writer.AppendFrame("replacement"));
    // no Commit
  }
  EXPECT_EQ(ReadFileBytes(), before);
}

TEST_F(SafeIoTest, FailedCommitLeavesDestinationIntact) {
  WriteFrames({"original"});
  const std::string before = ReadFileBytes();
  ASSERT_TRUE(failpoint::Set("safe_io.rename", "error"));
  SafeFileWriter writer(path_, kType, 1);
  ASSERT_TRUE(writer.AppendFrame("replacement"));
  EXPECT_FALSE(writer.Commit());
  failpoint::ClearAll();
  EXPECT_EQ(ReadFileBytes(), before);
}

// The safe_io.write.short failpoint simulates a torn write: the file ends
// mid-frame and the reader reports truncation instead of garbage.
TEST_F(SafeIoTest, ShortWriteFailpointYieldsTruncatedFile) {
  {
    SafeFileWriter writer(path_, kType, 1);  // header written whole
    ASSERT_TRUE(failpoint::Set("safe_io.write.short", "short_write(6)"));
    ASSERT_TRUE(writer.AppendFrame("this payload will be cut"));
    failpoint::ClearAll();
    ASSERT_TRUE(writer.Commit());
  }

  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  std::string_view payload;
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kTruncated);
}

TEST_F(SafeIoTest, WriteErrorFailpointFailsAppend) {
  ASSERT_TRUE(failpoint::Set("safe_io.write", "error"));
  SafeFileWriter writer(path_, kType, 1);
  EXPECT_FALSE(writer.AppendFrame("doomed"));
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.Commit());
}

TEST_F(SafeIoTest, EmptyFileIsTruncated) {
  WriteFileBytes("");
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path_, kType), SafeOpenStatus::kTruncated);
}

// A file cut after Open is a short read: the frame it cuts reads as
// kTruncated, and the reader is then exhausted.
TEST_F(SafeIoTest, FileCutAfterOpenReadsAsTruncated) {
  WriteFrames({"first", std::string(1000, 'x')});
  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  // Cut inside the second payload: file header (20), the first frame
  // (12 + 5), the second frame's header (12) and 100 of its bytes.
  const int fd = ::open(path_.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 20 + 17 + 12 + 100), 0);
  ::close(fd);

  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "first");
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kTruncated);
  EXPECT_FALSE(reader.CanContinue());
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kEndOfFile);
}

// A frame header whose CRC verifies but whose length runs past the file is
// kTruncated, and that length sizes no buffer.
TEST_F(SafeIoTest, FrameLengthPastTheFileSizesNoBuffer) {
  WriteFrames({});
  std::string bytes = ReadFileBytes();
  std::string header;
  const uint32_t words[2] = {0xffffffffu, 0};
  header.append(reinterpret_cast<const char*>(words), sizeof(words));
  const uint32_t header_crc = Crc32c(header);
  header.append(reinterpret_cast<const char*>(&header_crc),
                sizeof(header_crc));
  bytes += header;
  bytes.resize(1024, '\0');
  WriteFileBytes(bytes);

  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  EXPECT_TRUE(reader.PeekFrameLengths(1).empty());
  std::string_view payload;
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kTruncated);
  EXPECT_EQ(reader.buffer_bytes(), 0u);
  EXPECT_FALSE(reader.CanContinue());
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kEndOfFile);
}

// One buffer holds one frame: a view keeps its frame's bytes until the next
// ReadFrame, and the buffer is as large as the largest frame read.
TEST_F(SafeIoTest, PayloadViewHoldsItsFrameUntilTheNextRead) {
  WriteFrames({std::string(300, 'a'), std::string(100, 'b'),
               std::string(200, 'c')});
  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  EXPECT_EQ(reader.buffer_bytes(), 0u);
  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  const std::string_view first = payload;
  EXPECT_EQ(reader.PeekFrameLengths(2), (std::vector<uint32_t>{100, 200}));
  EXPECT_EQ(first, std::string(300, 'a'));
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, std::string(100, 'b'));
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, std::string(200, 'c'));
  EXPECT_EQ(reader.buffer_bytes(), 300u);
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kEndOfFile);
}

// PeekFrameLengths reads frame headers only and leaves the next ReadFrame
// where it was. It lists a frame whose payload fails its CRC (ReadFrame
// skips it and goes on) and stops at a frame header that fails its own.
TEST_F(SafeIoTest, PeekFrameLengthsStopsWhereTheReaderStops) {
  WriteFrames({"first", "second", "third", "fourth"});
  std::string bytes = ReadFileBytes();
  bytes[20 + 17 + 12] ^= 0x01;           // "second"'s payload
  bytes[20 + 17 + 18 + 17 + 1] ^= 0xff;  // "fourth"'s frame header
  WriteFileBytes(bytes);

  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kType), SafeOpenStatus::kOk);
  EXPECT_EQ(reader.PeekFrameLengths(10), (std::vector<uint32_t>{5, 6, 5}));
  EXPECT_EQ(reader.PeekFrameLengths(2), (std::vector<uint32_t>{5, 6}));
  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "first");
  EXPECT_EQ(reader.PeekFrameLengths(10), (std::vector<uint32_t>{6, 5}));
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kCorrupt);
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "third");
  EXPECT_TRUE(reader.PeekFrameLengths(10).empty());
  EXPECT_EQ(reader.ReadFrame(&payload), FrameStatus::kCorrupt);
  EXPECT_FALSE(reader.CanContinue());
}

}  // namespace
}  // namespace ipin
