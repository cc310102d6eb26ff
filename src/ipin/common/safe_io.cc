#include "ipin/common/safe_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "ipin/common/check.h"
#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/simd_target.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ipin {
namespace {

constexpr char kMagic[8] = {'I', 'P', 'I', 'N', 'S', 'A', 'F', '1'};
constexpr size_t kHeaderSize = sizeof(kMagic) + 3 * sizeof(uint32_t);
constexpr size_t kFrameHeaderSize = 3 * sizeof(uint32_t);

// CRC-32C (Castagnoli), reflected.
constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

// Slicing-by-8: tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC
// state after byte b followed by k zero bytes, so one step folds eight
// input bytes with eight independent lookups instead of a serial chain of
// eight. Same CRC values as the byte-at-a-time loop, several times faster.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kCrc32cPoly : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

template <typename T>
void AppendRaw(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T ReadRawAt(const char* bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes + offset, sizeof(T));
  return value;
}

// Reads up to `size` bytes at `offset` of `fd` into `out`, retrying
// interrupted and partial reads. Returns the bytes read, fewer than `size`
// only where the file ends, or -1 on a read error.
ssize_t ReadAt(int fd, void* out, size_t size, size_t offset) {
  auto* bytes = static_cast<char*>(out);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, bytes + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return -1;
    if (n == 0) break;
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

// Reads the frame header at `offset` of the open file `fd`, `file_size`
// bytes long. kOk, with *payload_len and *payload_crc set, if the header's
// CRC verifies and its payload fits in the file; otherwise the status at
// which a reader stops for good: kEndOfFile exactly at the end, kTruncated
// for a header or payload cut short, kCorrupt for a header that fails its
// CRC (its length cannot be trusted, so later frames are unreachable).
FrameStatus ReadFrameHeader(int fd, size_t file_size, size_t offset,
                            uint32_t* payload_len, uint32_t* payload_crc) {
  if (offset == file_size) return FrameStatus::kEndOfFile;
  char header[kFrameHeaderSize];
  if (file_size - offset < kFrameHeaderSize ||
      ReadAt(fd, header, kFrameHeaderSize, offset) !=
          static_cast<ssize_t>(kFrameHeaderSize)) {
    return FrameStatus::kTruncated;
  }
  if (Crc32c(header, 2 * sizeof(uint32_t)) !=
      ReadRawAt<uint32_t>(header, 2 * sizeof(uint32_t))) {
    return FrameStatus::kCorrupt;
  }
  *payload_len = ReadRawAt<uint32_t>(header, 0);
  *payload_crc = ReadRawAt<uint32_t>(header, sizeof(uint32_t));
  if (file_size - offset - kFrameHeaderSize < *payload_len) {
    return FrameStatus::kTruncated;
  }
  return FrameStatus::kOk;
}

std::string DirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

namespace internal {

uint32_t Crc32cPortable(const void* data, size_t size, uint32_t seed) {
  // The eight-byte step loads a word whose low byte is the first input
  // byte; like the file formats themselves, that assumes little-endian.
  static_assert(std::endian::native == std::endian::little);
  const Crc32cTables& t = kCrc32cTables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; bytes += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    word ^= crc;
    crc = t[7][word & 0xff] ^ t[6][(word >> 8) & 0xff] ^
          t[5][(word >> 16) & 0xff] ^ t[4][(word >> 24) & 0xff] ^
          t[3][(word >> 32) & 0xff] ^ t[2][(word >> 40) & 0xff] ^
          t[1][(word >> 48) & 0xff] ^ t[0][word >> 56];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xff];
  }
  return ~crc;
}

#if defined(__x86_64__)
namespace {

// Three-stream CRC32C, after Mark Adler's crc32c.c. The crc32 instruction
// takes three cycles to give its result but can start one every cycle, so a
// single dependent chain runs the unit at a third of its rate. A run of
// 3 x block bytes is split into thirds A, B, C whose chains interleave: A
// continues the running register, B and C start from zero. The register
// is linear in its input, so the register after A|B is shift(A) ^ B, where
// shift multiplies by x^(8 * block) mod P, the effect of `block` zero
// bytes; then the same again with C. Long blocks carry a frame's bulk;
// short ones carry what is left of it.
constexpr size_t kCrcLongBlock = 8192;
constexpr size_t kCrcShortBlock = 256;

// A linear map on the 32-bit CRC register, over GF(2): the images of its
// 32 unit vectors.
using Gf2Matrix = std::array<uint32_t, 32>;

uint32_t Apply(const Gf2Matrix& map, uint32_t v) {
  uint32_t out = 0;
  for (size_t i = 0; i < map.size(); ++i) out ^= map[i] & (0u - ((v >> i) & 1));
  return out;
}

Gf2Matrix Compose(const Gf2Matrix& a, const Gf2Matrix& b) {
  Gf2Matrix out;
  for (size_t i = 0; i < out.size(); ++i) out[i] = Apply(a, b[i]);
  return out;
}

// The map `bytes` zero bytes make on the register, x^(8 * bytes) mod P, by
// square-and-multiply from the map of one zero bit: a few dozen matrix
// products, where feeding zeros through the CRC would take one step per
// byte for every table entry.
Gf2Matrix ZeroBytesMap(size_t bytes) {
  Gf2Matrix power{};  // one zero bit: reg -> (reg >> 1) ^ (reg & 1 ? P : 0)
  power[0] = kCrc32cPoly;
  for (size_t i = 1; i < power.size(); ++i) power[i] = 1u << (i - 1);
  for (int square = 0; square < 3; ++square) power = Compose(power, power);
  Gf2Matrix map;
  for (size_t i = 0; i < map.size(); ++i) map[i] = 1u << i;
  for (; bytes != 0; bytes >>= 1) {
    if (bytes & 1) map = Compose(power, map);
    power = Compose(power, power);
  }
  return map;
}

// ZeroBytesMap(bytes) as four 256-entry tables, one per register byte.
// The map is linear, so each entry is the entry without its lowest set bit
// plus that bit's image: one XOR per entry.
class Crc32cShift {
 public:
  explicit Crc32cShift(size_t bytes) {
    const Gf2Matrix map = ZeroBytesMap(bytes);
    for (size_t k = 0; k < 4; ++k) {
      table_[k][0] = 0;
      for (uint32_t b = 1; b < 256; ++b) {
        table_[k][b] =
            table_[k][b & (b - 1)] ^ map[8 * k + std::countr_zero(b)];
      }
    }
  }

  uint32_t operator()(uint32_t crc) const {
    return table_[0][crc & 0xff] ^ table_[1][(crc >> 8) & 0xff] ^
           table_[2][(crc >> 16) & 0xff] ^ table_[3][crc >> 24];
  }

 private:
  uint32_t table_[4][256];
};

struct Crc32cShifts {
  Crc32cShift long_block{kCrcLongBlock};
  Crc32cShift short_block{kCrcShortBlock};
};

const Crc32cShifts& Shifts() {
  static const Crc32cShifts shifts;
  return shifts;
}

uint64_t LoadWord(const unsigned char* bytes) {
  uint64_t word;
  std::memcpy(&word, bytes, sizeof(word));
  return word;
}

// Folds every whole run of 3 x `block` bytes at *bytes into `crc` (the
// running, pre-inverted register) and advances *bytes and *size past them.
__attribute__((target("sse4.2"))) uint32_t Crc32cThreeStreams(
    uint32_t crc, const unsigned char** bytes, size_t* size, size_t block,
    const Crc32cShift& shift) {
  const unsigned char* next = *bytes;
  size_t left = *size;
  for (; left >= 3 * block; next += 3 * block, left -= 3 * block) {
    uint64_t crc0 = crc;
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < block; i += 8) {
      crc0 = _mm_crc32_u64(crc0, LoadWord(next + i));
      crc1 = _mm_crc32_u64(crc1, LoadWord(next + block + i));
      crc2 = _mm_crc32_u64(crc2, LoadWord(next + 2 * block + i));
    }
    crc = shift(static_cast<uint32_t>(crc0)) ^ static_cast<uint32_t>(crc1);
    crc = shift(crc) ^ static_cast<uint32_t>(crc2);
  }
  *bytes = next;
  *size = left;
  return crc;
}

}  // namespace

// The SSE4.2 crc32 instruction computes exactly this polynomial, reflected,
// on the running (pre-inverted) state, so it is a drop-in for the tables:
// one instruction folds eight bytes. Runs of at least 3 x 256 bytes go
// through three interleaved streams (above); the rest, one chain.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t size,
                                                       uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t running = ~seed;
  if (size >= 3 * kCrcShortBlock) {
    const Crc32cShifts& shifts = Shifts();
    running = Crc32cThreeStreams(running, &bytes, &size, kCrcLongBlock,
                                 shifts.long_block);
    running = Crc32cThreeStreams(running, &bytes, &size, kCrcShortBlock,
                                 shifts.short_block);
  }
  uint64_t crc = running;
  for (; size >= 8; bytes += 8, size -= 8) {
    crc = _mm_crc32_u64(crc, LoadWord(bytes));
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; size > 0; ++bytes, --size) crc32 = _mm_crc32_u8(crc32, *bytes);
  return ~crc32;
}
#else
uint32_t Crc32cSse42(const void*, size_t, uint32_t) {
  CheckFailed(__FILE__, __LINE__,
              "no SSE4.2 crc32 instruction on this architecture");
}
#endif

}  // namespace internal

namespace {

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cFn ResolveCrc32c() {
  return ResolvedSimdTarget() != SimdTarget::kScalar && CpuHasSse42Crc32()
             ? &internal::Crc32cSse42
             : &internal::Crc32cPortable;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  static const Crc32cFn crc32c = ResolveCrc32c();
  return crc32c(data, size, seed);
}

SafeFileWriter::SafeFileWriter(std::string path, uint32_t file_type,
                               uint32_t version)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp." + std::to_string(::getpid())) {
  if (IPIN_FAILPOINT("safe_io.open").fail) {
    LogError("safe_io: injected open failure for " + path_);
    return;
  }
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    LogError("safe_io: cannot create temp file " + tmp_path_ + ": " +
             std::strerror(errno));
    return;
  }
  ok_ = true;

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  AppendRaw<uint32_t>(&header, file_type);
  AppendRaw<uint32_t>(&header, version);
  AppendRaw<uint32_t>(&header, Crc32c(header));
  ok_ = WriteAll(header.data(), header.size());
}

SafeFileWriter::~SafeFileWriter() {
  if (!committed_) Abandon();
}

void SafeFileWriter::Abandon() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    ::unlink(tmp_path_.c_str());
  }
  ok_ = false;
}

bool SafeFileWriter::WriteAll(const void* data, size_t size) {
  if (IPIN_FAILPOINT("safe_io.write").fail) {
    LogError("safe_io: injected write failure for " + path_);
    return false;
  }
  // Torn-write injection: silently persist only a prefix of this write and
  // report success, so the committed file ends up truncated mid-frame —
  // exactly what the reader's kTruncated detection must catch.
  const auto short_write = IPIN_FAILPOINT("safe_io.write.short");
  if (short_write.short_write != failpoint::Result::kNoLimit) {
    size = std::min(size, short_write.short_write);
  }
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t written = ::write(fd_, bytes, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      LogError("safe_io: write to " + tmp_path_ + " failed: " +
               std::strerror(errno));
      return false;
    }
    bytes += written;
    size -= static_cast<size_t>(written);
  }
  return true;
}

bool SafeFileWriter::AppendFrame(std::string_view payload) {
  if (!ok_) return false;
  frame_.clear();
  AppendRaw<uint32_t>(&frame_, static_cast<uint32_t>(payload.size()));
  AppendRaw<uint32_t>(&frame_, Crc32c(payload));
  AppendRaw<uint32_t>(&frame_, Crc32c(frame_));  // guards the length itself
  frame_.append(payload);
  ok_ = WriteAll(frame_.data(), frame_.size());
  return ok_;
}

bool SafeFileWriter::Commit() {
  if (!ok_) {
    Abandon();
    return false;
  }
  // A crash_after_n failpoint here simulates the process dying after the
  // data was written but before it became durable/visible.
  if (IPIN_FAILPOINT("safe_io.commit").fail) {
    LogError("safe_io: injected commit failure for " + path_);
    Abandon();
    return false;
  }
  if (IPIN_FAILPOINT("safe_io.fsync").fail || ::fsync(fd_) != 0) {
    LogError("safe_io: fsync of " + tmp_path_ + " failed");
    Abandon();
    return false;
  }
  ::close(fd_);
  fd_ = -1;
  if (IPIN_FAILPOINT("safe_io.rename").fail ||
      ::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    LogError("safe_io: rename to " + path_ + " failed");
    ::unlink(tmp_path_.c_str());
    ok_ = false;
    return false;
  }
  committed_ = true;
  // Make the rename itself durable. Failure here is logged but not fatal:
  // the data file is complete and correctly named.
  const int dir_fd = ::open(DirectoryOf(path_).c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    if (::fsync(dir_fd) != 0) {
      LogWarning("safe_io: directory fsync failed for " + path_);
    }
    ::close(dir_fd);
  }
  return true;
}

SafeFileReader::~SafeFileReader() { Close(); }

void SafeFileReader::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  file_size_ = 0;
  offset_ = 0;
  exhausted_ = true;
}

SafeOpenStatus SafeFileReader::Open(const std::string& path,
                                    uint32_t expected_type) {
  Close();
  if (IPIN_FAILPOINT("safe_io.read").fail) {
    LogError("safe_io: injected read failure for " + path);
    return SafeOpenStatus::kMissing;
  }
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st {};
  if (fd_ < 0 || ::fstat(fd_, &st) != 0) {
    Close();
    return SafeOpenStatus::kMissing;
  }
  file_size_ = st.st_size > 0 ? static_cast<size_t>(st.st_size) : 0;
  char header[kHeaderSize];
  const ssize_t got =
      ReadAt(fd_, header, std::min(kHeaderSize, file_size_), 0);
  if (got < 0) {
    Close();
    return SafeOpenStatus::kMissing;
  }
  const auto size = static_cast<size_t>(got);
  if (size < sizeof(kMagic)) return SafeOpenStatus::kTruncated;
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return SafeOpenStatus::kCorrupt;
  }
  if (size < kHeaderSize) return SafeOpenStatus::kTruncated;
  const auto file_type = ReadRawAt<uint32_t>(header, sizeof(kMagic));
  version_ = ReadRawAt<uint32_t>(header, sizeof(kMagic) + 4);
  const auto header_crc = ReadRawAt<uint32_t>(header, sizeof(kMagic) + 8);
  if (Crc32c(header, kHeaderSize - sizeof(uint32_t)) != header_crc ||
      file_type != expected_type) {
    return SafeOpenStatus::kCorrupt;
  }
  offset_ = kHeaderSize;
  exhausted_ = false;
  return SafeOpenStatus::kOk;
}

FrameStatus SafeFileReader::ReadFrame(std::string_view* payload) {
  *payload = {};
  if (exhausted_) return FrameStatus::kEndOfFile;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
  const FrameStatus status =
      ReadFrameHeader(fd_, file_size_, offset_, &payload_len, &payload_crc);
  if (status != FrameStatus::kOk) {
    exhausted_ = true;
    return status;
  }
  // The length fits in the file, so it may size the buffer. The old buffer
  // goes first, so the reader never holds two.
  if (payload_len > buffer_size_) {
    buffer_.reset();
    buffer_ = std::make_unique_for_overwrite<char[]>(payload_len);
    buffer_size_ = payload_len;
  }
  if (ReadAt(fd_, buffer_.get(), payload_len, offset_ + kFrameHeaderSize) !=
      static_cast<ssize_t>(payload_len)) {
    exhausted_ = true;  // the file was cut after Open, or cannot be read
    return FrameStatus::kTruncated;
  }
  offset_ += kFrameHeaderSize + payload_len;
  if (Crc32c(static_cast<const void*>(buffer_.get()), payload_len) !=
      payload_crc) {
    return FrameStatus::kCorrupt;  // this frame only; the next is intact
  }
  *payload = std::string_view(buffer_.get(), payload_len);
  return FrameStatus::kOk;
}

std::vector<uint32_t> SafeFileReader::PeekFrameLengths(
    size_t max_frames) const {
  std::vector<uint32_t> lengths;
  if (exhausted_) return lengths;
  lengths.reserve(std::min(max_frames, remaining() / kFrameHeaderSize));
  size_t offset = offset_;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
  while (lengths.size() < max_frames &&
         ReadFrameHeader(fd_, file_size_, offset, &payload_len,
                         &payload_crc) == FrameStatus::kOk) {
    lengths.push_back(payload_len);
    offset += kFrameHeaderSize + payload_len;
  }
  return lengths;
}

}  // namespace ipin
