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
#include <fstream>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"

namespace ipin {
namespace {

constexpr char kMagic[8] = {'I', 'P', 'I', 'N', 'S', 'A', 'F', '1'};
constexpr size_t kHeaderSize = sizeof(kMagic) + 3 * sizeof(uint32_t);
constexpr size_t kFrameHeaderSize = 3 * sizeof(uint32_t);

// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), slicing-by-8.
// tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC
// state after byte b followed by k zero bytes, so one step folds eight
// input bytes with eight independent lookups instead of a serial chain of
// eight. Same CRC values as the byte-at-a-time loop, several times faster.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
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
T ReadRawAt(const std::string& buffer, size_t offset) {
  T value;
  std::memcpy(&value, buffer.data() + offset, sizeof(T));
  return value;
}

std::string DirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
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

bool ReadWholeFile(const std::string& path, std::string* contents) {
  contents->clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  const size_t expected =
      ::fstat(fd, &st) == 0 && st.st_size > 0 ? static_cast<size_t>(st.st_size)
                                              : 0;
  // One spare byte, so a file whose size matches fstat ends with a 0-byte
  // read rather than a regrow.
  contents->resize(expected + 1);
  size_t size = 0;
  for (;;) {
    if (size == contents->size()) contents->resize(2 * size);
    const ssize_t n =
        ::read(fd, contents->data() + size, contents->size() - size);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      contents->clear();
      return false;
    }
    if (n == 0) break;
    size += static_cast<size_t>(n);
  }
  ::close(fd);
  contents->resize(size);
  return true;
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
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  AppendRaw<uint32_t>(&frame, static_cast<uint32_t>(payload.size()));
  AppendRaw<uint32_t>(&frame, Crc32c(payload));
  AppendRaw<uint32_t>(&frame, Crc32c(frame));  // guards the length itself
  frame.append(payload);
  ok_ = WriteAll(frame.data(), frame.size());
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

SafeOpenStatus SafeFileReader::Open(const std::string& path,
                                    uint32_t expected_type) {
  buffer_.clear();
  offset_ = 0;
  exhausted_ = false;
  if (IPIN_FAILPOINT("safe_io.read").fail) {
    LogError("safe_io: injected read failure for " + path);
    exhausted_ = true;
    return SafeOpenStatus::kMissing;
  }
  if (!ReadWholeFile(path, &buffer_)) {
    exhausted_ = true;
    return SafeOpenStatus::kMissing;
  }
  if (buffer_.size() < sizeof(kMagic)) {
    exhausted_ = true;
    return SafeOpenStatus::kTruncated;
  }
  if (std::memcmp(buffer_.data(), kMagic, sizeof(kMagic)) != 0) {
    exhausted_ = true;
    return SafeOpenStatus::kCorrupt;
  }
  if (buffer_.size() < kHeaderSize) {
    exhausted_ = true;
    return SafeOpenStatus::kTruncated;
  }
  const auto file_type = ReadRawAt<uint32_t>(buffer_, sizeof(kMagic));
  version_ = ReadRawAt<uint32_t>(buffer_, sizeof(kMagic) + 4);
  const auto header_crc = ReadRawAt<uint32_t>(buffer_, sizeof(kMagic) + 8);
  if (Crc32c(buffer_.data(), kHeaderSize - sizeof(uint32_t)) != header_crc ||
      file_type != expected_type) {
    exhausted_ = true;
    return SafeOpenStatus::kCorrupt;
  }
  offset_ = kHeaderSize;
  return SafeOpenStatus::kOk;
}

FrameStatus SafeFileReader::ReadFrame(std::string_view* payload) {
  *payload = {};
  if (exhausted_) return FrameStatus::kEndOfFile;
  if (offset_ == buffer_.size()) {
    exhausted_ = true;
    return FrameStatus::kEndOfFile;
  }
  if (buffer_.size() - offset_ < kFrameHeaderSize) {
    exhausted_ = true;
    return FrameStatus::kTruncated;
  }
  const auto payload_len = ReadRawAt<uint32_t>(buffer_, offset_);
  const auto payload_crc = ReadRawAt<uint32_t>(buffer_, offset_ + 4);
  const auto header_crc = ReadRawAt<uint32_t>(buffer_, offset_ + 8);
  if (Crc32c(buffer_.data() + offset_, 2 * sizeof(uint32_t)) != header_crc) {
    // The length field cannot be trusted, so later frames are unreachable.
    exhausted_ = true;
    return FrameStatus::kCorrupt;
  }
  if (buffer_.size() - offset_ - kFrameHeaderSize < payload_len) {
    exhausted_ = true;
    return FrameStatus::kTruncated;
  }
  const char* data = buffer_.data() + offset_ + kFrameHeaderSize;
  offset_ += kFrameHeaderSize + payload_len;
  if (Crc32c(static_cast<const void*>(data), payload_len) != payload_crc) {
    return FrameStatus::kCorrupt;  // this frame only; the next is intact
  }
  *payload = std::string_view(data, payload_len);
  return FrameStatus::kOk;
}

bool LooksLikeSafeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

}  // namespace ipin
