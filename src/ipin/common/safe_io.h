#ifndef IPIN_COMMON_SAFE_IO_H_
#define IPIN_COMMON_SAFE_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

// Crash-safe, checksummed file persistence. Every file written through this
// layer is:
//
//   * atomic — data goes to a temp file in the same directory, is fsync'd,
//     and only then renamed over the destination (and the directory entry
//     fsync'd), so readers see either the complete old file or the complete
//     new file, never a torn mix;
//   * framed — the payload is a sequence of length-prefixed frames, each
//     protected by its own CRC32C, so a reader can tell exactly which
//     sections of a damaged file are still trustworthy;
//   * versioned — an 8-byte magic plus a caller-chosen file type tag and
//     format version sit in a checksummed header.
//
// On-disk layout (little-endian):
//   header:  8B magic "IPINSAF1" | u32 file_type | u32 version
//            | u32 crc32c(magic..version)
//   frame:   u32 payload_len | u32 crc32c(payload)
//            | u32 crc32c(payload_len, payload_crc) | payload bytes
//
// The frame header carries its own CRC so a corrupted length field is
// detected instead of desynchronizing every later frame. A frame whose
// header verifies but whose payload does not is reported kCorrupt and
// skipped; the reader continues with the next frame. A corrupt frame
// header (or running out of bytes mid-frame) ends the file: everything
// after it is unrecoverable.
//
// Failpoints (see common/failpoint.h): safe_io.open, safe_io.write,
// safe_io.write.short, safe_io.fsync, safe_io.rename, safe_io.commit.

namespace ipin {

/// CRC-32C (Castagnoli), the checksum used by the framing layer; `seed`
/// chains incremental computations. Runs on the SSE4.2 crc32 instruction
/// when the CPU has it and the process-wide SIMD target
/// (common/simd_target.h) is not scalar, else on portable slicing-by-8
/// (eight bytes per step through eight 256-entry tables). Both give the
/// same values.
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);
inline uint32_t Crc32c(std::string_view data, uint32_t seed = 0) {
  return Crc32c(data.data(), data.size(), seed);
}

namespace internal {

/// The two implementations behind Crc32c, exposed so tests can check each
/// directly. Crc32cSse42 may only be called when CpuHasSse42Crc32().
uint32_t Crc32cPortable(const void* data, size_t size, uint32_t seed);
uint32_t Crc32cSse42(const void* data, size_t size, uint32_t seed);

}  // namespace internal

/// Writes one framed file atomically. Usage:
///   SafeFileWriter writer(path, kMyFileType, kMyVersion);
///   writer.AppendFrame(header_payload);
///   writer.AppendFrame(section_payload);  // any number of frames
///   if (!writer.Commit()) { /* destination untouched */ }
/// Destruction without Commit() (or after a failed Commit) removes the temp
/// file and leaves any previous destination file intact.
class SafeFileWriter {
 public:
  SafeFileWriter(std::string path, uint32_t file_type, uint32_t version);
  ~SafeFileWriter();

  SafeFileWriter(const SafeFileWriter&) = delete;
  SafeFileWriter& operator=(const SafeFileWriter&) = delete;

  /// False once any step has failed; AppendFrame/Commit become no-ops.
  bool ok() const { return ok_; }

  /// Appends one checksummed frame. Returns false on I/O error.
  bool AppendFrame(std::string_view payload);

  /// fsyncs the temp file, renames it over the destination, and fsyncs the
  /// directory. Returns false on failure (temp removed, destination intact).
  bool Commit();

 private:
  bool WriteAll(const void* data, size_t size);
  void Abandon();

  std::string path_;
  std::string tmp_path_;
  std::string frame_;  // one frame's bytes, reused across AppendFrame calls
  int fd_ = -1;
  bool ok_ = false;
  bool committed_ = false;
};

/// Outcome of opening a framed file.
enum class SafeOpenStatus {
  kOk,
  kMissing,    // file absent or unreadable
  kTruncated,  // shorter than a complete header
  kCorrupt,    // bad magic, bad header CRC, or wrong file type
};

/// Outcome of reading one frame.
enum class FrameStatus {
  kOk,         // *payload filled
  kEndOfFile,  // clean end: no bytes after the previous frame
  kCorrupt,    // frame damaged; see CanContinue() for whether later frames
               // remain reachable
  kTruncated,  // file ends mid-frame; nothing further is readable
};

/// Reads a file written by SafeFileWriter, frame by frame, verifying every
/// checksum. The reader streams: Open reads only the file header, and each
/// ReadFrame reads one frame's payload into one buffer the reader reuses,
/// grown to the largest frame read so far and never zero-filled. A payload
/// view stays valid until the next ReadFrame or Open. There is no mmap: a
/// file cut while mapped would fault with SIGBUS, where a cut file read
/// with pread is a short read, reported kTruncated.
class SafeFileReader {
 public:
  SafeFileReader() = default;
  ~SafeFileReader();

  SafeFileReader(const SafeFileReader&) = delete;
  SafeFileReader& operator=(const SafeFileReader&) = delete;

  /// Opens and validates the header. `expected_type` guards against feeding
  /// one subsystem's file to another (mismatch => kCorrupt).
  SafeOpenStatus Open(const std::string& path, uint32_t expected_type);

  /// Format version from the header (valid after a kOk Open).
  uint32_t version() const { return version_; }

  /// Bytes not yet consumed by ReadFrame, of the file's size as fstat gave
  /// it at Open. Frames are read only within that size.
  size_t remaining() const { return file_size_ - offset_; }

  /// Bytes the frame buffer holds: the largest payload this reader has read.
  size_t buffer_bytes() const { return buffer_size_; }

  /// Reads the next frame and points *payload at its bytes in the reader's
  /// buffer (valid until the next ReadFrame or Open). A frame length is
  /// checked against the bytes left before it sizes the buffer. On kCorrupt
  /// with CanContinue(), the damaged frame was skipped and the next call
  /// reads the following frame; otherwise the reader is exhausted.
  FrameStatus ReadFrame(std::string_view* payload);

  /// True while later frames are still reachable after a kCorrupt frame.
  bool CanContinue() const { return !exhausted_; }

  /// The payload lengths of the next `max_frames` frames, read from their
  /// 12-byte headers alone: no payload is read and the next ReadFrame is
  /// unmoved. Stops early where ReadFrame would stop for good: at the end of
  /// the file, a short frame header, a header whose CRC fails, or a length
  /// past the file's end.
  std::vector<uint32_t> PeekFrameLengths(size_t max_frames) const;

 private:
  void Close();

  int fd_ = -1;
  size_t file_size_ = 0;
  size_t offset_ = 0;
  std::unique_ptr<char[]> buffer_;  // one payload, not zero-filled
  size_t buffer_size_ = 0;
  uint32_t version_ = 0;
  bool exhausted_ = true;  // until an Open succeeds
};

}  // namespace ipin

#endif  // IPIN_COMMON_SAFE_IO_H_
