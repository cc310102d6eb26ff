#ifndef IPIN_COMMON_SAFE_IO_H_
#define IPIN_COMMON_SAFE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

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

/// CRC-32C (Castagnoli), the checksum used by the framing layer. Portable
/// slicing-by-8 (eight bytes per step through eight 256-entry tables);
/// `seed` chains incremental computations.
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);
inline uint32_t Crc32c(std::string_view data, uint32_t seed = 0) {
  return Crc32c(data.data(), data.size(), seed);
}

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
/// checksum. The whole file is buffered on open with one read sized by
/// fstat (these files are read once into memory anyway by their consumers).
class SafeFileReader {
 public:
  /// Opens and validates the header. `expected_type` guards against feeding
  /// one subsystem's file to another (mismatch => kCorrupt).
  SafeOpenStatus Open(const std::string& path, uint32_t expected_type);

  /// Format version from the header (valid after a kOk Open).
  uint32_t version() const { return version_; }

  /// Bytes held in memory: the whole file, header included.
  size_t file_size() const { return buffer_.size(); }

  /// Bytes not yet consumed by ReadFrame.
  size_t remaining() const { return buffer_.size() - offset_; }

  /// Points *payload at the next frame's bytes inside the reader's buffer
  /// (valid until the next Open or the reader's destruction). On kCorrupt
  /// with CanContinue(), the damaged frame was skipped and the next call
  /// reads the following frame; otherwise the reader is exhausted.
  FrameStatus ReadFrame(std::string_view* payload);

  /// True while later frames are still reachable after a kCorrupt frame.
  bool CanContinue() const { return !exhausted_; }

 private:
  std::string buffer_;
  size_t offset_ = 0;
  uint32_t version_ = 0;
  bool exhausted_ = false;
};

/// Reads the whole file at `path` into *contents with one fstat-sized
/// read (growing only if the file is longer than fstat said, e.g. a pipe).
/// False if the file cannot be opened or read.
bool ReadWholeFile(const std::string& path, std::string* contents);

/// Convenience: true if `path` exists and begins with the safe_io magic
/// (used for format auto-detection against legacy files).
bool LooksLikeSafeFile(const std::string& path);

}  // namespace ipin

#endif  // IPIN_COMMON_SAFE_IO_H_
