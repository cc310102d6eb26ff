#include "ipin/core/oracle_io.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"
#include "ipin/common/timer.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace.h"

namespace ipin {
namespace {

// Serialization buffers charge the "oracle_io" tally so index save/load
// peaks show up in the mem.oracle_io.* gauges.
obs::MemoryTally& OracleIoMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("oracle_io");
  return tally;
}

// Framed (safe_io) format: file type tag "IIDX", version 5.
//   frame 0: i64 window, u8 precision, u64 salt, u64 num_nodes,
//            u32 chunk_size
//   frame k: the chunk of nodes [(k - 1) * chunk_size, k * chunk_size):
//            u64 first_node, u32 count, u8 present[count],
//            u32 entries[present], u8 rows[present x beta] — for each
//            present node, in node order, the pairs its build sketch held
//            and its max-rank row.
// Chunks cover [0, num_nodes) in order, kChunkSize nodes each, so a dropped
// frame loses exactly one known slice of nodes.
constexpr uint32_t kIndexFileType = 0x58444949;  // "IIDX" little-endian
constexpr uint32_t kIndexFormatVersion = 5;
constexpr uint32_t kChunkSize = 256;

template <typename T>
void AppendRaw(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadRaw(std::string_view data, size_t* offset, T* value) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

struct IndexHeader {
  int64_t window = 0;
  uint8_t precision = 0;
  uint64_t salt = 0;
  uint64_t num_nodes = 0;
  uint32_t chunk_size = 0;

  uint64_t num_sections() const {
    return num_nodes / chunk_size + (num_nodes % chunk_size != 0 ? 1 : 0);
  }
};

bool ParseIndexHeader(std::string_view payload, IndexHeader* header) {
  size_t offset = 0;
  if (!ReadRaw(payload, &offset, &header->window) ||
      !ReadRaw(payload, &offset, &header->precision) ||
      !ReadRaw(payload, &offset, &header->salt) ||
      !ReadRaw(payload, &offset, &header->num_nodes) ||
      !ReadRaw(payload, &offset, &header->chunk_size)) {
    return false;
  }
  return offset == payload.size() && header->window >= 1 &&
         header->precision >= 4 && header->precision <= 18 &&
         header->chunk_size >= 1;
}

// A chunk's fixed prefix: u64 first_node, u32 count.
constexpr size_t kChunkPrefixBytes = sizeof(uint64_t) + sizeof(uint32_t);
// The least a chunk frame is taken to cost: safe_io's 12-byte frame header
// plus the chunk's prefix.
constexpr uint64_t kMinChunkFrameBytes = 12 + kChunkPrefixBytes;

// A header is checked against the file before anything is sized by
// num_nodes. Every chunk frame costs at least kMinChunkFrameBytes (a
// CRC-valid torn chunk may be no longer than that), and no chunk covers
// more than the writer's kChunkSize nodes, so a header whose sections
// cannot fit in the `remaining` file bytes is forged or damaged. This
// bounds num_nodes by 11x the file size. Node ids must also fit NodeId.
bool HeaderFitsFile(const IndexHeader& header, size_t remaining) {
  return header.num_nodes < kInvalidNode && header.chunk_size <= kChunkSize &&
         header.num_sections() <= remaining / kMinChunkFrameBytes;
}

// Writes the chunk of nodes [first, first + count) of `index` into *buffer
// (grown, never shrunk). Returns the payload's length.
size_t EncodeChunk(const IrsApprox& index, uint64_t first, uint32_t count,
                   std::string* buffer) {
  const size_t beta = size_t{1} << index.options().precision;
  const NodeId lo = static_cast<NodeId>(first);
  size_t present = 0;
  for (NodeId u = lo; u < lo + count; ++u) present += index.Sketch(u) ? 1 : 0;
  const size_t size =
      kChunkPrefixBytes + count + present * (sizeof(uint32_t) + beta);
  if (buffer->size() < size) buffer->resize(size);
  char* out = buffer->data();
  std::memcpy(out, &first, sizeof(first));
  std::memcpy(out + sizeof(first), &count, sizeof(count));
  char* flags = out + kChunkPrefixBytes;
  char* entries = flags + count;
  char* rows = entries + present * sizeof(uint32_t);
  for (uint32_t i = 0; i < count; ++i) {
    const SketchView sketch = index.Sketch(lo + i);
    flags[i] = sketch ? 1 : 0;
    if (!sketch) continue;
    const auto n = static_cast<uint32_t>(sketch.NumEntries());
    std::memcpy(entries, &n, sizeof(n));
    entries += sizeof(n);
    std::memcpy(rows, sketch.max_ranks().data(), beta);
    rows += beta;
  }
  return size;
}

// A chunk frame cut into its sections: present flags, entry counts and
// rows, views into the reader's file buffer.
struct Chunk {
  uint64_t first_node = 0;
  uint32_t count = 0;
  size_t sketches = 0;
  const uint8_t* present = nullptr;
  const uint8_t* entries = nullptr;
  const uint8_t* rows = nullptr;
};

// Measuring is arithmetic: the chunk must cover exactly [first, first +
// count), every present byte be 0 or 1, and the payload be exactly
// 12 + count + present x (4 + beta) bytes.
bool MeasureChunk(std::string_view payload, size_t beta, uint64_t first,
                  uint32_t count, Chunk* chunk) {
  size_t offset = 0;
  uint64_t first_node = 0;
  uint32_t num_nodes = 0;
  if (!ReadRaw(payload, &offset, &first_node) ||
      !ReadRaw(payload, &offset, &num_nodes) || first_node != first ||
      num_nodes != count || payload.size() - offset < count) {
    return false;
  }
  const auto* bytes = reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* present = bytes + offset;
  uint8_t flags = 0;
  size_t sketches = 0;
  for (uint32_t i = 0; i < count; ++i) {
    flags |= present[i];
    sketches += present[i];
  }
  offset += count;
  if (flags > 1 ||
      payload.size() - offset != sketches * (sizeof(uint32_t) + beta)) {
    return false;
  }
  *chunk = {first, count, sketches, present, bytes + offset,
            bytes + offset + sketches * sizeof(uint32_t)};
  return true;
}

// Copies the chunk's rows into `arena`, each checked (SketchArena::Append).
// False, with nothing appended, if one fails.
bool PlaceChunk(const Chunk& chunk, SketchArena* arena) {
  const size_t beta = arena->num_cells();
  const NodeId first = static_cast<NodeId>(chunk.first_node);
  const size_t mark = arena->NumAllocated();
  size_t k = 0;
  for (uint32_t i = 0; i < chunk.count; ++i) {
    if (chunk.present[i] == 0) continue;
    uint32_t entries = 0;
    std::memcpy(&entries, chunk.entries + k * sizeof(entries),
                sizeof(entries));
    if (!arena->Append(first + i, {chunk.rows + k * beta, beta}, entries)) {
      arena->RollBack(mark, first, first + chunk.count);
      return false;
    }
    ++k;
  }
  return true;
}

}  // namespace

bool SaveInfluenceIndex(const IrsApprox& index, const std::string& path) {
  if (IPIN_FAILPOINT("oracle_io.save").fail) {
    LogError("oracle_io: injected save failure for " + path);
    return false;
  }
  SafeFileWriter writer(path, kIndexFileType, kIndexFormatVersion);

  std::string header;
  AppendRaw<int64_t>(&header, index.window());
  AppendRaw<uint8_t>(&header, static_cast<uint8_t>(index.options().precision));
  AppendRaw<uint64_t>(&header, index.options().salt);
  AppendRaw<uint64_t>(&header, index.num_nodes());
  AppendRaw<uint32_t>(&header, kChunkSize);
  if (!writer.AppendFrame(header)) return false;

  std::string chunk;
  obs::ScopedMemoryCharge charge(OracleIoMemTally(), chunk.capacity());
  for (uint64_t first = 0; first < index.num_nodes(); first += kChunkSize) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(kChunkSize, index.num_nodes() - first));
    const size_t size = EncodeChunk(index, first, count, &chunk);
    charge.Resize(chunk.capacity());
    // Torn-section injection: hand safe_io a CRC-consistent but truncated
    // payload, producing a frame that verifies yet fails to parse — the
    // "corrupt section" recovery path, distinct from a torn file.
    const auto short_write = IPIN_FAILPOINT("oracle_io.write.short");
    std::string_view payload(chunk.data(), size);
    if (short_write.short_write != failpoint::Result::kNoLimit) {
      payload = payload.substr(0, short_write.short_write);
    }
    if (!writer.AppendFrame(payload)) return false;
  }
  return writer.Commit();
}

namespace {

IndexLoadResult LoadIndex(const std::string& path) {
  IndexLoadResult result;
  if (IPIN_FAILPOINT("oracle_io.load").fail) {
    LogError("oracle_io: injected load failure for " + path);
    return result;  // kMissing
  }

  SafeFileReader reader;
  SafeOpenStatus open_status = SafeOpenStatus::kMissing;
  {
    IPIN_TRACE_SPAN("index.load.read");
    open_status = reader.Open(path, kIndexFileType);
  }
  switch (open_status) {
    case SafeOpenStatus::kOk:
      break;
    case SafeOpenStatus::kMissing:
      LogError("cannot open index file: " + path);
      result.status = IndexLoadStatus::kMissing;
      return result;
    case SafeOpenStatus::kTruncated:
      LogError("index file truncated before header: " + path);
      result.status = IndexLoadStatus::kTruncated;
      return result;
    default:
      LogError("index file header corrupt, or a format version 1 index, "
               "which is no longer read (rebuild it with ipin_cli "
               "build-index): " + path);
      result.status = IndexLoadStatus::kCorrupt;
      return result;
  }

  const uint32_t version = reader.version();
  if (version != kIndexFormatVersion) {
    LogError(StrFormat("index %s: format version %u is not read (only "
                       "version %u is); rebuild it with ipin_cli build-index",
                       path.c_str(), version, kIndexFormatVersion));
    result.status = IndexLoadStatus::kCorrupt;
    return result;
  }

  // Pass 1: verify every frame and measure the chunks, so the arena is
  // sized once. A chunk counts only at its documented place — frame k
  // covers the whole slice starting at node (k - 1) * chunk_size — so no
  // node can be placed twice. The file buffer is charged here until the
  // reader frees it, when the load returns.
  const obs::ScopedMemoryCharge charge(OracleIoMemTally(), reader.file_size());
  IndexHeader header;
  std::vector<Chunk> chunks;
  size_t sketches = 0;
  {
    IPIN_TRACE_SPAN("index.load.verify");
    std::string_view payload;
    const FrameStatus header_status = reader.ReadFrame(&payload);
    if (header_status != FrameStatus::kOk ||
        !ParseIndexHeader(payload, &header)) {
      LogError("index header frame unreadable: " + path);
      result.status = header_status == FrameStatus::kTruncated
                          ? IndexLoadStatus::kTruncated
                          : IndexLoadStatus::kCorrupt;
      return result;
    }
    if (!HeaderFitsFile(header, reader.remaining())) {
      LogError(StrFormat("index %s: header claims %llu nodes in chunks of %u, "
                         "more than the file holds",
                         path.c_str(),
                         static_cast<unsigned long long>(header.num_nodes),
                         header.chunk_size));
      result.status = IndexLoadStatus::kCorrupt;
      return result;
    }
    const size_t beta = size_t{1} << header.precision;
    result.sections_total = static_cast<size_t>(header.num_sections());
    chunks.reserve(result.sections_total);
    size_t sections_read = 0;
    while (sections_read < result.sections_total) {
      const FrameStatus status = reader.ReadFrame(&payload);
      if (status == FrameStatus::kOk) {
        const uint64_t first = sections_read * uint64_t{header.chunk_size};
        const auto count = static_cast<uint32_t>(
            std::min<uint64_t>(header.chunk_size, header.num_nodes - first));
        Chunk chunk;
        if (MeasureChunk(payload, beta, first, count, &chunk)) {
          chunks.push_back(chunk);
          sketches += chunk.sketches;
        } else {
          ++result.sections_dropped;
          LogWarning(StrFormat("index %s: section %zu unparsable, dropped",
                               path.c_str(), sections_read));
        }
        ++sections_read;
        continue;
      }
      if (status == FrameStatus::kCorrupt && reader.CanContinue()) {
        ++sections_read;
        ++result.sections_dropped;
        LogWarning(StrFormat("index %s: section %zu failed checksum, dropped",
                             path.c_str(), sections_read - 1));
        continue;
      }
      // Truncation, an untrustworthy frame header, or a premature clean
      // EOF: every section not yet seen is unreachable.
      result.sections_dropped += result.sections_total - sections_read;
      LogWarning(StrFormat("index %s: %zu trailing section(s) unreachable",
                           path.c_str(), result.sections_total - sections_read));
      break;
    }
  }

  // Pass 2: copy each measured chunk's rows into the arena's rank plane.
  SketchArena arena(header.precision, header.salt, header.num_nodes, sketches);
  {
    IPIN_TRACE_SPAN("index.load.place");
    for (const Chunk& chunk : chunks) {
      if (!PlaceChunk(chunk, &arena)) {
        ++result.sections_dropped;
        LogWarning(StrFormat("index %s: section %llu fails its checks, "
                             "dropped",
                             path.c_str(),
                             static_cast<unsigned long long>(
                                 chunk.first_node / header.chunk_size)));
      }
    }
  }

  IrsApproxOptions options;
  options.precision = header.precision;
  options.salt = header.salt;
  result.index.emplace(header.window, options, std::move(arena));
  result.status = result.sections_dropped == 0 ? IndexLoadStatus::kOk
                                               : IndexLoadStatus::kDegraded;
  IPIN_COUNTER_ADD("robustness.index.sections_dropped",
                   result.sections_dropped);
  if (result.status == IndexLoadStatus::kDegraded) {
    IPIN_COUNTER_ADD("robustness.index.degraded_loads", 1);
  }
  IPIN_GAUGE_SET("robustness.index.degraded",
                 result.status == IndexLoadStatus::kDegraded ? 1 : 0);
  return result;
}

}  // namespace

IndexLoadResult LoadInfluenceIndexDetailed(const std::string& path) {
  [[maybe_unused]] const WallTimer timer;
  IndexLoadResult result = LoadIndex(path);
  IPIN_HISTOGRAM_RECORD("robustness.index.load_ms", timer.ElapsedMillis());
  return result;
}

}  // namespace ipin
