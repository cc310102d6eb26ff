#include "ipin/core/oracle_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <vector>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/metrics.h"

namespace ipin {
namespace {

// Serialization buffers charge the "oracle_io" tally so index save/load
// peaks show up in the mem.oracle_io.* gauges.
obs::MemoryTally& OracleIoMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("oracle_io");
  return tally;
}

// Framed (safe_io) format: file type tag "IIDX".
//   frame 0: i64 window, u8 precision, u64 salt, u64 num_nodes,
//            u32 chunk_size
//   frame k (version 3, written today): u64 first_node
//            (= (k - 1) * chunk_size), u32 count, u64 entries,
//            u8 present[count], u8 cell_counts[present x beta],
//            u8 ranks[entries], i64 times[entries] — the chunk's slice of
//            the SketchArena's own arrays (SketchArena::ContiguousRange);
//   frame k (version 2, still read): u64 first_node, u32 count, then per
//            node u8 present [+ VersionedHll::Serialize blob].
// Chunks cover [0, num_nodes) in order, kChunkSize nodes each, so a dropped
// frame loses exactly one known slice of nodes.
constexpr uint32_t kIndexFileType = 0x58444949;  // "IIDX" little-endian
constexpr uint32_t kIndexFormatVersion = 3;
constexpr uint32_t kIndexFormatVersionV2 = 2;
constexpr uint32_t kChunkSize = 256;

// Pre-safe_io format (version 1): raw "IPINIDX1" header + body, written
// in place. Still readable for backward compatibility.
constexpr char kLegacyMagic[8] = {'I', 'P', 'I', 'N', 'I', 'D', 'X', '1'};

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
  return header->window >= 1 && header->precision >= 4 &&
         header->precision <= 18 && header->chunk_size >= 1;
}

// The smallest chunk frame: safe_io's 12-byte frame header plus the chunk's
// u64 first_node and u32 count (a version-3 chunk is longer still).
constexpr uint64_t kChunkPrefixBytes = sizeof(uint64_t) + sizeof(uint32_t);
constexpr uint64_t kMinChunkFrameBytes = 12 + kChunkPrefixBytes;
// A version-3 chunk's fixed prefix: first_node, count, entries.
constexpr size_t kChunkV3PrefixBytes = kChunkPrefixBytes + sizeof(uint64_t);
// Bytes per stored pair in a version-3 chunk: u8 rank + i64 time.
constexpr size_t kPairBytes = sizeof(uint8_t) + sizeof(int64_t);

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

// Reads one cell of a VersionedHll::Serialize blob at *offset: u32 count,
// then count x (u8 rank, i64 time). Copies the pairs to ranks[]/times[]
// when `ranks` is non-null. Returns the count, or -1 on truncation or a
// count above 64 (the vHLL bound) or `room`.
int ReadCell(std::string_view data, size_t* offset, uint8_t* ranks,
             int64_t* times, size_t room) {
  uint32_t count = 0;
  if (!ReadRaw(data, offset, &count) || count > 64 || count > room ||
      (data.size() - *offset) / kPairBytes < count) {
    return -1;
  }
  if (ranks != nullptr) {
    const char* pair = data.data() + *offset;
    for (uint32_t i = 0; i < count; ++i, pair += kPairBytes) {
      ranks[i] = static_cast<uint8_t>(pair[0]);
      std::memcpy(&times[i], pair + 1, sizeof(int64_t));
    }
  }
  *offset += count * kPairBytes;
  return static_cast<int>(count);
}

// The per-node parser shared by the version-2 framed and legacy loaders.
// Reads one node record at *offset — u8 present [+ VersionedHll::Serialize
// blob with the index's precision and salt] — in one of two modes:
//   measure (arena == nullptr): checks the record's framing and adds its
//       sketch and pairs to *measured;
//   parse: appends the sketch to `arena` as node `u`, every vHLL invariant
//       checked by SketchArena::AppendNode.
// False on truncation or any mismatch.
bool ParseNode(std::string_view data, size_t* offset, uint8_t precision,
               uint64_t salt, NodeId u, SketchArena* arena,
               SketchArena::Capacity* measured) {
  uint8_t present = 0;
  if (!ReadRaw(data, offset, &present)) return false;
  if (present == 0) return true;
  uint8_t blob_version = 0;
  uint8_t blob_precision = 0;
  uint64_t blob_salt = 0;
  if (!ReadRaw(data, offset, &blob_version) ||
      blob_version != VersionedHll::kFormatVersion ||
      !ReadRaw(data, offset, &blob_precision) || blob_precision != precision ||
      !ReadRaw(data, offset, &blob_salt) || blob_salt != salt) {
    return false;
  }
  if (arena != nullptr) {
    return arena->AppendNode(
        u, [&](size_t, uint8_t* ranks, int64_t* times, size_t room) {
          return ReadCell(data, offset, ranks, times, room);
        });
  }
  const size_t beta = size_t{1} << precision;
  size_t entries = 0;
  for (size_t c = 0; c < beta; ++c) {
    const int n = ReadCell(data, offset, nullptr, nullptr, 64);
    if (n < 0) return false;
    entries += static_cast<size_t>(n);
  }
  ++measured->sketches;
  measured->entries += entries;
  return true;
}

// One CRC-verified chunk frame whose framing checked out. For version 3
// the four sections are views into the payload.
struct MeasuredChunk {
  size_t section = 0;
  std::string_view payload;
  uint64_t first_node = 0;
  uint32_t count = 0;
  std::span<const uint8_t> present, cell_counts, ranks, time_bytes;
};

// True if a chunk starting at `first_node` with `count` nodes is the one
// the documented order puts at frame `section`: it starts at node
// section * chunk_size and covers its whole slice, so no node can be placed
// twice.
bool ChunkInPlace(const IndexHeader& header, size_t section,
                  uint64_t first_node, uint32_t count) {
  const uint64_t want_first = section * uint64_t{header.chunk_size};
  return first_node == want_first &&
         count == std::min<uint64_t>(header.chunk_size,
                                     header.num_nodes - first_node);
}

// Version 2: checks that frame `section` is in place and measures its
// nodes into *measured. False (nothing added) if the chunk is misplaced or
// any record is malformed.
bool MeasureChunkV2(std::string_view payload, const IndexHeader& header,
                    size_t section, MeasuredChunk* chunk,
                    SketchArena::Capacity* measured) {
  size_t offset = 0;
  uint64_t first_node = 0;
  uint32_t count = 0;
  if (!ReadRaw(payload, &offset, &first_node) ||
      !ReadRaw(payload, &offset, &count) ||
      !ChunkInPlace(header, section, first_node, count)) {
    return false;
  }
  SketchArena::Capacity sizes;
  for (uint64_t u = first_node; u < first_node + count; ++u) {
    if (!ParseNode(payload, &offset, header.precision, header.salt,
                   static_cast<NodeId>(u), nullptr, &sizes)) {
      return false;
    }
  }
  if (offset != payload.size()) return false;
  *chunk = {section, payload, first_node, count, {}, {}, {}, {}};
  measured->sketches += sizes.sketches;
  measured->entries += sizes.entries;
  return true;
}

// Version 3: measuring is arithmetic. The chunk must be in place, every
// present byte 0 or 1, and the payload exactly
// 20 + count + present x beta + 9 x entries bytes; the sections are then
// cut out of it. The contents are checked when they are appended.
bool MeasureChunkV3(std::string_view payload, const IndexHeader& header,
                    size_t section, MeasuredChunk* chunk,
                    SketchArena::Capacity* measured) {
  size_t offset = 0;
  uint64_t first_node = 0;
  uint32_t count = 0;
  uint64_t entries = 0;
  if (!ReadRaw(payload, &offset, &first_node) ||
      !ReadRaw(payload, &offset, &count) ||
      !ReadRaw(payload, &offset, &entries) ||
      !ChunkInPlace(header, section, first_node, count) ||
      payload.size() - offset < count) {
    return false;
  }
  const auto* bytes = reinterpret_cast<const uint8_t*>(payload.data());
  const std::span<const uint8_t> present(bytes + offset, count);
  uint8_t flags = 0;
  size_t sketches = 0;
  for (const uint8_t p : present) {
    flags |= p;
    sketches += p;
  }
  if (flags > 1) return false;
  offset += count;
  const size_t beta = size_t{1} << header.precision;
  const size_t rest = payload.size() - offset;
  if (entries > rest / kPairBytes ||
      rest != sketches * beta + entries * kPairBytes) {
    return false;
  }
  const size_t counts_bytes = sketches * beta;
  const size_t num_entries = static_cast<size_t>(entries);
  chunk->section = section;
  chunk->payload = payload;
  chunk->first_node = first_node;
  chunk->count = count;
  chunk->present = present;
  chunk->cell_counts = {bytes + offset, counts_bytes};
  chunk->ranks = {bytes + offset + counts_bytes, num_entries};
  chunk->time_bytes = {bytes + offset + counts_bytes + num_entries,
                       num_entries * sizeof(int64_t)};
  measured->sketches += sketches;
  measured->entries += num_entries;
  return true;
}

// Appends a measured version-2 chunk's nodes to `arena`. On any failure the
// chunk's appends are rolled back, so a dropped section loses exactly its
// slice.
bool ParseChunkV2(const MeasuredChunk& chunk, const IndexHeader& header,
                  SketchArena* arena) {
  const size_t mark = arena->NumAllocated();
  const NodeId first = static_cast<NodeId>(chunk.first_node);
  const NodeId end = static_cast<NodeId>(chunk.first_node + chunk.count);
  size_t offset = kChunkPrefixBytes;
  for (NodeId u = first; u < end; ++u) {
    if (!ParseNode(chunk.payload, &offset, header.precision, header.salt, u,
                   arena, nullptr)) {
      arena->RollBack(mark, first, end);
      return false;
    }
  }
  return true;
}

// Appends a measured chunk of either version; false (nothing appended) if
// its contents break an invariant.
bool AppendChunk(const MeasuredChunk& chunk, const IndexHeader& header,
                 uint32_t version, SketchArena* arena) {
  if (version == kIndexFormatVersionV2) {
    return ParseChunkV2(chunk, header, arena);
  }
  return arena->AppendNodes(static_cast<NodeId>(chunk.first_node),
                            chunk.present, chunk.cell_counts, chunk.ranks,
                            chunk.time_bytes);
}

// Writes the version-3 payload of `count` nodes — arena nodes
// [local_first, local_first + count), stored as `range` — that the file
// numbers from `first_node`, into *buffer (grown, never shrunk). Returns
// the payload's length.
size_t EncodeChunk(const SketchArena& arena, NodeId local_first,
                   uint64_t first_node, uint32_t count,
                   const SketchArena::NodeRange& range, std::string* buffer) {
  const uint64_t entries = range.ranks.size();
  const size_t size = kChunkV3PrefixBytes + count + range.cell_counts.size() +
                      range.ranks.size() + range.times.size_bytes();
  if (buffer->size() < size) buffer->resize(size);
  char* out = buffer->data();
  const auto put = [&out](const void* data, size_t n) {
    if (n != 0) std::memcpy(out, data, n);
    out += n;
  };
  put(&first_node, sizeof(first_node));
  put(&count, sizeof(count));
  put(&entries, sizeof(entries));
  for (uint32_t i = 0; i < count; ++i) {
    *out++ = arena.has_node(local_first + i) ? 1 : 0;
  }
  put(range.cell_counts.data(), range.cell_counts.size());
  put(range.ranks.data(), range.ranks.size());
  put(range.times.data(), range.times.size_bytes());
  return size;
}

bool HasLegacyMagic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kLegacyMagic)];
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kLegacyMagic, sizeof(kLegacyMagic)) == 0;
}

// Loads the pre-safe_io in-place format: no per-section checksums, so any
// damage makes the whole file unusable (all-or-nothing). Measures every
// node record first, then parses into an arena sized once.
IndexLoadResult LoadLegacyIndex(const std::string& path) {
  IndexLoadResult result;
  std::string buffer;
  if (!ReadWholeFile(path, &buffer)) {
    LogError("cannot open index file: " + path);
    result.status = IndexLoadStatus::kMissing;
    return result;
  }
  const obs::ScopedMemoryCharge charge(OracleIoMemTally(), buffer.capacity());
  IPIN_COUNTER_ADD("robustness.index.legacy_loads", 1);

  size_t offset = sizeof(kLegacyMagic);
  int64_t window = 0;
  uint8_t precision = 0;
  uint64_t salt = 0;
  uint64_t num_nodes = 0;
  if (!ReadRaw<int64_t>(buffer, &offset, &window) ||
      !ReadRaw<uint8_t>(buffer, &offset, &precision) ||
      !ReadRaw<uint64_t>(buffer, &offset, &salt) ||
      !ReadRaw<uint64_t>(buffer, &offset, &num_nodes)) {
    LogError("truncated index header: " + path);
    result.status = IndexLoadStatus::kTruncated;
    return result;
  }
  // Every node record is at least its `present` byte.
  if (window < 1 || precision < 4 || precision > 18 ||
      num_nodes > buffer.size() - offset || num_nodes >= kInvalidNode) {
    LogError("corrupt index header: " + path);
    result.status = IndexLoadStatus::kCorrupt;
    return result;
  }

  const size_t body = offset;
  SketchArena::Capacity capacity;
  for (uint64_t u = 0; u < num_nodes; ++u) {
    const bool at_end = offset == buffer.size();
    if (!ParseNode(buffer, &offset, precision, salt, static_cast<NodeId>(u),
                   nullptr, &capacity)) {
      LogError(std::string(at_end ? "truncated index body: "
                                  : "corrupt sketch in index file: ") +
               path);
      result.status =
          at_end ? IndexLoadStatus::kTruncated : IndexLoadStatus::kCorrupt;
      return result;
    }
  }
  SketchArena arena(precision, salt, num_nodes, capacity);
  offset = body;
  for (uint64_t u = 0; u < num_nodes; ++u) {
    if (!ParseNode(buffer, &offset, precision, salt, static_cast<NodeId>(u),
                   &arena, nullptr)) {
      LogError("corrupt sketch in index file: " + path);
      result.status = IndexLoadStatus::kCorrupt;
      return result;
    }
  }

  IrsApproxOptions options;
  options.precision = precision;
  options.salt = salt;
  result.index.emplace(window, options, std::move(arena));
  result.status = IndexLoadStatus::kOk;
  return result;
}

}  // namespace

bool SaveInfluenceIndex(const IrsApprox& index, const std::string& path) {
  if (IPIN_FAILPOINT("oracle_io.save").fail) {
    LogError("oracle_io: injected save failure for " + path);
    return false;
  }
  SafeFileWriter writer(path, kIndexFileType, kIndexFormatVersion);

  const int precision = index.options().precision;
  const uint64_t salt = index.options().salt;
  std::string header;
  AppendRaw<int64_t>(&header, index.window());
  AppendRaw<uint8_t>(&header, static_cast<uint8_t>(precision));
  AppendRaw<uint64_t>(&header, salt);
  AppendRaw<uint64_t>(&header, index.num_nodes());
  AppendRaw<uint32_t>(&header, kChunkSize);
  if (!writer.AppendFrame(header)) return false;

  std::string chunk;
  obs::ScopedMemoryCharge charge(OracleIoMemTally(), chunk.capacity());
  const SketchArena* arena = index.arena();
  for (uint64_t first = 0; first < index.num_nodes(); first += kChunkSize) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(kChunkSize, index.num_nodes() - first));
    const NodeId lo = static_cast<NodeId>(first);
    const NodeId hi = static_cast<NodeId>(first + count);
    std::optional<SketchArena::NodeRange> range;
    if (arena != nullptr) range = arena->ContiguousRange(lo, hi);
    size_t size = 0;
    if (range.has_value()) {
      size = EncodeChunk(*arena, lo, first, count, *range, &chunk);
    } else {
      // Unsealed sketches (or an arena filled out of node order): pack the
      // chunk into a scratch arena first, so one encoder writes every file.
      SketchArena::Capacity capacity;
      for (NodeId u = lo; u < hi; ++u) {
        if (const SketchView sketch = index.Sketch(u)) {
          ++capacity.sketches;
          capacity.entries += sketch.NumEntries();
        }
      }
      SketchArena scratch(precision, salt, count, capacity);
      for (NodeId u = lo; u < hi; ++u) {
        if (const SketchView sketch = index.Sketch(u)) {
          scratch.AppendCopy(u - lo, sketch);
        }
      }
      size = EncodeChunk(scratch, 0, first, count,
                         *scratch.ContiguousRange(0, count), &chunk);
    }
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

IndexLoadResult LoadInfluenceIndexDetailed(const std::string& path) {
  IndexLoadResult result;
  if (IPIN_FAILPOINT("oracle_io.load").fail) {
    LogError("oracle_io: injected load failure for " + path);
    return result;  // kMissing
  }

  SafeFileReader reader;
  const SafeOpenStatus open_status = reader.Open(path, kIndexFileType);
  if (open_status != SafeOpenStatus::kOk) {
    if (open_status == SafeOpenStatus::kCorrupt && HasLegacyMagic(path)) {
      return LoadLegacyIndex(path);
    }
    switch (open_status) {
      case SafeOpenStatus::kMissing:
        LogError("cannot open index file: " + path);
        result.status = IndexLoadStatus::kMissing;
        break;
      case SafeOpenStatus::kTruncated:
        LogError("index file truncated before header: " + path);
        result.status = IndexLoadStatus::kTruncated;
        break;
      default:
        LogError("index file header corrupt: " + path);
        result.status = IndexLoadStatus::kCorrupt;
        break;
    }
    return result;
  }

  const uint32_t version = reader.version();
  if (version != kIndexFormatVersion && version != kIndexFormatVersionV2) {
    LogError(StrFormat("index %s: unknown format version %u", path.c_str(),
                       version));
    result.status = IndexLoadStatus::kCorrupt;
    return result;
  }

  // The reader holds the whole file for the duration of the load.
  const obs::ScopedMemoryCharge charge(OracleIoMemTally(), reader.file_size());
  std::string_view payload;
  const FrameStatus header_status = reader.ReadFrame(&payload);
  IndexHeader header;
  if (header_status != FrameStatus::kOk || !ParseIndexHeader(payload, &header)) {
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

  // Pass 1: verify every frame and measure the chunks, so the arena is
  // sized once.
  const auto measure_chunk =
      version == kIndexFormatVersionV2 ? &MeasureChunkV2 : &MeasureChunkV3;
  result.sections_total = static_cast<size_t>(header.num_sections());
  std::vector<MeasuredChunk> chunks;
  chunks.reserve(result.sections_total);
  SketchArena::Capacity capacity;
  size_t sections_read = 0;
  while (sections_read < result.sections_total) {
    const FrameStatus status = reader.ReadFrame(&payload);
    if (status == FrameStatus::kOk) {
      MeasuredChunk chunk;
      if (measure_chunk(payload, header, sections_read, &chunk, &capacity)) {
        chunks.push_back(chunk);
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
    // Truncation, an untrustworthy frame header, or a premature clean EOF:
    // every section not yet seen is unreachable.
    result.sections_dropped += result.sections_total - sections_read;
    LogWarning(StrFormat("index %s: %zu trailing section(s) unreachable",
                         path.c_str(), result.sections_total - sections_read));
    break;
  }

  // Pass 2: append each measured chunk straight into the arena.
  SketchArena arena(header.precision, header.salt, header.num_nodes,
                    capacity);
  for (const MeasuredChunk& chunk : chunks) {
    if (!AppendChunk(chunk, header, version, &arena)) {
      ++result.sections_dropped;
      LogWarning(StrFormat("index %s: section %zu unparsable, dropped",
                           path.c_str(), chunk.section));
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

std::optional<IrsApprox> LoadInfluenceIndex(const std::string& path) {
  IndexLoadResult result = LoadInfluenceIndexDetailed(path);
  if (result.status == IndexLoadStatus::kDegraded) {
    LogWarning(StrFormat(
        "index %s loaded DEGRADED: %zu of %zu sections dropped", path.c_str(),
        result.sections_dropped, result.sections_total));
  }
  return std::move(result.index);
}

}  // namespace ipin
