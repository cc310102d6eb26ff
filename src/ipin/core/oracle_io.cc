#include "ipin/core/oracle_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
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

// Framed (safe_io) format: file type tag "IIDX", version 2.
//   frame 0: i64 window, u8 precision, u64 salt, u64 num_nodes,
//            u32 chunk_size
//   frame k: u64 first_node (= (k - 1) * chunk_size), u32 count, then per
//            node u8 present [+ VersionedHll::Serialize blob]
// Chunks cover [0, num_nodes) in order, kChunkSize nodes each, so a dropped
// frame loses exactly one known slice of nodes.
constexpr uint32_t kIndexFileType = 0x58444949;  // "IIDX" little-endian
constexpr uint32_t kIndexFormatVersion = 2;
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
// u64 first_node and u32 count.
constexpr uint64_t kChunkPrefixBytes = sizeof(uint64_t) + sizeof(uint32_t);
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

// Reads one cell of a VersionedHll::Serialize blob at *offset: u32 count,
// then count x (u8 rank, i64 time). Copies the pairs to ranks[]/times[]
// when `ranks` is non-null. Returns the count, or -1 on truncation or a
// count above 64 (the vHLL bound) or `room`.
int ReadCell(std::string_view data, size_t* offset, uint8_t* ranks,
             int64_t* times, size_t room) {
  constexpr size_t kPairBytes = sizeof(uint8_t) + sizeof(int64_t);
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

// The per-node parser shared by the framed and legacy loaders. Reads one
// node record at *offset — u8 present [+ VersionedHll::Serialize blob with
// the index's precision and salt] — in one of two modes:
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

// One CRC-verified chunk frame whose nodes all measured cleanly.
struct MeasuredChunk {
  size_t section = 0;
  std::string_view payload;
  uint64_t first_node = 0;
  uint32_t count = 0;
};

// Checks that frame `section` is the chunk the documented order puts there
// — it starts at node section * chunk_size and covers its whole slice, so
// no node can be placed twice — and measures its nodes into *measured.
// False (nothing added) if the chunk is misplaced or any record is
// malformed.
bool MeasureChunk(std::string_view payload, const IndexHeader& header,
                  size_t section, MeasuredChunk* chunk,
                  SketchArena::Capacity* measured) {
  size_t offset = 0;
  uint64_t first_node = 0;
  uint32_t count = 0;
  if (!ReadRaw(payload, &offset, &first_node) ||
      !ReadRaw(payload, &offset, &count)) {
    return false;
  }
  const uint64_t want_first = section * uint64_t{header.chunk_size};
  if (first_node != want_first ||
      count != std::min<uint64_t>(header.chunk_size,
                                  header.num_nodes - first_node)) {
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
  *chunk = {section, payload, first_node, count};
  measured->sketches += sizes.sketches;
  measured->entries += sizes.entries;
  return true;
}

// Appends a measured chunk's nodes to `arena`. On any failure the chunk's
// appends are rolled back, so a dropped section loses exactly its slice.
bool ParseChunk(const MeasuredChunk& chunk, const IndexHeader& header,
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
    chunk.clear();
    AppendRaw<uint64_t>(&chunk, first);
    AppendRaw<uint32_t>(&chunk, count);
    for (uint64_t u = first; u < first + count; ++u) {
      const SketchView sketch = index.Sketch(static_cast<NodeId>(u));
      AppendRaw<uint8_t>(&chunk, sketch ? 1 : 0);
      if (sketch) sketch.Serialize(&chunk);
    }
    charge.Resize(chunk.capacity());
    // Torn-section injection: hand safe_io a CRC-consistent but truncated
    // payload, producing a frame that verifies yet fails to parse — the
    // "corrupt section" recovery path, distinct from a torn file.
    const auto short_write = IPIN_FAILPOINT("oracle_io.write.short");
    std::string_view payload = chunk;
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
  result.sections_total = static_cast<size_t>(header.num_sections());
  std::vector<MeasuredChunk> chunks;
  chunks.reserve(result.sections_total);
  SketchArena::Capacity capacity;
  size_t sections_read = 0;
  while (sections_read < result.sections_total) {
    const FrameStatus status = reader.ReadFrame(&payload);
    if (status == FrameStatus::kOk) {
      MeasuredChunk chunk;
      if (MeasureChunk(payload, header, sections_read, &chunk, &capacity)) {
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

  // Pass 2: parse each measured chunk straight into the arena.
  SketchArena arena(header.precision, header.salt, header.num_nodes,
                    capacity);
  for (const MeasuredChunk& chunk : chunks) {
    if (!ParseChunk(chunk, header, &arena)) {
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
