#include "ipin/core/oracle_io.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"
#include "ipin/common/timer.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace.h"
#include "ipin/sketch/part_store.h"

namespace ipin {
namespace {

// Serialization buffers charge the "oracle_io" tally so index save/load
// peaks show up in the mem.oracle_io.* gauges.
obs::MemoryTally& OracleIoMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("oracle_io");
  return tally;
}

// Framed (safe_io) format: file type tag "IIDX", version 6.
//   frame 0: i64 window, u8 precision, u64 salt, u64 num_nodes,
//            u32 chunk_size, u64 present (the rows the file holds)
//   frame k: the chunk of nodes [(k - 1) * chunk_size, k * chunk_size):
//            u64 first_node, u32 count, u8 present[count],
//            u32 entries[present], then for each present node, in node
//            order, its max-rank row in one of two forms:
//              packed: u8 base (the row's least rank), u8 nibbles[beta / 2]
//                      (cell 2j's rank - base in byte j's low half, cell
//                      2j + 1's in its high half);
//              raw:    u8 kRawRow, u8 ranks[beta] — only for a row whose
//                      ranks span more than 15.
// Chunks cover [0, num_nodes) in order, kChunkSize nodes each, so a dropped
// frame loses exactly one known slice of nodes.
constexpr uint32_t kIndexFileType = 0x58444949;  // "IIDX" little-endian
constexpr uint32_t kIndexFormatVersion = 6;
constexpr uint32_t kChunkSize = 256;
// The base byte of a raw row. No rank reaches it (VhllMaxRank < 64).
constexpr uint8_t kRawRow = 0xff;

struct IndexHeader {
  int64_t window = 0;
  uint8_t precision = 0;
  uint64_t salt = 0;
  uint64_t num_nodes = 0;
  uint32_t chunk_size = 0;
  uint64_t present = 0;

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
      !ReadRaw(payload, &offset, &header->chunk_size) ||
      !ReadRaw(payload, &offset, &header->present)) {
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

// The least a present row costs in a chunk: its present flag, its entry
// count, and a packed row (a base byte and beta / 2 bytes of nibbles).
size_t MinRowBytes(size_t beta) { return 1 + sizeof(uint32_t) + 1 + beta / 2; }

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

// The rows the arena reserves: the header's present count, bounded by the
// nodes and by the rows the `remaining` file bytes can hold. A cut or torn
// file holds fewer rows than its header says, and a forged count sizes no
// more than the file could fill; a chunk whose rows overflow the
// reservation fails to place (SketchArena::Append) and is dropped.
size_t ArenaSlots(const IndexHeader& header, size_t remaining) {
  const size_t beta = size_t{1} << header.precision;
  return static_cast<size_t>(std::min<uint64_t>(
      {header.present, header.num_nodes, remaining / MinRowBytes(beta)}));
}

// Writes `row` (beta ranks) at `out` in its file form, packed if its ranks
// span at most 15, else raw. Returns the bytes written.
size_t EncodeRow(std::span<const uint8_t> row, uint8_t* out) {
  uint8_t lo = kRawRow;
  uint8_t hi = 0;
  for (const uint8_t r : row) {
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  if (hi - lo > 15) {
    out[0] = kRawRow;
    std::memcpy(out + 1, row.data(), row.size());
    return 1 + row.size();
  }
  out[0] = lo;
  for (size_t j = 0; j < row.size() / 2; ++j) {
    out[1 + j] = static_cast<uint8_t>((row[2 * j] - lo) |
                                      ((row[2 * j + 1] - lo) << 4));
  }
  return 1 + row.size() / 2;
}

// Writes the chunk of nodes [first, first + count) of `index` into *buffer
// (grown, never shrunk). Returns the payload's length.
size_t EncodeChunk(const IrsApprox& index, uint64_t first, uint32_t count,
                   std::string* buffer) {
  const SketchArena& arena = *index.arena();
  const size_t beta = arena.num_cells();
  const NodeId lo = static_cast<NodeId>(first);
  size_t present = 0;
  for (NodeId u = lo; u < lo + count; ++u) present += arena.has_node(u);
  // Room for every row raw; packed rows use about half of theirs.
  const size_t most =
      kChunkPrefixBytes + count + present * (sizeof(uint32_t) + 1 + beta);
  if (buffer->size() < most) buffer->resize(most);
  auto* out = reinterpret_cast<uint8_t*>(buffer->data());
  std::memcpy(out, &first, sizeof(first));
  std::memcpy(out + sizeof(first), &count, sizeof(count));
  uint8_t* flags = out + kChunkPrefixBytes;
  uint8_t* entries = flags + count;
  uint8_t* rows = entries + present * sizeof(uint32_t);
  for (uint32_t i = 0; i < count; ++i) {
    const NodeId u = lo + i;
    flags[i] = arena.has_node(u) ? 1 : 0;
    if (!arena.has_node(u)) continue;
    const auto n = static_cast<uint32_t>(arena.NodeNumEntries(u));
    std::memcpy(entries, &n, sizeof(n));
    entries += sizeof(n);
    rows += EncodeRow(arena.rank_row(u), rows);
  }
  return static_cast<size_t>(rows - out);
}

// A chunk frame cut into its sections: present flags, entry counts and
// rows, views into the reader's frame buffer.
struct Chunk {
  uint64_t first_node = 0;
  uint32_t count = 0;
  const uint8_t* present = nullptr;
  const uint8_t* entries = nullptr;
  const uint8_t* rows = nullptr;
  const uint8_t* end = nullptr;  // one past the payload's last byte
};

// Measuring is arithmetic: the chunk must cover exactly [first, first +
// count), every present byte be 0 or 1, and the payload hold at least
// the entry counts and a packed row for each present node. Whether the rows
// fill the rest exactly is known once PlaceChunk has walked them.
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
  // The present flags are read; each row still costs the rest.
  if (flags > 1 ||
      sketches > (payload.size() - offset) / (MinRowBytes(beta) - 1)) {
    return false;
  }
  *chunk = {first,
            count,
            present,
            bytes + offset,
            bytes + offset + sketches * sizeof(uint32_t),
            bytes + payload.size()};
  return true;
}

// Decodes the chunk's rows into `arena`, each into its slot and checked
// (SketchArena::Append, AppendUnpacked). A packed row's base must be a rank
// a sketch can hold, and the rows must end exactly at the payload's end.
// False, with nothing appended, if any check fails.
bool PlaceChunk(const Chunk& chunk, SketchArena* arena) {
  const size_t beta = arena->num_cells();
  const auto max_rank = static_cast<uint8_t>(VhllMaxRank(arena->precision()));
  const NodeId first = static_cast<NodeId>(chunk.first_node);
  const size_t mark = arena->NumAllocated();
  const uint8_t* entries = chunk.entries;
  const uint8_t* row = chunk.rows;
  for (uint32_t i = 0; i < chunk.count; ++i) {
    if (chunk.present[i] == 0) continue;
    uint32_t n = 0;
    std::memcpy(&n, entries, sizeof(n));
    entries += sizeof(n);
    const size_t left = static_cast<size_t>(chunk.end - row);
    const bool raw = left > 0 && row[0] == kRawRow;
    const size_t size = 1 + (raw ? beta : beta / 2);
    const bool placed =
        left >= size &&
        (raw ? arena->Append(first + i, {row + 1, beta}, n)
             : row[0] <= max_rank &&
                   arena->AppendUnpacked(first + i, row + 1, row[0], n));
    if (!placed) {
      arena->RollBack(mark, first, first + chunk.count);
      return false;
    }
    row += size;
  }
  if (row != chunk.end) {
    arena->RollBack(mark, first, first + chunk.count);
    return false;
  }
  return true;
}

}  // namespace

bool SaveInfluenceIndex(const IrsApprox& index, const std::string& path) {
  if (IPIN_FAILPOINT("oracle_io.save").fail) {
    LogError("oracle_io: injected save failure for " + path);
    return false;
  }
  IPIN_TRACE_SPAN("index.save");
  SafeFileWriter writer(path, kIndexFileType, kIndexFormatVersion);

  std::string header;
  AppendRaw<int64_t>(&header, index.window());
  AppendRaw<uint8_t>(&header, static_cast<uint8_t>(index.options().precision));
  AppendRaw<uint64_t>(&header, index.options().salt);
  AppendRaw<uint64_t>(&header, index.num_nodes());
  AppendRaw<uint32_t>(&header, kChunkSize);
  AppendRaw<uint64_t>(&header, index.arena()->NumAllocated());
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
    IPIN_TRACE_SPAN("index.load.open");
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

  // The frame buffer is charged here as it grows; the reader frees it when
  // the load returns.
  obs::ScopedMemoryCharge charge(OracleIoMemTally(), 0);
  IndexHeader header;
  std::string_view payload;
  const FrameStatus header_status = reader.ReadFrame(&payload);
  charge.Resize(reader.buffer_bytes());
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
  // Frame k covers the whole slice starting at node (k - 1) * chunk_size.
  const auto chunk_count = [&header](size_t section) {
    const uint64_t first = section * uint64_t{header.chunk_size};
    return static_cast<uint32_t>(
        std::min<uint64_t>(header.chunk_size, header.num_nodes - first));
  };

  // One pass: read, verify, measure and place each chunk in turn. A chunk
  // counts only at its documented place, so no node can be placed twice.
  SketchArena arena(header.precision, header.salt, header.num_nodes,
                    ArenaSlots(header, reader.remaining()));
  {
    IPIN_TRACE_SPAN("index.load.place");
    size_t sections_read = 0;
    while (sections_read < result.sections_total) {
      const FrameStatus status = reader.ReadFrame(&payload);
      charge.Resize(reader.buffer_bytes());
      if (status == FrameStatus::kOk) {
        const uint64_t first = sections_read * uint64_t{header.chunk_size};
        Chunk chunk;
        if (!MeasureChunk(payload, beta, first, chunk_count(sections_read),
                          &chunk)) {
          ++result.sections_dropped;
          LogWarning(StrFormat("index %s: section %zu unparsable, dropped",
                               path.c_str(), sections_read));
        } else if (!PlaceChunk(chunk, &arena)) {
          ++result.sections_dropped;
          LogWarning(StrFormat("index %s: section %zu fails its checks, "
                               "dropped",
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
