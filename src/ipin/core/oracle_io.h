#ifndef IPIN_CORE_ORACLE_IO_H_
#define IPIN_CORE_ORACLE_IO_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "ipin/core/irs_approx.h"

// Persistence for the sketch-based influence index: the one-pass build
// (IrsApprox::Compute) is the expensive step; saving the resulting index
// lets a deployment precompute it offline and serve influence-oracle
// queries (Section 4.1) without re-scanning the interaction log.
//
// The index is written through common/safe_io: atomically (temp file +
// fsync + rename) and framed, with one CRC32C-protected section per chunk
// of 256 nodes. A damaged file therefore degrades instead of vanishing:
// every chunk whose checksum and checks pass is loaded, the rest are
// dropped and reported (robustness.index.* metrics, log warnings).
//
// The file (type "IIDX", version 4) is the sealed SketchArena's own
// arrays: a header section (window, precision, salt, num_nodes,
// chunk_size, and the index's TimeEncoding — base time and offset width),
// then one sketch chunk per 256 nodes (EncodeSketchChunk) — the chunk's
// slices of the arena's per-cell counts, ranks and time offsets (u32 when
// the index's times span less than 2^32, u64 otherwise). The max-rank
// plane is not stored. Save bulk-copies those slices (an unsealed index is
// first packed chunk by chunk into a scratch arena in the encoding Seal()
// would choose); restore reads the file with one sized read, verifies
// every frame, measures each chunk (MeasureSketchChunk), then hands the
// file image to an arena in the header's encoding, which keeps it as its
// list storage: each chunk's slots point into the image where the chunk
// lies, and are checked there (SketchArena::AppendNodes). Only the rank
// plane is built; no list is copied. A chunk out of place or failing any
// check is dropped whole, its bytes left in the image unreferenced. No
// VersionedHll is constructed and nothing is sealed at restore. Each load's
// wall time lands in the robustness.index.load_ms histogram, and its
// stages in the index.load.read, index.load.verify and index.load.place
// trace spans.
//
// The sketch chunk is the only byte layout for a set of vHLL sketches:
// build checkpoints (checkpoint.h) store theirs the same way. Files of
// versions 1 to 3 (per-node sketch blobs; i64 times) are no longer read:
// they load as kCorrupt, and the index is rebuilt from its interaction log.

namespace ipin {

/// Outcome of LoadInfluenceIndexDetailed.
enum class IndexLoadStatus {
  kOk,         // every section verified
  kDegraded,   // index usable, but >= 1 corrupt/unreachable section dropped
  kMissing,    // file absent or unreadable
  kTruncated,  // file ends before the index header is complete
  kCorrupt,    // header fails verification, or a retired format version;
               // nothing usable
};

struct IndexLoadResult {
  IndexLoadStatus status = IndexLoadStatus::kMissing;
  /// Set for kOk and kDegraded.
  std::optional<IrsApprox> index;
  /// Section accounting: the chunk frames in the file, and those dropped.
  size_t sections_total = 0;
  size_t sections_dropped = 0;

  bool usable() const { return index.has_value(); }
};

/// Writes the index (sealed or not) to `path` atomically, in the version-4
/// framed format.
/// Returns false on I/O error (the previous file at `path`, if any, is left
/// intact). Failpoints: oracle_io.save, oracle_io.write.short.
bool SaveInfluenceIndex(const IrsApprox& index, const std::string& path);

/// Reads an index written by SaveInfluenceIndex, reporting exactly what
/// happened. Corrupt sections of a framed file are dropped: the affected
/// nodes lose their sketches (their IRS estimates become 0)
/// and the load reports kDegraded — callers decide whether degraded service
/// is acceptable. Every dropped section is counted in the
/// robustness.index.sections_dropped metric.
IndexLoadResult LoadInfluenceIndexDetailed(const std::string& path);

/// One sketch chunk: the stored form of `count` consecutive nodes
/// starting at `first_node`, as views into an encoded payload —
///   u64 first_node, u32 count, u64 entries, u8 present[count],
///   u8 cell_counts[present x beta], u8 ranks[entries],
///   time offsets[entries] (4 or 8 bytes each, per the file's TimeEncoding)
/// — i.e. a present flag per node plus the nodes' SketchArena::NodeRange.
struct SketchChunk {
  uint64_t first_node = 0;
  uint32_t count = 0;
  size_t sketches = 0;  // present sketches
  std::span<const uint8_t> present, cell_counts, ranks, time_bytes;

  /// Appends the chunk's sketches to `arena` (in the encoding the chunk
  /// was written in, and adopting the image the chunk views) as nodes
  /// [first, first + count), every vHLL invariant checked
  /// (SketchArena::AppendNodes). False, with nothing appended, if one
  /// fails.
  bool AppendTo(SketchArena* arena, NodeId first) const {
    return arena->AppendNodes(first, present, cell_counts, ranks, time_bytes);
  }
};

/// Encodes nodes [first, first + count) of `index` (sealed or not) as one
/// sketch chunk into *buffer (grown, never shrunk), its times in `times`,
/// which must hold every one (index.time_encoding() does). Returns the
/// payload's length.
size_t EncodeSketchChunk(const IrsApprox& index, const TimeEncoding& times,
                         uint64_t first, uint32_t count, std::string* buffer);

/// Measures an encoded chunk of sketches with `precision` and time offsets
/// of `time_width` bytes: it must cover exactly [first, first + count),
/// every present byte be 0 or 1, and the payload be exactly 20 + count +
/// present x beta + (1 + time_width) x entries bytes. On success *chunk
/// views into `payload`; the contents are checked by SketchChunk::AppendTo.
bool MeasureSketchChunk(std::string_view payload, int precision,
                        size_t time_width, uint64_t first, uint32_t count,
                        SketchChunk* chunk);

}  // namespace ipin

#endif  // IPIN_CORE_ORACLE_IO_H_
