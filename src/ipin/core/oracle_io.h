#ifndef IPIN_CORE_ORACLE_IO_H_
#define IPIN_CORE_ORACLE_IO_H_

#include <cstddef>
#include <optional>
#include <string>

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
// The file (type "IIDX", version 6) holds what every query reads: each
// sketch's max-rank registers. A header section (window, precision, salt,
// num_nodes, chunk_size, and the count of present rows), then one chunk
// per 256 nodes: a present flag per node, then for each present node its
// entry count (the (rank, time) pairs its build sketch held), then each
// present node's max-rank row in one of two forms:
//
//   packed  u8 base, u8 nibbles[beta / 2]: base is the row's least rank
//           (0 if any cell is empty), and each cell holds rank - base in
//           4 bits, cell 2j in byte j's low half;
//   raw     u8 0xff, u8 ranks[beta]: only for a row whose ranks span more
//           than 15.
//
// A rank never exceeds VhllMaxRank <= 61, and rows are geometric: on the
// benchmark indexes no rank is above 14 and every row packs, and on
// ladder-scale indexes (enron 1.0, us2016 0.05 at beta 512) the top rank is
// 18-19 and 0.05-0.19% of rows are raw. So a row costs 1 + beta / 2 bytes,
// about half its one byte per cell in the arena (the layout of Apache
// DataSketches' HLL_4, without its exception list). No (rank, time) list
// is stored, and no time. Save writes each node's arena row and entry
// count, with or without a build store. Restore streams: the header's
// present count, bounded by the rows the file's bytes could hold, sizes
// the arena; then it reads one frame at a time into the reader's one
// buffer, verifies it, checks the chunk and decodes its rows straight into
// an owned rank plane (SketchArena::AppendUnpacked, the dispatched
// unpack_row kernel, or SketchArena::Append for a raw row), each checked
// once written. No more than one frame of the file is held at a time. A
// chunk out of place or failing any check — a present byte other than 0 or
// 1, rows that do not end at the payload's end, a packed base above
// VersionedHll::MaxRank, a rank above it, or an entry count outside
// [non-zero cells, sum of the row] — is dropped whole, and so is a chunk
// whose rows overflow the arena. No VersionedHll is constructed at
// restore. Each load's wall time lands in the robustness.index.load_ms
// histogram, its stages in the index.load.open and index.load.place trace
// spans, and each save in the index.save span.
//
// Files of versions 1 to 5 (per-node sketch blobs, then the arena's cell
// lists, then one byte per register) are no longer read: they load as
// kCorrupt, and the index is rebuilt from its interaction log.

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

/// Writes the index's arena to `path` atomically, in the version-6
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

}  // namespace ipin

#endif  // IPIN_CORE_ORACLE_IO_H_
