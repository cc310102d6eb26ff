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
// The file (type "IIDX", version 5) holds what every query reads: each
// sketch's max-rank registers. A header section (window, precision, salt,
// num_nodes, chunk_size), then one chunk per 256 nodes: a present flag per
// node, then for each present node its entry count (the (rank, time) pairs
// its build sketch held) and its beta-byte max-rank row. No (rank, time)
// list is stored, and no time. Save writes each node's arena row and entry
// count, with or without a build store. Restore streams: it sizes the
// arena exactly from the chunk frames' headers (a chunk's length fixes its
// row count), then reads one frame at a time into the reader's one buffer,
// verifies it, checks the chunk and writes its rows once into an owned rank
// plane (SketchArena::Append). No more than one frame of the file is held
// at a time. A chunk out of place or failing any check
// — a present byte other than 0 or 1, a length that disagrees with its
// counts, a rank above VersionedHll::MaxRank, or an entry count outside
// [non-zero cells, sum of the row] — is dropped whole. No VersionedHll is
// constructed at restore. Each load's wall time lands in the
// robustness.index.load_ms histogram, and its stages in the
// index.load.open, index.load.size and index.load.place trace spans.
//
// Files of versions 1 to 4 (per-node sketch blobs, then the arena's cell
// lists) are no longer read: they load as kCorrupt, and the index is
// rebuilt from its interaction log.

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

/// Writes the index's arena to `path` atomically, in the version-5
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
