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
// The file (type "IIDX", version 3) is the sealed SketchArena's own
// arrays: a header section (window, precision, salt, num_nodes,
// chunk_size), then per chunk
//   u64 first_node, u32 count, u64 entries, u8 present[count],
//   u8 cell_counts[present x beta], u8 ranks[entries], i64 times[entries]
// — the chunk's slices of the arena's per-cell counts and rank/time
// arrays. The max-rank plane is not stored. Save bulk-copies those slices
// (an unsealed index is first packed chunk by chunk into a scratch arena);
// restore reads the file with one sized read, verifies every frame, sizes
// each chunk by arithmetic (its payload must be exactly
// 20 + count + present x beta + 9 x entries bytes), then bulk-copies each
// chunk into an arena allocated once and checks it there: counts at most
// 64 and summing to entries, ranks non-zero, and within a cell ranks
// strictly ascending and times non-descending. The rank plane is rebuilt
// on the way. A chunk out of place or failing any check is dropped whole.
// No VersionedHll is constructed and nothing is sealed at restore.
//
// Version 2 files (per-node VersionedHll::Serialize blobs in the same
// chunk frames) and the pre-safe_io format ("IPINIDX1") are still read;
// nothing writes them any more.

namespace ipin {

/// Outcome of LoadInfluenceIndexDetailed.
enum class IndexLoadStatus {
  kOk,         // every section verified
  kDegraded,   // index usable, but >= 1 corrupt/unreachable section dropped
  kMissing,    // file absent or unreadable
  kTruncated,  // file ends before the index header is complete
  kCorrupt,    // header (or legacy body) fails verification; nothing usable
};

struct IndexLoadResult {
  IndexLoadStatus status = IndexLoadStatus::kMissing;
  /// Set for kOk and kDegraded.
  std::optional<IrsApprox> index;
  /// Section accounting (new format only; legacy files are all-or-nothing).
  size_t sections_total = 0;
  size_t sections_dropped = 0;

  bool usable() const { return index.has_value(); }
};

/// Writes the index (sealed or not) to `path` atomically, in the version-3
/// framed format.
/// Returns false on I/O error (the previous file at `path`, if any, is left
/// intact). Failpoints: oracle_io.save, oracle_io.write.short.
bool SaveInfluenceIndex(const IrsApprox& index, const std::string& path);

/// Reads an index written by SaveInfluenceIndex (any format), reporting
/// exactly what happened. Corrupt sections of a framed file are dropped:
/// the affected nodes lose their sketches (their IRS estimates become 0)
/// and the load reports kDegraded — callers decide whether degraded service
/// is acceptable. Every dropped section is counted in the
/// robustness.index.sections_dropped metric.
IndexLoadResult LoadInfluenceIndexDetailed(const std::string& path);

/// Compatibility wrapper: the index from any usable load (kOk or kDegraded,
/// the latter logged as a warning), nullopt otherwise.
std::optional<IrsApprox> LoadInfluenceIndex(const std::string& path);

}  // namespace ipin

#endif  // IPIN_CORE_ORACLE_IO_H_
