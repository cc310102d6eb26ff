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
// Since the crash-safety work the index is written through common/safe_io:
// atomically (temp file + fsync + rename) and framed, with one CRC32C-
// protected section per chunk of nodes. A damaged file therefore degrades
// instead of vanishing: every chunk whose checksum verifies is loaded, the
// rest are dropped and reported (robustness.index.* metrics, log warnings).
// Files written by the pre-safe_io format ("IPINIDX1") are still readable.
//
// Restore builds the served form directly: the file is read with one
// sized read, every frame is verified (slicing-by-8 CRC32C) and measured,
// and each node's bytes are parsed straight into a SketchArena sized once.
// No VersionedHll is constructed and nothing is sealed at restore.

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

/// Writes the index to `path` atomically in the framed safe_io format.
/// Returns false on I/O error (the previous file at `path`, if any, is left
/// intact). Failpoints: oracle_io.save, oracle_io.write.short.
bool SaveInfluenceIndex(const IrsApprox& index, const std::string& path);

/// Reads an index written by SaveInfluenceIndex (either format), reporting
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
