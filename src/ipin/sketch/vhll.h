#ifndef IPIN_SKETCH_VHLL_H_
#define IPIN_SKETCH_VHLL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"

namespace ipin {

/// Byte tally charged for every vHLL cell-list allocation (component
/// "vhll"); published as the mem.vhll.* gauges.
obs::MemoryTally& VhllMemTally();

/// Versioned HyperLogLog sketch (Section 3.2.2 of the paper).
///
/// Each of the beta = 2^precision cells stores a short list of
/// (rank, timestamp) pairs instead of a single max rank, so the sketch can
/// answer "max rank among items whose timestamp is below a bound" — exactly
/// what the window-constrained Merge of the IRS algorithm needs
/// (an entry of phi(v) with end time t_x may flow into phi(u) via an edge at
/// time t only if t_x - t < omega, i.e. t_x < t + omega).
///
/// Domination (the paper's pruning rule): (r1, t1) dominates (r2, t2) iff
/// t1 <= t2 and r1 >= r2 — an earlier, higher-rank pair makes the other one
/// useless for every possible bound. Undominated lists are therefore
/// strictly increasing in both time and rank; we keep them sorted ascending
/// by time, which makes every windowed query a prefix scan and keeps the
/// expected list length logarithmic (Lemma 4).
///
/// Note on expiry: the paper's generic sliding-window vHLL periodically
/// drops entries far ahead of the scan frontier. In the IRS application
/// those entries still belong to sigma_omega(u) (only their merge
/// eligibility has expired), so dropping them would bias Estimate(); the
/// IRS algorithm therefore never calls CompactExpired. It is provided for
/// callers that only ever issue windowed queries (EstimateBefore).
class VersionedHll {
 public:
  /// Leading byte of every Serialize encoding (layout in vhll.cc).
  static constexpr uint8_t kFormatVersion = 1;

  /// One (rank, timestamp) pair of a cell list.
  struct Entry {
    uint8_t rank = 0;
    Timestamp time = 0;
  };

  /// Cell lists charge the "vhll" MemoryTally for their allocations, so
  /// mem.vhll.bytes reports measured (allocator-counted) footprint.
  using CellList =
      std::vector<Entry, obs::TallyAllocator<Entry, &VhllMemTally>>;

  /// `precision` must be in [4, 18]; all sketches that will ever be merged
  /// must share `precision` and `salt`.
  explicit VersionedHll(int precision, uint64_t salt = 0);

  /// Inserts item observed at time `t` (hashes the item internally).
  /// Returns true if the sketch changed.
  bool Add(uint64_t item, Timestamp t);

  /// Inserts a pre-computed hash observed at time `t`. Returns true if the
  /// sketch changed.
  bool AddHash(uint64_t hash, Timestamp t);

  /// Inserts an explicit (cell, rank, time) triple, applying domination
  /// pruning (the paper's ApproxAdd). Exposed for merges and tests.
  /// Returns true if the sketch changed (entry kept).
  bool AddEntry(size_t cell, uint8_t rank, Timestamp t);

  /// The paper's ApproxMerge: folds in every entry of `other` whose time t_x
  /// satisfies t_x - merge_time < window.
  void MergeWindow(const VersionedHll& other, Timestamp merge_time,
                   Duration window);

  /// Unrestricted merge (all entries); used when unioning the final
  /// per-node sketches in the influence oracle.
  void MergeAll(const VersionedHll& other);

  /// Merge for sliding-window neighborhood profiles (Kumar et al. 2015):
  /// folds in entries of `other` with time < bound, CLAMPING each merged
  /// timestamp to at least `floor` (in the negated-time encoding this caps
  /// a path's freshness at the connecting edge's timestamp). Returns true
  /// if the sketch changed.
  bool MergeWithFloor(const VersionedHll& other, Timestamp floor,
                      Timestamp bound);

  /// Estimated number of distinct items ever inserted. O(beta): reads the
  /// per-cell max-rank cache, not the entry lists.
  double Estimate() const;

  /// Estimated number of distinct items with timestamp < `bound`.
  double EstimateBefore(Timestamp bound) const;

  /// As above, but reuses `*scratch` for the rank vector instead of
  /// allocating one per call (hot in oracle serving, where one worker
  /// answers many windowed queries back to back). `*scratch` is resized as
  /// needed; contents on entry are ignored.
  double EstimateBefore(Timestamp bound, std::vector<uint8_t>* scratch) const;

  /// Drops entries that can no longer affect any windowed query with
  /// merge_time <= frontier: entries with time >= frontier + window.
  /// WARNING: biases Estimate() downwards; see class comment.
  void CompactExpired(Timestamp frontier, Duration window);

  /// Resets to the empty sketch.
  void Clear();

  int precision() const { return precision_; }
  uint64_t salt() const { return salt_; }
  size_t num_cells() const { return cells_.size(); }

  /// Total number of stored (rank, time) pairs across all cells.
  size_t NumEntries() const;

  /// Lifetime count of AddEntry calls (before domination filtering); the
  /// ratio NumEntries()/NumInsertAttempts() measures what pruning saves.
  size_t NumInsertAttempts() const { return insert_attempts_; }

  /// Lifetime count of stored pairs evicted because a newly inserted pair
  /// dominated them (the flip side of NumInsertAttempts' rejected inserts).
  size_t NumEvictions() const { return evictions_; }

  /// Lifetime count of entries examined by MergeWindow (window-eligible
  /// pairs read from the other sketch) and of those that survived
  /// domination filtering and updated a cell. Plain tallies: the merge
  /// loop stays atomics-free and callers roll them up into the registry.
  size_t NumMergeEntriesScanned() const { return merge_entries_scanned_; }
  size_t NumCellUpdates() const { return cell_updates_; }

  /// The raw list of cell `i` (ascending time, strictly ascending rank).
  const CellList& cell(size_t i) const { return cells_[i]; }

  /// Per-cell max rank (0 for an empty cell), maintained on every mutation.
  /// Contiguous, so cellwise-max union loops (the oracle's hot path) touch
  /// one cache line per 64 cells instead of chasing every cell list.
  std::span<const uint8_t> max_ranks() const {
    return {max_ranks_.data(), max_ranks_.size()};
  }

  /// Fills `ranks` (size num_cells) with the per-cell max rank, optionally
  /// bounded: only entries with time < bound count. Used by the oracle's
  /// union-estimate fast path.
  void MaxRanks(Timestamp bound, std::vector<uint8_t>* ranks) const;

  /// Verifies the per-cell invariants (sortedness, strict domination-freeness).
  /// Test helper; O(total entries).
  bool CheckInvariants() const;

  /// Appends a self-contained binary encoding (precision, salt, cell lists)
  /// to *out. Little-endian, versioned; see vhll.cc for the layout.
  void Serialize(std::string* out) const;

  /// Reads an encoding produced by Serialize from data starting at *offset,
  /// advancing *offset past it. Returns nullopt on truncation or corruption
  /// (including invariant violations).
  static std::optional<VersionedHll> Deserialize(std::string_view data,
                                                 size_t* offset);

  /// Approximate heap footprint in bytes (vector headers + allocations).
  size_t MemoryUsageBytes() const;

 private:
  int precision_;
  uint64_t salt_;
  size_t insert_attempts_ = 0;
  size_t evictions_ = 0;
  size_t merge_entries_scanned_ = 0;
  size_t cell_updates_ = 0;
  std::vector<CellList, obs::TallyAllocator<CellList, &VhllMemTally>> cells_;
  // Cache of cells_[c].back().rank (0 when empty), kept in sync by every
  // mutating method so Estimate() and the union fast paths are O(beta).
  std::vector<uint8_t, obs::TallyAllocator<uint8_t, &VhllMemTally>> max_ranks_;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_VHLL_H_
