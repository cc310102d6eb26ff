#ifndef IPIN_SKETCH_VHLL_H_
#define IPIN_SKETCH_VHLL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"

namespace ipin {

/// Byte tally charged for every vHLL allocation (cell heads, entry pool,
/// max-rank cache; component "vhll"); published as the mem.vhll.* gauges.
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
///
/// Storage: one pooled entry buffer per sketch, not one heap vector per
/// cell. `pool_` holds every cell's entries; `heads_[c]` gives the offset,
/// length and capacity of cell c's block. Block capacities are powers of
/// two from 1 to 64 (a list never exceeds 64 entries: ranks are distinct
/// and at most 64 - precision + 1). A full cell moves to a block twice its
/// size, taken from the free list of that size class or, when the list is
/// empty, appended to the end of the pool; the old block goes onto its
/// own class's free list, linked through its first entry's time field.
/// Blocks never shrink and the pool never compacts, so a sketch's
/// footprint is its pool capacity — free-listed blocks included — plus
/// the two beta-sized arrays; MemoryUsageBytes() reports exactly that.
/// A sketch owns three heap buffers instead of beta + 2, which is what
/// makes the build scan and freeing the sketches at Seal() cheap.
class VersionedHll {
 public:
  /// One (rank, timestamp) pair of a cell list.
  struct Entry {
    uint8_t rank = 0;
    Timestamp time = 0;
  };

  /// Read-only view of one cell's entries inside the sketch's pool. Valid
  /// until the next mutation of the sketch.
  using CellList = std::span<const Entry>;

  /// Longest possible cell list, and the largest block size class.
  static constexpr size_t kMaxCellEntries = 64;

  /// `precision` must be in [4, 18]; all sketches that will ever be merged
  /// must share `precision` and `salt`.
  explicit VersionedHll(int precision, uint64_t salt = 0);

  /// A sketch holding the given cell lists, in the stored form of a
  /// SketchArena node (its NodeRange): `cell_counts` (one per cell) cut
  /// `ranks` and the parallel `times` into lists in cell order. The lists
  /// must already satisfy the vHLL invariants, as an arena's checked ones
  /// do; the sizes are checked. Each cell gets the smallest block that
  /// holds it. Lifetime tallies start at zero.
  VersionedHll(int precision, uint64_t salt,
               std::span<const uint8_t> cell_counts,
               std::span<const uint8_t> ranks,
               std::span<const int64_t> times);

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
  size_t num_cells() const { return heads_.size(); }

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
  CellList cell(size_t i) const {
    return {pool_.data() + heads_[i].offset, heads_[i].len};
  }

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

  /// Heap footprint in bytes: the capacity of the cell heads, the entry
  /// pool (free-listed blocks included) and the max-rank cache. Equals what
  /// the sketch charges the "vhll" tally.
  size_t MemoryUsageBytes() const;

 private:
  template <typename T>
  using TallyVector = std::vector<T, obs::TallyAllocator<T, &VhllMemTally>>;

  // Where cell c's block lives in pool_: entries [offset, offset + len),
  // block capacity `cap` (0 for a cell that never held an entry).
  struct CellHead {
    uint32_t offset = 0;
    uint8_t len = 0;
    uint8_t cap = 0;
  };

  // Block size classes 1, 2, 4 ... kMaxCellEntries; class k holds 2^k.
  static constexpr size_t kNumSizeClasses = 7;
  static constexpr uint32_t kNoBlock = UINT32_MAX;

  // Moves cell `head` to a block twice its capacity and returns the
  // block's first entry. May reallocate pool_.
  Entry* GrowCell(CellHead& head);
  // Returns the offset of a free block of `cap` entries (a power of two),
  // reusing a free-listed one when there is one. May reallocate pool_.
  uint32_t AllocateBlock(size_t cap);
  void FreeBlock(uint32_t offset, size_t cap);

  int precision_;
  uint64_t salt_;
  size_t insert_attempts_ = 0;
  size_t evictions_ = 0;
  size_t merge_entries_scanned_ = 0;
  size_t cell_updates_ = 0;
  TallyVector<CellHead> heads_;
  TallyVector<Entry> pool_;
  // Head of each size class's free list (kNoBlock when empty).
  std::array<uint32_t, kNumSizeClasses> free_blocks_;
  // Cache of cell(c).back().rank (0 when empty), kept in sync by every
  // mutating method so Estimate() and the union fast paths are O(beta).
  TallyVector<uint8_t> max_ranks_;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_VHLL_H_
