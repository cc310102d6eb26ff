#ifndef IPIN_SKETCH_VHLL_H_
#define IPIN_SKETCH_VHLL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"
#include "ipin/sketch/part_store.h"
#include "ipin/sketch/time_codec.h"

namespace ipin {

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
/// by time, which makes MergeWindow's window filter a prefix scan and keeps
/// the expected list length logarithmic (Lemma 4). A cell's list is the
/// skyline of every pair it was offered, so it does not depend on the order
/// they came in.
///
/// Storage and operations: the cell operations live once, in PartStore
/// (part_store.h), which holds one contiguous range of cells ("part") of
/// many sketches in slabs of runs. A VersionedHll is the one-part,
/// one-slot case: a store holding all beta cells of one sketch, and the
/// sketch's max-rank row. A build does not use VersionedHll: each worker
/// owns a store holding its part of every sketch, and the rows live in the
/// build's SketchArena (IrsApprox, DESIGN.md §10).
///
/// The times are stored as offsets in the sketch's TimeEncoding
/// (time_codec.h), fixed at construction: a live pair costs 1 + 4 bytes
/// under a u32 encoding and 1 + 8 under the default wide one, which holds
/// every time. The public API reads and writes Timestamps: inserts encode
/// (checked to be held), CellList decodes. Offsets order as their times
/// do, so domination and the merge window compare offsets as they are.
///
/// Retirement (the reverse scan's window, Lemmas 1-3 of the paper). The
/// scan's time t never increases, a merge at t reads only pairs before
/// t + omega, and every pair it stores from then on is before t + omega
/// too. So a pair at or after that horizon is dead: no merge reads it, and
/// it can never dominate a new pair. It still counts as an entry until a
/// new pair of at least its rank evicts it, so PartStore::Retire, called
/// once every live pair of a part is dead, keeps each as its rank alone,
/// 1 byte, and frees the part's live run until it gains a pair again. A
/// cell's retired ranks are above its live ones, and later than every pair
/// it gains, so a new pair evicts exactly the retired ranks not above its
/// own, and the cell's live ranks and then its retired ones form one
/// strictly ascending run: its max rank is the run's last and its entry
/// count the run's length, exactly as without retirement.
/// PartStore::Collapse frees a part once no operation will write or read it
/// again, keeping its entry count; its row stays. Only a build retires and
/// collapses, so a VersionedHll's cells are always live.
///
/// MergeWindow walks the cells once, merging each list with the other
/// sketch's window prefix of that cell. It writes nothing until the first
/// cell that gains a pair; from there it writes the rewritten cells to a
/// per-thread scratch buffer and copies them back in one piece. A single
/// insert splices its cell's new list into the run, moving the later
/// pairs: O(beta), which every caller pays anyway in the merge that comes
/// with each insert. A run that runs out of room grows by a quarter.
/// MemoryUsageBytes() reports the store's slabs and record and the row.
class VersionedHll {
 public:
  /// One (rank, timestamp) pair of a cell list.
  struct Entry {
    uint8_t rank = 0;
    Timestamp time = 0;
  };

  /// Read-only view of one cell: its pairs, read as (rank, time) pairs
  /// with the times decoded. Valid until the next mutation of the sketch.
  class CellList {
   public:
    // For range-for loops over the pairs. Yields Entry values, not
    // references: no Entry is stored.
    class Iterator {
     public:
      Iterator(const CellList* list, size_t i) : list_(list), i_(i) {}
      Entry operator*() const { return (*list_)[i_]; }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const Iterator& other) const { return i_ == other.i_; }

     private:
      const CellList* list_;
      size_t i_;
    };

    CellList(const uint8_t* ranks, const uint8_t* time_bytes,
             const TimeEncoding& encoding, size_t size)
        : ranks_(ranks),
          time_bytes_(time_bytes),
          encoding_(encoding),
          size_(size) {}

    /// The number of pairs.
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Entry operator[](size_t i) const { return {ranks_[i], time(i)}; }
    Entry back() const { return (*this)[size_ - 1]; }
    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, size_}; }
    /// The time of pair i, decoded.
    Timestamp time(size_t i) const { return encoding_.Decode(time_bytes_, i); }

   private:
    const uint8_t* ranks_;
    const uint8_t* time_bytes_;
    TimeEncoding encoding_;
    size_t size_;
  };

  /// A bound on a cell's entry count: its ranks are distinct and at most
  /// MaxRank(precision) < 64.
  static constexpr size_t kMaxCellEntries = kVhllMaxCellEntries;

  /// The largest rank a sketch of `precision` stores: 64 - precision + 1.
  static constexpr int MaxRank(int precision) { return VhllMaxRank(precision); }

  /// `precision` must be in [4, 18]; `encoding` must be valid, and every
  /// time inserted must be one it holds (checked). All sketches that will
  /// ever be merged must share `precision` and `salt`, and MergeWindow's
  /// operands also `encoding` (checked).
  explicit VersionedHll(int precision, uint64_t salt = 0,
                        TimeEncoding encoding = {});

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
  /// satisfies t_x - merge_time < window (exactly, at any i64 values: no
  /// sum is formed that could overflow).
  void MergeWindow(const VersionedHll& other, Timestamp merge_time,
                   Duration window);

  /// Estimated number of distinct items ever inserted. O(beta): reads the
  /// per-cell max-rank cache, not the entry lists.
  double Estimate() const;

  /// Resets to the empty sketch. The lifetime tallies stay.
  void Clear();

  int precision() const { return precision_; }
  uint64_t salt() const { return salt_; }
  size_t num_cells() const { return max_ranks_.size(); }
  const TimeEncoding& time_encoding() const { return store_.time_encoding(); }

  /// Total number of stored pairs across all cells.
  size_t NumEntries() const { return store_.NumEntries(0); }

  /// Lifetime count of AddEntry calls (before domination filtering); the
  /// ratio NumEntries()/NumInsertAttempts() measures what pruning saves.
  size_t NumInsertAttempts() const {
    return store_.tallies().insert_attempts;
  }

  /// Lifetime count of stored pairs evicted because a newly inserted pair
  /// dominated them (the flip side of NumInsertAttempts' rejected inserts).
  size_t NumEvictions() const { return store_.tallies().evictions; }

  /// Lifetime count of entries examined by MergeWindow (window-eligible
  /// pairs read from the other sketch) and of those that survived
  /// domination filtering and updated a cell. Plain tallies: the merge
  /// loop stays atomics-free and callers roll them up into the registry.
  size_t NumMergeEntriesScanned() const {
    return store_.tallies().merge_entries_scanned;
  }
  size_t NumCellUpdates() const { return store_.tallies().cell_updates; }

  /// Cell `i`: its pairs (strictly ascending time and rank). Sums the
  /// counts of the cells before it: O(beta).
  CellList cell(size_t i) const;

  /// Per-cell max rank (0 for an empty cell), maintained on every mutation.
  /// Contiguous, so cellwise-max union loops (the oracle's hot path) touch
  /// one cache line per 64 cells instead of chasing every cell list.
  std::span<const uint8_t> max_ranks() const {
    return {max_ranks_.data(), max_ranks_.size()};
  }

  /// Verifies the per-cell invariants (strictly ascending ranks and
  /// times, so no pair dominates another, and the row at each cell's top)
  /// and the store's layout. Test helper; O(total entries).
  bool CheckInvariants() const { return store_.CheckInvariants(); }

  /// Heap footprint in bytes: the store's slabs and record and the
  /// max-rank row (1 byte a cell). Equals what the sketch charges the
  /// "vhll" tally.
  size_t MemoryUsageBytes() const {
    return max_ranks_.capacity() + store_.MemoryUsageBytes();
  }

 private:
  template <typename T>
  using TallyVector = std::vector<T, obs::TallyAllocator<T, &VhllMemTally>>;

  int precision_;
  uint64_t salt_;
  // Each cell's largest rank (0 when empty), kept by the store on every
  // insert so Estimate() and the union fast paths are O(beta). The store
  // writes it through a pointer to its buffer, which a move keeps and a
  // copy would share: the slabs make the class move-only.
  TallyVector<uint8_t> max_ranks_;
  // One part, one slot: the whole sketch.
  PartStore store_;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_VHLL_H_
