#ifndef IPIN_SKETCH_VHLL_H_
#define IPIN_SKETCH_VHLL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"
#include "ipin/sketch/time_codec.h"

namespace ipin {

/// Byte tally charged for every vHLL allocation (cell counts, pair runs,
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
/// by time, which makes MergeWindow's window filter a prefix scan and keeps
/// the expected list length logarithmic (Lemma 4). A cell's list is the
/// skyline of every pair it was offered, so it does not depend on the order
/// they came in.
///
/// Storage: cell-sorted runs, not one heap vector per cell. The cells are
/// split into `num_parts` contiguous ranges ("parts"; part k holds cells
/// [ceil(k*beta/P), ceil((k+1)*beta/P))), and each part owns three arrays
/// and its lifetime tallies. `counts` holds the length of each cell's list
/// (u8: a list has at most 64 pairs), and `ranks` (u8) and `times` hold
/// every pair of the part in cell order, so a cell's list starts where the
/// lists of the cells before it in its part end. The times are stored as
/// offsets in the sketch's TimeEncoding (time_codec.h), the one codec build
/// checkpoints use too. The encoding is fixed at construction by the
/// sketch's owner: a build takes the narrowest one that covers its input's
/// interaction times (IrsApprox), so a slot costs 1 + 4 bytes when the
/// times span less than 2^32, and 1 + 8 bytes under the default wide
/// encoding, which holds every time. The public API reads and writes
/// Timestamps: inserts encode (checked to be held), CellList decodes.
/// Offsets order as their times do, so domination and the merge window
/// compare offsets as they are.
///
/// MergeWindow walks a part's cells once, merging each of its lists with
/// the other sketch's window prefix of that cell. It writes nothing until
/// the first cell that gains a pair; from there it writes the rewritten
/// cells to a per-thread scratch buffer and copies them back in one piece.
/// A single insert (AddEntry, Add) splices its cell's new list into the
/// part, moving the part's later pairs: O(part), which every caller pays
/// anyway in the merge that comes with each insert. A part that runs out
/// of room grows by a quarter, not by vector doubling, so at most a fifth
/// of its slots are unused tail; a sketch's footprint is its parts' cell
/// counts and slot capacity, the beta-byte max-rank cache and, with
/// more than one part, the array of parts 1..P-1. MemoryUsageBytes()
/// reports exactly that.
///
/// No operation reads two cells together, so parts never interact: a
/// parallel build gives each worker one part of every sketch, and workers
/// write only their own part's arrays and disjoint bytes of `max_ranks_`
/// (IrsApprox::Compute). Part 0 lives inline, so a one-part sketch — every
/// sketch outside the partitioned build — owns four heap buffers, which is
/// what makes the build scan and freeing the sketches at Seal() cheap.
class VersionedHll {
 public:
  /// One (rank, timestamp) pair of a cell list.
  struct Entry {
    uint8_t rank = 0;
    Timestamp time = 0;
  };

  /// Read-only view of one cell's entries: its runs of ranks and time
  /// offsets in the part's arrays, read as (rank, time) pairs with the times
  /// decoded. Valid until the next mutation of the sketch.
  class CellList {
   public:
    // For range-for loops. Yields Entry values, not references: no Entry
    // is stored.
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

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Entry operator[](size_t i) const { return {ranks_[i], time(i)}; }
    Entry back() const { return (*this)[size_ - 1]; }
    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, size_}; }
    /// The time of entry i, decoded.
    Timestamp time(size_t i) const { return encoding_.Decode(time_bytes_, i); }

   private:
    const uint8_t* ranks_;
    const uint8_t* time_bytes_;
    TimeEncoding encoding_;
    size_t size_;
  };

  /// A bound on a cell list's length: its ranks are distinct and at most
  /// MaxRank(precision) < 64.
  static constexpr size_t kMaxCellEntries = 64;

  /// The largest rank a sketch of `precision` stores: 64 - precision + 1.
  static constexpr int MaxRank(int precision) { return 65 - precision; }

  /// `precision` must be in [4, 18] and `num_parts` in [1, beta];
  /// `encoding` must be valid, and every time inserted must be one it
  /// holds (checked). All sketches that will ever be merged must share
  /// `precision` and `salt`, and MergeWindow's operands also `num_parts`
  /// and `encoding` (checked).
  explicit VersionedHll(int precision, uint64_t salt = 0,
                        size_t num_parts = 1, TimeEncoding encoding = {});

  /// A sketch holding the given cell lists, in the stored form of a
  /// checkpoint's sketch chunk: `cell_counts` (one per cell) cut `ranks`
  /// and the parallel `times` into lists in cell order. The lists must
  /// already satisfy the vHLL invariants, as a restored checkpoint's
  /// checked ones do, and `encoding` must hold every time; the sizes and
  /// the times are checked. The sketch has `num_parts` parts (in
  /// [1, beta]), as the first constructor's; each part's arrays are sized
  /// to exactly its pairs. Lifetime tallies start at zero.
  VersionedHll(int precision, uint64_t salt, size_t num_parts,
               std::span<const uint8_t> cell_counts,
               std::span<const uint8_t> ranks,
               std::span<const int64_t> times, TimeEncoding encoding = {});

  /// Inserts item observed at time `t` (hashes the item internally).
  /// Returns true if the sketch changed.
  bool Add(uint64_t item, Timestamp t);

  /// Inserts a pre-computed hash observed at time `t`. Returns true if the
  /// sketch changed.
  bool AddHash(uint64_t hash, Timestamp t);

  /// As Add, but only when the item hashes into a cell of part `part`;
  /// returns false without touching the sketch otherwise. One worker per
  /// part, each offered every item, inserts exactly what Add would.
  bool AddInPart(uint64_t item, Timestamp t, size_t part);

  /// Inserts an explicit (cell, rank, time) triple, applying domination
  /// pruning (the paper's ApproxAdd). Exposed for merges and tests.
  /// Returns true if the sketch changed (entry kept).
  bool AddEntry(size_t cell, uint8_t rank, Timestamp t);

  /// The paper's ApproxMerge: folds in every entry of `other` whose time t_x
  /// satisfies t_x - merge_time < window (exactly, at any i64 values: no
  /// sum is formed that could overflow).
  void MergeWindow(const VersionedHll& other, Timestamp merge_time,
                   Duration window);

  /// As above, restricted to the cells of part `part`. Merging every part
  /// once is the full merge.
  void MergeWindow(const VersionedHll& other, Timestamp merge_time,
                   Duration window, size_t part);

  /// Estimated number of distinct items ever inserted. O(beta): reads the
  /// per-cell max-rank cache, not the entry lists.
  double Estimate() const;

  /// Resets to the empty sketch.
  void Clear();

  int precision() const { return precision_; }
  uint64_t salt() const { return salt_; }
  size_t num_cells() const { return max_ranks_.size(); }
  size_t num_parts() const { return more_parts_.size() + 1; }
  const TimeEncoding& time_encoding() const { return encoding_; }

  /// The part that holds cell `c`: floor(c * P / beta).
  size_t PartOf(size_t c) const { return (c * num_parts()) >> precision_; }

  /// Total number of stored (rank, time) pairs across all cells.
  size_t NumEntries() const;

  /// Lifetime count of AddEntry calls (before domination filtering); the
  /// ratio NumEntries()/NumInsertAttempts() measures what pruning saves.
  size_t NumInsertAttempts() const {
    return SumOverParts(&Part::insert_attempts);
  }

  /// Lifetime count of stored pairs evicted because a newly inserted pair
  /// dominated them (the flip side of NumInsertAttempts' rejected inserts).
  size_t NumEvictions() const { return SumOverParts(&Part::evictions); }

  /// Lifetime count of entries examined by MergeWindow (window-eligible
  /// pairs read from the other sketch) and of those that survived
  /// domination filtering and updated a cell. Plain tallies: the merge
  /// loop stays atomics-free and callers roll them up into the registry.
  size_t NumMergeEntriesScanned() const {
    return SumOverParts(&Part::merge_entries_scanned);
  }
  size_t NumCellUpdates() const { return SumOverParts(&Part::cell_updates); }

  /// The raw list of cell `i` (strictly ascending time and rank). Sums
  /// the counts of the cells before it in its part: O(beta / num_parts()).
  CellList cell(size_t i) const;

  /// Every pair of part `k`, as the part stores them: the list length of
  /// each cell of the part (`counts`), and the pairs' ranks and time
  /// offsets (time_encoding(), width bytes each) as two runs in cell
  /// order.
  /// Valid until the next mutation of the sketch.
  struct PartRuns {
    std::span<const uint8_t> counts;
    std::span<const uint8_t> ranks;
    std::span<const uint8_t> time_bytes;
  };
  PartRuns part_runs(size_t k) const {
    const Part& p = part(k);
    return {{p.counts.data(), p.counts.size()},
            {p.ranks.data(), p.ranks.size()},
            {p.times.data(), p.times.size()}};
  }

  /// Per-cell max rank (0 for an empty cell), maintained on every mutation.
  /// Contiguous, so cellwise-max union loops (the oracle's hot path) touch
  /// one cache line per 64 cells instead of chasing every cell list.
  std::span<const uint8_t> max_ranks() const {
    return {max_ranks_.data(), max_ranks_.size()};
  }

  /// Verifies the per-cell invariants (strictly ascending ranks and times,
  /// so no pair dominates another) and the parts' layout. Test helper;
  /// O(total entries).
  bool CheckInvariants() const;

  /// Heap footprint in bytes: the parts' cell counts (1 byte a cell), their
  /// slot capacity (1 + width bytes a slot, unused tail included), the
  /// max-rank cache (1 byte a cell) and the array of parts 1..P-1. Equals
  /// what the sketch charges the "vhll" tally.
  size_t MemoryUsageBytes() const;

 private:
  template <typename T>
  using TallyVector = std::vector<T, obs::TallyAllocator<T, &VhllMemTally>>;

  // The storage of one cell range, touched only by operations on its cells.
  struct Part {
    // The list length of each cell of the part; they sum to the part's
    // pair count.
    TallyVector<uint8_t> counts;
    // The pairs in cell order: ranks[i] and the time offset at
    // times[i * width] are one pair. Both arrays always hold the same
    // number of slots, in size and in capacity.
    TallyVector<uint8_t> ranks;
    TallyVector<uint8_t> times;
    size_t insert_attempts = 0;
    size_t evictions = 0;
    size_t merge_entries_scanned = 0;
    size_t cell_updates = 0;
  };

  Part& part(size_t k) { return k == 0 ? first_part_ : more_parts_[k - 1]; }
  const Part& part(size_t k) const {
    return k == 0 ? first_part_ : more_parts_[k - 1];
  }
  // First cell of part k (k == num_parts() gives the end of the last part).
  size_t PartBegin(size_t k) const {
    return (k * num_cells() + num_parts() - 1) / num_parts();
  }
  size_t SumOverParts(size_t Part::*tally) const;
  // The first slot of cell j of part p: the sum of the counts before it.
  static size_t CellBegin(const Part& p, size_t j);

  // The private operations work on time offsets of type Offset, the
  // encoding's width (uint32_t or uint64_t); each public call dispatches
  // once (WithTimeCodec).
  //
  // ApproxAdd of (rank, t) into cell c: AddEntry without the lookup and the
  // attempt tally. Returns true if the pair was kept.
  template <typename Offset>
  bool Insert(size_t c, uint8_t rank, Offset t);
  // Folds in the entries of `other`'s cells of part `part_index` whose
  // offset is at most `last`.
  template <typename Offset>
  void MergeCells(const VersionedHll& other, size_t part_index, Offset last);
  // Resizes p's arrays to `slots` pairs, growing their capacity by at
  // least a quarter when it is short. May reallocate them.
  template <typename Offset>
  static void ResizePart(Part& p, size_t slots);

  int precision_;
  uint64_t salt_;
  TimeEncoding encoding_;
  // Cache of cell(c).back().rank (0 when empty), kept in sync by every
  // mutating method so Estimate() and the union fast paths are O(beta).
  TallyVector<uint8_t> max_ranks_;
  Part first_part_;
  // Parts 1..P-1; empty (no allocation) for a one-part sketch.
  TallyVector<Part> more_parts_;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_VHLL_H_
