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
/// [ceil(k*beta/P), ceil((k+1)*beta/P))), and each part owns its arrays and
/// its lifetime tallies. `counts` holds the number of live pairs of each
/// cell of the part (u8: a cell holds at most 64 pairs), and `ranks` (u8)
/// and `times` hold every live pair of the part in cell order, so a cell's
/// list starts where the lists of the cells before it in its part end. The
/// times are stored as offsets in the sketch's TimeEncoding
/// (time_codec.h), the one codec build checkpoints use too. The encoding is
/// fixed at construction by the sketch's owner: a build takes the narrowest
/// one that covers its input's interaction times (IrsApprox), so a live
/// pair costs 1 + 4 bytes when the times span less than 2^32, and 1 + 8
/// bytes under the default wide encoding, which holds every time. The
/// public API reads and writes Timestamps: inserts encode (checked to be
/// held), CellList decodes. Offsets order as their times do, so domination
/// and the merge window compare offsets as they are.
///
/// Retirement (the reverse scan's window, Lemmas 1-3 of the paper). The
/// scan's time t never increases, a merge at t reads only pairs before
/// t + omega, and every pair it stores from then on is before t + omega
/// too. So a pair at or after that horizon is dead: no merge reads it, and
/// it can never dominate a new pair. It still counts as an entry until a
/// new pair of at least its rank evicts it, so Retire, called once every
/// live pair of a part is dead, keeps each as its rank alone, 1 byte:
/// `retired` holds each cell's count of retired pairs and `retired_ranks`
/// their ranks, in cell order, both allocated at the part's first
/// retirement, and the part's live arrays, its counts included, are freed
/// until it gains a pair again. A cell's retired ranks are above its live
/// ones, and later than every pair it gains, so a new pair evicts exactly
/// the retired ranks not above its own, and the cell's live ranks and then
/// its retired ones form one strictly ascending run: its max rank is the
/// run's last and its entry count the run's length, exactly as without
/// retirement. Collapse frees a whole part once no operation will write or
/// read it again, keeping its max-rank row and its entry count.
///
/// MergeWindow walks a part's cells once, merging each of its lists with
/// the other sketch's window prefix of that cell. It writes nothing until
/// the first cell that gains a pair; from there it writes the rewritten
/// cells to a per-thread scratch buffer and copies them back in one piece.
/// A single insert (AddEntry, Add) splices its cell's new list into the
/// part, moving the part's later pairs: O(part), which every caller pays
/// anyway in the merge that comes with each insert. A part that runs out
/// of room grows by a quarter, not by vector doubling, so at most a fifth
/// of its slots are unused tail. A sketch's footprint is its parts' arrays
/// (capacity), the beta-byte max-rank cache and, with more than one part,
/// the array of parts 1..P-1. MemoryUsageBytes() reports exactly that.
///
/// No operation reads two cells together, so parts never interact: a
/// parallel build gives each worker one part of every sketch, and workers
/// write only their own part's arrays and disjoint bytes of `max_ranks_`
/// (IrsApprox::Compute). Part 0 lives inline, so a one-part sketch that
/// never retires — every sketch outside the partitioned build — owns four
/// heap buffers.
class VersionedHll {
 public:
  /// One (rank, timestamp) pair of a cell list.
  struct Entry {
    uint8_t rank = 0;
    Timestamp time = 0;
  };

  /// Read-only view of one cell: its live pairs, read as (rank, time)
  /// pairs with the times decoded, and the ranks of its retired pairs.
  /// Valid until the next mutation of the sketch.
  class CellList {
   public:
    // For range-for loops over the live pairs. Yields Entry values, not
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
             const TimeEncoding& encoding, size_t size,
             std::span<const uint8_t> retired)
        : ranks_(ranks),
          time_bytes_(time_bytes),
          encoding_(encoding),
          size_(size),
          retired_(retired) {}

    /// The number of live pairs.
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Entry operator[](size_t i) const { return {ranks_[i], time(i)}; }
    Entry back() const { return (*this)[size_ - 1]; }
    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, size_}; }
    /// The time of live pair i, decoded.
    Timestamp time(size_t i) const { return encoding_.Decode(time_bytes_, i); }
    /// The ranks of the retired pairs, ascending; all above the live ones.
    std::span<const uint8_t> retired() const { return retired_; }
    /// The cell's entry count: live and retired pairs.
    size_t num_entries() const { return size_ + retired_.size(); }

   private:
    const uint8_t* ranks_;
    const uint8_t* time_bytes_;
    TimeEncoding encoding_;
    size_t size_;
    std::span<const uint8_t> retired_;
  };

  /// A bound on a cell's entry count: its ranks are distinct and at most
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

  /// A sketch holding the given cells, in the stored form of a
  /// checkpoint's live node: `counts` (one per cell) cut `ranks` and the
  /// parallel `times` into the cells' live lists, and `retired` (one per
  /// cell, or empty for none) cuts `retired_ranks` into their retired
  /// runs, all in cell order. The cells must already satisfy the vHLL
  /// invariants, as a restored checkpoint's checked ones do, and
  /// `encoding` must hold every time; the sizes and the times are checked.
  /// The sketch has `num_parts` parts (in [1, beta]), as the first
  /// constructor's; each part's arrays are sized to exactly its pairs.
  /// Lifetime tallies start at zero.
  VersionedHll(int precision, uint64_t salt, size_t num_parts,
               std::span<const uint8_t> counts,
               std::span<const uint8_t> ranks,
               std::span<const int64_t> times,
               std::span<const uint8_t> retired,
               std::span<const uint8_t> retired_ranks,
               TimeEncoding encoding = {});

  /// A collapsed sketch (Collapse), in the stored form of a checkpoint's
  /// collapsed node: its max-rank row (beta bytes, each at most MaxRank;
  /// checked) and its entry count. Lifetime tallies start at zero.
  VersionedHll(int precision, uint64_t salt, size_t num_parts,
               std::span<const uint8_t> row, size_t entries,
               TimeEncoding encoding = {});

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

  /// Retires every live pair of part `part` (see "Retirement" above). The
  /// caller guarantees what makes that exact: every one is dead, at or
  /// after the horizon t + window of every later merge at t, and later
  /// than every pair the part gains from then on. Nothing may be
  /// retired in a collapsed part.
  void Retire(size_t part);

  /// Frees part `part` once no operation will write or read its pairs
  /// again, keeping its max-rank row and entry count. Later merges from
  /// it read nothing; nothing may be written into it. Idempotent.
  void Collapse(size_t part);

  /// True once every part has collapsed (a restored collapsed sketch, or
  /// one the scan collapsed). cell() and part_runs() need a live sketch.
  bool collapsed() const;

  /// Estimated number of distinct items ever inserted. O(beta): reads the
  /// per-cell max-rank cache, not the entry lists.
  double Estimate() const;

  /// Resets to the empty sketch, also a collapsed one.
  void Clear();

  int precision() const { return precision_; }
  uint64_t salt() const { return salt_; }
  size_t num_cells() const { return max_ranks_.size(); }
  size_t num_parts() const { return more_parts_.size() + 1; }
  const TimeEncoding& time_encoding() const { return encoding_; }

  /// The part that holds cell `c`: floor(c * P / beta).
  size_t PartOf(size_t c) const { return (c * num_parts()) >> precision_; }

  /// Total number of stored pairs, live and retired, across all cells.
  size_t NumEntries() const;

  /// Lifetime count of AddEntry calls (before domination filtering); the
  /// ratio NumEntries()/NumInsertAttempts() measures what pruning saves.
  size_t NumInsertAttempts() const {
    return SumOverParts(&Part::insert_attempts);
  }

  /// Lifetime count of stored pairs, live or retired, evicted because a
  /// newly inserted pair dominated them (the flip side of
  /// NumInsertAttempts' rejected inserts).
  size_t NumEvictions() const { return SumOverParts(&Part::evictions); }

  /// Lifetime count of entries examined by MergeWindow (window-eligible
  /// pairs read from the other sketch) and of those that survived
  /// domination filtering and updated a cell. Plain tallies: the merge
  /// loop stays atomics-free and callers roll them up into the registry.
  size_t NumMergeEntriesScanned() const {
    return SumOverParts(&Part::merge_entries_scanned);
  }
  size_t NumCellUpdates() const { return SumOverParts(&Part::cell_updates); }

  /// Cell `i`: its live pairs (strictly ascending time and rank) and
  /// retired ranks. Sums the counts of the cells before it in its part:
  /// O(beta / num_parts()). Its part must not have collapsed.
  CellList cell(size_t i) const;

  /// Every pair of part `k`, as the part stores them, in cell order: the
  /// live pairs of each cell of the part (`counts`, empty if it has none
  /// and has retired), their ranks and time offsets (time_encoding(),
  /// width bytes each), and the retired pairs of each cell (`retired`,
  /// empty if the part never retired) and their ranks. The part must not
  /// have collapsed. Valid until the next mutation of the sketch.
  struct PartRuns {
    std::span<const uint8_t> counts;
    std::span<const uint8_t> ranks;
    std::span<const uint8_t> time_bytes;
    std::span<const uint8_t> retired;
    std::span<const uint8_t> retired_ranks;
  };
  PartRuns part_runs(size_t k) const;

  /// Per-cell max rank (0 for an empty cell), maintained on every mutation.
  /// Contiguous, so cellwise-max union loops (the oracle's hot path) touch
  /// one cache line per 64 cells instead of chasing every cell list.
  std::span<const uint8_t> max_ranks() const {
    return {max_ranks_.data(), max_ranks_.size()};
  }

  /// Verifies the per-cell invariants (one strictly ascending run of
  /// ranks, strictly ascending live times, so no pair dominates another)
  /// and the parts' layout. Test helper; O(total entries).
  bool CheckInvariants() const;

  /// Heap footprint in bytes: the parts' arrays (capacity, unused tail
  /// included), the max-rank cache (1 byte a cell) and the array of parts
  /// 1..P-1. Equals what the sketch charges the "vhll" tally.
  size_t MemoryUsageBytes() const;

 private:
  template <typename T>
  using TallyVector = std::vector<T, obs::TallyAllocator<T, &VhllMemTally>>;

  // The storage of one cell range, touched only by operations on its cells.
  // A collapsed part has freed its arrays: `counts` and `retired` are both
  // empty only then (a part has at least one cell).
  struct Part {
    // The live list length of each cell of the part; they sum to the
    // part's live pairs. Empty while the part holds retired ranks alone
    // (Retire frees it; the next pair the part gains brings it back).
    TallyVector<uint8_t> counts;
    // The live pairs in cell order: ranks[i] and the time offset at
    // times[i * width] are one pair.
    TallyVector<uint8_t> ranks;
    TallyVector<uint8_t> times;
    // The retired pairs: their count in each cell of the part, and their
    // ranks in cell order. Both empty until the part first retires.
    TallyVector<uint8_t> retired;
    TallyVector<uint8_t> retired_ranks;
    // The entry count the part had when it collapsed.
    size_t collapsed_entries = 0;
    size_t insert_attempts = 0;
    size_t evictions = 0;
    size_t merge_entries_scanned = 0;
    size_t cell_updates = 0;
  };

  Part& part(size_t k) { return k == 0 ? first_part_ : more_parts_[k - 1]; }
  const Part& part(size_t k) const {
    return k == 0 ? first_part_ : more_parts_[k - 1];
  }
  static bool Collapsed(const Part& p) {
    return p.counts.empty() && p.retired.empty();
  }
  // First cell of part k (k == num_parts() gives the end of the last part).
  size_t PartBegin(size_t k) const {
    return (k * num_cells() + num_parts() - 1) / num_parts();
  }
  size_t SumOverParts(size_t Part::*tally) const;
  // The first slot of cell j of part p: the sum of the counts before it.
  static size_t CellBegin(const Part& p, size_t j);
  // The first retired rank of cell j of part p (0 if p never retired).
  static size_t RetiredBegin(const Part& p, size_t j);

  // The private operations work on time offsets of type Offset, the
  // encoding's width (uint32_t or uint64_t); each public call dispatches
  // once (WithTimeCodec).
  //
  // ApproxAdd of (rank, t) into cell c: AddEntry without the lookup and the
  // attempt tally. Returns true if the pair was kept.
  template <typename Offset>
  bool Insert(size_t c, uint8_t rank, Offset t);
  // Folds in the live pairs of `other`'s cells of part `part_index` whose
  // offset is at most `last`. kRetired: the part has retired ranks, which
  // the pairs it gains may evict.
  template <typename Offset, bool kRetired>
  void MergeCells(const VersionedHll& other, size_t part_index, Offset last);
  // Resizes p's live arrays to `slots` pairs, growing their capacity by at
  // least a quarter when it is short.
  template <typename Offset>
  static void ResizePart(Part& p, size_t slots);

  int precision_;
  uint64_t salt_;
  TimeEncoding encoding_;
  // Cache of each cell's largest rank (0 when empty), kept in sync by
  // every mutating method so Estimate() and the union fast paths are
  // O(beta). A collapsed part keeps its cells' bytes.
  TallyVector<uint8_t> max_ranks_;
  Part first_part_;
  // Parts 1..P-1; empty (no allocation) for a one-part sketch.
  TallyVector<Part> more_parts_;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_VHLL_H_
