#ifndef IPIN_SKETCH_VHLL_H_
#define IPIN_SKETCH_VHLL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"
#include "ipin/sketch/time_codec.h"

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
/// by time, which makes MergeWindow's window filter a prefix scan and keeps
/// the expected list length logarithmic (Lemma 4).
///
/// Storage: pooled entry buffers, not one heap vector per cell. The cells
/// are split into `num_parts` contiguous ranges ("parts"; part k holds
/// cells [ceil(k*beta/P), ceil((k+1)*beta/P))), and each part owns an entry
/// pool, its free lists and its lifetime tallies. A pool is two parallel
/// arrays at the same slot offsets: u8 ranks, and times stored as offsets
/// in the sketch's TimeEncoding (time_codec.h), the one codec build
/// checkpoints use too. The encoding is fixed at construction by the
/// sketch's owner: a build takes the narrowest one
/// that covers its input's interaction times (IrsApprox), so a slot costs
/// 1 + 4 bytes when the times span less than 2^32, and 1 + 8 bytes under
/// the default wide encoding, which holds every time. The public API reads
/// and writes Timestamps: inserts encode (checked to be held), CellList
/// decodes. Offsets order as their times do, so domination and the merge
/// window compare offsets as they are. `heads_[c]` gives the slot offset
/// (into c's part's pool), length and capacity of cell c's block. Block
/// capacities are powers of two from 1 to 64 (a list never exceeds 64
/// entries: ranks are distinct and at most 64 - precision + 1). A full
/// cell moves to a block twice its size, taken from the free list of that
/// size class or, when the list is empty, appended to the end of the pool;
/// the old block goes onto its own class's free list, linked through its
/// first time slot (a u32 slot offset fits either width). A pool that runs
/// out of room grows by a quarter, not by vector doubling, so at most a
/// fifth of its slots are unused tail. Blocks never shrink and pools never
/// compact, so a sketch's footprint is its pools' capacity — free-listed
/// blocks included — plus the two beta-sized arrays and, with more than
/// one part, the array of parts 1..P-1; MemoryUsageBytes() reports exactly
/// that.
///
/// No operation reads two cells together, so parts never interact: a
/// parallel build gives each worker one part of every sketch, and workers
/// write disjoint cells of `heads_` and `max_ranks_` (IrsApprox::Compute).
/// Part 0 lives inline, so a one-part sketch — every sketch outside the
/// partitioned build — owns four heap buffers instead of beta + 2, which
/// is what makes the build scan and freeing the sketches at Seal() cheap.
class VersionedHll {
 public:
  /// One (rank, timestamp) pair of a cell list.
  struct Entry {
    uint8_t rank = 0;
    Timestamp time = 0;
  };

  /// Read-only view of one cell's entries: its runs of ranks and time
  /// offsets in the part's pool, read as (rank, time) pairs with the times
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
    /// The cell's ranks, and its time offsets in encoding() (width bytes
    /// each), as contiguous runs of size() entries.
    const uint8_t* ranks() const { return ranks_; }
    const uint8_t* time_bytes() const { return time_bytes_; }
    const TimeEncoding& encoding() const { return encoding_; }

   private:
    const uint8_t* ranks_;
    const uint8_t* time_bytes_;
    TimeEncoding encoding_;
    size_t size_;
  };

  /// Longest possible cell list, and the largest block size class.
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
  /// [1, beta]), as the first constructor's; each cell gets the smallest
  /// block that holds it in its part's pool, and each pool is sized to
  /// exactly its blocks. Lifetime tallies start at zero.
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
  size_t num_cells() const { return heads_.size(); }
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

  /// The raw list of cell `i` (ascending time, strictly ascending rank).
  CellList cell(size_t i) const {
    const Part& p = part(PartOf(i));
    const CellHead& head = heads_[i];
    return {p.ranks.data() + head.offset,
            p.times.data() + size_t{head.offset} * encoding_.width, encoding_,
            head.len};
  }

  /// Per-cell max rank (0 for an empty cell), maintained on every mutation.
  /// Contiguous, so cellwise-max union loops (the oracle's hot path) touch
  /// one cache line per 64 cells instead of chasing every cell list.
  std::span<const uint8_t> max_ranks() const {
    return {max_ranks_.data(), max_ranks_.size()};
  }

  /// Verifies the per-cell invariants (sortedness, strict domination-freeness).
  /// Test helper; O(total entries).
  bool CheckInvariants() const;

  /// Heap footprint in bytes: the capacity of the cell heads, the entry
  /// pools (1 + width bytes a slot, free-listed blocks and unused tail
  /// included),
  /// the max-rank cache and the array of parts 1..P-1. Equals what the
  /// sketch charges the "vhll" tally.
  size_t MemoryUsageBytes() const;

 private:
  template <typename T>
  using TallyVector = std::vector<T, obs::TallyAllocator<T, &VhllMemTally>>;

  // Where cell c's block lives in its part's pool: slots
  // [offset, offset + len), block capacity `cap` (0 for a cell that never
  // held an entry).
  struct CellHead {
    uint32_t offset = 0;
    uint8_t len = 0;
    uint8_t cap = 0;
  };

  // Block size classes 1, 2, 4 ... kMaxCellEntries; class k holds 2^k.
  static constexpr size_t kNumSizeClasses = 7;
  static constexpr uint32_t kNoBlock = UINT32_MAX;

  // The storage of one cell range, touched only by operations on its cells.
  struct Part {
    Part() { free_blocks.fill(kNoBlock); }
    // The entry pool: ranks[i] and the time offset at times[i * width]
    // are one entry. Both arrays always hold the same number of slots, in
    // size and in capacity.
    TallyVector<uint8_t> ranks;
    TallyVector<uint8_t> times;
    // Head of each size class's free list (kNoBlock when empty).
    std::array<uint32_t, kNumSizeClasses> free_blocks;
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
    return (k * heads_.size() + num_parts() - 1) / num_parts();
  }
  size_t SumOverParts(size_t Part::*tally) const;

  // The private operations work on time offsets of type Offset, the
  // encoding's width (uint32_t or uint64_t); each public call dispatches
  // once (WithTimeCodec).
  //
  // ApproxAdd of (rank, t) into cell c, whose block lives in p's pool:
  // AddEntry without the lookup and the tallies. Adds the number of pairs
  // the new one dominated to *evicted. Returns true if the pair was kept.
  template <typename Offset>
  bool Insert(Part& p, size_t c, uint8_t rank, Offset t, size_t* evicted);
  // Folds in the entries of `other`'s cells of part `part_index` whose
  // offset is at most `last`.
  template <typename Offset>
  void MergeCells(const VersionedHll& other, size_t part_index, Offset last);
  // Moves cell `head` to a block twice its capacity. May reallocate p's
  // pool.
  template <typename Offset>
  void GrowCell(Part& p, CellHead& head);
  // Returns the slot offset of a free block of `cap` entries (a power of
  // two), reusing a free-listed one when there is one. May reallocate p's
  // pool.
  template <typename Offset>
  uint32_t AllocateBlock(Part& p, size_t cap);
  template <typename Offset>
  void FreeBlock(Part& p, uint32_t offset, size_t cap);

  int precision_;
  uint64_t salt_;
  TimeEncoding encoding_;
  TallyVector<CellHead> heads_;
  // Cache of cell(c).back().rank (0 when empty), kept in sync by every
  // mutating method so Estimate() and the union fast paths are O(beta).
  TallyVector<uint8_t> max_ranks_;
  Part first_part_;
  // Parts 1..P-1; empty (no allocation) for a one-part sketch.
  TallyVector<Part> more_parts_;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_VHLL_H_
