#ifndef IPIN_SKETCH_PART_STORE_H_
#define IPIN_SKETCH_PART_STORE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"
#include "ipin/sketch/time_codec.h"

namespace ipin {

/// Byte tally charged for every vHLL allocation (a store's slabs and
/// records, a sketch's max-rank cache; component "vhll"); published as the
/// mem.vhll.* gauges.
obs::MemoryTally& VhllMemTally();

/// A bound on a vHLL cell's entry count: its ranks are distinct and at most
/// VhllMaxRank(precision) < 64.
inline constexpr size_t kVhllMaxCellEntries = 64;

/// The largest rank a vHLL sketch of `precision` stores: 64 - precision + 1.
constexpr int VhllMaxRank(int precision) { return 65 - precision; }

/// A growable byte buffer: an anonymous mapping reserved ahead of its use
/// and grown by mremap, so the kernel moves page tables, never bytes, and
/// growing never holds two copies. Pages are touched only when written.
/// The "vhll" tally holds its extent, size(): the bytes in use, holes
/// included. Trim() returns the pages past the extent to the kernel.
class Slab {
 public:
  Slab() = default;
  Slab(Slab&& other) noexcept;
  Slab& operator=(Slab&& other) noexcept;
  ~Slab();

  uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  /// Sets the extent to `bytes`, keeping the first min(bytes, size())
  /// bytes. The base may move when it grows.
  void Resize(size_t bytes);

  /// Gives the whole pages past the extent back to the kernel.
  void Trim();

 private:
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t mapped_ = 0;
};

/// Part `part` of every vHLL sketch of a set (DESIGN.md §10): one worker's
/// build store, or the whole of a VersionedHll (one part, one slot).
///
/// The cells of a sketch are split into `num_parts` contiguous ranges; part
/// k holds cells [ceil(k * beta / P), ceil((k + 1) * beta / P)). The store
/// holds that range of each of `num_slots` sketches ("slots"). Each
/// operation of the vHLL (insert, windowed merge, retire, collapse) reads
/// and writes one cell at a time, so stores never interact: a parallel
/// build gives each worker one store, and the workers write only their own
/// stores and disjoint bytes of each sketch's max-rank row.
///
/// Cell semantics (vhll.h): each cell holds the skyline of the (rank, time)
/// pairs it was offered, ascending in time and rank. A live part keeps per
/// cell its live pairs' count, and every live pair's rank and time offset
/// (in the store's TimeEncoding) in cell order; a retired part keeps per
/// cell its retired pairs' count and their ranks. Every insert keeps the
/// slot's row byte of the cell at its max rank.
///
/// Storage: two slabs of runs and a dense per-slot record. A slot's live
/// run, in the live slab, is [live counts: C bytes][ranks: cap bytes]
/// [time offsets: cap x width bytes], C the part's cells and cap its pair
/// capacity; its retired run, in the retired slab, is [retired counts: C]
/// [retired ranks: cap]. The record holds each run's offset, length and
/// capacity, and the slot's form. A capacity is one of a fixed ladder of
/// classes, each a quarter above the one before. A run that outgrows its
/// capacity grows by a class at least: in place when it is the slab's last
/// run, else it moves, leaving a hole of its class. A new or moved run
/// takes a hole of its class if there is one, and the slab's end
/// otherwise; a run freed at the end shrinks the slab. A slab compacts
/// itself, sliding its runs down in offset order, once its holes pass an
/// eighth of its extent. No run or record is a heap object of its own.
class PartStore {
 public:
  /// Whether a slot holds a sketch, and in which form.
  enum class Form : uint8_t {
    kAbsent,     // never opened
    kLive,       // its pairs are stored
    kCollapsed,  // its row and entry count alone (Collapse)
  };

  /// One slot's part as the store holds it, in cell order: the live pairs
  /// of each cell (`counts`, empty if the part holds none and has retired),
  /// their ranks and time offsets (width bytes each), and the retired
  /// pairs of each cell (`retired`, empty if none) and their ranks. Valid
  /// until the next mutation of the store.
  struct Runs {
    std::span<const uint8_t> counts;
    std::span<const uint8_t> ranks;
    std::span<const uint8_t> time_bytes;
    std::span<const uint8_t> retired;
    std::span<const uint8_t> retired_ranks;
  };

  /// The lifetime tallies of every operation on the store (vhll.h).
  struct Tallies {
    size_t insert_attempts = 0;
    size_t evictions = 0;
    size_t merge_entries_scanned = 0;
    size_t cell_updates = 0;
  };

  /// Part `part` of `num_parts` (in [1, beta]) of `num_slots` sketches of
  /// 2^precision cells (precision in [4, 18]), storing times in `encoding`
  /// (valid). Slot s's row is the beta bytes at rows + s * beta; the store
  /// writes only its cells' bytes of it, and only while the slot is live.
  PartStore(int precision, size_t part, size_t num_parts, size_t num_slots,
            TimeEncoding encoding, uint8_t* rows);

  /// Opens slot `s` (absent) as an empty live part.
  void Open(size_t s);

  /// Inserts `hash` (of an item) observed at `t` (held by the encoding;
  /// checked) into slot `s`, live, if its cell lies in this part; false
  /// otherwise, and if the pair was dominated. One store per part, each
  /// offered every hash, inserts exactly what a one-part sketch would.
  bool AddHash(size_t s, uint64_t hash, Timestamp t);

  /// The paper's ApproxAdd of (rank, t) into cell `cell` (a cell of this
  /// part; rank in [1, MaxRank]; t held, checked) of slot `s`, live.
  /// Returns true if the pair was kept.
  bool AddEntry(size_t s, size_t cell, uint8_t rank, Timestamp t);

  /// The paper's ApproxMerge over this part: folds into slot `s` every
  /// live pair of slot `v` of `from` (the same part of a store of the same
  /// precision and encoding; `from` may be this store) whose time t_x
  /// satisfies t_x - merge_time < window, exactly at any i64 values. Slot
  /// `s` must be live; a collapsed or absent `v` gives nothing.
  void MergeWindow(size_t s, const PartStore& from, size_t v,
                   Timestamp merge_time, Duration window);

  /// Retires every live pair of slot `s` (vhll.h, "Retirement"). The
  /// caller guarantees what makes that exact: every one is at or after the
  /// horizon t + window of every later merge at t, and later than every
  /// pair the slot gains from then on. The slot must be live.
  void Retire(size_t s);

  /// Frees slot `s`'s runs once no operation will write or read its pairs
  /// again, keeping its entry count; its row stays where it is. Later
  /// merges from it read nothing; nothing may be written into it. A no-op
  /// on a collapsed slot; the slot must not be absent.
  void Collapse(size_t s);

  /// Frees slot `s`'s runs and opens it again empty, with its row's bytes
  /// of this part zeroed. The tallies stay.
  void Clear(size_t s);

  /// Fills slot `s` (absent) with one checkpointed part in the form of
  /// Runs: `counts` and `retired` of num_cells() bytes each (all zero for
  /// none), the live ranks and time offsets (in this store's encoding)
  /// and the retired ranks, each run sized to exactly its pairs, and sets
  /// the row's bytes of this part. The caller has checked every cell: at
  /// most kVhllMaxCellEntries pairs, ranks in [1, MaxRank] strictly
  /// ascending through its live and then its retired pairs, live offsets
  /// strictly ascending, and run lengths equal to the counts' sums.
  void Restore(size_t s, std::span<const uint8_t> counts,
               std::span<const uint8_t> ranks,
               std::span<const uint8_t> time_bytes,
               std::span<const uint8_t> retired,
               std::span<const uint8_t> retired_ranks);

  /// Marks slot `s` (absent) collapsed with `entries` entries; its row is
  /// the caller's to fill.
  void RestoreCollapsed(size_t s, size_t entries);

  Form form(size_t s) const { return records_[s].form; }

  /// Slot `s`'s runs; the slot must be live.
  Runs runs(size_t s) const;

  /// Slot `s`'s entry count in this part: live and retired pairs, or the
  /// count it had when it collapsed (0 if absent).
  size_t NumEntries(size_t s) const;

  /// The first cell of this part and the number of its cells.
  size_t begin() const { return begin_; }
  size_t num_cells() const { return cells_; }
  size_t num_slots() const { return records_.size(); }
  const TimeEncoding& time_encoding() const { return encoding_; }
  const Tallies& tallies() const { return tallies_; }

  /// How many times a run has moved to the end of its slab, and a slab has
  /// compacted, since construction.
  size_t relocations() const { return relocations_; }
  size_t compactions() const { return compactions_; }

  /// Verifies every live slot's cells (one strictly ascending run of ranks
  /// through the live pairs and then the retired ones, strictly ascending
  /// live times, the row byte at the top rank) and the slabs' layout (runs
  /// inside their slab, disjoint, and the holes exactly the rest). Test
  /// helper; O(slab bytes + slots log slots).
  bool CheckInvariants() const;

  /// Heap footprint in bytes: both slabs' extents, holes included, and the
  /// records. Equals what the store charges the "vhll" tally.
  size_t MemoryUsageBytes() const;

 private:
  static constexpr uint64_t kNoRun = ~uint64_t{0};

  // One run: its offset in its slab (kNoRun: none), its pairs and its
  // capacity. A run's bytes: C + cap x (1 + width) live, C + cap retired.
  struct Run {
    uint64_t at = kNoRun;
    uint32_t pairs = 0;
    uint32_t cap = 0;
  };

  // Where a slot's runs are, their capacity classes (RunClass), the form
  // and a collapsed slot's entry count.
  struct Record {
    Run live;
    Run retired;
    uint32_t collapsed_entries = 0;
    Form form = Form::kAbsent;
    uint8_t live_class = 0;
    uint8_t retired_class = 0;
  };

  template <typename T>
  using TallyVector = std::vector<T, obs::TallyAllocator<T, &VhllMemTally>>;

  // One slab, the bytes of it no run holds, and those holes by capacity
  // class: free[k] holds the offsets of freed runs of class k, which a run
  // of that class takes before the slab grows.
  struct RunSlab {
    Slab slab;
    size_t holes = 0;
    TallyVector<TallyVector<uint64_t>> free;
  };

  // A run in a slab, as the generic run operations see it: the live run
  // keeps `time_width` bytes of time offset per pair of capacity, the
  // retired run none.
  struct RunRef {
    RunSlab& slab;
    Run& run;
    uint8_t& cls;
    size_t time_width;
  };
  RunRef live_ref(Record& r) { return {live_, r.live, r.live_class, width_}; }
  RunRef retired_ref(Record& r) {
    return {retired_, r.retired, r.retired_class, 0};
  }
  // The bytes of a run of capacity `cap` keeping `time_width` bytes of
  // time offset per pair.
  size_t RunBytes(size_t time_width, size_t cap) const {
    return cells_ + cap * (1 + time_width);
  }

  uint8_t* row(size_t s) const { return rows_ + s * beta_ + begin_; }
  uint8_t* live_run(const Record& r) const {
    return live_.slab.data() + r.live.at;
  }
  uint8_t* retired_run(const Record& r) const {
    return retired_.slab.data() + r.retired.at;
  }

  // Sets the run's pair count to `pairs`, keeping its first min(pairs,
  // its pairs) pairs, its counts and their times, and moving or growing the
  // run when its capacity is short: opens it (zero counts) if it has none.
  void Resize(const RunRef& ref, size_t pairs);
  // Frees the run (Release) and compacts its slab if its holes pass the
  // share.
  void Free(const RunRef& ref);
  // A run of class `cls` and `bytes`: a hole of its class, else the slab's
  // end.
  static uint64_t Allocate(RunSlab& slab, size_t cls, size_t bytes);
  // Gives back the run of class `cls` and `bytes` at `at`: the slab
  // shrinks if it is the last, else it leaves a hole of its class.
  static void Release(RunSlab& slab, size_t cls, uint64_t at, size_t bytes);
  // Compacts the slab of `ref` if its holes pass the share.
  void MaybeCompact(const RunRef& ref);

  template <typename Offset>
  bool Insert(size_t s, size_t j, uint8_t rank, Offset t);
  template <typename Offset, bool kRetired>
  void MergeCells(size_t s, const PartStore& from, size_t v, Offset last);

  size_t beta_;
  int precision_;
  size_t begin_;
  size_t cells_;
  TimeEncoding encoding_;
  size_t width_;
  uint8_t* rows_;
  TallyVector<Record> records_;
  RunSlab live_;
  RunSlab retired_;
  Tallies tallies_;
  size_t relocations_ = 0;
  size_t compactions_ = 0;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_PART_STORE_H_
