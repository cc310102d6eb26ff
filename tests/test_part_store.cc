#include "ipin/sketch/part_store.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/hash.h"
#include "ipin/common/random.h"
#include "ipin/sketch/vhll.h"
#include "test_util.h"

// The worker store of a build (part_store.h): the cell operations over one
// part of many sketches, held as runs in slabs. Checked against a model
// written from the paper's domination rule alone, at 1 to 4 parts and both
// time widths, with runs moving, slabs compacting, and sketches retiring,
// collapsing and being restored from their stored form.

namespace ipin {
namespace {

// The four lifetime tallies of a store or a model.
struct Tallies {
  size_t insert_attempts = 0;
  size_t evictions = 0;
  size_t merge_entries_scanned = 0;
  size_t cell_updates = 0;

  void Add(const Tallies& other) {
    insert_attempts += other.insert_attempts;
    evictions += other.evictions;
    merge_entries_scanned += other.merge_entries_scanned;
    cell_updates += other.cell_updates;
  }
  bool operator==(const Tallies&) const = default;
};

void PrintTo(const Tallies& t, std::ostream* os) {
  *os << "{" << t.insert_attempts << " attempts, " << t.evictions
      << " evictions, " << t.merge_entries_scanned << " scanned, "
      << t.cell_updates << " updates}";
}

// `parts` stores over `slots` sketches of 2^precision cells sharing one
// row buffer, as a build's workers share the arena's rows: store k holds
// part k of every slot. Operations on a whole sketch go to every store.
class StoreSet {
 public:
  StoreSet(int precision, uint64_t salt, size_t parts, size_t slots,
           TimeEncoding encoding)
      : precision_(precision),
        salt_(salt),
        encoding_(encoding),
        rows_(slots << precision, 0) {
    for (size_t k = 0; k < parts; ++k) {
      stores_.emplace_back(precision, k, parts, slots, encoding,
                           rows_.data());
    }
  }

  size_t num_cells() const { return size_t{1} << precision_; }
  size_t num_parts() const { return stores_.size(); }
  PartStore& store(size_t k) { return stores_[k]; }
  size_t PartOf(size_t c) const {
    for (size_t k = 0; k < stores_.size(); ++k) {
      if (c - stores_[k].begin() < stores_[k].num_cells()) return k;
    }
    return stores_.size();
  }

  void Open(size_t s) {
    for (PartStore& store : stores_) store.Open(s);
  }
  void AddEntry(size_t s, size_t c, uint8_t rank, Timestamp t) {
    stores_[PartOf(c)].AddEntry(s, c, rank, t);
  }
  // Add's hashing: every store is offered the hash.
  void Add(size_t s, uint64_t item, Timestamp t) {
    for (PartStore& store : stores_) store.AddHash(s, Hash64(item, salt_), t);
  }
  void Merge(size_t s, size_t v, Timestamp merge_time, Duration window,
             size_t part) {
    stores_[part].MergeWindow(s, stores_[part], v, merge_time, window);
  }
  void MergeAll(size_t s, size_t v, Timestamp merge_time, Duration window) {
    for (size_t k = 0; k < stores_.size(); ++k) {
      Merge(s, v, merge_time, window, k);
    }
  }
  void Retire(size_t s, size_t part) { stores_[part].Retire(s); }
  void Collapse(size_t s) {
    for (PartStore& store : stores_) store.Collapse(s);
  }
  void Clear(size_t s) {
    for (PartStore& store : stores_) store.Clear(s);
  }

  // Fills slot s (absent) with `cells`' live pairs and retired ranks, as
  // a checkpoint's restore does: each store takes its cells.
  void Restore(size_t s, const SketchCells& cells) {
    size_t live = 0;
    size_t dead = 0;
    for (PartStore& store : stores_) {
      const size_t b = store.begin();
      const size_t n_cells = store.num_cells();
      size_t n = 0;
      size_t d = 0;
      for (size_t c = b; c < b + n_cells; ++c) {
        n += cells.counts[c];
        d += cells.retired[c];
      }
      std::vector<uint8_t> time_bytes(n * encoding_.width);
      WithTimeCodec(encoding_.width, [&](auto codec) {
        for (size_t i = 0; i < n; ++i) {
          codec.Store(time_bytes.data(), i,
                      codec.Encode(encoding_.base, cells.times[live + i]));
        }
      });
      store.Restore(s, {cells.counts.data() + b, n_cells},
                    {cells.ranks.data() + live, n}, time_bytes,
                    {cells.retired.data() + b, n_cells},
                    {cells.retired_ranks.data() + dead, d});
      live += n;
      dead += d;
    }
  }

  std::span<const uint8_t> row(size_t s) const {
    return {rows_.data() + s * num_cells(), num_cells()};
  }
  size_t NumEntries(size_t s) const {
    size_t entries = 0;
    for (const PartStore& store : stores_) entries += store.NumEntries(s);
    return entries;
  }
  bool collapsed(size_t s) const {
    return stores_[0].form(s) == PartStore::Form::kCollapsed;
  }

  // Slot s's cells, gathered in part order.
  SketchCells CellsOf(size_t s) const {
    return *GatherCells(stores_, s, row(s), precision_, salt_);
  }

  Tallies tallies() const {
    Tallies total;
    for (const PartStore& store : stores_) {
      total.Add({store.tallies().insert_attempts, store.tallies().evictions,
                 store.tallies().merge_entries_scanned,
                 store.tallies().cell_updates});
    }
    return total;
  }
  bool CheckInvariants() const {
    for (const PartStore& store : stores_) {
      if (!store.CheckInvariants()) return false;
    }
    return true;
  }
  size_t MemoryUsageBytes() const {
    size_t bytes = 0;
    for (const PartStore& store : stores_) bytes += store.MemoryUsageBytes();
    return bytes;
  }
  size_t relocations() const {
    size_t n = 0;
    for (const PartStore& store : stores_) n += store.relocations();
    return n;
  }
  size_t compactions() const {
    size_t n = 0;
    for (const PartStore& store : stores_) n += store.compactions();
    return n;
  }

 private:
  int precision_;
  uint64_t salt_;
  TimeEncoding encoding_;
  std::vector<uint8_t> rows_;
  std::vector<PartStore> stores_;
};

// Part k of P holds cells [ceil(k * beta / P), ceil((k + 1) * beta / P)).
TEST(PartStoreTest, PartsSplitTheCellsEvenly) {
  StoreSet set(/*precision=*/5, /*salt=*/0, /*parts=*/3, /*slots=*/1,
               TimeEncoding{});
  EXPECT_EQ(set.store(0).begin(), 0u);
  EXPECT_EQ(set.store(0).num_cells(), 11u);
  EXPECT_EQ(set.store(1).begin(), 11u);
  EXPECT_EQ(set.store(1).num_cells(), 11u);
  EXPECT_EQ(set.store(2).begin(), 22u);
  EXPECT_EQ(set.store(2).num_cells(), 10u);
  // A hash whose cell is another part's is not the store's to insert.
  set.Open(0);
  const uint64_t hash_of_cell_12 = (uint64_t{1} << 40) | 12;
  EXPECT_FALSE(set.store(0).AddHash(0, hash_of_cell_12, 5));
  EXPECT_TRUE(set.store(1).AddHash(0, hash_of_cell_12, 5));
  EXPECT_EQ(set.row(0)[12], 36);  // rank of bit 40 above 5 cell bits
  EXPECT_EQ(set.store(0).tallies().insert_attempts, 0u);
}

// Retiring every live pair keeps each cell's ranks, in order, as retired
// ranks and frees the live run: the row and the entry count stay. A later
// pair brings the live counts back and evicts exactly the retired ranks
// not above its own, counting them as evictions; a collapse then frees
// every run and keeps the row and the entry count. A store's bytes are its
// records and its runs: C + cap x (1 + width) live, C + cap retired.
TEST(PartStoreTest, RetiredRanksStayUntilEvicted) {
  std::vector<uint8_t> row(16, 0);
  PartStore store(/*precision=*/4, /*part=*/0, /*num_parts=*/1,
                  /*num_slots=*/1, TimeEncoding{0, 4}, row.data());
  const size_t records = store.MemoryUsageBytes();
  store.Open(0);
  EXPECT_EQ(store.MemoryUsageBytes(), records + 16);
  // Cell 3: ranks 2 < 5 < 9 at times 100 < 200 < 300; cell 7: rank 4.
  store.AddEntry(0, 3, 2, 100);
  store.AddEntry(0, 3, 5, 200);
  store.AddEntry(0, 3, 9, 300);
  store.AddEntry(0, 7, 4, 150);
  const std::vector<uint8_t> full_row = row;
  // Live counts (16 bytes), 4 ranks, 4 u32 times.
  EXPECT_EQ(store.MemoryUsageBytes(), records + 16 + 4 + 4 * 4);
  // At scan time 50 with window 50, every pair (times >= 100) is dead.
  store.Retire(0);
  ASSERT_TRUE(store.CheckInvariants());
  PartStore::Runs runs = store.runs(0);
  EXPECT_TRUE(runs.counts.empty());
  EXPECT_TRUE(runs.ranks.empty());
  EXPECT_EQ(std::vector<uint8_t>(runs.retired_ranks.begin(),
                                 runs.retired_ranks.end()),
            (std::vector<uint8_t>{2, 5, 9, 4}));
  EXPECT_EQ(runs.retired[3], 3);
  EXPECT_EQ(runs.retired[7], 1);
  EXPECT_EQ(row, full_row);
  EXPECT_EQ(store.NumEntries(0), 4u);
  // The times are gone, and the live counts became the retired ones.
  EXPECT_EQ(store.MemoryUsageBytes(), records + 16 + 4);
  // A pair of rank 5 at time 60 evicts the retired 2 and 5, not 9.
  const size_t evictions = store.tallies().evictions;
  EXPECT_TRUE(store.AddEntry(0, 3, 5, 60));
  ASSERT_TRUE(store.CheckInvariants());
  EXPECT_EQ(store.tallies().evictions, evictions + 2);
  // Live counts again (16 bytes), one rank and one u32 time.
  EXPECT_EQ(store.MemoryUsageBytes(), records + 16 + 4 + 16 + 1 + 4);
  runs = store.runs(0);
  EXPECT_EQ(runs.counts[3], 1);
  EXPECT_EQ(store.time_encoding().Decode(runs.time_bytes.data(), 0), 60);
  EXPECT_EQ(std::vector<uint8_t>(runs.retired_ranks.begin(),
                                 runs.retired_ranks.end()),
            (std::vector<uint8_t>{9, 4}));
  EXPECT_EQ(row[3], 9);
  EXPECT_EQ(store.NumEntries(0), 3u);
  // A pair of rank 9 or more evicts the last retired rank too.
  EXPECT_TRUE(store.AddEntry(0, 3, 10, 55));
  EXPECT_EQ(store.tallies().evictions, evictions + 4);
  EXPECT_EQ(row[3], 10);
  EXPECT_EQ(store.NumEntries(0), 2u);
  // Cell 7's rank 4 alone is retired: evicting it frees the retired run.
  EXPECT_TRUE(store.AddEntry(0, 7, 6, 52));
  EXPECT_TRUE(store.runs(0).retired.empty());
  EXPECT_EQ(store.MemoryUsageBytes(), records + 16 + 2 + 2 * 4);
  store.Collapse(0);
  EXPECT_EQ(store.form(0), PartStore::Form::kCollapsed);
  EXPECT_TRUE(store.CheckInvariants());
  EXPECT_EQ(store.NumEntries(0), 2u);
  EXPECT_EQ(store.MemoryUsageBytes(), records);
  EXPECT_EQ(row[3], 10);
  EXPECT_EQ(row[7], 6);
}

// Three sketches in one store: a run that outgrows its capacity grows in
// place at the slab's end and moves to the end otherwise, leaving a hole;
// once the holes pass an eighth of the slab it compacts, and the cells,
// rows and bytes stay what they were. A run freed at the slab's end
// shrinks it.
TEST(PartStoreTest, RunsMoveAndSlabsCompact) {
  constexpr size_t kCells = 16;
  std::vector<uint8_t> rows(3 * kCells, 0);
  PartStore store(/*precision=*/4, /*part=*/0, /*num_parts=*/1,
                  /*num_slots=*/3, TimeEncoding{0, 4}, rows.data());
  const size_t records = store.MemoryUsageBytes();
  for (size_t s = 0; s < 3; ++s) store.Open(s);
  // A staircase of `n` pairs into cell c of slot s: each pair is kept.
  const auto climb = [&store](size_t s, size_t c, int n) {
    for (int r = 1; r <= n; ++r) {
      ASSERT_TRUE(store.AddEntry(s, c, static_cast<uint8_t>(r), 100 * r));
    }
  };
  climb(2, 0, 4);  // the last run grows in place
  EXPECT_EQ(store.relocations(), 0u);
  climb(0, 1, 8);  // slot 0's run lies first: it moves to the end
  EXPECT_EQ(store.relocations(), 1u);
  ASSERT_TRUE(store.CheckInvariants());
  climb(1, 2, 20);
  climb(0, 3, 30);
  ASSERT_TRUE(store.CheckInvariants());
  EXPECT_GT(store.compactions(), 0u);
  // After a compaction the slab holds the runs and holes at most an eighth.
  const auto live_bytes = [&store] {
    size_t bytes = 0;
    for (size_t s = 0; s < 3; ++s) {
      if (store.form(s) != PartStore::Form::kLive) continue;
      const PartStore::Runs runs = store.runs(s);
      if (!runs.counts.empty()) bytes += kCells + runs.ranks.size() * 5;
    }
    return bytes;
  };
  EXPECT_GE(store.MemoryUsageBytes(), records + live_bytes());
  EXPECT_EQ(store.NumEntries(0), 38u);
  EXPECT_EQ(rows[1], 8);
  EXPECT_EQ(rows[3], 30);
  EXPECT_EQ(rows[kCells + 2], 20);
  EXPECT_EQ(rows[2 * kCells], 4);
  // Every run freed: the slabs are empty.
  for (size_t s = 0; s < 3; ++s) store.Collapse(s);
  EXPECT_EQ(store.MemoryUsageBytes(), records);
  EXPECT_TRUE(store.CheckInvariants());
}

// A sketch split into parts holds the same cells and tallies as a one-part
// sketch fed the same operations, whether a merge runs in one call or one
// part at a time.
TEST(PartStoreTest, PartsMatchOnePart) {
  // 32 cells in parts [0, 11), [11, 22), [22, 32).
  constexpr int kPrecision = 5;
  constexpr size_t kCells = size_t{1} << kPrecision;
  Rng rng(4242);
  VersionedHll whole(kPrecision, 5);
  VersionedHll whole_source(kPrecision, 5);
  // Slot 0 is the sketch, slot 1 the merge source.
  StoreSet split(kPrecision, 5, 3, 2, TimeEncoding{});
  split.Open(0);
  split.Open(1);
  for (int op = 0; op < 3000; ++op) {
    const size_t cell = rng.NextBounded(kCells);
    const auto rank = static_cast<uint8_t>(1 + rng.NextBounded(40));
    const auto t = static_cast<Timestamp>(rng.NextBounded(2000));
    switch (rng.NextBounded(8)) {
      case 0:
        whole.MergeWindow(whole_source, t, 300);
        split.MergeAll(0, 1, t, 300);
        break;
      case 1:
        whole.MergeWindow(whole_source, t, 300);
        for (const size_t part : {2u, 0u, 1u}) split.Merge(0, 1, t, 300, part);
        break;
      case 2:
        whole_source.AddEntry(cell, rank, t);
        split.AddEntry(1, cell, rank, t);
        break;
      case 3: {
        const uint64_t item = rng.NextUint64();
        whole.Add(item, t);
        split.Add(0, item, t);
        break;
      }
      default:
        whole.AddEntry(cell, rank, t);
        split.AddEntry(0, cell, rank, t);
        break;
    }
  }
  ASSERT_TRUE(split.CheckInvariants());
  EXPECT_EQ(split.CellsOf(0), CellsOf(whole));
  EXPECT_EQ(split.CellsOf(1), CellsOf(whole_source));
  const Tallies want{
      whole.NumInsertAttempts() + whole_source.NumInsertAttempts(),
      whole.NumEvictions() + whole_source.NumEvictions(),
      whole.NumMergeEntriesScanned() + whole_source.NumMergeEntriesScanned(),
      whole.NumCellUpdates() + whole_source.NumCellUpdates()};
  EXPECT_EQ(split.tallies(), want);
  EXPECT_GT(want.evictions, 0u);
}

// Reference model of one sketch, written from the paper's rule alone:
// per-cell vectors of (rank, time) pairs. A pair is rejected when a stored
// pair dominates it (no later, no lower-ranked); a kept pair evicts every
// stored pair it dominates. It counts the same four lifetime tallies as a
// store and knows nothing of parts, runs, slabs or scratch buffers.
class DominationModel {
 public:
  DominationModel(int precision, uint64_t salt, size_t num_parts)
      : precision_(precision),
        salt_(salt),
        num_parts_(num_parts),
        cells_(size_t{1} << precision) {}

  void AddEntry(size_t cell, uint8_t rank, Timestamp t) {
    ++tallies.insert_attempts;
    Insert(cell, rank, t);
  }

  // Add's hashing.
  void Add(uint64_t item, Timestamp t) {
    const uint64_t hash = Hash64(item, salt_);
    const size_t cell = hash & (cells_.size() - 1);
    const int rank = std::min(RhoLsb(hash >> precision_), 64 - precision_ + 1);
    AddEntry(cell, static_cast<uint8_t>(rank), t);
  }

  void MergeWindow(const DominationModel& other, Timestamp merge_time,
                   Duration window, size_t part) {
    for (size_t c = PartBegin(part); c < PartBegin(part + 1); ++c) {
      for (const Pair& p : other.cells_[c]) {
        if (p.t >= merge_time + window) continue;
        // A retired pair lies at or after every window a merge reads.
        EXPECT_FALSE(p.retired);
        ++tallies.insert_attempts;
        ++tallies.merge_entries_scanned;
        tallies.cell_updates += Insert(c, p.rank, p.t) ? 1 : 0;
      }
    }
  }
  void MergeWindow(const DominationModel& other, Timestamp merge_time,
                   Duration window) {
    for (size_t k = 0; k < num_parts_; ++k) {
      MergeWindow(other, merge_time, window, k);
    }
  }

  // Marks every pair of part `part` retired, each of which must be at or
  // after `horizon` (Retire's contract): they keep their time here, which
  // the store drops.
  void Retire(Timestamp horizon, size_t part) {
    for (size_t c = PartBegin(part); c < PartBegin(part + 1); ++c) {
      for (Pair& p : cells_[c]) {
        EXPECT_GE(p.t, horizon);
        p.retired = true;
      }
    }
  }

  void Clear() {
    for (auto& pairs : cells_) pairs.clear();
  }

  // A model of the sketch restored from this one's cells: same lists and
  // parts, no history.
  DominationModel Refilled() const {
    DominationModel copy(precision_, salt_, num_parts_);
    copy.cells_ = cells_;
    return copy;
  }

  // The restore's input: per cell the live pairs, and the retired ranks,
  // in cell order.
  SketchCells Stored() const {
    SketchCells out;
    out.precision = precision_;
    out.salt = salt_;
    for (const auto& pairs : cells_) {
      uint8_t live = 0;
      uint8_t retired = 0;
      for (const Pair& p : pairs) {
        if (p.retired) {
          ++retired;
          out.retired_ranks.push_back(p.rank);
        } else {
          ++live;
          out.ranks.push_back(p.rank);
          out.times.push_back(p.t);
        }
      }
      out.counts.push_back(live);
      out.retired.push_back(retired);
    }
    return out;
  }

  struct Pair {
    uint8_t rank;
    Timestamp t;
    bool retired = false;
  };
  const std::vector<Pair>& cell(size_t c) const { return cells_[c]; }
  size_t num_cells() const { return cells_.size(); }

  Tallies tallies;

 private:
  // Part k is cells [ceil(k * beta / P), ceil((k + 1) * beta / P)).
  size_t PartBegin(size_t k) const {
    return (k * cells_.size() + num_parts_ - 1) / num_parts_;
  }

  bool Insert(size_t cell, uint8_t rank, Timestamp t) {
    std::vector<Pair>& pairs = cells_[cell];
    for (const Pair& p : pairs) {
      if (p.t <= t && p.rank >= rank) return false;
    }
    const size_t before = pairs.size();
    std::erase_if(pairs, [&](const Pair& p) {
      return t <= p.t && rank >= p.rank;
    });
    tallies.evictions += before - pairs.size();
    const auto at = std::find_if(pairs.begin(), pairs.end(),
                                 [t](const Pair& p) { return p.t > t; });
    pairs.insert(at, {rank, t, false});
    return true;
  }

  int precision_;
  uint64_t salt_;
  size_t num_parts_;
  std::vector<std::vector<Pair>> cells_;
};

void ExpectMatchesModel(const StoreSet& set, size_t s,
                        const DominationModel& model) {
  ASSERT_TRUE(set.CheckInvariants());
  ASSERT_EQ(set.num_cells(), model.num_cells());
  const SketchCells cells = set.CellsOf(s);
  size_t entries = 0;
  size_t live = 0;
  size_t dead = 0;
  for (size_t c = 0; c < model.num_cells(); ++c) {
    const std::vector<DominationModel::Pair>& want = model.cell(c);
    EXPECT_EQ(set.row(s)[c], want.empty() ? 0 : want.back().rank)
        << "cell " << c;
    entries += want.size();
    if (cells.collapsed) continue;
    // The live pairs come first, then the retired ones as bare ranks.
    ASSERT_EQ(size_t{cells.counts[c]} + cells.retired[c], want.size())
        << "cell " << c;
    for (size_t i = 0; i < want.size(); ++i) {
      const bool is_live = i < cells.counts[c];
      ASSERT_EQ(!want[i].retired, is_live) << "cell " << c << " entry " << i;
      if (is_live) {
        EXPECT_EQ(cells.ranks[live + i], want[i].rank)
            << "cell " << c << " entry " << i;
        EXPECT_EQ(cells.times[live + i], want[i].t)
            << "cell " << c << " entry " << i;
      } else {
        EXPECT_EQ(cells.retired_ranks[dead + i - cells.counts[c]],
                  want[i].rank)
            << "cell " << c << " entry " << i;
      }
    }
    live += cells.counts[c];
    dead += cells.retired[c];
  }
  EXPECT_EQ(set.NumEntries(s), entries);
}

// The base time of the narrow run below: its times are all negative.
constexpr Timestamp kNarrowBase = -3'000'000'000'000;

// Random batches of every mutation against DominationModel, at 1 to 4
// parts and at both time widths: after each batch the cell lists, the
// rows, the entry counts and the four lifetime tallies must equal the
// models', and the stores' byte counts must add up to what they charged
// the "vhll" tally. Sketch a, its merge source b and every one-pair
// sketch share the stores, so runs move past one another and the slabs
// compact. Long ascending runs grow cells to most of the longest list.
// Besides random adds and merges, the batches repeat a merge (the second
// changes nothing: a's lists and the bytes stay put), merge a pair that
// dominates a part's last cell (the merge's first and only rewritten
// cell), add into the first and last cell of every part, and restore a
// from its stored cells into a new slot (a checkpoint resume), collapsing
// the old one. The wide run draws times from [0, 4000); the narrow one
// (u32 offsets from a negative base) spreads them across all 2^32
// offsets, ends included, and also merges with bounds at or below the
// base (nothing is eligible) and beyond the top offset (everything is).
void AgreesWithDominationModelUnderRandomBatches(const TimeEncoding& encoding) {
  constexpr int kPrecision = 4;  // 16 cells: lists grow long
  constexpr uint64_t kSalt = 77;
  constexpr int kMaxRank = 64 - kPrecision + 1;
  constexpr size_t kSlots = 600;
  constexpr Timestamp kTop = std::numeric_limits<uint32_t>::max();
  constexpr Timestamp kBase = kNarrowBase;
  // A step of the narrow time grid: 4000 steps span the offsets.
  constexpr Timestamp kStride = kTop / 3999;
  obs::MemoryTally& tally = VhllMemTally();
  const bool narrow = encoding.width == 4;
  Rng rng(2525);
  for (size_t parts = 1; parts <= 4; ++parts) {
    SCOPED_TRACE(testing::Message() << parts << " parts, width "
                                    << int{encoding.width});
    const int64_t tally_before = tally.CurrentBytes();
    std::optional<StoreSet> set(std::in_place, kPrecision, kSalt, parts,
                                kSlots, encoding);
    // a: the sketch under test; b: merge source. Every other slot is
    // opened once, for a restored a or a one-pair sketch.
    size_t a = 0;
    const size_t b = 1;
    size_t next_slot = 2;
    set->Open(a);
    set->Open(b);
    DominationModel model_a(kPrecision, kSalt, parts);
    DominationModel model_b(kPrecision, kSalt, parts);
    // Tallies of the models a restore replaced and of the one-pair
    // sketches: the stores count them too.
    Tallies history;
    size_t longest = 0;
    const auto time = [&rng, narrow] {
      if (!narrow) return static_cast<Timestamp>(rng.NextBounded(4000));
      switch (rng.NextBounded(20)) {
        case 0:
          return kBase;
        case 1:
          return kBase + kTop;
        default:
          return kBase +
                 kStride * static_cast<Timestamp>(rng.NextBounded(4000));
      }
    };
    const auto rank = [&rng] {
      return static_cast<uint8_t>(1 + rng.NextBounded(kMaxRank));
    };
    // A merge's (merge_time, window), its bound merge_time + window drawn
    // around the narrow encoding's ends a third of the time.
    const auto merge_args = [&rng, &time, narrow] {
      if (!narrow) {
        const Timestamp merge_time = time();
        return std::pair(merge_time,
                         static_cast<Duration>(rng.NextBounded(3000)));
      }
      const auto window =
          static_cast<Duration>(1 + rng.NextBounded(3000 * kStride));
      const auto near = static_cast<Timestamp>(rng.NextBounded(1 << 20));
      Timestamp bound = 0;
      switch (rng.NextBounded(6)) {
        case 0:
          bound = kBase - near;  // at or below the base
          break;
        case 1:
          bound = kBase + kTop + 1 + near;  // beyond the top offset
          break;
        default:
          return std::pair(time(), window);
      }
      return std::pair(bound - window, window);
    };
    // Checkpoint resume: a restored from its stored cells into a fresh
    // slot, its old slot collapsed, and its model without history.
    const auto restore_a = [&] {
      set->Collapse(a);
      a = next_slot++;
      set->Restore(a, model_a.Stored());
      history.Add(model_a.tallies);
      model_a = model_a.Refilled();
    };
    const auto expect_tallies = [&] {
      Tallies want = history;
      want.Add(model_a.tallies);
      want.Add(model_b.tallies);
      EXPECT_EQ(set->tallies(), want);
    };

    // The first and last cell of each part.
    std::vector<std::pair<size_t, size_t>> part_cells(parts, {16, 0});
    for (size_t c = 0; c < 16; ++c) {
      auto& [first, last] = part_cells[set->PartOf(c)];
      first = std::min(first, c);
      last = std::max(last, c);
    }

    for (int batch = 0; batch < 60; ++batch) {
      for (int op = 0; op < 40; ++op) {
        const size_t cell = rng.NextBounded(16);
        switch (rng.NextBounded(13)) {
          case 0:
          case 1: {
            const Timestamp t = time();
            const uint8_t r = rank();
            set->AddEntry(a, cell, r, t);
            model_a.AddEntry(cell, r, t);
            break;
          }
          case 2:
          case 3: {
            const Timestamp t = time();
            const uint8_t r = rank();
            set->AddEntry(b, cell, r, t);
            model_b.AddEntry(cell, r, t);
            break;
          }
          case 4: {
            const uint64_t item = rng.NextUint64();
            const Timestamp t = time();
            set->Add(a, item, t);
            model_a.Add(item, t);
            break;
          }
          case 5: {
            // A staircase: ascending ranks at ascending times, none
            // dominating another, so the cell's list grows long.
            const auto steps = static_cast<int>(1 + rng.NextBounded(40));
            // The narrow run's climb stays below the top offset.
            Timestamp t = narrow ? std::min(time(), kBase + kTop - 5 * 64)
                                 : time();
            for (int r = 1; r <= std::min(steps, kMaxRank); ++r) {
              t += 1 + static_cast<Timestamp>(rng.NextBounded(5));
              set->AddEntry(b, cell, static_cast<uint8_t>(r), t);
              model_b.AddEntry(cell, static_cast<uint8_t>(r), t);
            }
            break;
          }
          case 6:
          case 7: {
            const auto [merge_time, window] = merge_args();
            if (rng.NextBounded(2) == 0) {
              set->MergeAll(a, b, merge_time, window);
              model_a.MergeWindow(model_b, merge_time, window);
            } else {
              const size_t part = rng.NextBounded(parts);
              set->Merge(a, b, merge_time, window, part);
              model_a.MergeWindow(model_b, merge_time, window, part);
            }
            break;
          }
          case 8: {
            if (rng.NextBounded(10) != 0) break;
            if (rng.NextBounded(2) == 0) {
              set->Clear(a);
              model_a.Clear();
            } else {
              set->Clear(b);
              model_b.Clear();
            }
            break;
          }
          case 10: {
            // The second of two equal merges finds every eligible pair of
            // b in a or dominated there: it writes nothing.
            const auto [merge_time, window] = merge_args();
            set->MergeAll(a, b, merge_time, window);
            model_a.MergeWindow(model_b, merge_time, window);
            const SketchCells before = set->CellsOf(a);
            const size_t bytes = set->MemoryUsageBytes();
            set->MergeAll(a, b, merge_time, window);
            model_a.MergeWindow(model_b, merge_time, window);
            EXPECT_EQ(set->CellsOf(a), before);
            EXPECT_EQ(set->MemoryUsageBytes(), bytes);
            break;
          }
          case 11: {
            // A merge from a sketch whose one pair, at the earliest time
            // and the top rank, sits in the last cell of a part: it
            // dominates that cell of a, the only cell that changes.
            const size_t last = part_cells[rng.NextBounded(parts)].second;
            const Timestamp earliest = narrow ? kBase : 0;
            const auto top = static_cast<uint8_t>(kMaxRank);
            const size_t lone = next_slot++;
            set->Open(lone);
            DominationModel model_lone(kPrecision, kSalt, parts);
            set->AddEntry(lone, last, top, earliest);
            model_lone.AddEntry(last, top, earliest);
            const SketchCells cells = set->CellsOf(a);
            set->MergeAll(a, lone, earliest, 1);
            model_a.MergeWindow(model_lone, earliest, 1);
            history.Add(model_lone.tallies);
            set->Collapse(lone);
            const SketchCells after = set->CellsOf(a);
            size_t pair = 0;
            size_t after_pair = 0;
            for (size_t c = 0; c < 16; ++c) {
              if (c == last) {
                ASSERT_EQ(after.counts[c], 1u);
                EXPECT_EQ(after.ranks[after_pair], top);
                EXPECT_EQ(after.times[after_pair], earliest);
              } else {
                ASSERT_EQ(after.counts[c], cells.counts[c]) << "cell " << c;
                for (size_t i = 0; i < cells.counts[c]; ++i) {
                  EXPECT_EQ(after.ranks[after_pair + i], cells.ranks[pair + i]);
                  EXPECT_EQ(after.times[after_pair + i], cells.times[pair + i]);
                }
              }
              pair += cells.counts[c];
              after_pair += after.counts[c];
            }
            break;
          }
          case 12: {
            for (const auto& [first, last] : part_cells) {
              for (const size_t c : {first, last}) {
                const Timestamp t = time();
                const uint8_t r = rank();
                set->AddEntry(a, c, r, t);
                model_a.AddEntry(c, r, t);
              }
            }
            break;
          }
          default: {
            if (rng.NextBounded(10) == 0) restore_a();
            break;
          }
        }
      }
      SCOPED_TRACE(testing::Message() << "batch " << batch);
      ExpectMatchesModel(*set, a, model_a);
      ExpectMatchesModel(*set, b, model_b);
      expect_tallies();
      EXPECT_EQ(tally.CurrentBytes() - tally_before,
                static_cast<int64_t>(set->MemoryUsageBytes()));
      if (testing::Test::HasFailure()) return;
      for (size_t c = 0; c < model_a.num_cells(); ++c) {
        longest = std::max(longest, model_a.cell(c).size());
      }
    }
    // The reverse scan's phase: a clock `now` that never rises, with every
    // time drawn from [now, now + window), and merges at (now, window).
    // The sketches start empty, so every pair is at or after `now`. Now
    // and then the clock jumps back a whole window, which leaves every
    // pair of a and b dead, and retires every part of a, or one part of a
    // or b. Retired pairs keep their ranks, which later pairs evict by rank
    // alone: the model, which keeps their times, must agree, tallies
    // included.
    set->Clear(a);
    set->Clear(b);
    model_a.Clear();
    model_b.Clear();
    const Duration window = narrow ? 100 * kStride : 100;
    const Timestamp floor = narrow ? kBase : 0;
    Timestamp now = narrow ? kBase + 3800 * kStride : 3800;
    size_t retired = 0;
    for (int batch = 0; batch < 30; ++batch) {
      for (int op = 0; op < 40; ++op) {
        now = std::max(floor, now - static_cast<Timestamp>(
                                        rng.NextBounded(window / 64 + 1)));
        const Timestamp t =
            now + static_cast<Timestamp>(rng.NextBounded(window));
        const size_t cell = rng.NextBounded(16);
        const size_t part = rng.NextBounded(parts);
        switch (rng.NextBounded(7)) {
          case 0: {
            const uint8_t r = rank();
            set->AddEntry(a, cell, r, t);
            model_a.AddEntry(cell, r, t);
            break;
          }
          case 1: {
            const uint8_t r = rank();
            set->AddEntry(b, cell, r, t);
            model_b.AddEntry(cell, r, t);
            break;
          }
          case 2: {
            const uint64_t item = rng.NextUint64();
            set->Add(a, item, t);
            model_a.Add(item, t);
            break;
          }
          case 3:
          case 4:
            set->Merge(a, b, now, window, part);
            model_a.MergeWindow(model_b, now, window, part);
            break;
          case 5: {
            if (rng.NextBounded(8) != 0 || now - window < floor) break;
            const Timestamp horizon = now;
            now -= window;
            switch (rng.NextBounded(3)) {
              case 0:
                for (size_t k = 0; k < parts; ++k) {
                  set->Retire(a, k);
                  model_a.Retire(horizon, k);
                }
                break;
              case 1:
                set->Retire(a, part);
                model_a.Retire(horizon, part);
                break;
              default:
                set->Retire(b, part);
                model_b.Retire(horizon, part);
                break;
            }
            break;
          }
          default: {
            // Checkpoint resume, retired ranks included.
            if (rng.NextBounded(8) == 0) restore_a();
            break;
          }
        }
      }
      SCOPED_TRACE(testing::Message() << "scan batch " << batch);
      ExpectMatchesModel(*set, a, model_a);
      ExpectMatchesModel(*set, b, model_b);
      expect_tallies();
      EXPECT_EQ(tally.CurrentBytes() - tally_before,
                static_cast<int64_t>(set->MemoryUsageBytes()));
      if (testing::Test::HasFailure()) return;
      retired += set->CellsOf(a).retired_ranks.size();
    }
    EXPECT_GT(retired, 0u);
    // Collapse: a keeps its row and entry count and frees its runs, and a
    // merge from it reads nothing.
    set->Collapse(a);
    ExpectMatchesModel(*set, a, model_a);
    const size_t fresh = next_slot++;
    set->Open(fresh);
    const Tallies before = set->tallies();
    set->MergeAll(fresh, a, now, window);
    EXPECT_EQ(set->NumEntries(fresh), 0u);
    EXPECT_EQ(set->tallies(), before);
    EXPECT_EQ(tally.CurrentBytes() - tally_before,
              static_cast<int64_t>(set->MemoryUsageBytes()));

    // The run grew long lists, pruned along the way, and moved runs and
    // compacted slabs.
    EXPECT_GT(longest, kVhllMaxCellEntries / 2);
    EXPECT_GT(history.evictions + model_a.tallies.evictions, 0u);
    EXPECT_GT(history.cell_updates + model_a.tallies.cell_updates, 0u);
    EXPECT_GT(set->relocations(), 0u);
    EXPECT_GT(set->compactions(), 0u);
    set.reset();
    EXPECT_EQ(tally.CurrentBytes(), tally_before);
  }
}

TEST(PartStoreTest, AgreesWithDominationModelUnderRandomBatches) {
  AgreesWithDominationModelUnderRandomBatches(TimeEncoding{});
  AgreesWithDominationModelUnderRandomBatches(TimeEncoding{kNarrowBase, 4});
}

}  // namespace
}  // namespace ipin
