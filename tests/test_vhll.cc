#include "ipin/sketch/vhll.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/hash.h"
#include "ipin/common/random.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/hll.h"
#include "test_util.h"

namespace ipin {
namespace {

// A MergeWindow window past every timestamp these tests use: the merge
// keeps every entry of the other sketch.
constexpr Duration kWholeWindow = std::numeric_limits<Timestamp>::max() / 4;

// Reference model: remembers every (cell, rank, time) triple ever inserted
// and answers per-cell max-rank queries exactly. The vHLL with domination
// pruning must agree with this model for EVERY time bound — that is the
// losslessness property the paper's pruning rule guarantees.
class VhllModel {
 public:
  explicit VhllModel(size_t num_cells) : cells_(num_cells) {}

  void Add(size_t cell, uint8_t rank, Timestamp t) {
    cells_[cell].push_back({rank, t});
  }

  // Mirrors MergeWindow: every pair of `other` with time < bound.
  void MergeFrom(const VhllModel& other, Timestamp bound) {
    for (size_t c = 0; c < cells_.size(); ++c) {
      for (const Pair& p : other.cells_[c]) {
        if (p.t < bound) cells_[c].push_back(p);
      }
    }
  }

  void Clear() {
    for (auto& pairs : cells_) pairs.clear();
  }

  uint8_t MaxRankBefore(size_t cell, Timestamp bound) const {
    uint8_t best = 0;
    for (const auto& [rank, t] : cells_[cell]) {
      if (t < bound && rank > best) best = rank;
    }
    return best;
  }

  uint8_t MaxRank(size_t cell) const {
    uint8_t best = 0;
    for (const auto& [rank, t] : cells_[cell]) {
      (void)t;
      if (rank > best) best = rank;
    }
    return best;
  }

  size_t num_cells() const { return cells_.size(); }

 private:
  struct Pair {
    uint8_t rank;
    Timestamp t;
  };
  std::vector<std::vector<Pair>> cells_;
};

void ExpectAgreesWithModel(const VersionedHll& vhll, const VhllModel& model,
                           std::vector<Timestamp> bounds) {
  for (size_t c = 0; c < model.num_cells(); ++c) {
    const auto& list = vhll.cell(c);
    const uint8_t max_rank = list.empty() ? 0 : list.back().rank;
    EXPECT_EQ(max_rank, model.MaxRank(c)) << "cell " << c;
    for (const Timestamp bound : bounds) {
      uint8_t got = 0;
      for (const auto& e : list) {
        if (e.time >= bound) break;
        got = std::max(got, e.rank);
      }
      EXPECT_EQ(got, model.MaxRankBefore(c, bound))
          << "cell " << c << " bound " << bound;
    }
  }
}

TEST(VhllTest, EmptySketch) {
  const VersionedHll vhll(6);
  EXPECT_DOUBLE_EQ(vhll.Estimate(), 0.0);
  EXPECT_EQ(vhll.NumEntries(), 0u);
  EXPECT_TRUE(vhll.CheckInvariants());
}

TEST(VhllTest, PaperExample3Evolution) {
  // Section 3.2.2, Example 3: items with fixed (cell iota, rank rho) arrive
  // in reverse time order. We drive AddEntry directly with the paper's
  // values and check each intermediate sketch state. Cells are 0..3.
  VersionedHll vhll(4);  // 16 cells; we only use 0..3
  const auto cell_is = [&vhll](size_t c,
                               std::vector<std::pair<int, Timestamp>> want) {
    const auto& list = vhll.cell(c);
    ASSERT_EQ(list.size(), want.size());
    // The paper prints lists newest-first; our storage is ascending time.
    std::sort(want.begin(), want.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(static_cast<int>(list[i].rank), want[i].first);
      EXPECT_EQ(list[i].time, want[i].second);
    }
  };

  vhll.AddEntry(1, 3, 6);  // (a, t6)
  cell_is(1, {{3, 6}});
  vhll.AddEntry(3, 1, 5);  // (b, t5)
  cell_is(3, {{1, 5}});
  vhll.AddEntry(1, 3, 4);  // (a, t4): same rank, earlier time replaces
  cell_is(1, {{3, 4}});
  vhll.AddEntry(3, 2, 3);  // (c, t3): dominates (1, t5)
  cell_is(3, {{2, 3}});
  vhll.AddEntry(2, 2, 2);  // (d, t2)
  cell_is(2, {{2, 2}});
  vhll.AddEntry(2, 1, 1);  // (e, t1): kept alongside (2, t2)
  cell_is(2, {{2, 2}, {1, 1}});
  EXPECT_TRUE(vhll.CheckInvariants());
}

TEST(VhllTest, DominatedEntryIgnored) {
  VersionedHll vhll(4);
  vhll.AddEntry(0, 5, 10);
  vhll.AddEntry(0, 3, 20);  // (5,10) dominates: earlier and higher rank
  EXPECT_EQ(vhll.cell(0).size(), 1u);
  EXPECT_EQ(vhll.cell(0)[0].rank, 5);
}

TEST(VhllTest, NewEntryRemovesDominatedRun) {
  VersionedHll vhll(4);
  vhll.AddEntry(0, 1, 10);
  vhll.AddEntry(0, 2, 20);
  vhll.AddEntry(0, 3, 30);
  ASSERT_EQ(vhll.cell(0).size(), 3u);
  vhll.AddEntry(0, 2, 5);  // dominates (1,10) and (2,20) but not (3,30)
  ASSERT_EQ(vhll.cell(0).size(), 2u);
  EXPECT_EQ(vhll.cell(0)[0].rank, 2);
  EXPECT_EQ(vhll.cell(0)[0].time, 5);
  EXPECT_EQ(vhll.cell(0)[1].rank, 3);
  EXPECT_TRUE(vhll.CheckInvariants());
}

TEST(VhllTest, EqualTimestampKeepsOnlyMaxRank) {
  VersionedHll vhll(4);
  vhll.AddEntry(0, 2, 10);
  vhll.AddEntry(0, 4, 10);  // same time, higher rank dominates
  ASSERT_EQ(vhll.cell(0).size(), 1u);
  EXPECT_EQ(vhll.cell(0)[0].rank, 4);
  vhll.AddEntry(0, 3, 10);  // dominated by (4, 10)
  ASSERT_EQ(vhll.cell(0).size(), 1u);
  EXPECT_TRUE(vhll.CheckInvariants());
}

TEST(VhllTest, RandomOperationsAgreeWithModelForEveryBound) {
  // Property test: arbitrary (cell, rank, time) insertion order (as produced
  // by merges) must preserve per-cell max rank for every time bound.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    VersionedHll vhll(4);
    VhllModel model(16);
    std::vector<Timestamp> bounds = {0, 1, 5, 10, 25, 50, 100, 1000};
    for (int op = 0; op < 300; ++op) {
      const size_t cell = rng.NextBounded(16);
      const uint8_t rank = static_cast<uint8_t>(1 + rng.NextBounded(20));
      const Timestamp t = static_cast<Timestamp>(rng.NextBounded(100));
      vhll.AddEntry(cell, rank, t);
      model.Add(cell, rank, t);
    }
    ASSERT_TRUE(vhll.CheckInvariants());
    ExpectAgreesWithModel(vhll, model, bounds);
  }
}

TEST(VhllTest, EstimateMatchesPlainHllOnSameItems) {
  // With timestamps ignored, vHLL's overall estimate must equal the classic
  // HLL built from the same items (same precision and salt).
  HyperLogLog hll(8, 5);
  VersionedHll vhll(8, 5);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t item = rng.NextBounded(2000);
    const Timestamp t = static_cast<Timestamp>(rng.NextBounded(1000));
    hll.Add(item);
    vhll.Add(item, t);
  }
  EXPECT_DOUBLE_EQ(vhll.Estimate(), hll.Estimate());
}

TEST(VhllTest, MergeWindowRespectsBound) {
  VersionedHll source(8);
  for (uint64_t i = 0; i < 500; ++i) source.Add(i, 100);        // in window
  for (uint64_t i = 1000; i < 1500; ++i) source.Add(i, 900);    // outside
  VersionedHll target(8);
  // merge_time 50, window 100 -> keep entries with t < 150.
  target.MergeWindow(source, 50, 100);
  EXPECT_NEAR(target.Estimate(), 500.0, 120.0);
  EXPECT_TRUE(target.CheckInvariants());
}

TEST(VhllTest, MergeAllTakesEverything) {
  VersionedHll a(8);
  VersionedHll b(8);
  for (uint64_t i = 0; i < 800; ++i) a.Add(i, 1);
  for (uint64_t i = 400; i < 1200; ++i) b.Add(i, 2);
  a.MergeWindow(b, 0, kWholeWindow);
  EXPECT_NEAR(a.Estimate(), 1200.0, 200.0);
  EXPECT_TRUE(a.CheckInvariants());
}

TEST(VhllTest, MergePreservesPerBoundMaxRanks) {
  // Merged sketch must agree with a model containing the union of entries.
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    VersionedHll a(4);
    VersionedHll b(4);
    VhllModel model(16);
    for (int op = 0; op < 150; ++op) {
      const size_t cell = rng.NextBounded(16);
      const uint8_t rank = static_cast<uint8_t>(1 + rng.NextBounded(15));
      const Timestamp t = static_cast<Timestamp>(rng.NextBounded(80));
      if (op % 2 == 0) {
        a.AddEntry(cell, rank, t);
      } else {
        b.AddEntry(cell, rank, t);
      }
      model.Add(cell, rank, t);
    }
    a.MergeWindow(b, 0, kWholeWindow);
    ASSERT_TRUE(a.CheckInvariants());
    ExpectAgreesWithModel(a, model, {0, 10, 20, 40, 79, 80, 200});
  }
}

TEST(VhllTest, CellListsStayLogarithmic) {
  // Lemma 4: expected undominated pairs per cell is O(log inserts). Insert
  // many items in reverse time order and check the max list length is far
  // below the insert count.
  VersionedHll vhll(4);
  Rng rng(21);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    vhll.Add(rng.NextUint64(), static_cast<Timestamp>(n - i));
  }
  size_t max_len = 0;
  for (size_t c = 0; c < vhll.num_cells(); ++c) {
    max_len = std::max(max_len, vhll.cell(c).size());
  }
  // ~ln(20000/16 per cell) ~ 7.1 expected; allow generous slack.
  EXPECT_LE(max_len, 40u);
}

TEST(VhllTest, ClearResets) {
  VersionedHll vhll(6);
  vhll.Add(1, 1);
  vhll.Add(2, 2);
  vhll.Clear();
  EXPECT_EQ(vhll.NumEntries(), 0u);
  EXPECT_DOUBLE_EQ(vhll.Estimate(), 0.0);
}

TEST(VhllTest, MemoryGrowsWithEntries) {
  VersionedHll vhll(6);
  const size_t empty_bytes = vhll.MemoryUsageBytes();
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    vhll.Add(rng.NextUint64(), static_cast<Timestamp>(i));
  }
  EXPECT_GT(vhll.MemoryUsageBytes(), empty_bytes);
}

TEST(VhllTest, AddReturnsWhetherSketchChanged) {
  VersionedHll vhll(6);
  EXPECT_TRUE(vhll.Add(42, 10));
  EXPECT_FALSE(vhll.Add(42, 10));  // identical insert is a no-op
  EXPECT_TRUE(vhll.Add(42, 5));    // earlier sighting improves the entry
}

// A sketch's bytes are its cell counts and max-rank cache (a byte a cell
// each), its parts' slot capacity at 1 + width bytes a slot, and with more
// than one part the array of parts 1..P-1: what an empty sketch of as many
// parts holds beyond its 2 x beta bytes. A part's capacity follows one
// rule, modelled here: an operation that leaves it more pairs than it has
// room for grows it to the larger of that count and a quarter more than
// before; nothing shrinks it, Clear() included; a refilled part holds
// exactly its pairs. After every operation, at 1 to 4 parts and both time
// widths, the bytes must equal that formula and the "vhll" tally's delta.
TEST(VhllTest, MemoryIsCountsSlotsAndMaxRanks) {
  constexpr int kPrecision = 5;
  constexpr size_t kCells = size_t{1} << kPrecision;
  obs::MemoryTally& tally = VhllMemTally();
  for (const TimeEncoding encoding : {TimeEncoding{}, TimeEncoding{0, 4}}) {
    for (size_t parts = 1; parts <= 4; ++parts) {
      SCOPED_TRACE(testing::Message() << parts << " parts, width "
                                      << int{encoding.width});
      const int64_t tally_before = tally.CurrentBytes();
      Rng rng(31 + parts);
      std::optional<VersionedHll> a(std::in_place, kPrecision, 3, parts,
                                    encoding);
      VersionedHll b(kPrecision, 3, parts, encoding);
      const size_t part_array = b.MemoryUsageBytes() - 2 * kCells;
      EXPECT_EQ(part_array == 0, parts == 1);
      // The modelled slot capacity of each part of a and of b.
      std::vector<size_t> a_slots(parts, 0);
      std::vector<size_t> b_slots(parts, 0);
      const auto pairs = [parts](const VersionedHll& sketch) {
        std::vector<size_t> per_part(parts, 0);
        for (size_t c = 0; c < kCells; ++c) {
          per_part[sketch.PartOf(c)] += sketch.cell(c).size();
        }
        return per_part;
      };
      const auto grow = [&pairs](std::vector<size_t>* slots,
                                 const VersionedHll& sketch) {
        const std::vector<size_t> held = pairs(sketch);
        for (size_t k = 0; k < held.size(); ++k) {
          size_t& capacity = (*slots)[k];
          if (held[k] > capacity) {
            capacity = std::max(held[k], capacity + capacity / 4);
          }
        }
      };
      const auto bytes = [&](const std::vector<size_t>& slots) {
        size_t total = 0;
        for (const size_t n : slots) total += n;
        return 2 * kCells + part_array + total * (1 + encoding.width);
      };
      for (int op = 0; op < 1500; ++op) {
        const size_t cell = rng.NextBounded(kCells);
        const auto rank = static_cast<uint8_t>(1 + rng.NextBounded(40));
        const auto t = static_cast<Timestamp>(rng.NextBounded(3000));
        switch (rng.NextBounded(12)) {
          case 0:
            a->MergeWindow(b, t, 500);
            grow(&a_slots, *a);
            break;
          case 1:
            a->MergeWindow(b, t, 500, rng.NextBounded(parts));
            grow(&a_slots, *a);
            break;
          case 2:
          case 3:
            b.AddEntry(cell, rank, t);
            grow(&b_slots, b);
            break;
          case 4:
            if (rng.NextBounded(20) == 0) a->Clear();
            break;
          case 5: {
            if (rng.NextBounded(20) != 0) break;
            const SketchCells stored = CellsOf(*a);
            a.emplace(kPrecision, 3, parts, stored.counts, stored.ranks,
                      stored.times, stored.retired, stored.retired_ranks,
                      encoding);
            a_slots = pairs(*a);
            break;
          }
          default:
            a->AddEntry(cell, rank, t);
            grow(&a_slots, *a);
            break;
        }
        ASSERT_EQ(a->MemoryUsageBytes(), bytes(a_slots)) << "op " << op;
        ASSERT_EQ(b.MemoryUsageBytes(), bytes(b_slots)) << "op " << op;
        ASSERT_EQ(tally.CurrentBytes() - tally_before,
                  static_cast<int64_t>(a->MemoryUsageBytes() +
                                       b.MemoryUsageBytes()))
            << "op " << op;
      }
      EXPECT_GT(a->NumEntries(), 0u);
    }
  }
}

// Retiring every live pair keeps each cell's ranks, in order, as retired
// ranks and frees the times and the live counts: the row and the entry
// count stay. A later pair brings the live counts back and evicts exactly
// the retired ranks not above its own, counting them as evictions; a
// collapse then keeps the row and the entry count.
TEST(VhllTest, RetiredRanksStayUntilEvicted) {
  VersionedHll vhll(4, 0, 1, TimeEncoding{0, 4});
  // Cell 3: ranks 2 < 5 < 9 at times 100 < 200 < 300; cell 7: rank 4.
  vhll.AddEntry(3, 2, 100);
  vhll.AddEntry(3, 5, 200);
  vhll.AddEntry(3, 9, 300);
  vhll.AddEntry(7, 4, 150);
  const std::vector<uint8_t> row(vhll.max_ranks().begin(),
                                 vhll.max_ranks().end());
  // Cell counts and max ranks (16 bytes each), 4 ranks, 4 u32 times.
  EXPECT_EQ(vhll.MemoryUsageBytes(), 16u + 16 + 4 + 4 * 4);
  // At scan time 50 with window 50, every pair (times >= 100) is dead.
  vhll.Retire(0);
  ASSERT_TRUE(vhll.CheckInvariants());
  EXPECT_EQ(vhll.cell(3).size(), 0u);
  EXPECT_EQ(std::vector<uint8_t>(vhll.cell(3).retired().begin(),
                                 vhll.cell(3).retired().end()),
            (std::vector<uint8_t>{2, 5, 9}));
  EXPECT_EQ(vhll.cell(7).retired().size(), 1u);
  EXPECT_EQ(std::vector<uint8_t>(vhll.max_ranks().begin(),
                                 vhll.max_ranks().end()),
            row);
  EXPECT_EQ(vhll.NumEntries(), 4u);
  // The times are gone, and the live counts became the retired ones.
  EXPECT_EQ(vhll.MemoryUsageBytes(), 16u + 16 + 4);
  // A pair of rank 5 at time 60 evicts the retired 2 and 5, not 9.
  const size_t evictions = vhll.NumEvictions();
  EXPECT_TRUE(vhll.AddEntry(3, 5, 60));
  ASSERT_TRUE(vhll.CheckInvariants());
  EXPECT_EQ(vhll.NumEvictions(), evictions + 2);
  // Live counts again (16 bytes), one rank and one u32 time.
  EXPECT_EQ(vhll.MemoryUsageBytes(), 16u + 16 + 4 + 16 + 1 + 4);
  EXPECT_EQ(vhll.cell(3).size(), 1u);
  EXPECT_EQ(vhll.cell(3)[0].time, 60);
  EXPECT_EQ(std::vector<uint8_t>(vhll.cell(3).retired().begin(),
                                 vhll.cell(3).retired().end()),
            (std::vector<uint8_t>{9}));
  EXPECT_EQ(vhll.max_ranks()[3], 9);
  EXPECT_EQ(vhll.NumEntries(), 3u);
  // A pair of rank 9 or more evicts the last retired rank too.
  EXPECT_TRUE(vhll.AddEntry(3, 10, 55));
  EXPECT_EQ(vhll.NumEvictions(), evictions + 4);
  EXPECT_EQ(vhll.max_ranks()[3], 10);
  EXPECT_EQ(vhll.NumEntries(), 2u);
  vhll.Collapse(0);
  EXPECT_TRUE(vhll.collapsed());
  EXPECT_TRUE(vhll.CheckInvariants());
  EXPECT_EQ(vhll.NumEntries(), 2u);
  EXPECT_EQ(vhll.max_ranks()[3], 10);
  EXPECT_EQ(vhll.max_ranks()[7], 4);
}

// A sketch split into parts holds the same cells and tallies as a one-part
// sketch fed the same operations, whether a merge runs in one call or one
// part at a time, and its byte count covers every part. A one-part sketch
// allocates no part array.
TEST(VhllTest, PartitionedSketchMatchesOnePart) {
  constexpr int kPrecision = 5;  // 32 cells in parts [0, 11), [11, 22), [22, 32)
  constexpr size_t kCells = size_t{1} << kPrecision;
  obs::MemoryTally& tally = VhllMemTally();
  const int64_t tally_before = tally.CurrentBytes();
  Rng rng(4242);
  VersionedHll whole(kPrecision, 5);
  VersionedHll whole_source(kPrecision, 5);
  VersionedHll split(kPrecision, 5, 3);
  VersionedHll split_source(kPrecision, 5, 3);
  ASSERT_EQ(split.num_parts(), 3u);
  EXPECT_EQ(split.PartOf(10), 0u);
  EXPECT_EQ(split.PartOf(11), 1u);
  EXPECT_EQ(split.PartOf(21), 1u);
  EXPECT_EQ(split.PartOf(22), 2u);
  EXPECT_EQ(split.PartOf(kCells - 1), 2u);
  // Cell counts and the max-rank cache (a byte a cell each), nothing else.
  EXPECT_EQ(whole.MemoryUsageBytes(), kCells * 2);

  for (int op = 0; op < 3000; ++op) {
    const size_t cell = rng.NextBounded(kCells);
    const auto rank = static_cast<uint8_t>(1 + rng.NextBounded(40));
    const auto t = static_cast<Timestamp>(rng.NextBounded(2000));
    switch (rng.NextBounded(8)) {
      case 0:
        whole.MergeWindow(whole_source, t, 300);
        split.MergeWindow(split_source, t, 300);
        break;
      case 1:
        whole.MergeWindow(whole_source, t, 300);
        for (const size_t part : {2u, 0u, 1u}) {
          split.MergeWindow(split_source, t, 300, part);
        }
        break;
      case 2:
        whole_source.AddEntry(cell, rank, t);
        split_source.AddEntry(cell, rank, t);
        break;
      case 3: {
        const uint64_t item = rng.NextUint64();
        whole.Add(item, t);
        for (size_t part = 0; part < split.num_parts(); ++part) {
          split.AddInPart(item, t, part);
        }
        break;
      }
      default:
        whole.AddEntry(cell, rank, t);
        split.AddEntry(cell, rank, t);
        break;
    }
  }
  ASSERT_TRUE(split.CheckInvariants());
  EXPECT_EQ(CellsOf(split), CellsOf(whole));
  EXPECT_EQ(split.NumInsertAttempts(), whole.NumInsertAttempts());
  EXPECT_EQ(split.NumEvictions(), whole.NumEvictions());
  EXPECT_EQ(split.NumMergeEntriesScanned(), whole.NumMergeEntriesScanned());
  EXPECT_EQ(split.NumCellUpdates(), whole.NumCellUpdates());
  EXPECT_GT(split.NumEvictions(), 0u);
  EXPECT_EQ(tally.CurrentBytes() - tally_before,
            static_cast<int64_t>(
                whole.MemoryUsageBytes() + whole_source.MemoryUsageBytes() +
                split.MemoryUsageBytes() + split_source.MemoryUsageBytes()));
}

// Reference model of one sketch, written from the paper's rule alone:
// per-cell vectors of (rank, time) pairs. A pair is rejected when a stored
// pair dominates it (no later, no lower-ranked); a kept pair evicts every
// stored pair it dominates. It counts the same four lifetime tallies as
// VersionedHll and knows nothing of parts, runs or scratch buffers.
class DominationModel {
 public:
  DominationModel(int precision, uint64_t salt, size_t num_parts)
      : precision_(precision),
        salt_(salt),
        num_parts_(num_parts),
        cells_(size_t{1} << precision) {}

  void AddEntry(size_t cell, uint8_t rank, Timestamp t) {
    ++insert_attempts;
    Insert(cell, rank, t);
  }

  // Add's hashing, restricted to the cells of part `part`.
  void AddInPart(uint64_t item, Timestamp t, size_t part) {
    const uint64_t hash = Hash64(item, salt_);
    const size_t cell = hash & (cells_.size() - 1);
    if (cell < PartBegin(part) || cell >= PartBegin(part + 1)) return;
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
        ++insert_attempts;
        ++merge_entries_scanned;
        cell_updates += Insert(c, p.rank, p.t) ? 1 : 0;
      }
    }
  }

  // Marks every pair of part `part` retired, each of which must be at or
  // after `horizon` (Retire's contract): they keep their time here, which
  // the sketch drops.
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

  // A model of the sketch refilled from this one's cells: same lists and
  // parts, no history.
  DominationModel Refilled() const {
    DominationModel copy(precision_, salt_, num_parts_);
    copy.cells_ = cells_;
    return copy;
  }

  // The refill constructor's input: per cell the live pairs, and the
  // retired ranks, in cell order.
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
  size_t num_parts() const { return num_parts_; }

  size_t insert_attempts = 0;
  size_t evictions = 0;
  size_t merge_entries_scanned = 0;
  size_t cell_updates = 0;

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
    evictions += before - pairs.size();
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

void ExpectMatchesModel(const VersionedHll& sketch,
                        const DominationModel& model) {
  ASSERT_TRUE(sketch.CheckInvariants());
  ASSERT_EQ(sketch.num_cells(), model.num_cells());
  size_t entries = 0;
  for (size_t c = 0; c < model.num_cells(); ++c) {
    const std::vector<DominationModel::Pair>& want = model.cell(c);
    EXPECT_EQ(sketch.max_ranks()[c], want.empty() ? 0 : want.back().rank)
        << "cell " << c;
    entries += want.size();
    if (sketch.collapsed()) continue;
    // The live pairs come first, then the retired ones as bare ranks.
    const VersionedHll::CellList list = sketch.cell(c);
    ASSERT_EQ(list.num_entries(), want.size()) << "cell " << c;
    for (size_t i = 0; i < want.size(); ++i) {
      const bool live = i < list.size();
      ASSERT_EQ(!want[i].retired, live) << "cell " << c << " entry " << i;
      if (live) {
        EXPECT_EQ(list[i].rank, want[i].rank) << "cell " << c << " entry " << i;
        EXPECT_EQ(list[i].time, want[i].t) << "cell " << c << " entry " << i;
      } else {
        EXPECT_EQ(list.retired()[i - list.size()], want[i].rank)
            << "cell " << c << " entry " << i;
      }
    }
  }
  EXPECT_EQ(sketch.NumEntries(), entries);
  EXPECT_EQ(sketch.NumInsertAttempts(), model.insert_attempts);
  EXPECT_EQ(sketch.NumEvictions(), model.evictions);
  EXPECT_EQ(sketch.NumMergeEntriesScanned(), model.merge_entries_scanned);
  EXPECT_EQ(sketch.NumCellUpdates(), model.cell_updates);
}

// The base time of the narrow run below: its times are all negative.
constexpr Timestamp kNarrowBase = -3'000'000'000'000;

// Random batches of every mutation against DominationModel, at 1 to 4
// parts and at both time widths: after each batch the cell lists, the
// max-rank cache, the entry count and the four lifetime tallies must equal
// the model's, and the sketches' byte counts must add up to what they
// charged the "vhll" tally. Long ascending runs grow cells to most of the
// longest list, so parts grow and their later pairs move. Besides random
// adds and merges, the batches repeat a merge (the second changes nothing:
// a's lists and bytes stay put), merge a pair that dominates a part's last
// cell (the merge's first and only rewritten cell), and add into the first
// and last cell of every part. The wide run draws times from [0, 4000); the narrow one (u32
// offsets from a negative base) spreads them across all 2^32 offsets, ends
// included, and also merges with bounds at or below the base (nothing is
// eligible) and beyond the top offset (everything is).
void AgreesWithDominationModelUnderRandomBatches(const TimeEncoding& encoding) {
  constexpr int kPrecision = 4;  // 16 cells: lists grow long
  constexpr uint64_t kSalt = 77;
  constexpr int kMaxRank = 64 - kPrecision + 1;
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
    // a: the sketch under test; b: merge source, same part count.
    std::optional<VersionedHll> a(std::in_place, kPrecision, kSalt, parts,
                                  encoding);
    VersionedHll b(kPrecision, kSalt, parts, encoding);
    DominationModel model_a(kPrecision, kSalt, parts);
    DominationModel model_b(kPrecision, kSalt, parts);
    size_t longest = 0;
    // Tallies of sketches a refill replaced: a refill starts from zero.
    size_t evictions = 0;
    size_t cell_updates = 0;
    const auto time = [&rng, narrow] {
      if (!narrow) return static_cast<Timestamp>(rng.NextBounded(4000));
      switch (rng.NextBounded(20)) {
        case 0:
          return kBase;
        case 1:
          return kBase + kTop;
        default:
          return kBase + kStride * static_cast<Timestamp>(rng.NextBounded(4000));
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

    // The first and last cell of each part.
    std::vector<std::pair<size_t, size_t>> part_cells(parts, {16, 0});
    for (size_t c = 0; c < 16; ++c) {
      auto& [first, last] = part_cells[a->PartOf(c)];
      first = std::min(first, c);
      last = std::max(last, c);
    }
    const auto merge_all = [parts](VersionedHll& to, const VersionedHll& from,
                                   DominationModel& model_to,
                                   const DominationModel& model_from,
                                   Timestamp merge_time, Duration window) {
      to.MergeWindow(from, merge_time, window);
      for (size_t part = 0; part < parts; ++part) {
        model_to.MergeWindow(model_from, merge_time, window, part);
      }
    };

    for (int batch = 0; batch < 60; ++batch) {
      for (int op = 0; op < 40; ++op) {
        const size_t cell = rng.NextBounded(16);
        switch (rng.NextBounded(13)) {
          case 0:
          case 1: {
            const Timestamp t = time();
            const uint8_t r = rank();
            a->AddEntry(cell, r, t);
            model_a.AddEntry(cell, r, t);
            break;
          }
          case 2:
          case 3: {
            const Timestamp t = time();
            const uint8_t r = rank();
            b.AddEntry(cell, r, t);
            model_b.AddEntry(cell, r, t);
            break;
          }
          case 4: {
            const uint64_t item = rng.NextUint64();
            const Timestamp t = time();
            for (size_t part = 0; part < parts; ++part) {
              a->AddInPart(item, t, part);
              model_a.AddInPart(item, t, part);
            }
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
              b.AddEntry(cell, static_cast<uint8_t>(r), t);
              model_b.AddEntry(cell, static_cast<uint8_t>(r), t);
            }
            break;
          }
          case 6:
          case 7: {
            const auto [merge_time, window] = merge_args();
            if (rng.NextBounded(2) == 0) {
              merge_all(*a, b, model_a, model_b, merge_time, window);
            } else {
              const size_t part = rng.NextBounded(parts);
              a->MergeWindow(b, merge_time, window, part);
              model_a.MergeWindow(model_b, merge_time, window, part);
            }
            break;
          }
          case 8: {
            if (rng.NextBounded(10) != 0) break;
            if (rng.NextBounded(2) == 0) {
              a->Clear();
              model_a.Clear();
            } else {
              b.Clear();
              model_b.Clear();
            }
            break;
          }
          case 10: {
            // The second of two equal merges finds every eligible pair of
            // b in a or dominated there: it writes nothing.
            const auto [merge_time, window] = merge_args();
            merge_all(*a, b, model_a, model_b, merge_time, window);
            const SketchCells before = CellsOf(*a);
            const size_t bytes = a->MemoryUsageBytes();
            merge_all(*a, b, model_a, model_b, merge_time, window);
            EXPECT_EQ(CellsOf(*a), before);
            EXPECT_EQ(a->MemoryUsageBytes(), bytes);
            break;
          }
          case 11: {
            // A merge from a sketch whose one pair, at the earliest time
            // and the top rank, sits in the last cell of a part: it
            // dominates that cell of a, the only cell that changes.
            const size_t last = part_cells[rng.NextBounded(parts)].second;
            const Timestamp earliest = narrow ? kBase : 0;
            const auto top = static_cast<uint8_t>(kMaxRank);
            VersionedHll lone(kPrecision, kSalt, parts, encoding);
            DominationModel model_lone(kPrecision, kSalt, parts);
            lone.AddEntry(last, top, earliest);
            model_lone.AddEntry(last, top, earliest);
            const SketchCells cells = CellsOf(*a);
            merge_all(*a, lone, model_a, model_lone, earliest, 1);
            size_t pair = 0;
            for (size_t c = 0; c < 16; ++c) {
              const VersionedHll::CellList list = a->cell(c);
              if (c == last) {
                ASSERT_EQ(list.size(), 1u);
                EXPECT_EQ(list[0].rank, top);
                EXPECT_EQ(list[0].time, earliest);
              } else {
                ASSERT_EQ(list.size(), cells.counts[c]) << "cell " << c;
                for (size_t i = 0; i < list.size(); ++i) {
                  EXPECT_EQ(list[i].rank, cells.ranks[pair + i]);
                  EXPECT_EQ(list[i].time, cells.times[pair + i]);
                }
              }
              pair += cells.counts[c];
            }
            break;
          }
          case 12: {
            for (const auto& [first, last] : part_cells) {
              for (const size_t c : {first, last}) {
                const Timestamp t = time();
                const uint8_t r = rank();
                a->AddEntry(c, r, t);
                model_a.AddEntry(c, r, t);
              }
            }
            break;
          }
          default: {
            if (rng.NextBounded(10) != 0) break;
            // Checkpoint resume: the sketch refilled from a's stored
            // cells, on a's parts, replaces a and lives on.
            const SketchCells stored = model_a.Stored();
            a.emplace(kPrecision, kSalt, parts, stored.counts, stored.ranks,
                      stored.times, stored.retired, stored.retired_ranks,
                      encoding);
            evictions += model_a.evictions;
            cell_updates += model_a.cell_updates;
            model_a = model_a.Refilled();
            break;
          }
        }
      }
      SCOPED_TRACE(testing::Message() << "batch " << batch);
      ExpectMatchesModel(*a, model_a);
      ExpectMatchesModel(b, model_b);
      EXPECT_EQ(tally.CurrentBytes() - tally_before,
                static_cast<int64_t>(a->MemoryUsageBytes() +
                                     b.MemoryUsageBytes()));
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
    a->Clear();
    b.Clear();
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
            a->AddEntry(cell, r, t);
            model_a.AddEntry(cell, r, t);
            break;
          }
          case 1: {
            const uint8_t r = rank();
            b.AddEntry(cell, r, t);
            model_b.AddEntry(cell, r, t);
            break;
          }
          case 2: {
            const uint64_t item = rng.NextUint64();
            for (size_t k = 0; k < parts; ++k) {
              a->AddInPart(item, t, k);
              model_a.AddInPart(item, t, k);
            }
            break;
          }
          case 3:
          case 4:
            a->MergeWindow(b, now, window, part);
            model_a.MergeWindow(model_b, now, window, part);
            break;
          case 5: {
            if (rng.NextBounded(8) != 0 || now - window < floor) break;
            const Timestamp horizon = now;
            now -= window;
            switch (rng.NextBounded(3)) {
              case 0:
                for (size_t k = 0; k < parts; ++k) {
                  a->Retire(k);
                  model_a.Retire(horizon, k);
                }
                break;
              case 1:
                a->Retire(part);
                model_a.Retire(horizon, part);
                break;
              default:
                b.Retire(part);
                model_b.Retire(horizon, part);
                break;
            }
            break;
          }
          default: {
            if (rng.NextBounded(8) != 0) break;
            // Checkpoint resume, retired ranks included.
            const SketchCells stored = model_a.Stored();
            a.emplace(kPrecision, kSalt, parts, stored.counts, stored.ranks,
                      stored.times, stored.retired, stored.retired_ranks,
                      encoding);
            evictions += model_a.evictions;
            cell_updates += model_a.cell_updates;
            model_a = model_a.Refilled();
            break;
          }
        }
      }
      SCOPED_TRACE(testing::Message() << "scan batch " << batch);
      ExpectMatchesModel(*a, model_a);
      ExpectMatchesModel(b, model_b);
      EXPECT_EQ(tally.CurrentBytes() - tally_before,
                static_cast<int64_t>(a->MemoryUsageBytes() +
                                     b.MemoryUsageBytes()));
      if (testing::Test::HasFailure()) return;
      for (size_t c = 0; c < 16; ++c) retired += a->cell(c).retired().size();
    }
    EXPECT_GT(retired, 0u);
    // Collapse: a keeps its row and entry count and frees its pairs, and a
    // merge from it reads nothing.
    for (size_t k = 0; k < parts; ++k) a->Collapse(k);
    ASSERT_TRUE(a->collapsed());
    ExpectMatchesModel(*a, model_a);
    VersionedHll fresh(kPrecision, kSalt, parts, encoding);
    fresh.MergeWindow(*a, now, window);
    EXPECT_EQ(fresh.NumEntries(), 0u);
    EXPECT_EQ(fresh.NumInsertAttempts(), 0u);
    EXPECT_EQ(fresh.NumMergeEntriesScanned(), 0u);
    EXPECT_EQ(tally.CurrentBytes() - tally_before,
              static_cast<int64_t>(a->MemoryUsageBytes() +
                                   b.MemoryUsageBytes() +
                                   fresh.MemoryUsageBytes()));

    // The run grew long lists and pruned along the way.
    EXPECT_GT(longest, VersionedHll::kMaxCellEntries / 2);
    EXPECT_GT(evictions + model_a.evictions, 0u);
    EXPECT_GT(cell_updates + model_a.cell_updates, 0u);
  }
}

TEST(VhllTest, AgreesWithDominationModelUnderRandomBatches) {
  AgreesWithDominationModelUnderRandomBatches(TimeEncoding{});
  AgreesWithDominationModelUnderRandomBatches(TimeEncoding{kNarrowBase, 4});
}

// The narrowest encoding is chosen from the span alone: u32 offsets from
// the first time up to a span of 2^32 - 1, u64 offsets from INT64_MIN
// beyond. Only valid encodings decode every offset of their width.
TEST(VhllTest, TimeEncodingIsTheNarrowestThatHoldsTheSpan) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kU32 = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(TimeEncoding::Covering(-3, -3 + kU32), (TimeEncoding{-3, 4}));
  EXPECT_EQ(TimeEncoding::Covering(-3, -2 + kU32), TimeEncoding{});
  EXPECT_EQ(TimeEncoding::Covering(kMax - kU32, kMax),
            (TimeEncoding{kMax - kU32, 4}));
  // Times within 2^32 - 1 of INT64_MAX take the largest valid base.
  EXPECT_EQ(TimeEncoding::Covering(kMax, kMax), (TimeEncoding{kMax - kU32, 4}));
  EXPECT_EQ(TimeEncoding::Covering(kMax - 7, kMax - 3),
            (TimeEncoding{kMax - kU32, 4}));
  EXPECT_EQ(TimeEncoding::Covering(kMin, kMax), TimeEncoding{});
  EXPECT_EQ(TimeEncoding::Covering(1, 0), (TimeEncoding{0, 4}));  // no times
  EXPECT_TRUE(TimeEncoding{}.valid());
  EXPECT_TRUE((TimeEncoding{kMax - kU32, 4}.valid()));
  EXPECT_FALSE((TimeEncoding{kMax - kU32 + 1, 4}.valid()));
  EXPECT_FALSE((TimeEncoding{0, 8}.valid()));
  EXPECT_FALSE((TimeEncoding{0, 2}.valid()));

  const TimeEncoding narrow{100, 4};
  EXPECT_TRUE(narrow.Holds(100));
  EXPECT_TRUE(narrow.Holds(100 + kU32));
  EXPECT_FALSE(narrow.Holds(99));
  EXPECT_FALSE(narrow.Holds(101 + kU32));
  for (const Timestamp t : {Timestamp{100}, Timestamp{100 + kU32}}) {
    uint8_t bytes[4];
    TimeCodec<uint32_t>::Store(bytes, 0, TimeCodec<uint32_t>::Encode(100, t));
    EXPECT_EQ(narrow.Decode(bytes, 0), t);
  }
  for (const Timestamp t : {kMin, Timestamp{-1}, Timestamp{0}, kMax}) {
    uint8_t bytes[8];
    TimeCodec<uint64_t>::Store(bytes, 0, TimeCodec<uint64_t>::Encode(kMin, t));
    EXPECT_EQ(TimeEncoding{}.Decode(bytes, 0), t);
  }
}

class VhllAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(VhllAccuracyTest, EstimateWithinTolerance) {
  const int precision = GetParam();
  VersionedHll vhll(precision);
  const double n = 20000.0;
  Rng rng(precision);
  for (uint64_t i = 0; i < static_cast<uint64_t>(n); ++i) {
    vhll.Add(i, static_cast<Timestamp>(rng.NextBounded(500)));
  }
  const double err = std::abs(vhll.Estimate() - n) / n;
  EXPECT_LT(err, 4.0 * HllStandardError(vhll.num_cells()));
}

INSTANTIATE_TEST_SUITE_P(Precisions, VhllAccuracyTest,
                         ::testing::Values(4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace ipin
