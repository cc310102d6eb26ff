#include "ipin/sketch/vhll.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
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

// Drives a few cells of a pooled sketch through every block size class and
// back, many times: each cycle grows every cell to 64 entries (ranks 1..64
// with time rising in rank never dominate each other, so the order they
// arrive in does not matter), then evicts it down to 1 entry. The
// pairs arrive through every mutating operation, and freed blocks are
// handed from cell to cell. After every batch the sketch must still be
// lossless (model agreement), structurally sound, and charge the "vhll"
// tally exactly MemoryUsageBytes().
TEST(VhllTest, PooledCellsSurviveGrowShrinkCycles) {
  constexpr size_t kCells = 4;
  constexpr int kMaxRank = static_cast<int>(VersionedHll::kMaxCellEntries);
  constexpr Timestamp kFar = std::numeric_limits<Timestamp>::max() / 4;
  obs::MemoryTally& tally = VhllMemTally();
  const int64_t tally_before = tally.CurrentBytes();
  Rng rng(2024);
  VersionedHll a(4);  // the sketch under test
  VersionedHll b(4);  // merge source
  VhllModel model_a(16);
  VhllModel model_b(16);
  // Each cycle uses earlier times than the last, so its pairs are never
  // dominated by the previous cycle's survivor.
  Timestamp base = 1'000'000;

  const auto check = [&](const char* where, int cycle) {
    SCOPED_TRACE(testing::Message() << where << " cycle " << cycle);
    ASSERT_TRUE(a.CheckInvariants());
    ASSERT_TRUE(b.CheckInvariants());
    const std::vector<Timestamp> bounds = {
        base,       base + 101, base + 120, base + 140,
        base + 165, base + 2000, kFar};
    ExpectAgreesWithModel(a, model_a, bounds);
    ExpectAgreesWithModel(b, model_b, bounds);
    EXPECT_EQ(tally.CurrentBytes() - tally_before,
              static_cast<int64_t>(a.MemoryUsageBytes() +
                                   b.MemoryUsageBytes()));
  };

  for (int cycle = 0; cycle < 8; ++cycle) {
    base -= 1000;
    b.Clear();
    model_b.Clear();
    std::vector<std::pair<size_t, uint8_t>> pending;
    for (size_t c = 0; c < kCells; ++c) {
      for (int r = 1; r <= kMaxRank; ++r) {
        pending.emplace_back(c, static_cast<uint8_t>(r));
      }
    }
    rng.Shuffle(&pending);

    // Grow: each pair goes in directly or through b and one of the merges.
    for (size_t i = 0; i < pending.size(); ++i) {
      const auto [c, r] = pending[i];
      const Timestamp t = base + 100 + r;
      if (rng.NextBounded(4) == 0) {
        a.AddEntry(c, r, t);
        model_a.Add(c, r, t);
      } else {
        b.AddEntry(c, r, t);
        model_b.Add(c, r, t);
      }
      if (i % 16 != 15) continue;
      const Timestamp cut = base + 100 + 1 + static_cast<Timestamp>(
                                                 rng.NextBounded(kMaxRank + 1));
      if (rng.NextBounded(2) == 0) {  // keeps b's pairs with time < cut
        a.MergeWindow(b, cut - 50, 50);
        model_a.MergeFrom(model_b, cut);
      } else {
        a.MergeWindow(b, 0, kWholeWindow);
        model_a.MergeFrom(model_b, kFar);
      }
      check("grow", cycle);
    }
    a.MergeWindow(b, 0, kWholeWindow);
    model_a.MergeFrom(model_b, kFar);
    check("grown", cycle);
    for (size_t c = 0; c < kCells; ++c) {
      ASSERT_EQ(a.cell(c).size(), VersionedHll::kMaxCellEntries) << c;
    }

    // Shrink: evict each cell down to one pair that dominates the rest.
    for (size_t c = 0; c < kCells; ++c) {
      const auto top = static_cast<uint8_t>(kMaxRank);
      if (rng.NextBounded(2) == 0) {
        a.AddEntry(c, top, base + 100);
        model_a.Add(c, top, base + 100);
      } else {
        b.AddEntry(c, top, base + 100);
        model_b.Add(c, top, base + 100);
        a.MergeWindow(b, 0, kWholeWindow);
        model_a.MergeFrom(model_b, kFar);
      }
      ASSERT_EQ(a.cell(c).size(), 1u) << c;
    }
    check("evicted", cycle);

    // Every other cycle regrows from empty instead of from one pair.
    if (cycle % 2 == 1) {
      a.Clear();
      model_a.Clear();
      check("cleared", cycle);
    }
  }
}

// A cell that grows up the size classes frees each outgrown block, and
// the next cell to grow takes those blocks instead of extending the pool.
// Clear() keeps the pool, so regrowing from empty fits in it too.
TEST(VhllTest, PoolStorageIsReused) {
  VersionedHll vhll(4);
  const auto grow = [&vhll](size_t cell, int entries) {
    for (int r = 1; r <= entries; ++r) {
      vhll.AddEntry(cell, static_cast<uint8_t>(r), r);
    }
  };
  grow(0, 64);
  const size_t bytes = vhll.MemoryUsageBytes();
  grow(1, 32);
  EXPECT_EQ(vhll.cell(1).size(), 32u);
  EXPECT_EQ(vhll.MemoryUsageBytes(), bytes);
  EXPECT_TRUE(vhll.CheckInvariants());

  vhll.Clear();
  grow(0, 64);
  EXPECT_EQ(vhll.cell(0).size(), 64u);
  EXPECT_EQ(vhll.MemoryUsageBytes(), bytes);
  EXPECT_TRUE(vhll.CheckInvariants());
}

// Checkpoint resume: a sketch refilled from its stored cells must keep
// evolving exactly like the one it was saved from, including growing cells
// past the blocks the refill sized for them, at 1, 2 and 3 parts.
TEST(VhllTest, RefilledSketchKeepsGrowing) {
  Rng rng(808);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t parts = 1 + trial % 3;
    VersionedHll original(5, 11, parts);
    VersionedHll source(5, 11, parts);
    for (int i = 0; i < 400; ++i) {
      original.AddEntry(rng.NextBounded(32),
                        static_cast<uint8_t>(1 + rng.NextBounded(30)),
                        static_cast<Timestamp>(rng.NextBounded(500)));
    }
    const SketchCells stored = CellsOf(SketchView(&original));
    VersionedHll copy(5, 11, parts, stored.counts, stored.ranks,
                      stored.times);
    ASSERT_EQ(copy.num_parts(), parts);
    ASSERT_TRUE(copy.CheckInvariants());
    ASSERT_EQ(CellsOf(SketchView(&copy)), stored);
    EXPECT_EQ(copy.Estimate(), original.Estimate());

    for (int op = 0; op < 600; ++op) {
      const size_t cell = rng.NextBounded(32);
      const auto rank = static_cast<uint8_t>(1 + rng.NextBounded(50));
      const auto t = static_cast<Timestamp>(rng.NextBounded(500));
      switch (rng.NextBounded(10)) {
        case 0: {
          const Timestamp merge_time = static_cast<Timestamp>(rng.NextBounded(500));
          original.MergeWindow(source, merge_time, 100);
          copy.MergeWindow(source, merge_time, 100);
          break;
        }
        case 1:
          source.AddEntry(cell, rank, t);
          break;
        default:
          original.AddEntry(cell, rank, t);
          copy.AddEntry(cell, rank, t);
          break;
      }
    }
    ASSERT_TRUE(copy.CheckInvariants());
    EXPECT_EQ(CellsOf(SketchView(&copy)), CellsOf(SketchView(&original)))
        << "trial " << trial;
  }
}

// A sketch split into parts holds the same cells and tallies as a one-part
// sketch fed the same operations, whether a merge runs in one call or one
// part at a time, and its byte count covers every part's pool. A one-part
// sketch allocates no part array.
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
  // Cell heads (8 bytes a cell) and the max-rank cache, nothing else.
  EXPECT_EQ(whole.MemoryUsageBytes(), kCells * (8 + 1));

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
  EXPECT_EQ(CellsOf(SketchView(&split)), CellsOf(SketchView(&whole)));
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
// VersionedHll and knows nothing of blocks, pools or free lists.
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
        ++insert_attempts;
        ++merge_entries_scanned;
        cell_updates += Insert(c, p.rank, p.t) ? 1 : 0;
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

  // The refill constructor's input: counts, ranks and times in cell order.
  SketchCells Stored() const {
    SketchCells out{precision_, salt_, {}, {}, {}};
    for (const auto& pairs : cells_) {
      out.counts.push_back(static_cast<uint8_t>(pairs.size()));
      for (const Pair& p : pairs) {
        out.ranks.push_back(p.rank);
        out.times.push_back(p.t);
      }
    }
    return out;
  }

  struct Pair {
    uint8_t rank;
    Timestamp t;
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
    pairs.insert(at, {rank, t});
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
    const VersionedHll::CellList list = sketch.cell(c);
    const std::vector<DominationModel::Pair>& want = model.cell(c);
    ASSERT_EQ(list.size(), want.size()) << "cell " << c;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(list[i].rank, want[i].rank) << "cell " << c << " entry " << i;
      EXPECT_EQ(list[i].time, want[i].t) << "cell " << c << " entry " << i;
    }
    EXPECT_EQ(sketch.max_ranks()[c], want.empty() ? 0 : want.back().rank)
        << "cell " << c;
    entries += want.size();
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
// charged the "vhll" tally. Long ascending runs push cells through every
// block size class, so the pools grow, free-list blocks and get refilled
// from them. The wide run draws times from [0, 4000); the narrow one (u32
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

    for (int batch = 0; batch < 60; ++batch) {
      for (int op = 0; op < 40; ++op) {
        const size_t cell = rng.NextBounded(16);
        switch (rng.NextBounded(10)) {
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
            // dominating another, so the cell climbs the size classes.
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
              a->MergeWindow(b, merge_time, window);
              for (size_t part = 0; part < parts; ++part) {
                model_a.MergeWindow(model_b, merge_time, window, part);
              }
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
          default: {
            if (rng.NextBounded(10) != 0) break;
            // Checkpoint resume: the sketch refilled from a's stored
            // cells, on a's parts, replaces a and lives on.
            const SketchCells stored = model_a.Stored();
            a.emplace(kPrecision, kSalt, parts, stored.counts, stored.ranks,
                      stored.times, encoding);
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
    // The run reached the largest size classes and pruned along the way.
    EXPECT_GT(longest, VersionedHll::kMaxCellEntries / 2);
    EXPECT_GT(evictions + model_a.evictions, 0u);
    EXPECT_GT(cell_updates + model_a.cell_updates, 0u);
  }
}

TEST(VhllTest, AgreesWithDominationModelUnderRandomBatches) {
  AgreesWithDominationModelUnderRandomBatches(TimeEncoding{});
  AgreesWithDominationModelUnderRandomBatches(TimeEncoding{kNarrowBase, 4});
}

// A pool slot costs one rank byte plus one time offset of the encoding's
// width: fed the same pairs, a u32 sketch and a u64 one have the same
// slots, and beyond the cell heads and the max-rank cache their byte
// counts are 5 and 9 per slot.
TEST(VhllTest, PoolSlotsCostOnePlusTheTimeWidth) {
  constexpr int kPrecision = 5;
  constexpr size_t kFixed = (size_t{1} << kPrecision) * (8 + 1);
  VersionedHll narrow(kPrecision, 1, 1, TimeEncoding{1000, 4});
  VersionedHll wide(kPrecision, 1);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t item = rng.NextUint64();
    const auto t = static_cast<Timestamp>(1000 + rng.NextBounded(5000));
    narrow.Add(item, t);
    wide.Add(item, t);
  }
  EXPECT_EQ(CellsOf(SketchView(&narrow)), CellsOf(SketchView(&wide)));
  const size_t slots = (wide.MemoryUsageBytes() - kFixed) / 9;
  EXPECT_GT(slots, narrow.NumEntries());
  EXPECT_EQ(wide.MemoryUsageBytes(), kFixed + 9 * slots);
  EXPECT_EQ(narrow.MemoryUsageBytes(), kFixed + 5 * slots);
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

  // TimeEncodingOf reads the sketches' times: the narrowest that holds
  // them, whatever encoding they are stored in.
  std::vector<std::unique_ptr<VersionedHll>> sketches(3);
  sketches[0] = std::make_unique<VersionedHll>(5, 1, 1, TimeEncoding{-500, 4});
  sketches[2] = std::make_unique<VersionedHll>(5, 1);
  sketches[0]->AddEntry(0, 1, 40);
  sketches[0]->AddEntry(1, 1, 70);
  sketches[2]->AddEntry(0, 1, -20);
  EXPECT_EQ(TimeEncodingOf(sketches), (TimeEncoding{-20, 4}));
  sketches[2]->AddEntry(2, 1, kMax);
  EXPECT_EQ(TimeEncodingOf(sketches), TimeEncoding{});
  EXPECT_EQ(TimeEncodingOf(std::span<const std::unique_ptr<VersionedHll>>()),
            (TimeEncoding{0, 4}));
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
