#include "ipin/sketch/vhll.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/random.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/hll.h"
#include "test_util.h"

namespace ipin {
namespace {

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

  // Mirrors MergeWithFloor (and, with floor = min, MergeWindow/MergeAll):
  // every pair of `other` with time < bound, its time clamped up to floor.
  void MergeFrom(const VhllModel& other, Timestamp floor, Timestamp bound) {
    for (size_t c = 0; c < cells_.size(); ++c) {
      for (const Pair& p : other.cells_[c]) {
        if (p.t < bound) cells_[c].push_back({p.rank, std::max(p.t, floor)});
      }
    }
  }

  // Mirrors CompactExpired: forgets every pair with time >= bound.
  void DropFrom(Timestamp bound) {
    for (auto& pairs : cells_) {
      std::erase_if(pairs, [bound](const Pair& p) { return p.t >= bound; });
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

TEST(VhllTest, EstimateBeforeCountsOnlyEarlyItems) {
  VersionedHll vhll(10);
  // 1000 items at time 10, 1000 different items at time 1000.
  for (uint64_t i = 0; i < 1000; ++i) vhll.Add(i, 10);
  for (uint64_t i = 10000; i < 11000; ++i) vhll.Add(i, 1000);
  const double early = vhll.EstimateBefore(500);
  const double all = vhll.Estimate();
  EXPECT_NEAR(early, 1000.0, 150.0);
  EXPECT_NEAR(all, 2000.0, 300.0);
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
  a.MergeAll(b);
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
    a.MergeAll(b);
    ASSERT_TRUE(a.CheckInvariants());
    ExpectAgreesWithModel(a, model, {0, 10, 20, 40, 79, 80, 200});
  }
}

TEST(VhllTest, CompactExpiredKeepsWindowedQueriesIntact) {
  VersionedHll vhll(8);
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    vhll.Add(rng.NextBounded(5000), static_cast<Timestamp>(rng.NextBounded(1000)));
  }
  const Timestamp frontier = 200;
  const Duration window = 300;
  const double before = vhll.EstimateBefore(frontier + window);
  const size_t entries_before = vhll.NumEntries();
  vhll.CompactExpired(frontier, window);
  EXPECT_LT(vhll.NumEntries(), entries_before);
  EXPECT_DOUBLE_EQ(vhll.EstimateBefore(frontier + window), before);
  EXPECT_TRUE(vhll.CheckInvariants());
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


TEST(VhllTest, MergeWithFloorClampsTimestamps) {
  VersionedHll source(4);
  source.AddEntry(0, 3, 10);
  source.AddEntry(1, 2, 50);
  source.AddEntry(2, 4, 90);
  VersionedHll target(4);
  // floor 40, bound 80: entry (0,3,10) clamps to time 40; (1,2,50) stays;
  // (2,4,90) is filtered by the bound.
  EXPECT_TRUE(target.MergeWithFloor(source, 40, 80));
  ASSERT_EQ(target.cell(0).size(), 1u);
  EXPECT_EQ(target.cell(0)[0].time, 40);
  EXPECT_EQ(target.cell(0)[0].rank, 3);
  ASSERT_EQ(target.cell(1).size(), 1u);
  EXPECT_EQ(target.cell(1)[0].time, 50);
  EXPECT_TRUE(target.cell(2).empty());
  EXPECT_TRUE(target.CheckInvariants());
}

TEST(VhllTest, MergeWithFloorReportsNoChangeWhenDominated) {
  VersionedHll source(4);
  source.AddEntry(0, 2, 30);
  VersionedHll target(4);
  target.AddEntry(0, 5, 10);  // dominates anything with rank <= 5, t >= 10
  EXPECT_FALSE(target.MergeWithFloor(source, 20, 100));
  EXPECT_EQ(target.NumEntries(), 1u);
}

TEST(VhllTest, MergeWithFloorPreservesInvariantsUnderFuzz) {
  Rng rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    VersionedHll a(4);
    VersionedHll b(4);
    for (int i = 0; i < 150; ++i) {
      a.AddEntry(rng.NextBounded(16), static_cast<uint8_t>(1 + rng.NextBounded(12)),
                 static_cast<Timestamp>(rng.NextBounded(200)));
      b.AddEntry(rng.NextBounded(16), static_cast<uint8_t>(1 + rng.NextBounded(12)),
                 static_cast<Timestamp>(rng.NextBounded(200)));
    }
    const Timestamp floor = static_cast<Timestamp>(rng.NextBounded(100));
    const Timestamp bound = floor + static_cast<Timestamp>(rng.NextBounded(150));
    a.MergeWithFloor(b, floor, bound);
    EXPECT_TRUE(a.CheckInvariants()) << "trial " << trial;
  }
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
// arrive in does not matter), trims it, then evicts it down to 1 entry. The
// pairs arrive through every mutating operation, and freed blocks are
// handed from cell to cell. After every batch the sketch must still be
// lossless (model agreement), structurally sound, and charge the "vhll"
// tally exactly MemoryUsageBytes().
TEST(VhllTest, PooledCellsSurviveGrowShrinkCycles) {
  constexpr size_t kCells = 4;
  constexpr int kMaxRank = static_cast<int>(VersionedHll::kMaxCellEntries);
  constexpr Timestamp kFar = std::numeric_limits<Timestamp>::max() / 4;
  constexpr Timestamp kNoFloor = std::numeric_limits<Timestamp>::min();
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
      switch (rng.NextBounded(3)) {
        case 0:  // keeps b's pairs with time < cut
          a.MergeWindow(b, cut - 50, 50);
          model_a.MergeFrom(model_b, kNoFloor, cut);
          break;
        case 1:
          a.MergeAll(b);
          model_a.MergeFrom(model_b, kNoFloor, kFar);
          break;
        default:  // clamps b's early pairs up to `cut`
          a.MergeWithFloor(b, cut, kFar);
          model_a.MergeFrom(model_b, cut, kFar);
          break;
      }
      check("grow", cycle);
    }
    a.MergeAll(b);
    model_a.MergeFrom(model_b, kNoFloor, kFar);
    check("grown", cycle);
    for (size_t c = 0; c < kCells; ++c) {
      ASSERT_EQ(a.cell(c).size(), VersionedHll::kMaxCellEntries) << c;
    }

    // Shrink: trim the newest pairs, then evict each cell down to one pair
    // that dominates the rest.
    const Timestamp trim = base + 100 + 2 +
                           static_cast<Timestamp>(rng.NextBounded(kMaxRank));
    a.CompactExpired(trim, 0);
    model_a.DropFrom(trim);
    check("trimmed", cycle);
    for (size_t c = 0; c < kCells; ++c) {
      const auto top = static_cast<uint8_t>(kMaxRank);
      if (rng.NextBounded(2) == 0) {
        a.AddEntry(c, top, base + 100);
        model_a.Add(c, top, base + 100);
      } else {
        b.AddEntry(c, top, base + 100);
        model_b.Add(c, top, base + 100);
        a.MergeAll(b);
        model_a.MergeFrom(model_b, kNoFloor, kFar);
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
// past the blocks the refill sized for them.
TEST(VhllTest, RefilledSketchKeepsGrowing) {
  Rng rng(808);
  for (int trial = 0; trial < 10; ++trial) {
    VersionedHll original(5, 11);
    VersionedHll source(5, 11);
    for (int i = 0; i < 400; ++i) {
      original.AddEntry(rng.NextBounded(32),
                        static_cast<uint8_t>(1 + rng.NextBounded(30)),
                        static_cast<Timestamp>(rng.NextBounded(500)));
    }
    const SketchCells stored = CellsOf(SketchView(&original));
    VersionedHll copy(5, 11, stored.counts, stored.ranks, stored.times);
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
          original.MergeWithFloor(source, t, t + 200);
          copy.MergeWithFloor(source, t, t + 200);
          break;
        case 2:
          source.AddEntry(cell, rank, t);
          break;
        default:
          original.AddEntry(cell, rank, t);
          copy.AddEntry(cell, rank, t);
          break;
      }
    }
    original.CompactExpired(300, 100);
    copy.CompactExpired(300, 100);
    ASSERT_TRUE(copy.CheckInvariants());
    EXPECT_EQ(CellsOf(SketchView(&copy)), CellsOf(SketchView(&original)))
        << "trial " << trial;
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
