#include "ipin/sketch/vhll.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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

// A sketch's bytes are its max-rank row and its store's counts (a byte a
// cell each), the store's one record, and its pair capacity at 1 + width
// bytes a pair: what an empty sketch holds, plus the capacity. The
// capacity follows one rule, modelled here: it is one of the classes 0, 1,
// 2, ..., 8, 10, 12, 15, ..., each a quarter (at least one) above the one
// before, and an operation that leaves the sketch more pairs than it has
// room for grows it to the smallest class that holds them, a class up at
// least; nothing else shrinks it, and Clear() frees it. After every
// operation, at both time widths, the bytes must equal that formula and
// the "vhll" tally's delta.
TEST(VhllTest, MemoryIsRowCountsAndSlots) {
  constexpr int kPrecision = 5;
  constexpr size_t kCells = size_t{1} << kPrecision;
  obs::MemoryTally& tally = VhllMemTally();
  for (const TimeEncoding encoding : {TimeEncoding{}, TimeEncoding{0, 4}}) {
    SCOPED_TRACE(testing::Message() << "width " << int{encoding.width});
    const int64_t tally_before = tally.CurrentBytes();
    Rng rng(31);
    VersionedHll a(kPrecision, 3, encoding);
    VersionedHll b(kPrecision, 3, encoding);
    const size_t empty = b.MemoryUsageBytes();
    EXPECT_GE(empty, 2 * kCells);
    // The modelled pair capacity of a and of b.
    size_t a_slots = 0;
    size_t b_slots = 0;
    const auto grow = [](size_t* slots, const VersionedHll& sketch) {
      size_t held = 0;
      for (size_t c = 0; c < kCells; ++c) held += sketch.cell(c).size();
      const auto next = [](size_t cap) {
        return cap + std::max<size_t>(1, cap / 4);
      };
      if (held <= *slots) return;
      *slots = next(*slots);
      while (*slots < held) *slots = next(*slots);
    };
    const auto bytes = [&](size_t slots) {
      return empty + slots * (1 + encoding.width);
    };
    for (int op = 0; op < 1500; ++op) {
      const size_t cell = rng.NextBounded(kCells);
      const auto rank = static_cast<uint8_t>(1 + rng.NextBounded(40));
      const auto t = static_cast<Timestamp>(rng.NextBounded(3000));
      switch (rng.NextBounded(12)) {
        case 0:
        case 1:
          a.MergeWindow(b, t, 500);
          grow(&a_slots, a);
          break;
        case 2:
        case 3:
          b.AddEntry(cell, rank, t);
          grow(&b_slots, b);
          break;
        case 4:
          if (rng.NextBounded(20) == 0) {
            a.Clear();
            a_slots = 0;
          }
          break;
        default:
          a.AddEntry(cell, rank, t);
          grow(&a_slots, a);
          break;
      }
      ASSERT_EQ(a.MemoryUsageBytes(), bytes(a_slots)) << "op " << op;
      ASSERT_EQ(b.MemoryUsageBytes(), bytes(b_slots)) << "op " << op;
      ASSERT_EQ(tally.CurrentBytes() - tally_before,
                static_cast<int64_t>(a.MemoryUsageBytes() +
                                     b.MemoryUsageBytes()))
          << "op " << op;
    }
    EXPECT_GT(a.NumEntries(), 0u);
    ASSERT_TRUE(a.CheckInvariants());
  }
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
