// Boundary-condition tests for the duration-window semantics shared by the
// whole library: duration(ic) = t_last - t_first + 1 and membership
// requires duration <= omega. Off-by-one errors here would silently distort
// every experiment, so the exact boundaries get their own suite.

#include <limits>

#include <gtest/gtest.h>

#include "ipin/common/thread_pool.h"
#include "ipin/core/checkpoint.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_exact.h"
#include "ipin/core/tcic.h"
#include "ipin/graph/temporal_paths.h"
#include "test_util.h"

namespace ipin {
namespace {

// Chain 0 -> 1 -> 2 with edge times 10 and 10 + gap: the two-hop channel
// has duration gap + 1.
InteractionGraph Chain(Duration gap) {
  InteractionGraph g(3);
  g.AddInteraction(0, 1, 10);
  g.AddInteraction(1, 2, 10 + gap);
  return g;
}

TEST(WindowBoundaryTest, IrsExactDurationExactlyOmegaIsIncluded) {
  const InteractionGraph g = Chain(4);  // duration 5
  EXPECT_TRUE(IrsExact::Compute(g, 5).Summary(0).count(2));
  EXPECT_FALSE(IrsExact::Compute(g, 4).Summary(0).count(2));
}

TEST(WindowBoundaryTest, SingleEdgeHasDurationOne) {
  InteractionGraph g(2);
  g.AddInteraction(0, 1, 1000);
  const IrsExact irs = IrsExact::Compute(g, 1);
  EXPECT_TRUE(irs.Summary(0).count(1));  // duration 1 <= 1
}

TEST(WindowBoundaryTest, WindowOneForbidsAnyTwoHopChannel) {
  // Distinct timestamps force every 2-hop channel to duration >= 2.
  const InteractionGraph g = Chain(1);
  const IrsExact irs = IrsExact::Compute(g, 1);
  EXPECT_TRUE(irs.Summary(0).count(1));
  EXPECT_TRUE(irs.Summary(1).count(2));
  EXPECT_FALSE(irs.Summary(0).count(2));
}

TEST(WindowBoundaryTest, ApproxSharesTheBoundaryExactlyOnTinyInput) {
  // With beta large and 3 nodes, the sketch is effectively exact and the
  // boundary must land on the same side.
  const InteractionGraph g = Chain(4);
  IrsApproxOptions options;
  options.precision = 10;
  EXPECT_GT(IrsApprox::Compute(g, 5, options).EstimateIrsSize(0), 1.5);
  EXPECT_LT(IrsApprox::Compute(g, 4, options).EstimateIrsSize(0), 1.5);
}

TEST(WindowBoundaryTest, FastestPathsReportTheDefiningDuration) {
  EXPECT_EQ(FastestPaths(Chain(4), 0).duration[2], 5);
  EXPECT_EQ(FastestPaths(Chain(0), 0).duration[1], 1);
}

TEST(WindowBoundaryTest, TcicWindowCountsFromChainStartInclusive) {
  // Seed 0 activates at t=10; edge at t = 10 + w is the last usable one
  // (t - activate <= w).
  for (const Duration w : {3, 4, 5}) {
    InteractionGraph g(3);
    g.AddInteraction(0, 1, 10);
    g.AddInteraction(1, 2, 10 + w);  // t - 10 == w: usable
    TcicOptions options;
    options.window = w;
    options.probability = 1.0;
    Rng rng(1);
    const std::vector<NodeId> seeds = {0};
    EXPECT_EQ(SimulateTcic(g, seeds, options, &rng), 3u) << "w=" << w;

    InteractionGraph late(3);
    late.AddInteraction(0, 1, 10);
    late.AddInteraction(1, 2, 11 + w);  // one past the budget
    Rng rng2(1);
    EXPECT_EQ(SimulateTcic(late, seeds, options, &rng2), 2u) << "w=" << w;
  }
}

TEST(WindowBoundaryTest, NegativeTimestampsWork) {
  // Timestamps are signed; archives counted relative to an epoch may go
  // negative. All window arithmetic must hold.
  InteractionGraph g(3);
  g.AddInteraction(0, 1, -100);
  g.AddInteraction(1, 2, -97);  // chain duration 4
  const IrsExact irs = IrsExact::Compute(g, 4);
  EXPECT_TRUE(irs.Summary(0).count(2));
  EXPECT_FALSE(IrsExact::Compute(g, 3).Summary(0).count(2));

  const auto arrivals = EarliestArrival(g, 0, -1000, 1000);
  EXPECT_EQ(arrivals.arrival[2], -97);

  IrsApproxOptions options;
  options.precision = 8;
  const IrsApprox approx = IrsApprox::Compute(g, 4, options);
  EXPECT_GT(approx.EstimateIrsSize(0), 1.5);
}

TEST(WindowBoundaryTest, LambdaPrefersEarliestEndAcrossBoundary) {
  // Two channels 0 -> 2: short-duration late one and long-duration early
  // one; at omega just below the long duration, lambda must switch to the
  // late channel's end time.
  InteractionGraph g(4);
  g.AddInteraction(0, 1, 1);
  g.AddInteraction(1, 2, 7);    // duration 7, ends 7
  g.AddInteraction(0, 3, 20);
  g.AddInteraction(3, 2, 21);   // duration 2, ends 21
  EXPECT_EQ(IrsExact::Compute(g, 7).Summary(0).at(2), 7);
  EXPECT_EQ(IrsExact::Compute(g, 6).Summary(0).at(2), 21);
}

TEST(WindowBoundaryTest, MergeUsesStrictInequality) {
  // Algorithm 2's Merge keeps (x, t_x) iff t_x - t < omega. t_x - t ==
  // omega means duration omega + 1: excluded.
  IrsExact irs(3, 5);
  irs.ProcessInteraction({1, 2, 15});
  irs.ProcessInteraction({0, 1, 10});  // t_x - t = 5 == omega -> excluded
  EXPECT_FALSE(irs.Summary(0).count(2));

  IrsExact irs2(3, 6);
  irs2.ProcessInteraction({1, 2, 15});
  irs2.ProcessInteraction({0, 1, 10});  // duration 6 <= 6 -> included
  EXPECT_TRUE(irs2.Summary(0).count(2));
}

// A same-time relay at the top of the i64 range: 0 -> 1 and 1 -> 2 both at
// INT64_MAX, 1 -> 2 scanned first (ties keep their log order, and the scan
// runs backwards), so phi(1) exists when 0 -> 1 merges it. The relayed
// entry has t_x - t = 0 < omega, so 2 is in 0's IRS; the merge bound
// merge_time + omega lies past INT64_MAX and must neither wrap nor trap.
// Every build holds in phi(0) exactly the sketch of IrsExact's reach, one
// pair per reached node at its time, and seals it to that sketch's row.
TEST(WindowBoundaryTest, SameTimeRelayAtTheTopOfTheTimeRangeIsMerged) {
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  InteractionGraph g(3);
  g.AddInteraction(0, 1, kMax);
  g.AddInteraction(1, 2, kMax);
  g.SortByTime();
  const IrsApproxOptions options{/*precision=*/10, /*salt=*/3};
  for (const Duration window : {Duration{1}, Duration{1000}, kMax}) {
    SCOPED_TRACE(testing::Message() << "window " << window);
    const IrsExact exact = IrsExact::Compute(g, window);
    ASSERT_EQ(exact.Summary(0).size(), 2u);
    EXPECT_EQ(exact.Summary(0).at(1), kMax);
    EXPECT_EQ(exact.Summary(0).at(2), kMax);
    VersionedHll reach(options.precision, options.salt);
    for (const auto& [v, t] : exact.Summary(0)) reach.Add(v, t);
    ASSERT_EQ(reach.NumEntries(), 2u);  // 1 and 2 land in distinct cells
    const SketchCells want = CellsOf(reach);

    for (const size_t parts : {1u, 2u}) {
      SetGlobalThreads(parts);
      const IrsApprox irs = IrsApprox::Compute(g, window, options);
      ASSERT_NE(irs.BuildSketch(0), nullptr);
      EXPECT_EQ(CellsOf(*irs.BuildSketch(0)), want) << parts << " parts";
      EXPECT_EQ(RowOf(*irs.arena(), 0), RowOf(reach))
          << parts << " parts, served row";
    }
    SetGlobalThreads(1);
    const IrsApprox checkpointed =
        ComputeIrsApproxCheckpointed(g, window, options, CheckpointOptions{});
    ASSERT_NE(checkpointed.BuildSketch(0), nullptr);
    EXPECT_EQ(CellsOf(*checkpointed.BuildSketch(0)), want) << "checkpointed";
  }
}

// A log spanning the whole i64 range has a span of 2^64: percentages of it
// are exact, and a window past INT64_MAX is capped there.
TEST(WindowBoundaryTest, WindowFromPercentSpansTheWholeTimeRange) {
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  InteractionGraph g(2);
  g.AddInteraction(0, 1, kMin);
  g.AddInteraction(1, 0, kMax);
  g.SortByTime();
  EXPECT_EQ(g.WindowFromPercent(25.0), Duration{1} << 62);
  EXPECT_EQ(g.WindowFromPercent(12.5), Duration{1} << 61);
  EXPECT_EQ(g.WindowFromPercent(50.0), kMax);
  EXPECT_EQ(g.WindowFromPercent(100.0), kMax);
  EXPECT_EQ(g.WindowFromPercent(0.0), 1);
}

}  // namespace
}  // namespace ipin
