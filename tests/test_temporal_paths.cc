#include "ipin/graph/temporal_paths.h"

#include <gtest/gtest.h>

#include "ipin/core/irs_exact.h"
#include "ipin/datasets/synthetic.h"
#include "test_util.h"

namespace ipin {
namespace {

TEST(EarliestArrivalTest, FigureOneFromA) {
  const InteractionGraph g = FigureOneGraph();
  const auto result = EarliestArrival(g, kA, 0, 100);
  EXPECT_EQ(result.arrival[kA], 0);
  EXPECT_EQ(result.arrival[kD], 1);  // a->d at 1
  EXPECT_EQ(result.arrival[kE], 3);  // a->d->e
  EXPECT_EQ(result.arrival[kB], 4);  // a->d->e->b beats a->b at 5
  EXPECT_EQ(result.arrival[kC], 7);
  EXPECT_EQ(result.arrival[kF], kNoTimestamp);  // e->f at 2 is too early
  EXPECT_EQ(result.num_reachable, 4u);
}

TEST(EarliestArrivalTest, StartTimeCutsOffEarlyEdges) {
  const InteractionGraph g = FigureOneGraph();
  // Starting at t=4, a's only usable edge is a->b at 5.
  const auto result = EarliestArrival(g, kA, 4, 100);
  EXPECT_EQ(result.arrival[kD], kNoTimestamp);
  EXPECT_EQ(result.arrival[kB], 5);
  EXPECT_EQ(result.arrival[kE], 6);
  EXPECT_EQ(result.arrival[kC], 7);
}

TEST(EarliestArrivalTest, EndTimeTruncates) {
  const InteractionGraph g = FigureOneGraph();
  const auto result = EarliestArrival(g, kA, 0, 3);
  EXPECT_EQ(result.arrival[kD], 1);
  EXPECT_EQ(result.arrival[kE], 3);
  EXPECT_EQ(result.arrival[kB], kNoTimestamp);
  EXPECT_EQ(result.num_reachable, 2u);
}

TEST(FastestPathsTest, FigureOneFromA) {
  const InteractionGraph g = FigureOneGraph();
  const auto result = FastestPaths(g, kA);
  EXPECT_EQ(result.duration[kA], 0);
  EXPECT_EQ(result.duration[kD], 1);  // single edge
  EXPECT_EQ(result.duration[kB], 1);  // a->b at 5
  EXPECT_EQ(result.duration[kE], 2);  // a->b(5), b->e(6)
  EXPECT_EQ(result.duration[kC], 3);  // a->b(5), b->e(6), e->c(7)
  EXPECT_EQ(result.duration[kF], -1);
  EXPECT_EQ(result.num_reachable, 4u);
}

TEST(FastestPathsTest, MatchesIrsMembershipForEveryWindow) {
  // The defining correspondence: fastest duration(u -> v) <= omega iff
  // v in sigma_omega(u). Cross-validate the two independent algorithms.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const InteractionGraph g = GenerateUniformRandomNetwork(20, 150, 400, seed);
    std::vector<FastestPathResult> fastest;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      fastest.push_back(FastestPaths(g, u));
    }
    for (const Duration w : {1, 5, 30, 100, 400}) {
      const IrsExact irs = IrsExact::Compute(g, w);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          if (u == v) continue;
          const bool fast_in = fastest[u].duration[v] >= 0 &&
                               fastest[u].duration[v] <= w;
          const bool irs_in = irs.Summary(u).count(v) > 0;
          EXPECT_EQ(fast_in, irs_in)
              << "u=" << u << " v=" << v << " w=" << w << " seed=" << seed;
        }
      }
    }
  }
}

TEST(TemporalPathsTest, EmptyGraph) {
  const InteractionGraph g(3);
  EXPECT_EQ(EarliestArrival(g, 0, 0, 10).num_reachable, 0u);
  EXPECT_EQ(FastestPaths(g, 0).num_reachable, 0u);
}

TEST(FastestPathsTest, SelfLoopIgnoredForSource) {
  InteractionGraph g(2);
  g.AddInteraction(0, 0, 1);
  const auto result = FastestPaths(g, 0);
  EXPECT_EQ(result.duration[0], 0);
  EXPECT_EQ(result.num_reachable, 0u);
}

TEST(EarliestArrivalTest, StrictTimeIncreaseEnforced) {
  // Two interactions with equal timestamps cannot chain.
  InteractionGraph g(3);
  g.AddInteraction(0, 1, 5);
  g.AddInteraction(1, 2, 5);
  const auto result = EarliestArrival(g, 0, 0, 10);
  EXPECT_EQ(result.arrival[1], 5);
  EXPECT_EQ(result.arrival[2], kNoTimestamp);
}

}  // namespace
}  // namespace ipin
