#include "ipin/core/source_sets.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "ipin/core/influence_maximization.h"
#include "ipin/core/irs_exact.h"
#include "ipin/datasets/synthetic.h"
#include "test_util.h"

namespace ipin {
namespace {

TEST(SourceSetExactTest, FigureOneDuality) {
  // tau_omega is the transpose of sigma_omega: u in tau(v) iff v in
  // sigma(u). Check against the paper's Example 2 summaries.
  const InteractionGraph g = FigureOneGraph();
  const SourceSetExact sources = SourceSetExact::Compute(g, 3);
  const auto expected = FigureOneSummariesW3();

  for (NodeId v = 0; v < 6; ++v) {
    for (NodeId u = 0; u < 6; ++u) {
      const bool in_sigma = expected[u].count(v) > 0;
      const bool in_tau = sources.Summary(v).count(u) > 0;
      EXPECT_EQ(in_sigma, in_tau) << "u=" << u << " v=" << v;
    }
  }
}

TEST(SourceSetExactTest, DualityOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const InteractionGraph g =
        GenerateUniformRandomNetwork(25, 180, 400, seed);
    for (const Duration w : {1, 10, 50, 400}) {
      const IrsExact irs = IrsExact::Compute(g, w);
      const SourceSetExact sources = SourceSetExact::Compute(g, w);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          EXPECT_EQ(irs.Summary(u).count(v) > 0,
                    sources.Summary(v).count(u) > 0)
              << "u=" << u << " v=" << v << " w=" << w << " seed=" << seed;
        }
      }
    }
  }
}

TEST(SourceSetExactTest, LatestStartSemantics) {
  // Two channels 0 -> 2: via (0,1,1),(1,2,2) starting at 1, and direct
  // (0,2,5) starting at 5. The summary keeps the LATEST start (5).
  InteractionGraph g(3);
  g.AddInteraction(0, 1, 1);
  g.AddInteraction(1, 2, 2);
  g.AddInteraction(0, 2, 5);
  const SourceSetExact sources = SourceSetExact::Compute(g, 10);
  EXPECT_EQ(sources.Summary(2).at(0), 5);
  EXPECT_EQ(sources.Summary(2).at(1), 2);
}

TEST(SourceSetExactTest, WindowPrunesLongChannels) {
  InteractionGraph g(3);
  g.AddInteraction(0, 1, 1);
  g.AddInteraction(1, 2, 10);  // chain duration 10, too long for window 5
  const SourceSetExact sources = SourceSetExact::Compute(g, 5);
  EXPECT_TRUE(sources.Summary(2).count(1));   // direct edge
  EXPECT_FALSE(sources.Summary(2).count(0));  // pruned chain
}

TEST(SourceSetExactTest, UnionSizeMatchesManualUnion) {
  const InteractionGraph g = GenerateUniformRandomNetwork(20, 150, 300, 7);
  const SourceSetExact sources = SourceSetExact::Compute(g, 100);
  const std::vector<NodeId> targets = {0, 4, 9, 15};
  std::set<NodeId> manual;
  for (const NodeId v : targets) {
    const auto set = sources.SourceSet(v);
    manual.insert(set.begin(), set.end());
  }
  EXPECT_EQ(sources.UnionSize(targets), manual.size());
}

TEST(SourceSetExactTest, StreamingIncrementalUpdates) {
  // The defining feature: interactions are processed as they arrive and
  // queries are valid after every prefix.
  SourceSetExact sources(4, 5);
  sources.ProcessInteraction({0, 1, 1});
  EXPECT_EQ(sources.SourceSetSize(1), 1u);
  sources.ProcessInteraction({1, 2, 3});
  EXPECT_EQ(sources.SourceSetSize(2), 2u);  // 1 direct, 0 via chain
  sources.ProcessInteraction({2, 3, 8});
  // Chain 0 -> ... -> 3 has duration 8 > 5; 1 -> 3 has 8 - 3 + 1 = 6 > 5.
  EXPECT_EQ(sources.SourceSetSize(3), 1u);  // only 2
}

TEST(SourceSetExactDeathTest, RejectsOutOfOrderInteractions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SourceSetExact sources(3, 5);
  sources.ProcessInteraction({0, 1, 10});
  EXPECT_DEATH(sources.ProcessInteraction({1, 2, 5}), "CHECK failed");
}

TEST(SourceSetApproxTest, SketchesKeepInvariants) {
  const InteractionGraph g = GenerateUniformRandomNetwork(60, 600, 2000, 11);
  IrsApproxOptions options;
  options.precision = 6;
  const SourceSetApprox approx = SourceSetApprox::Compute(g, 500, options);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (const VersionedHll* sketch = approx.Sketch(v)) {
      EXPECT_TRUE(sketch->CheckInvariants()) << "node " << v;
    }
  }
}

TEST(SourceSetApproxTest, TracksExactSizes) {
  SyntheticConfig config;
  config.num_nodes = 300;
  config.num_interactions = 5000;
  config.time_span = 10000;
  config.seed = 23;
  const InteractionGraph g = GenerateInteractionNetwork(config);
  const Duration window = 2000;
  const SourceSetExact exact = SourceSetExact::Compute(g, window);
  IrsApproxOptions options;
  options.precision = 9;
  const SourceSetApprox approx = SourceSetApprox::Compute(g, window, options);

  double total_err = 0.0;
  int count = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (exact.SourceSetSize(v) < 10) continue;
    const double truth = static_cast<double>(exact.SourceSetSize(v));
    total_err += std::abs(approx.EstimateSourceSetSize(v) - truth) / truth;
    ++count;
  }
  ASSERT_GT(count, 10);
  EXPECT_LT(total_err / count, 0.15);
}

TEST(SourceSetApproxTest, UnionEstimateReasonable) {
  const InteractionGraph g = GenerateUniformRandomNetwork(150, 2500, 6000, 13);
  const Duration window = 2000;
  const SourceSetExact exact = SourceSetExact::Compute(g, window);
  IrsApproxOptions options;
  options.precision = 9;
  const SourceSetApprox approx = SourceSetApprox::Compute(g, window, options);
  const std::vector<NodeId> targets = {3, 17, 42, 99};
  const double truth = static_cast<double>(exact.UnionSize(targets));
  if (truth > 20.0) {
    EXPECT_NEAR(approx.EstimateUnionSize(targets) / truth, 1.0, 0.25);
  }
}

TEST(SourceSetApproxTest, LazyAllocationOnlyForReceivers) {
  InteractionGraph g(5);
  g.AddInteraction(0, 1, 1);
  IrsApproxOptions options;
  options.precision = 6;
  const SourceSetApprox approx = SourceSetApprox::Compute(g, 5, options);
  EXPECT_NE(approx.Sketch(1), nullptr);
  EXPECT_EQ(approx.Sketch(0), nullptr);  // pure sender
  EXPECT_EQ(approx.NumAllocatedSketches(), 1u);
  EXPECT_DOUBLE_EQ(approx.EstimateSourceSetSize(0), 0.0);
}

// A hand-streamed instance, fed one interaction at a time, is Compute()'s
// result row for row: the same nodes hold sketches, with the same cell
// lists, and every answer agrees bit for bit.
TEST(SourceSetApproxTest, HandStreamedEqualsCompute) {
  const InteractionGraph g = GenerateUniformRandomNetwork(40, 800, 2000, 10);
  const IrsApproxOptions options{/*precision=*/6, /*salt=*/42};

  SourceSetApprox streamed(g.num_nodes(), 300, options);
  for (const Interaction& e : g.interactions()) {
    streamed.ProcessInteraction(e);
  }
  const SourceSetApprox computed = SourceSetApprox::Compute(g, 300, options);

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const VersionedHll* a = streamed.Sketch(v);
    const VersionedHll* b = computed.Sketch(v);
    ASSERT_EQ(a != nullptr, b != nullptr) << "node " << v;
    EXPECT_EQ(streamed.EstimateSourceSetSize(v),
              computed.EstimateSourceSetSize(v))
        << "node " << v;
    if (b == nullptr) continue;
    EXPECT_EQ(RowOf(*a), RowOf(*b)) << "node " << v;
    EXPECT_EQ(CellsOf(*a), CellsOf(*b)) << "node " << v;
  }
  EXPECT_EQ(streamed.EstimateUnionSize(std::vector<NodeId>{1, 5, 9}),
            computed.EstimateUnionSize(std::vector<NodeId>{1, 5, 9}));
  EXPECT_EQ(streamed.NumAllocatedSketches(), computed.NumAllocatedSketches());
  EXPECT_EQ(streamed.TotalSketchEntries(), computed.TotalSketchEntries());
  EXPECT_EQ(streamed.MemoryUsageBytes(), computed.MemoryUsageBytes());
}

TEST(SourceSetApproxDeathTest, RejectsOutOfOrderInteractions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  IrsApproxOptions options;
  options.precision = 6;
  SourceSetApprox approx(3, 5, options);
  approx.ProcessInteraction({0, 1, 10});
  EXPECT_DEATH(approx.ProcessInteraction({1, 2, 5}), "CHECK failed");
}


TEST(SourceSetOracleTest, SusceptibilityMaximizationCoversMoreThanTopK) {
  // Greedy over the source-set oracle picks monitors whose influencer sets
  // overlap little; it must cover at least as much as the top-k by
  // individual source-set size.
  SyntheticConfig config;
  config.num_nodes = 200;
  config.num_interactions = 3000;
  config.time_span = 6000;
  config.seed = 33;
  const InteractionGraph g = GenerateInteractionNetwork(config);
  IrsApproxOptions options;
  options.precision = 9;
  const SourceSetApprox sets = SourceSetApprox::Compute(g, 1500, options);
  const SourceSetOracle oracle(&sets);

  const SeedSelection greedy = SelectSeedsCelf(oracle, 8);
  ASSERT_EQ(greedy.seeds.size(), 8u);

  // Top-8 by individual size.
  std::vector<NodeId> by_size(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) by_size[v] = v;
  std::sort(by_size.begin(), by_size.end(), [&oracle](NodeId a, NodeId b) {
    return oracle.InfluenceOf(a) > oracle.InfluenceOf(b);
  });
  by_size.resize(8);
  EXPECT_GE(greedy.total_coverage + 1e-6,
            0.95 * oracle.InfluenceOfSet(by_size));
}

TEST(SourceSetOracleTest, CoverageConsistentWithSetQueries) {
  const InteractionGraph g = GenerateUniformRandomNetwork(80, 1000, 3000, 9);
  IrsApproxOptions options;
  options.precision = 8;
  const SourceSetApprox sets = SourceSetApprox::Compute(g, 800, options);
  const SourceSetOracle oracle(&sets);
  auto coverage = oracle.NewCoverage();
  std::vector<NodeId> committed;
  for (const NodeId v : {3u, 20u, 55u}) {
    coverage->Commit(v);
    committed.push_back(v);
    EXPECT_NEAR(coverage->Covered(), oracle.InfluenceOfSet(committed), 1e-9);
  }
}

}  // namespace
}  // namespace ipin
