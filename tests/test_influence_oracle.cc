#include "ipin/core/influence_oracle.h"

#include <gtest/gtest.h>

#include "ipin/datasets/synthetic.h"
#include "test_util.h"

namespace ipin {
namespace {

TEST(ExactOracleTest, MatchesIrsDirectly) {
  const InteractionGraph g = FigureOneGraph();
  const IrsExact irs = IrsExact::Compute(g, 3);
  const ExactInfluenceOracle oracle(&irs);
  EXPECT_EQ(oracle.num_nodes(), 6u);
  for (NodeId u = 0; u < 6; ++u) {
    EXPECT_DOUBLE_EQ(oracle.InfluenceOf(u),
                     static_cast<double>(irs.IrsSize(u)));
  }
  const std::vector<NodeId> seeds = {kA, kE};
  EXPECT_DOUBLE_EQ(oracle.InfluenceOfSet(seeds),
                   static_cast<double>(irs.UnionSize(seeds)));
}

TEST(ExactOracleTest, BudgetedUnionChecksSeedRange) {
  const IrsExact irs = IrsExact::Compute(FigureOneGraph(), 3);
  const ExactInfluenceOracle oracle(&irs);
  const std::vector<NodeId> seeds = {kA, 6};
  EXPECT_DEATH(oracle.InfluenceOfSetBudgeted(seeds, QueryBudget{}),
               "CHECK failed");
}

TEST(ExactOracleTest, CoverageGainsAreConsistent) {
  const InteractionGraph g = GenerateUniformRandomNetwork(30, 250, 800, 3);
  const IrsExact irs = IrsExact::Compute(g, 200);
  const ExactInfluenceOracle oracle(&irs);
  auto coverage = oracle.NewCoverage();
  EXPECT_DOUBLE_EQ(coverage->Covered(), 0.0);

  std::vector<NodeId> committed;
  for (const NodeId u : {0u, 5u, 9u, 14u}) {
    const double gain = coverage->GainOf(u);
    const double before = coverage->Covered();
    coverage->Commit(u);
    committed.push_back(u);
    EXPECT_DOUBLE_EQ(coverage->Covered(), before + gain) << "node " << u;
    EXPECT_DOUBLE_EQ(coverage->Covered(), oracle.InfluenceOfSet(committed));
  }
  // Recommitting adds nothing.
  const double before = coverage->Covered();
  coverage->Commit(0);
  EXPECT_DOUBLE_EQ(coverage->Covered(), before);
}

TEST(ExactOracleTest, GainShrinksAsCoverGrows) {
  const InteractionGraph g = GenerateUniformRandomNetwork(30, 250, 800, 5);
  const IrsExact irs = IrsExact::Compute(g, 400);
  const ExactInfluenceOracle oracle(&irs);
  auto coverage = oracle.NewCoverage();
  const double gain_empty = coverage->GainOf(7);
  coverage->Commit(3);
  coverage->Commit(11);
  EXPECT_LE(coverage->GainOf(7), gain_empty);  // submodularity
}

TEST(SketchOracleTest, BudgetedUnionChecksSeedRange) {
  const IrsApprox irs = IrsApprox::Compute(FigureOneGraph(), 3);
  const SketchInfluenceOracle oracle(&irs);
  const std::vector<NodeId> seeds = {kA, 6};
  EXPECT_DEATH(oracle.InfluenceOfSetBudgeted(seeds, QueryBudget{}),
               "CHECK failed");
}

TEST(SketchOracleTest, TracksExactOracle) {
  SyntheticConfig config;
  config.num_nodes = 250;
  config.num_interactions = 4000;
  config.time_span = 9000;
  config.seed = 19;
  const InteractionGraph g = GenerateInteractionNetwork(config);
  const Duration window = 2000;
  const IrsExact exact = IrsExact::Compute(g, window);
  IrsApproxOptions options;
  options.precision = 9;
  const IrsApprox approx = IrsApprox::Compute(g, window, options);

  const ExactInfluenceOracle exact_oracle(&exact);
  const SketchInfluenceOracle sketch_oracle(&approx);
  EXPECT_EQ(sketch_oracle.num_nodes(), exact_oracle.num_nodes());

  const std::vector<NodeId> seeds = {2, 30, 71, 120, 200};
  const double truth = exact_oracle.InfluenceOfSet(seeds);
  if (truth > 30.0) {
    EXPECT_NEAR(sketch_oracle.InfluenceOfSet(seeds) / truth, 1.0, 0.25);
  }
}

TEST(SketchOracleTest, CoverageCommitMatchesSetQuery) {
  const InteractionGraph g = GenerateUniformRandomNetwork(100, 1500, 4000, 23);
  IrsApproxOptions options;
  options.precision = 8;
  const IrsApprox approx = IrsApprox::Compute(g, 1000, options);
  const SketchInfluenceOracle oracle(&approx);

  auto coverage = oracle.NewCoverage();
  std::vector<NodeId> committed;
  for (const NodeId u : {1u, 17u, 42u}) {
    coverage->Commit(u);
    committed.push_back(u);
    EXPECT_NEAR(coverage->Covered(), oracle.InfluenceOfSet(committed), 1e-9);
  }
}

TEST(SketchOracleTest, GainOfSourcelessNodeIsZero) {
  InteractionGraph g(4);
  g.AddInteraction(0, 1, 1);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox approx = IrsApprox::Compute(g, 5, options);
  const SketchInfluenceOracle oracle(&approx);
  auto coverage = oracle.NewCoverage();
  EXPECT_DOUBLE_EQ(coverage->GainOf(2), 0.0);
  coverage->Commit(2);  // no-op, must not crash
  EXPECT_DOUBLE_EQ(coverage->Covered(), 0.0);
}

TEST(SetCoverageOracleTest, BehavesLikeExplicitSets) {
  SetCoverageOracle oracle({{1, 2, 3}, {3, 4}, {}, {0}});
  EXPECT_EQ(oracle.num_nodes(), 4u);
  EXPECT_DOUBLE_EQ(oracle.InfluenceOf(0), 3.0);
  EXPECT_DOUBLE_EQ(oracle.InfluenceOf(2), 0.0);
  const std::vector<NodeId> seeds = {0, 1};
  EXPECT_DOUBLE_EQ(oracle.InfluenceOfSet(seeds), 4.0);  // {1,2,3,4}

  auto coverage = oracle.NewCoverage();
  EXPECT_DOUBLE_EQ(coverage->GainOf(0), 3.0);
  coverage->Commit(0);
  EXPECT_DOUBLE_EQ(coverage->GainOf(1), 1.0);  // only 4 is new
  coverage->Commit(1);
  EXPECT_DOUBLE_EQ(coverage->Covered(), 4.0);
}

}  // namespace
}  // namespace ipin
