#include "ipin/datasets/synthetic.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "ipin/common/logging.h"
#include "ipin/datasets/registry.h"
#include "ipin/graph/static_graph.h"

namespace ipin {
namespace {

SyntheticConfig SmallConfig() {
  SyntheticConfig config;
  config.num_nodes = 500;
  config.num_interactions = 8000;
  config.time_span = 100000;
  config.seed = 5;
  return config;
}

TEST(SyntheticTest, ProducesRequestedCounts) {
  const InteractionGraph g = GenerateInteractionNetwork(SmallConfig());
  EXPECT_EQ(g.num_nodes(), 500u);
  EXPECT_EQ(g.num_interactions(), 8000u);
}

TEST(SyntheticTest, SortedWithDistinctTimestamps) {
  const InteractionGraph g = GenerateInteractionNetwork(SmallConfig());
  EXPECT_TRUE(g.is_sorted());
  EXPECT_TRUE(g.HasDistinctTimestamps());
}

TEST(SyntheticTest, NoSelfLoops) {
  const InteractionGraph g = GenerateInteractionNetwork(SmallConfig());
  for (const Interaction& e : g.interactions()) {
    EXPECT_NE(e.src, e.dst);
  }
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  const InteractionGraph a = GenerateInteractionNetwork(SmallConfig());
  const InteractionGraph b = GenerateInteractionNetwork(SmallConfig());
  ASSERT_EQ(a.num_interactions(), b.num_interactions());
  for (size_t i = 0; i < a.num_interactions(); ++i) {
    EXPECT_EQ(a.interaction(i), b.interaction(i));
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticConfig config = SmallConfig();
  const InteractionGraph a = GenerateInteractionNetwork(config);
  config.seed += 1;
  const InteractionGraph b = GenerateInteractionNetwork(config);
  size_t differing = 0;
  for (size_t i = 0; i < a.num_interactions(); ++i) {
    if (!(a.interaction(i) == b.interaction(i))) ++differing;
  }
  EXPECT_GT(differing, a.num_interactions() / 2);
}

TEST(SyntheticTest, ActivityIsHeavyTailed) {
  // The most active sender should send far more than the median sender.
  const InteractionGraph g = GenerateInteractionNetwork(SmallConfig());
  std::vector<size_t> out_count(g.num_nodes(), 0);
  for (const Interaction& e : g.interactions()) out_count[e.src]++;
  std::sort(out_count.rbegin(), out_count.rend());
  EXPECT_GT(out_count[0], 20 * std::max<size_t>(out_count[250], 1));
}

TEST(SyntheticTest, TimestampsSpanMostOfConfiguredRange) {
  const InteractionGraph g = GenerateInteractionNetwork(SmallConfig());
  const auto stats = g.ComputeStats();
  EXPECT_GT(stats.time_span, 100000 / 2);
}

TEST(UniformRandomTest, BasicProperties) {
  const InteractionGraph g = GenerateUniformRandomNetwork(100, 1000, 5000, 3);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_interactions(), 1000u);
  EXPECT_TRUE(g.is_sorted());
  for (const Interaction& e : g.interactions()) EXPECT_NE(e.src, e.dst);
}

TEST(UniformRandomTest, TinyTimeSpanFallsBackToSequentialTimes) {
  const InteractionGraph g = GenerateUniformRandomNetwork(10, 100, 50, 3);
  EXPECT_TRUE(g.HasDistinctTimestamps());
}

TEST(RegistryTest, ListsSixDatasets) {
  const auto names = ListDatasetNames();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_NE(std::find(names.begin(), names.end(), "enron"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "us2016"), names.end());
}

TEST(RegistryTest, PaperTable2MatchesPublishedNumbers) {
  const auto rows = PaperTable2();
  ASSERT_EQ(rows.size(), 6u);
  // Spot-check the values from Table 2 of the paper.
  EXPECT_EQ(rows[0].name, "enron");
  EXPECT_EQ(rows[0].num_nodes, 87300u);
  EXPECT_EQ(rows[0].num_interactions, 1148100u);
  EXPECT_EQ(rows[0].days, 8767);
  EXPECT_EQ(rows[3].name, "higgs");
  EXPECT_EQ(rows[3].days, 7);
}

TEST(RegistryTest, ScaleShrinksCounts) {
  const auto full = GetDatasetConfig("slashdot", 1.0);
  const auto tenth = GetDatasetConfig("slashdot", 0.1);
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(tenth.has_value());
  EXPECT_NEAR(static_cast<double>(tenth->num_nodes),
              static_cast<double>(full->num_nodes) * 0.1, 2.0);
  EXPECT_EQ(full->time_span, tenth->time_span);  // span preserved
}

TEST(RegistryTest, UnknownNameGivesNullopt) {
  EXPECT_FALSE(GetDatasetConfig("not-a-dataset", 0.5).has_value());
}

// A scale outside (0, 1] is an input error, not a crash.
TEST(RegistryTest, OutOfRangeScaleGivesNullopt) {
  SetLogLevel(LogLevel::kError);
  for (const double scale : {0.0, -0.5, 1.5, std::nan("")}) {
    EXPECT_FALSE(GetDatasetConfig("slashdot", scale).has_value()) << scale;
  }
  EXPECT_TRUE(GetDatasetConfig("slashdot", 1.0).has_value());
}

TEST(RegistryTest, LoadSyntheticDatasetRuns) {
  const InteractionGraph g = LoadSyntheticDataset("slashdot", 0.02);
  EXPECT_GT(g.num_nodes(), 500u);
  EXPECT_GT(g.num_interactions(), 1000u);
  EXPECT_TRUE(g.is_sorted());
  EXPECT_TRUE(g.HasDistinctTimestamps());
}

TEST(RegistryTest, DatasetsAreReproducible) {
  const InteractionGraph a = LoadSyntheticDataset("higgs", 0.01);
  const InteractionGraph b = LoadSyntheticDataset("higgs", 0.01);
  ASSERT_EQ(a.num_interactions(), b.num_interactions());
  EXPECT_EQ(a.interaction(0), b.interaction(0));
  EXPECT_EQ(a.interaction(a.num_interactions() - 1),
            b.interaction(b.num_interactions() - 1));
}

TEST(RegistryTest, FlattenedGraphIsSmallerThanInteractionList) {
  // The paper notes static baselines consume a significantly smaller
  // flattened graph; repeated interactions must collapse.
  const InteractionGraph g = LoadSyntheticDataset("lkml", 0.02);
  const StaticGraph flat = StaticGraph::FromInteractions(g);
  EXPECT_LT(flat.num_edges(), g.num_interactions());
}

}  // namespace
}  // namespace ipin
