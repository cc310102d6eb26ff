#include "ipin/graph/temporal_stats.h"

#include <gtest/gtest.h>

#include "ipin/datasets/registry.h"
#include "ipin/datasets/synthetic.h"

namespace ipin {
namespace {

TEST(SummarizeCountsTest, BasicQuantiles) {
  std::vector<double> counts;
  for (int i = 1; i <= 100; ++i) counts.push_back(i);
  const DistributionSummary s = SummarizeCounts(counts);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.0, 1.0);
  EXPECT_NEAR(s.p90, 90.0, 1.0);
  EXPECT_NEAR(s.p99, 99.0, 1.0);
  EXPECT_NEAR(s.top1_percent_share, 100.0 / 5050.0, 1e-9);
}

TEST(SummarizeCountsTest, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(SummarizeCounts({}).mean, 0.0);
  const DistributionSummary s = SummarizeCounts({7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_DOUBLE_EQ(s.top1_percent_share, 1.0);
}

TEST(TemporalStatsTest, CountsActivityAndDegree) {
  InteractionGraph g(3);
  g.AddInteraction(0, 1, 1);
  g.AddInteraction(0, 1, 2);  // repeated edge
  g.AddInteraction(0, 2, 3);
  const TemporalStats stats = ComputeTemporalStats(g, 100);
  EXPECT_EQ(stats.num_interactions, 3u);
  EXPECT_DOUBLE_EQ(stats.out_activity.max, 3.0);  // node 0 sends 3
  EXPECT_DOUBLE_EQ(stats.out_degree.max, 2.0);    // to 2 distinct targets
  EXPECT_DOUBLE_EQ(stats.in_activity.max, 2.0);   // node 1 receives 2
}

TEST(TemporalStatsTest, ReciprocityDetectsBackEdges) {
  InteractionGraph g(2);
  g.AddInteraction(0, 1, 1);
  g.AddInteraction(1, 0, 2);  // reciprocated
  g.AddInteraction(0, 1, 3);  // also reciprocated now
  const TemporalStats stats = ComputeTemporalStats(g, 100);
  EXPECT_NEAR(stats.reciprocity, 2.0 / 3.0, 1e-9);
}

TEST(TemporalStatsTest, ReplyFractionUsesHorizon) {
  InteractionGraph g(3);
  g.AddInteraction(0, 1, 10);   // 1 receives at 10
  g.AddInteraction(1, 2, 15);   // reply within 10 units
  g.AddInteraction(2, 0, 100);  // 2 received at 15; gap 85 > horizon
  const TemporalStats stats = ComputeTemporalStats(g, 10);
  EXPECT_NEAR(stats.reply_fraction, 1.0 / 3.0, 1e-9);
}

TEST(TemporalStatsTest, PoissonStreamHasUnitCv) {
  // Uniformly random timestamps have exponential-ish gaps: CV near 1.
  const InteractionGraph g =
      GenerateUniformRandomNetwork(100, 5000, 1000000, 3);
  const TemporalStats stats = ComputeTemporalStats(g);
  EXPECT_NEAR(stats.burstiness_cv, 1.0, 0.15);
}

TEST(TemporalStatsTest, SyntheticDatasetsShowFamilySignatures) {
  // The email-family generator must produce more reply chaining than the
  // uniform random stream, and heavy-tailed sender activity.
  const InteractionGraph lkml = LoadSyntheticDataset("lkml", 0.01);
  const TemporalStats stats = ComputeTemporalStats(lkml);
  EXPECT_GT(stats.out_activity.top1_percent_share, 0.05);
  EXPECT_GT(stats.reply_fraction, 0.3);

  const InteractionGraph random = GenerateUniformRandomNetwork(
      lkml.num_nodes(), lkml.num_interactions(), 1000000, 5);
  const TemporalStats random_stats = ComputeTemporalStats(random);
  EXPECT_GT(stats.out_activity.top1_percent_share,
            random_stats.out_activity.top1_percent_share);
}

TEST(TemporalStatsTest, EmptyGraph) {
  const InteractionGraph g(5);
  const TemporalStats stats = ComputeTemporalStats(g);
  EXPECT_EQ(stats.num_interactions, 0u);
  EXPECT_DOUBLE_EQ(stats.reciprocity, 0.0);
}

}  // namespace
}  // namespace ipin
