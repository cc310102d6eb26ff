#include "ipin/core/irs_approx.h"

#include <cmath>

#include <gtest/gtest.h>

#include "ipin/core/irs_exact.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/eval/metrics.h"
#include "ipin/sketch/estimators.h"
#include "test_util.h"

namespace ipin {
namespace {

IrsApproxOptions Options(int precision, uint64_t salt = 0) {
  IrsApproxOptions options;
  options.precision = precision;
  options.salt = salt;
  return options;
}

TEST(IrsApproxTest, SmallGraphEstimatesAreNearExact) {
  // On Figure 1a the IRS sizes are tiny; with a large beta the HLL
  // linear-counting regime is essentially exact. The sketch cannot filter a
  // node's own hash arriving via a temporal cycle (here e -> b -> e), so
  // estimates may exceed the exact size by up to one.
  const InteractionGraph g = FigureOneGraph();
  const IrsExact exact = IrsExact::Compute(g, 3);
  const IrsApprox approx = IrsApprox::Compute(g, 3, Options(10));
  for (NodeId u = 0; u < 6; ++u) {
    const double est = approx.EstimateIrsSize(u);
    const double truth = static_cast<double>(exact.IrsSize(u));
    EXPECT_GE(est, truth - 0.5) << "node " << u;
    EXPECT_LE(est, truth + 1.5) << "node " << u;
  }
}

TEST(IrsApproxTest, SketchesKeepInvariantsDuringScan) {
  const InteractionGraph g = GenerateUniformRandomNetwork(50, 600, 2000, 17);
  const IrsApprox approx = IrsApprox::Compute(g, 400, Options(6));
  for (const PartStore& store : approx.build_stores()) {
    EXPECT_TRUE(store.CheckInvariants());
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_TRUE(approx.arena()->CheckNodeInvariants(u)) << "node " << u;
  }
}

TEST(IrsApproxTest, LazyAllocationOnlyForSources) {
  InteractionGraph g(5);
  g.AddInteraction(0, 1, 1);
  g.AddInteraction(0, 2, 2);
  const IrsApprox approx = IrsApprox::Compute(g, 10, Options(6));
  EXPECT_TRUE(BuildCellsOf(approx, 0).has_value());
  EXPECT_FALSE(BuildCellsOf(approx, 1).has_value());  // pure receiver
  EXPECT_FALSE(BuildCellsOf(approx, 3).has_value());  // isolated
  EXPECT_TRUE(approx.arena()->has_node(0));
  EXPECT_FALSE(approx.arena()->has_node(1));
  EXPECT_FALSE(approx.arena()->has_node(3));
  EXPECT_EQ(approx.NumAllocatedSketches(), 1u);
  EXPECT_DOUBLE_EQ(approx.EstimateIrsSize(1), 0.0);
}

// A sender whose earliest send is a self-loop, more than two windows
// before its one real send. The scan's time encoding covers only the real
// send, and the scan retires phi(0) at the self-loop, outside that
// encoding: the build must still finish, at every part count, with 1's
// rank kept as a retired one.
TEST(IrsApproxTest, RetiresAtASelfLoopOutsideTheTimeEncoding) {
  InteractionGraph g(2);
  g.AddInteraction(0, 0, 0);
  g.AddInteraction(0, 1, 200);
  for (const size_t parts : {1, 3}) {
    const IrsApprox approx =
        IrsApprox::ComputeParallel(g, 10, Options(6), parts);
    ASSERT_EQ(approx.time_encoding(), (TimeEncoding{200, 4}));
    for (const PartStore& store : approx.build_stores()) {
      ASSERT_TRUE(store.CheckInvariants());
    }
    const std::optional<SketchCells> sketch = BuildCellsOf(approx, 0);
    ASSERT_TRUE(sketch.has_value());
    EXPECT_FALSE(sketch->collapsed);
    EXPECT_EQ(sketch->ranks.size(), 0u) << parts << " parts";
    EXPECT_EQ(sketch->retired_ranks.size(), 1u) << parts << " parts";
    EXPECT_NEAR(approx.EstimateIrsSize(0), 1.0, 0.1) << parts << " parts";
  }
}

struct AccuracyCase {
  int precision;
  Duration window;
};

class IrsApproxAccuracyTest : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(IrsApproxAccuracyTest, MeanRelativeErrorWithinTolerance) {
  const AccuracyCase c = GetParam();
  // A denser random network so IRS sizes are large enough for relative
  // error to be meaningful.
  SyntheticConfig config;
  config.num_nodes = 400;
  config.num_interactions = 6000;
  config.time_span = 20000;
  config.seed = 77;
  const InteractionGraph g = GenerateInteractionNetwork(config);

  const IrsExact exact = IrsExact::Compute(g, c.window);
  const IrsApprox approx = IrsApprox::Compute(g, c.window, Options(c.precision));

  std::vector<double> truth;
  std::vector<double> est;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (exact.IrsSize(u) < 10) continue;  // relative error needs mass
    truth.push_back(static_cast<double>(exact.IrsSize(u)));
    est.push_back(approx.EstimateIrsSize(u));
  }
  ASSERT_GT(truth.size(), 20u);
  const double mre = MeanRelativeError(truth, est);
  // Mean relative error concentrates near the sketch standard error; allow
  // 3x slack for the small-cardinality bias.
  const double tolerance =
      3.0 * HllStandardError(static_cast<size_t>(1) << c.precision) + 0.05;
  EXPECT_LT(mre, tolerance) << "precision " << c.precision;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IrsApproxAccuracyTest,
    ::testing::Values(AccuracyCase{4, 2000}, AccuracyCase{6, 2000},
                      AccuracyCase{8, 2000}, AccuracyCase{9, 2000},
                      AccuracyCase{8, 500}, AccuracyCase{8, 10000}));

TEST(IrsApproxTest, AccuracyImprovesWithPrecision) {
  SyntheticConfig config;
  config.num_nodes = 300;
  config.num_interactions = 5000;
  config.time_span = 10000;
  config.seed = 31;
  const InteractionGraph g = GenerateInteractionNetwork(config);
  const Duration window = 2000;
  const IrsExact exact = IrsExact::Compute(g, window);

  const auto mean_error = [&](int precision) {
    double total = 0.0;
    int count = 0;
    for (uint64_t salt = 0; salt < 3; ++salt) {
      const IrsApprox approx =
          IrsApprox::Compute(g, window, Options(precision, salt));
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (exact.IrsSize(u) < 20) continue;
        const double t = static_cast<double>(exact.IrsSize(u));
        total += std::abs(approx.EstimateIrsSize(u) - t) / t;
        ++count;
      }
    }
    return total / count;
  };
  EXPECT_LT(mean_error(9), mean_error(4));
}

TEST(IrsApproxTest, UnionEstimateTracksExactUnion) {
  SyntheticConfig config;
  config.num_nodes = 300;
  config.num_interactions = 5000;
  config.time_span = 10000;
  config.seed = 41;
  const InteractionGraph g = GenerateInteractionNetwork(config);
  const Duration window = 2000;
  const IrsExact exact = IrsExact::Compute(g, window);
  const IrsApprox approx = IrsApprox::Compute(g, window, Options(9));

  const std::vector<NodeId> seeds = {1, 5, 9, 42, 77, 130, 200};
  const double truth = static_cast<double>(exact.UnionSize(seeds));
  const double est = approx.EstimateUnionSize(seeds);
  ASSERT_GT(truth, 20.0);
  EXPECT_NEAR(est / truth, 1.0, 0.25);
}

TEST(IrsApproxTest, UnionOfEmptySeedsIsZero) {
  const InteractionGraph g = FigureOneGraph();
  const IrsApprox approx = IrsApprox::Compute(g, 3, Options(6));
  EXPECT_DOUBLE_EQ(approx.EstimateUnionSize({}), 0.0);
}

TEST(IrsApproxTest, UnionIsAtLeastMaxIndividual) {
  const InteractionGraph g = GenerateUniformRandomNetwork(100, 1500, 5000, 3);
  const IrsApprox approx = IrsApprox::Compute(g, 1000, Options(8));
  const std::vector<NodeId> seeds = {0, 1, 2, 3, 4};
  double max_individual = 0.0;
  for (const NodeId s : seeds) {
    max_individual = std::max(max_individual, approx.EstimateIrsSize(s));
  }
  EXPECT_GE(approx.EstimateUnionSize(seeds) + 1e-9, max_individual);
}

TEST(IrsApproxTest, EstimateMonotoneInWindowOnAverage) {
  const InteractionGraph g = GenerateUniformRandomNetwork(200, 3000, 9000, 8);
  double prev_total = -1.0;
  for (const Duration w : {10, 300, 3000, 9000}) {
    const IrsApprox approx = IrsApprox::Compute(g, w, Options(8));
    double total = 0.0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      total += approx.EstimateIrsSize(u);
    }
    EXPECT_GE(total, prev_total * 0.95) << "window " << w;
    prev_total = total;
  }
}

TEST(IrsApproxTest, MemoryGrowsWithWindow) {
  const InteractionGraph g =
      GenerateUniformRandomNetwork(200, 4000, 10000, 12);
  const IrsApprox narrow = IrsApprox::Compute(g, 10, Options(6));
  const IrsApprox wide = IrsApprox::Compute(g, 10000, Options(6));
  EXPECT_GE(wide.TotalSketchEntries(), narrow.TotalSketchEntries());
  EXPECT_GT(wide.MemoryUsageBytes(), 0u);
}

TEST(IrsApproxTest, EmptyGraphBehaves) {
  const InteractionGraph g(3);
  const IrsApprox approx = IrsApprox::Compute(g, 5, Options(6));
  EXPECT_EQ(approx.NumAllocatedSketches(), 0u);
  EXPECT_DOUBLE_EQ(approx.EstimateIrsSize(0), 0.0);
}

TEST(IrsApproxDeathTest, RejectsOutOfOrderInteractions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  InteractionGraph g(3);
  g.AddInteraction(0, 1, 20);
  g.AddInteraction(1, 2, 10);  // earlier than the edge before it
  ASSERT_FALSE(g.is_sorted());
  EXPECT_DEATH(IrsApprox::Compute(g, 5, Options(6)), "is_sorted");
}

TEST(IrsApproxTest, DifferentSaltsGiveDifferentButCloseEstimates) {
  const InteractionGraph g = GenerateUniformRandomNetwork(200, 3000, 8000, 5);
  const IrsApprox a = IrsApprox::Compute(g, 2000, Options(8, 1));
  const IrsApprox b = IrsApprox::Compute(g, 2000, Options(8, 2));
  bool any_different = false;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (a.EstimateIrsSize(u) != b.EstimateIrsSize(u)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace ipin
