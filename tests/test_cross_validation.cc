// Cross-module consistency properties: independent implementations of the
// same temporal-graph concepts must agree. These are the strongest
// correctness checks in the suite — each property ties together two modules
// that were written separately.

#include <gtest/gtest.h>

#include "ipin/core/information_channel.h"
#include "ipin/core/irs_exact.h"
#include "ipin/core/source_sets.h"
#include "ipin/core/tcic.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/graph/temporal_paths.h"
#include "test_util.h"

namespace ipin {
namespace {

struct SweepCase {
  size_t num_nodes;
  size_t num_interactions;
  Duration time_span;
  uint64_t seed;
};

class CrossValidationTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  InteractionGraph MakeGraph() const {
    const SweepCase c = GetParam();
    return GenerateUniformRandomNetwork(c.num_nodes, c.num_interactions,
                                        c.time_span, c.seed);
  }
};

TEST_P(CrossValidationTest, TcicAtProbabilityOneEqualsTemporalReachability) {
  // A deterministic TCIC cascade from one seed s activates exactly s plus
  // every node reachable by a time-respecting path whose edges lie in
  // [t0, t0 + omega], where t0 is s's first interaction as a source.
  const InteractionGraph g = MakeGraph();
  std::vector<Timestamp> first_out(g.num_nodes(), kNoTimestamp);
  for (const Interaction& e : g.interactions()) {
    if (first_out[e.src] == kNoTimestamp) first_out[e.src] = e.time;
  }
  Rng rng(1);
  for (const Duration w : {0, 20, 100, 100000}) {
    TcicOptions options;
    options.window = w;
    options.probability = 1.0;
    for (NodeId s = 0; s < std::min<size_t>(g.num_nodes(), 10); ++s) {
      const std::vector<NodeId> seeds = {s};
      const size_t spread = SimulateTcic(g, seeds, options, &rng);
      if (first_out[s] == kNoTimestamp) {
        EXPECT_EQ(spread, 0u);
        continue;
      }
      const auto reach =
          EarliestArrival(g, s, first_out[s], first_out[s] + w);
      EXPECT_EQ(spread, reach.num_reachable + 1)
          << "seed " << s << " window " << w;
    }
  }
}

TEST_P(CrossValidationTest, IrsEqualsWindowSweptFastestPaths) {
  // sigma_omega(u) = {v : fastest duration(u -> v) <= omega}, and
  // lambda(u, v) is realized by some channel, so IRS sizes must agree with
  // duration-threshold counts for EVERY omega simultaneously.
  const InteractionGraph g = MakeGraph();
  for (NodeId u = 0; u < std::min<size_t>(g.num_nodes(), 8); ++u) {
    const FastestPathResult fastest = FastestPaths(g, u);
    for (const Duration w : {1, 7, 40, 1000}) {
      const IrsExact irs = IrsExact::Compute(g, w);
      size_t count = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (v != u && fastest.duration[v] >= 0 && fastest.duration[v] <= w) {
          ++count;
        }
      }
      EXPECT_EQ(irs.IrsSize(u), count) << "u=" << u << " w=" << w;
    }
  }
}

TEST_P(CrossValidationTest, UnlimitedWindowSourceSetsMatchLatestDeparture) {
  // With the window covering the whole span, tau(v) equals the set of
  // nodes with ANY time-respecting path into v, which LatestDeparture
  // computes independently.
  const InteractionGraph g = MakeGraph();
  if (g.empty()) return;
  const auto stats = g.ComputeStats();
  const Duration whole = stats.time_span + 1;
  const SourceSetExact sources = SourceSetExact::Compute(g, whole);
  for (NodeId v = 0; v < std::min<size_t>(g.num_nodes(), 10); ++v) {
    const auto departures =
        LatestDeparture(g, v, stats.min_time, stats.max_time);
    size_t count = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u != v && departures.departure[u] != kNoTimestamp) ++count;
    }
    EXPECT_EQ(sources.SourceSetSize(v), count) << "v=" << v;
  }
}

TEST_P(CrossValidationTest, SummaryTimesAreRealizableChannels) {
  // Every (v, lambda) entry of phi(u) must correspond to an actual channel
  // found by the brute-force path reconstructor, ending exactly at lambda.
  const InteractionGraph g = MakeGraph();
  const Duration w = 50;
  const IrsExact irs = IrsExact::Compute(g, w);
  for (NodeId u = 0; u < std::min<size_t>(g.num_nodes(), 6); ++u) {
    for (const auto& [v, lambda] : irs.Summary(u)) {
      const auto path = FindEarliestChannel(g, u, v, w);
      ASSERT_FALSE(path.empty()) << "u=" << u << " v=" << v;
      EXPECT_EQ(path.back().time, lambda) << "u=" << u << " v=" << v;
      EXPECT_LE(path.back().time - path.front().time + 1, w);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossValidationTest,
    ::testing::Values(SweepCase{8, 40, 100, 1}, SweepCase{12, 80, 200, 2},
                      SweepCase{16, 120, 150, 3}, SweepCase{25, 200, 600, 4},
                      SweepCase{40, 300, 1000, 5},
                      SweepCase{10, 150, 120, 6}, SweepCase{30, 90, 800, 7},
                      SweepCase{20, 250, 250, 8}));

}  // namespace
}  // namespace ipin
