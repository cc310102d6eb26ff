#include "ipin/core/influence_maximization.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/core/influence_oracle.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_exact.h"
#include "ipin/datasets/registry.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/obs/metrics.h"
#include "test_util.h"

namespace ipin {
namespace {

// Reference greedy without the early-exit optimization: full scan per round,
// same tie-break preference as Algorithm 4 (gain, then individual influence,
// then smaller id).
SeedSelection NaiveGreedy(const InfluenceOracle& oracle, size_t k) {
  SeedSelection result;
  const size_t n = oracle.num_nodes();
  auto coverage = oracle.NewCoverage();
  std::vector<char> selected(n, 0);
  while (result.seeds.size() < std::min(k, n)) {
    double best_gain = -1.0;
    NodeId best = kInvalidNode;
    for (NodeId u = 0; u < n; ++u) {
      if (selected[u]) continue;
      const double gain = coverage->GainOf(u);
      ++result.gain_evaluations;
      const bool better =
          gain > best_gain ||
          (gain == best_gain && best != kInvalidNode &&
           oracle.InfluenceOf(u) > oracle.InfluenceOf(best));
      if (better) {
        best_gain = gain;
        best = u;
      }
    }
    if (best == kInvalidNode) break;
    selected[best] = 1;
    coverage->Commit(best);
    result.seeds.push_back(best);
    result.gains.push_back(best_gain);
  }
  result.total_coverage = coverage->Covered();
  return result;
}

// Reference lazy greedy that never touches a CoverageState: every gain is
// max(0, InfluenceOfSet(seeds + u) - InfluenceOfSet(seeds)), the oracle's
// independent union path. Each step scans every node for the best cached
// gain, in CELF's order (gain, then individual influence, then smaller id);
// a gain cached in an earlier round is re-evaluated, a current one is
// picked. That is CELF's rule without its heap. An eager full-scan greedy
// is no reference here: sketch estimates are not submodular, and on these
// instances it picks differently from CELF before any kernel is involved.
SeedSelection UnionPathLazyGreedy(const InfluenceOracle& oracle, size_t k) {
  SeedSelection result;
  const size_t n = oracle.num_nodes();
  const std::vector<double> influence = oracle.InfluenceOfAll();
  std::vector<double> gain = influence;
  std::vector<size_t> round(n, 0);
  std::vector<char> selected(n, 0);
  std::vector<NodeId> with;
  double covered = 0.0;
  while (result.seeds.size() < std::min(k, n)) {
    NodeId best = kInvalidNode;
    for (NodeId u = 0; u < n; ++u) {
      if (selected[u]) continue;
      if (best == kInvalidNode || gain[u] > gain[best] ||
          (gain[u] == gain[best] && influence[u] > influence[best])) {
        best = u;
      }
    }
    const size_t current = result.seeds.size() + 1;
    if (round[best] != current) {
      with = result.seeds;
      with.push_back(best);
      gain[best] = std::max(0.0, oracle.InfluenceOfSet(with) - covered);
      round[best] = current;
      ++result.gain_evaluations;
      continue;
    }
    selected[best] = 1;
    result.seeds.push_back(best);
    result.gains.push_back(gain[best]);
    covered = oracle.InfluenceOfSet(result.seeds);
  }
  result.total_coverage = covered;
  return result;
}

// CELF's seeds and gain count match the union-path reference, and every
// reported gain is, bit for bit, the union-path difference of its prefix.
void ExpectCelfMatchesUnionPath(const InfluenceOracle& oracle, size_t k) {
  const SeedSelection celf = SelectSeedsCelf(oracle, k);
  const SeedSelection naive = UnionPathLazyGreedy(oracle, k);
  ASSERT_EQ(celf.seeds, naive.seeds);
  ASSERT_EQ(celf.gain_evaluations, naive.gain_evaluations);
  ASSERT_EQ(celf.gains.size(), celf.seeds.size());
  const std::span<const NodeId> seeds(celf.seeds);
  for (size_t i = 0; i < seeds.size(); ++i) {
    const double want =
        std::max(0.0, oracle.InfluenceOfSet(seeds.first(i + 1)) -
                          oracle.InfluenceOfSet(seeds.first(i)));
    ASSERT_EQ(celf.gains[i], want) << "pick " << i;
    ASSERT_EQ(celf.gains[i], naive.gains[i]) << "pick " << i;
  }
  ASSERT_EQ(celf.total_coverage, oracle.InfluenceOfSet(seeds));
}

TEST(CelfTest, SketchOracleGainsMatchUnionPathBitForBit) {
  for (const int precision : {6, 9}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "precision " << precision << " seed " << seed);
      const InteractionGraph g =
          GenerateUniformRandomNetwork(300, 2400, 4000, seed + 40);
      IrsApproxOptions options;
      options.precision = precision;
      const IrsApprox irs = IrsApprox::Compute(g, 400, options);
      const SketchInfluenceOracle oracle(&irs);
      ExpectCelfMatchesUnionPath(oracle, 25);
    }
  }
}

// CELF on a fixed generated slashdot index (scale 0.05, generator seed 5,
// beta = 512, window 10% of the span): the seeds and the bits of every gain,
// recorded before the estimate and coverage kernels moved to lane-count
// histograms and histogram deltas. The benchmark's own campaign check
// compares against a reference built by the same binary, so only constants
// catch a drift that both sides share.
TEST(CelfTest, PinnedSlashdotCampaign) {
  constexpr NodeId kSeeds[] = {
      1740, 2200, 2265, 1154, 170,  1873, 407,  2456, 554,  300,
      1330, 2195, 126,  749,  1838, 2477, 1401, 2342, 2347, 2123,
      947,  904,  2266, 763,  1162, 795,  1206, 2434, 1486, 1312,
      1528, 1645, 773,  31,   417,  2193, 677,  29,   1153, 452,
      1880, 1733, 847,  1501, 2436, 260,  2317, 76,   295,  340};
  constexpr double kGains[] = {
      0x1.89b0294fcebf2p+9, 0x1.57d1ed4cdf82p+6, 0x1.4085602864a5p+5,
      0x1.eaaf81e5d1dep+4,  0x1.9edf9b068678p+4, 0x1.458d827c38fap+4,
      0x1.530716bea29cp+4,  0x1.d425690bc0e4p+3, 0x1.e1eac6c098dp+3,
      0x1.f085d93e7b88p+3,  0x1.000555888adp+4,  0x1.0847ee856074p+4,
      0x1.11178a5a14ap+4,   0x1.1a82c0cc78fcp+4, 0x1.249a3f94db34p+4,
      0x1.2f712d4f04e8p+4,  0x1.3815eb9c9b18p+3, 0x1.3e255aed4248p+3,
      0x1.44723d272a8p+3,   0x1.4b004bce0acp+3,  0x1.51d38f0cf718p+3,
      0x1.58f065fe55fp+3,   0x1.605b9005725p+3,  0x1.681a3763c64p+3,
      0x1.7031fd3bab08p+3,  0x1.78a9073b419p+3,  0x1.81860f35772p+3,
      0x1.8ad074fc87p+3,    0x1.949052e1d2p+3,   0x1.9ece955321b8p+3,
      0x1.a9951626617p+3,   0x1.b4eebc43cf58p+3, 0x1.c0e7a0853dd8p+3,
      0x1.cd8d38d161e8p+3,  0x1.daee8ab72e8p+3,  0x1.e91c671aa92p+3,
      0x0p+0,               0x0p+0,              0x1.5e465a98183p+2,
      0x1.1b599579188p+3,   0x1.6563c87a554p+1,  0x1.32ae10024b38p+3,
      0x1.b54a48b5dc6p+1,   0x1.248ab52d39p+0,   0x1.b8583868c1ep+1,
      0x0p+0,               0x1.26d8a8fd7e8p+1,  0x0p+0,
      0x0p+0,               0x1.bb55607d59p-1};
  std::optional<SyntheticConfig> config = GetDatasetConfig("slashdot", 0.05);
  ASSERT_TRUE(config.has_value());
  config->seed = 5;
  const InteractionGraph g = GenerateInteractionNetwork(*config);
  const IrsApprox irs =
      IrsApprox::Compute(g, g.WindowFromPercent(10.0), IrsApproxOptions{});
  const SketchInfluenceOracle oracle(&irs);
  const SeedSelection celf = SelectSeedsCelf(oracle, 50);
  ASSERT_EQ(celf.seeds, std::vector<NodeId>(std::begin(kSeeds),
                                            std::end(kSeeds)));
  ASSERT_EQ(celf.gains.size(), std::size(kGains));
  for (size_t i = 0; i < celf.gains.size(); ++i) {
    ASSERT_EQ(celf.gains[i], kGains[i]) << "pick " << i;
  }
  EXPECT_EQ(celf.total_coverage, 0x1.4a23c9eb3f973p+10);
  EXPECT_EQ(celf.gain_evaluations, 2011u);
}

// CELF where gain and individual influence tie across many nodes, so the
// node id alone orders them: a quarter of the sets are empty, a quarter are
// one identical set, and the rest overlap it and each other. k exceeds the
// non-empty count, so the last picks are all zero-gain ties. Seeds, gains,
// evaluations and re-inserts are those of the priority_queue CELF that
// built its queue one push at a time; any queue that pops the same total
// order (gain, then influence, then smaller id) reproduces them.
TEST(CelfTest, HeapifiedQueueKeepsTieOrder) {
  std::vector<std::vector<NodeId>> sets(48);
  for (NodeId u = 0; u < sets.size(); ++u) {
    switch (u % 4) {
      case 0:
        break;  // empty
      case 1:
        sets[u] = {0, 1, 2};
        break;
      case 2:
        sets[u] = {2, 3, 4};
        break;
      default:
        sets[u] = {4, 10 + u % 5};
        break;
    }
  }
  const SetCoverageOracle oracle(std::move(sets));
#ifndef IPIN_OBS_DISABLED
  obs::Counter* reinserts =
      obs::MetricsRegistry::Global().GetCounter("im.celf.heap_reinserts");
  const uint64_t before = reinserts->Value();
#endif
  const SeedSelection celf = SelectSeedsCelf(oracle, 40);
  const std::vector<NodeId> want_seeds = {
      1,  2,  3,  7,  11, 15, 19, 5,  6,  9,  10, 13, 14, 17,
      18, 21, 22, 25, 26, 29, 30, 33, 34, 37, 38, 41, 42, 45,
      46, 23, 27, 31, 35, 39, 43, 47, 0,  4,  8,  12};
  std::vector<double> want_gains(want_seeds.size(), 0.0);
  want_gains[0] = 3.0;
  want_gains[1] = 2.0;
  std::fill(want_gains.begin() + 2, want_gains.begin() + 7, 1.0);
  EXPECT_EQ(celf.seeds, want_seeds);
  EXPECT_EQ(celf.gains, want_gains);
  EXPECT_EQ(celf.total_coverage, 10.0);
  EXPECT_EQ(celf.gain_evaluations, 91u);
#ifndef IPIN_OBS_DISABLED
  EXPECT_EQ(reinserts->Value() - before, 91u);
#endif
}

TEST(GreedyTest, PicksObviousWinnerFirst) {
  SetCoverageOracle oracle({{1, 2, 3, 4, 5}, {1, 2}, {6}, {}});
  const SeedSelection result = SelectSeedsGreedy(oracle, 2);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);  // covers 5
  EXPECT_EQ(result.seeds[1], 2u);  // covers 1 new (node 6)
  EXPECT_DOUBLE_EQ(result.total_coverage, 6.0);
}

TEST(GreedyTest, AccountsForOverlap) {
  // Node 0 covers {1..5}; node 1 covers {1..4, 6}; node 2 covers {7, 8}.
  // Plain top-2-by-size picks 0 and 1 (coverage 7); greedy picks 0 and 2
  // only if |{7,8} new| > |{6} new| -> yes.
  SetCoverageOracle oracle({{1, 2, 3, 4, 5}, {1, 2, 3, 4, 6}, {7, 8}});
  const SeedSelection result = SelectSeedsGreedy(oracle, 2);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_EQ(result.seeds[1], 2u);
  EXPECT_DOUBLE_EQ(result.total_coverage, 7.0);
}

TEST(GreedyTest, MatchesNaiveGreedyOnRandomInstances) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const InteractionGraph g =
        GenerateUniformRandomNetwork(25, 180, 500, seed);
    const IrsExact irs = IrsExact::Compute(g, 100);
    const ExactInfluenceOracle oracle(&irs);
    const SeedSelection fast = SelectSeedsGreedy(oracle, 6);
    const SeedSelection naive = NaiveGreedy(oracle, 6);
    EXPECT_EQ(fast.seeds, naive.seeds) << "seed " << seed;
    EXPECT_DOUBLE_EQ(fast.total_coverage, naive.total_coverage);
    EXPECT_LE(fast.gain_evaluations, naive.gain_evaluations);
  }
}

TEST(CelfTest, MatchesSimpleGreedy) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const InteractionGraph g =
        GenerateUniformRandomNetwork(25, 180, 500, seed + 10);
    const IrsExact irs = IrsExact::Compute(g, 100);
    const ExactInfluenceOracle oracle(&irs);
    const SeedSelection greedy = SelectSeedsGreedy(oracle, 6);
    const SeedSelection celf = SelectSeedsCelf(oracle, 6);
    EXPECT_EQ(greedy.seeds, celf.seeds) << "seed " << seed;
    EXPECT_DOUBLE_EQ(greedy.total_coverage, celf.total_coverage);
  }
}

TEST(CelfTest, UsesFewerEvaluationsThanNaive) {
  const InteractionGraph g = GenerateUniformRandomNetwork(60, 500, 1500, 3);
  const IrsExact irs = IrsExact::Compute(g, 300);
  const ExactInfluenceOracle oracle(&irs);
  const SeedSelection celf = SelectSeedsCelf(oracle, 8);
  const SeedSelection naive = NaiveGreedy(oracle, 8);
  EXPECT_EQ(celf.seeds, naive.seeds);
  EXPECT_LT(celf.gain_evaluations, naive.gain_evaluations);
}

TEST(GreedyTest, NearOptimalOnTinyInstances) {
  // Greedy >= (1 - 1/e) * OPT for monotone submodular coverage.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const InteractionGraph g = GenerateUniformRandomNetwork(12, 60, 200, seed);
    const IrsExact irs = IrsExact::Compute(g, 50);
    const ExactInfluenceOracle oracle(&irs);
    const SeedSelection greedy = SelectSeedsGreedy(oracle, 3);
    const SeedSelection optimal = SelectSeedsExhaustive(oracle, 3);
    EXPECT_GE(greedy.total_coverage + 1e-9,
              (1.0 - 1.0 / 2.718281828) * optimal.total_coverage)
        << "seed " << seed;
  }
}

TEST(GreedyTest, GainsAreNonIncreasing) {
  const InteractionGraph g = GenerateUniformRandomNetwork(40, 300, 900, 7);
  const IrsExact irs = IrsExact::Compute(g, 200);
  const ExactInfluenceOracle oracle(&irs);
  const SeedSelection result = SelectSeedsGreedy(oracle, 10);
  for (size_t i = 1; i < result.gains.size(); ++i) {
    EXPECT_LE(result.gains[i], result.gains[i - 1] + 1e-9);
  }
}

TEST(GreedyTest, KLargerThanNSelectsAllNodes) {
  SetCoverageOracle oracle({{1}, {2}, {0}});
  const SeedSelection result = SelectSeedsGreedy(oracle, 10);
  EXPECT_EQ(result.seeds.size(), 3u);
}

TEST(GreedyTest, KZeroSelectsNothing) {
  SetCoverageOracle oracle({{1}, {2}});
  EXPECT_TRUE(SelectSeedsGreedy(oracle, 0).seeds.empty());
  EXPECT_TRUE(SelectSeedsCelf(oracle, 0).seeds.empty());
}

TEST(GreedyTest, EmptyOracle) {
  SetCoverageOracle oracle({});
  EXPECT_TRUE(SelectSeedsGreedy(oracle, 3).seeds.empty());
  EXPECT_TRUE(SelectSeedsCelf(oracle, 3).seeds.empty());
}

TEST(GreedyTest, AllEmptySetsStillSelectsDeterministically) {
  SetCoverageOracle oracle({{}, {}, {}});
  const SeedSelection result = SelectSeedsGreedy(oracle, 2);
  EXPECT_EQ(result.seeds.size(), 2u);
  EXPECT_DOUBLE_EQ(result.total_coverage, 0.0);
}

TEST(ExhaustiveTest, FindsTrueOptimum) {
  // Node sets engineered so the best pair is {1, 2} (disjoint, 3 + 3),
  // beating {0, anything} despite node 0 having the largest set.
  SetCoverageOracle oracle(
      {{1, 2, 3, 4}, {5, 6, 7}, {8, 9, 10}, {1, 2}, {}});
  const SeedSelection best = SelectSeedsExhaustive(oracle, 2);
  EXPECT_DOUBLE_EQ(best.total_coverage, 7.0);  // {0} u {1} or {0} u {2}
}

TEST(GreedyTest, SeedsAreDistinct) {
  const InteractionGraph g = GenerateUniformRandomNetwork(30, 200, 600, 9);
  const IrsExact irs = IrsExact::Compute(g, 150);
  const ExactInfluenceOracle oracle(&irs);
  const SeedSelection result = SelectSeedsGreedy(oracle, 10);
  std::vector<NodeId> sorted = result.seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

}  // namespace
}  // namespace ipin
