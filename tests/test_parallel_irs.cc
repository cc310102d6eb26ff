// Cross-validation of every parallel code path against its sequential
// counterpart (DESIGN.md §10): the slab-stitched IRS build must be
// bit-identical to the one-pass scan, greedy/CELF seed selection and the
// TCIC Monte Carlo mean must not depend on the thread count, and the
// chunked graph parser must accept/skip exactly the same lines. Thread
// counts are pinned explicitly so the parallel paths are exercised even on
// single-core CI runners.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/thread_pool.h"
#include "ipin/core/influence_maximization.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/tcic.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/graph/graph_io.h"
#include "ipin/obs/metrics.h"
#include "test_util.h"

namespace ipin {
namespace {

class ParallelIrsTest : public ::testing::Test {
 protected:
  void TearDown() override { SetGlobalThreads(0); }  // restore default
};

IrsApproxOptions Options(int precision) {
  IrsApproxOptions options;
  options.precision = precision;
  return options;
}

// Big enough that ComputeParallel keeps up to 7 slabs (>= 1024 edges each)
// instead of falling back to the sequential scan.
InteractionGraph TestGraph() {
  return GenerateUniformRandomNetwork(/*num_nodes=*/300,
                                      /*num_interactions=*/8000,
                                      /*time_span=*/20000, /*seed=*/19);
}

// The stored cells of every per-node sketch plus the allocation pattern;
// two IRS builds are bit-identical iff these match.
std::vector<SketchCells> Fingerprint(const IrsApprox& irs) {
  std::vector<SketchCells> out(irs.num_nodes());
  for (NodeId u = 0; u < irs.num_nodes(); ++u) {
    if (const SketchView sketch = irs.Sketch(u)) out[u] = CellsOf(sketch);
  }
  return out;
}

TEST_F(ParallelIrsTest, SlabStitchedBuildIsBitIdentical) {
  const InteractionGraph g = TestGraph();
  const Duration window = 2500;

  SetGlobalThreads(1);
  const IrsApprox sequential = IrsApprox::Compute(g, window, Options(6));
  const auto expected = Fingerprint(sequential);

  SetGlobalThreads(4);
  for (const size_t slabs : {2u, 4u, 7u}) {
    const IrsApprox parallel =
        IrsApprox::ComputeParallel(g, window, Options(6), slabs);
    EXPECT_EQ(parallel.NumAllocatedSketches(),
              sequential.NumAllocatedSketches())
        << slabs << " slabs";
    EXPECT_EQ(Fingerprint(parallel), expected) << slabs << " slabs";
  }
}

TEST_F(ParallelIrsTest, ComputeDispatchMatchesSequential) {
  // Compute() itself routes large graphs to the parallel build when the
  // global thread count is > 1; the caller must not be able to tell.
  const InteractionGraph g = TestGraph();
  const Duration window = 1200;

  SetGlobalThreads(1);
  const auto expected =
      Fingerprint(IrsApprox::Compute(g, window, Options(7)));

  SetGlobalThreads(7);
  EXPECT_EQ(Fingerprint(IrsApprox::Compute(g, window, Options(7))), expected);
}

TEST_F(ParallelIrsTest, TinyGraphFallsBackToSequential) {
  const InteractionGraph g = GenerateUniformRandomNetwork(20, 200, 500, 3);
  SetGlobalThreads(1);
  const auto expected =
      Fingerprint(IrsApprox::Compute(g, 50, Options(6)));
  SetGlobalThreads(4);
  // Too small for even one full slab: ComputeParallel degrades to the
  // one-pass scan rather than over-splitting.
  EXPECT_EQ(Fingerprint(IrsApprox::ComputeParallel(g, 50, Options(6), 4)),
            expected);
}

TEST_F(ParallelIrsTest, GreedySeedSelectionIsThreadCountInvariant) {
  const InteractionGraph g = TestGraph();
  SetGlobalThreads(1);
  const IrsApprox irs = IrsApprox::Compute(g, 2500, Options(6));
  const SketchInfluenceOracle oracle(&irs);

  const SeedSelection sequential = SelectSeedsGreedy(oracle, 8);

  SetGlobalThreads(4);
  const SeedSelection parallel = SelectSeedsGreedy(oracle, 8);

  EXPECT_EQ(parallel.seeds, sequential.seeds);
  ASSERT_EQ(parallel.gains.size(), sequential.gains.size());
  for (size_t i = 0; i < parallel.gains.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel.gains[i], sequential.gains[i]) << "pick " << i;
  }
  EXPECT_DOUBLE_EQ(parallel.total_coverage, sequential.total_coverage);
  // Counted (non-speculative) evaluations replay Algorithm 4's early-exit
  // trajectory exactly; extra in-flight batch work is tracked separately
  // under im.greedy.speculative_evaluations.
  EXPECT_EQ(parallel.gain_evaluations, sequential.gain_evaluations);
}

TEST_F(ParallelIrsTest, CelfSeedSelectionIsThreadCountInvariant) {
  const InteractionGraph g = TestGraph();
  SetGlobalThreads(1);
  const IrsApprox irs = IrsApprox::Compute(g, 2500, Options(6));
  const SketchInfluenceOracle oracle(&irs);

  const SeedSelection sequential = SelectSeedsCelf(oracle, 8);

  SetGlobalThreads(4);
  const SeedSelection parallel = SelectSeedsCelf(oracle, 8);

  EXPECT_EQ(parallel.seeds, sequential.seeds);
  ASSERT_EQ(parallel.gains.size(), sequential.gains.size());
  for (size_t i = 0; i < parallel.gains.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel.gains[i], sequential.gains[i]) << "pick " << i;
  }
  EXPECT_EQ(parallel.gain_evaluations, sequential.gain_evaluations);
}

TEST_F(ParallelIrsTest, GreedyAndCelfAgreeUnderParallelism) {
  const InteractionGraph g = TestGraph();
  SetGlobalThreads(4);
  const IrsApprox irs = IrsApprox::Compute(g, 2500, Options(6));
  const SketchInfluenceOracle oracle(&irs);
  EXPECT_EQ(SelectSeedsGreedy(oracle, 6).seeds,
            SelectSeedsCelf(oracle, 6).seeds);
}

TEST_F(ParallelIrsTest, TcicMeanIsSeedStableAcrossThreadCounts) {
  const InteractionGraph g = GenerateUniformRandomNetwork(100, 2000, 5000, 7);
  const std::vector<NodeId> seeds = {1, 5, 9};
  TcicOptions options;
  options.window = 500;
  options.probability = 0.5;

  SetGlobalThreads(1);
  const double sequential = AverageTcicSpread(g, seeds, options, 250, 42);

  for (const size_t threads : {2u, 4u, 7u}) {
    SetGlobalThreads(threads);
    // Per-run RNG streams are derived from (seed, run index), and the means
    // are reduced in run order, so the result is bit-identical.
    EXPECT_DOUBLE_EQ(AverageTcicSpread(g, seeds, options, 250, 42),
                     sequential)
        << threads << " threads";
  }
}

class ParallelGraphIoTest : public ParallelIrsTest {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ipin_parallel_io_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".txt";
  }
  void TearDown() override {
    std::remove(path_.c_str());
    ParallelIrsTest::TearDown();
  }

  // A file large enough to split into several parse chunks (the chunker
  // aims for >= 64 KiB per chunk), with comments and — when `dirty` —
  // malformed lines and a timestamp regression sprinkled in.
  void WriteBigFile(bool dirty) {
    std::ofstream out(path_);
    out << "# header comment\n";
    for (int i = 0; i < 30000; ++i) {
      if (dirty && i % 997 == 0) out << "garbage line " << i << "\n";
      if (dirty && i % 1501 == 0) out << i % 400 << " " << (i + 1) % 400 << "\n";
      if (dirty && i == 15000) out << "5 6 1\n";  // timestamp regression
      out << i % 400 << " " << (i * 7 + 1) % 400 << " " << 1000 + i << "\n";
    }
  }

  std::string path_;
};

void ExpectSameGraph(const InteractionGraph& a, const InteractionGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_interactions(), b.num_interactions());
  for (size_t i = 0; i < a.num_interactions(); ++i) {
    const Interaction& x = a.interaction(i);
    const Interaction& y = b.interaction(i);
    ASSERT_EQ(x.src, y.src) << "interaction " << i;
    ASSERT_EQ(x.dst, y.dst) << "interaction " << i;
    ASSERT_EQ(x.time, y.time) << "interaction " << i;
  }
}

TEST_F(ParallelGraphIoTest, ChunkedStrictParseMatchesSequential) {
  WriteBigFile(/*dirty=*/false);
  SetGlobalThreads(1);
  const auto sequential = LoadInteractionsFromFile(path_);
  ASSERT_TRUE(sequential.has_value());

  SetGlobalThreads(4);
  const auto parallel = LoadInteractionsFromFile(path_);
  ASSERT_TRUE(parallel.has_value());
  ExpectSameGraph(*parallel, *sequential);
}

TEST_F(ParallelGraphIoTest, ChunkedLenientParseSkipsSameLines) {
  WriteBigFile(/*dirty=*/true);
  obs::Counter* skipped =
      obs::MetricsRegistry::Global().GetCounter("graph.io.skipped_lines");

  SetGlobalThreads(1);
  const uint64_t before_seq = skipped->Value();
  const auto sequential = LoadInteractionsFromFile(
      path_, EdgeListFormat::kSrcDstTime, ParseMode::kLenient);
  const uint64_t skipped_seq = skipped->Value() - before_seq;
  ASSERT_TRUE(sequential.has_value());

  SetGlobalThreads(4);
  const uint64_t before_par = skipped->Value();
  const auto parallel = LoadInteractionsFromFile(
      path_, EdgeListFormat::kSrcDstTime, ParseMode::kLenient);
  const uint64_t skipped_par = skipped->Value() - before_par;
  ASSERT_TRUE(parallel.has_value());

  ExpectSameGraph(*parallel, *sequential);
  EXPECT_EQ(skipped_par, skipped_seq);
#ifndef IPIN_OBS_DISABLED
  EXPECT_GT(skipped_seq, 0u);
#endif
}

TEST_F(ParallelGraphIoTest, ChunkedStrictParseRejectsSameFile) {
  WriteBigFile(/*dirty=*/true);
  SetGlobalThreads(4);
  EXPECT_FALSE(LoadInteractionsFromFile(path_).has_value());
}

}  // namespace
}  // namespace ipin
