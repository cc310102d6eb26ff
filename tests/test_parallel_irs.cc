// Cross-validation of every parallel code path against its sequential
// counterpart (DESIGN.md §10): the cell-partitioned IRS build, where each
// worker applies the one reverse scan to its own cell range of every
// sketch, must be bit-identical to the one-part scan with the same tallies;
// greedy/CELF seed selection and the TCIC Monte Carlo mean must not depend
// on the thread count; and the chunked graph parser must accept/skip
// exactly the same lines. Thread counts are pinned explicitly so the
// parallel paths are exercised even on single-core CI runners.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/safe_io.h"
#include "ipin/common/thread_pool.h"
#include "ipin/core/checkpoint.h"
#include "ipin/core/influence_maximization.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/oracle_io.h"
#include "ipin/core/tcic.h"
#include "ipin/datasets/registry.h"
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

// A dense random log (8000 interactions among 300 nodes) shared by the
// build tests.
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

// CRC32C over every build sketch's cell lists in node order: per cell its
// entry count (u8), then each entry's rank (u8) and time (i64), little-endian.
// Pins the lists themselves, which the index file does not store.
uint32_t ListsCrc32c(const IrsApprox& irs) {
  uint32_t crc = 0;
  for (NodeId u = 0; u < irs.num_nodes(); ++u) {
    const SketchView sketch = irs.Sketch(u);
    if (!sketch) continue;
    const SketchCells cells = CellsOf(sketch);
    size_t entry = 0;
    for (const uint8_t count : cells.counts) {
      crc = Crc32c(&count, 1, crc);
      for (size_t i = 0; i < count; ++i, ++entry) {
        crc = Crc32c(&cells.ranks[entry], 1, crc);
        crc = Crc32c(&cells.times[entry], sizeof(int64_t), crc);
      }
    }
  }
  return crc;
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
  // Compute() splits every sketch into one part per global thread; the
  // caller must not be able to tell.
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
  // A graph this small leaves most cells of each part empty; the parts
  // still reproduce the one-part sketches exactly.
  EXPECT_EQ(Fingerprint(IrsApprox::ComputeParallel(g, 50, Options(6), 4)),
            expected);
}

// The build tallies and the counters they publish count the work of the
// one-pass scan, whatever the thread count.
TEST_F(ParallelIrsTest, BuildTalliesDoNotDependOnThreadCount) {
  const InteractionGraph g = TestGraph();
  const char* const kCounters[] = {
      "sketch.vhll.insert_attempts", "sketch.vhll.merge_entries_scanned",
      "sketch.vhll.cell_updates", "sketch.vhll.dominance_evictions",
      "sketch.vhll.merges"};
  struct Tallies {
    std::vector<size_t> totals;
    std::vector<uint64_t> counters;
  };
  const auto build = [&](size_t threads) {
    SetGlobalThreads(threads);
    auto& registry = obs::MetricsRegistry::Global();
    std::vector<uint64_t> before;
    for (const char* name : kCounters) {
      before.push_back(registry.GetCounter(name)->Value());
    }
    const IrsApprox irs = IrsApprox::Compute(g, 2500, Options(6));
    Tallies tallies;
    tallies.totals = {irs.TotalInsertAttempts(), irs.TotalEvictions(),
                      irs.TotalMergeEntriesScanned(), irs.TotalCellUpdates()};
    for (size_t i = 0; i < std::size(kCounters); ++i) {
      tallies.counters.push_back(
          registry.GetCounter(kCounters[i])->Value() - before[i]);
    }
    return tallies;
  };

  const Tallies sequential = build(1);
  EXPECT_GT(sequential.totals[0], 0u);
  for (const size_t threads : {2u, 7u}) {
    const Tallies parallel = build(threads);
    EXPECT_EQ(parallel.totals, sequential.totals) << threads << " threads";
    EXPECT_EQ(parallel.counters, sequential.counters) << threads << " threads";
  }
}

// The build's output, pinned so that a change to how sketches are stored
// during the build cannot move it: on a fixed enron-shaped log (beta = 512,
// omega = 10% of the span) the four lifetime tallies, the CRC32C of the
// build sketches' cell lists, and the CRC32C of the saved index file,
// unsealed and sealed, are these constants at 1 part and at 3, built
// plainly and with checkpoints every 1,000 edges.
TEST_F(ParallelIrsTest, BuildOutputIsPinned) {
  constexpr size_t kInsertAttempts = 634865;
  constexpr size_t kEvictions = 184667;
  constexpr size_t kMergeEntriesScanned = 623384;
  constexpr size_t kCellUpdates = 333295;
  constexpr size_t kEntries = 160109;
  constexpr uint32_t kListsCrc32c = 0x5e729a74;
  constexpr uint32_t kIndexCrc32c = 0xbeb26eb1;
  SyntheticConfig config = *GetDatasetConfig("enron", 0.01);
  config.seed = 25;
  const InteractionGraph g = GenerateInteractionNetwork(config);
  ASSERT_EQ(g.num_interactions(), 11481u);
  const std::string path =
      ::testing::TempDir() + "/ipin_pinned_" +
      std::to_string(reinterpret_cast<uintptr_t>(this)) + ".idx";
  const CheckpointOptions checkpoints{path + ".ckpt", /*every_edges=*/1000};
  for (const size_t parts : {1u, 3u}) {
    for (const bool checkpointed : {false, true}) {
      SCOPED_TRACE(testing::Message() << parts << " parts, checkpointed "
                                      << checkpointed);
      SetGlobalThreads(parts);
      std::filesystem::remove_all(checkpoints.dir);
      IrsApprox irs =
          checkpointed
              ? ComputeIrsApproxCheckpointed(g, g.WindowFromPercent(10),
                                             Options(9), checkpoints)
              : IrsApprox::ComputeParallel(g, g.WindowFromPercent(10),
                                           Options(9), parts);
      EXPECT_EQ(irs.TotalInsertAttempts(), kInsertAttempts);
      EXPECT_EQ(irs.TotalEvictions(), kEvictions);
      EXPECT_EQ(irs.TotalMergeEntriesScanned(), kMergeEntriesScanned);
      EXPECT_EQ(irs.TotalCellUpdates(), kCellUpdates);
      EXPECT_EQ(irs.TotalSketchEntries(), kEntries);
      EXPECT_EQ(ListsCrc32c(irs), kListsCrc32c);
      for (const bool sealed : {false, true}) {
        if (sealed) irs.Seal();
        ASSERT_TRUE(SaveInfluenceIndex(irs, path));
        const auto image = ReadWholeFile(path);
        ASSERT_NE(image, nullptr);
        EXPECT_EQ(Crc32c(image->view()), kIndexCrc32c) << "sealed " << sealed;
      }
    }
  }
  std::filesystem::remove_all(checkpoints.dir);
  std::remove(path.c_str());
}

// beta = 16 cells: 16 threads give every part one cell, and 32 threads are
// capped at one part per cell.
TEST_F(ParallelIrsTest, OneCellPerPartMatchesSequential) {
  const InteractionGraph g = TestGraph();
  SetGlobalThreads(1);
  const auto expected = Fingerprint(IrsApprox::Compute(g, 2500, Options(4)));
  for (const size_t threads : {16u, 32u}) {
    SetGlobalThreads(threads);
    EXPECT_EQ(Fingerprint(IrsApprox::Compute(g, 2500, Options(4))), expected)
        << threads << " threads";
  }
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
