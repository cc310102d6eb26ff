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

#include "ipin/common/random.h"
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

// The CRC32C of an arena's rank plane and entry counts: every present
// node's row in node order, then every present node's entry count as a
// u32, in the same order. It pins what a load restores, whatever the
// file's layout.
uint32_t RowsCrc32c(const SketchArena& arena) {
  uint32_t crc = 0;
  for (NodeId u = 0; u < arena.num_nodes(); ++u) {
    if (arena.has_node(u)) {
      crc = Crc32c(arena.rank_row(u).data(), arena.num_cells(), crc);
    }
  }
  for (NodeId u = 0; u < arena.num_nodes(); ++u) {
    if (arena.has_node(u)) {
      const auto entries = static_cast<uint32_t>(arena.NodeNumEntries(u));
      crc = Crc32c(&entries, sizeof(entries), crc);
    }
  }
  return crc;
}

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
    out[u] = BuildCellsOf(irs, u).value_or(SketchCells{});
  }
  return out;
}

// The build's one-part reverse scan replayed with the plain VersionedHll
// operations, which neither retire nor collapse: for each edge (u, v, t),
// newest first, Add of v into phi(u) and MergeWindow of phi(v), each
// sender's sketch allocated at its last send. Its sketches keep every
// pair they ever kept, with its time.
std::vector<std::unique_ptr<VersionedHll>> ReplayWithoutRetirement(
    const InteractionGraph& g, Duration window,
    const IrsApproxOptions& options) {
  const auto edges = g.interactions();
  std::vector<std::unique_ptr<VersionedHll>> sketches(g.num_nodes());
  for (size_t i = edges.size(); i-- > 0;) {
    const auto [u, v, t] = edges[i];
    if (sketches[u] == nullptr) {
      sketches[u] =
          std::make_unique<VersionedHll>(options.precision, options.salt);
    }
    if (u == v) continue;
    sketches[u]->Add(static_cast<uint64_t>(v), t);
    if (sketches[v] != nullptr) {
      sketches[u]->MergeWindow(*sketches[v], t, window);
    }
  }
  return sketches;
}

// The retiring build holds what the replay holds: the same sketches, rows
// (in the arena, where the stores write them) and entry counts, and in
// every sketch that has not collapsed each cell's ranks run, read from the
// worker stores, is the replay's list's ranks, and its live pairs the
// replay's list's first pairs. The stores hold their invariants. Counts
// the collapsed sketches and the retired ranks in *collapsed and
// *retired, so a caller can see that retirement ran.
void ExpectRunsMatchReplay(
    const IrsApprox& irs,
    std::span<const std::unique_ptr<VersionedHll>> replay, size_t* collapsed,
    size_t* retired) {
  *collapsed = 0;
  *retired = 0;
  for (const PartStore& store : irs.build_stores()) {
    EXPECT_TRUE(store.CheckInvariants());
  }
  for (NodeId u = 0; u < irs.num_nodes(); ++u) {
    const std::optional<SketchCells> sketch = BuildCellsOf(irs, u);
    EXPECT_EQ(sketch.has_value(), replay[u] != nullptr) << "node " << u;
    if (!sketch.has_value() || replay[u] == nullptr) continue;
    EXPECT_EQ(RowOf(*sketch), RowOf(*replay[u])) << "node " << u;
    EXPECT_EQ(RowOf(*irs.arena(), u), RowOf(*replay[u])) << "node " << u;
    if (sketch->collapsed) {
      ++*collapsed;
      continue;
    }
    const SketchCells& got = *sketch;
    const SketchCells want = CellsOf(*replay[u]);
    size_t pair = 0;
    size_t want_pair = 0;
    size_t gone = 0;
    for (size_t c = 0; c < got.counts.size(); ++c) {
      ASSERT_EQ(got.counts[c] + got.retired[c], want.counts[c])
          << "node " << u << " cell " << c;
      for (size_t i = 0; i < want.counts[c]; ++i) {
        const bool live = i < got.counts[c];
        ASSERT_EQ(live ? got.ranks[pair + i] : got.retired_ranks[gone++],
                  want.ranks[want_pair + i])
            << "node " << u << " cell " << c;
        if (live) {
          ASSERT_EQ(got.times[pair + i], want.times[want_pair + i])
              << "node " << u << " cell " << c;
        }
      }
      pair += got.counts[c];
      want_pair += want.counts[c];
    }
    *retired += gone;
  }
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
// omega = 10% of the span) the four lifetime tallies, the entry count, the
// CRC32C of the saved index file and that of the rows and entry counts it
// loads back (RowsCrc32c), before and after Seal(), are these constants at
// 1 part and at 3, built plainly and with checkpoints every 1,000 edges.
// The file pin moves with the file's layout (0xbeb26eb1 in IIDX version 5);
// the rows pin does not. The build retires and collapses as it scans; a replay of
// the same scan that does neither has the same tallies, and the build's
// runs are its lists (ExpectRunsMatchReplay). The rows every query reads
// are the build's: each node's arena row and entry count are the replay's
// max ranks and entries, and Seal() frees every worker store.
TEST_F(ParallelIrsTest, BuildOutputIsPinned) {
  constexpr size_t kInsertAttempts = 634865;
  constexpr size_t kEvictions = 184667;
  constexpr size_t kMergeEntriesScanned = 623384;
  constexpr size_t kCellUpdates = 333295;
  constexpr size_t kEntries = 160109;
  constexpr uint32_t kIndexCrc32c = 0x83e3081f;
  constexpr uint32_t kRowsCrc32c = 0x6b833785;
  SyntheticConfig config = *GetDatasetConfig("enron", 0.01);
  config.seed = 25;
  const InteractionGraph g = GenerateInteractionNetwork(config);
  ASSERT_EQ(g.num_interactions(), 11481u);
  const auto replay =
      ReplayWithoutRetirement(g, g.WindowFromPercent(10), Options(9));
  {
    size_t attempts = 0;
    size_t evictions = 0;
    size_t scanned = 0;
    size_t updates = 0;
    size_t entries = 0;
    for (const auto& sketch : replay) {
      if (sketch == nullptr) continue;
      attempts += sketch->NumInsertAttempts();
      evictions += sketch->NumEvictions();
      scanned += sketch->NumMergeEntriesScanned();
      updates += sketch->NumCellUpdates();
      entries += sketch->NumEntries();
    }
    EXPECT_EQ(attempts, kInsertAttempts);
    EXPECT_EQ(evictions, kEvictions);
    EXPECT_EQ(scanned, kMergeEntriesScanned);
    EXPECT_EQ(updates, kCellUpdates);
    EXPECT_EQ(entries, kEntries);
  }
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
      size_t collapsed = 0;
      size_t retired = 0;
      ExpectRunsMatchReplay(irs, replay, &collapsed, &retired);
      EXPECT_GT(collapsed, 0u);
      EXPECT_GT(retired, 0u);
      const SketchArena& arena = *irs.arena();
      for (NodeId u = 0; u < irs.num_nodes(); ++u) {
        ASSERT_EQ(arena.has_node(u), replay[u] != nullptr) << "node " << u;
      }
      for (const bool sealed : {false, true}) {
        if (sealed) {
          irs.Seal();
          EXPECT_TRUE(irs.build_stores().empty());
          for (NodeId u = 0; u < irs.num_nodes(); ++u) {
            ASSERT_FALSE(BuildCellsOf(irs, u).has_value()) << "node " << u;
          }
          EXPECT_EQ(irs.TotalInsertAttempts(), kInsertAttempts);
          EXPECT_EQ(irs.TotalEvictions(), kEvictions);
          EXPECT_EQ(irs.TotalMergeEntriesScanned(), kMergeEntriesScanned);
          EXPECT_EQ(irs.TotalCellUpdates(), kCellUpdates);
          EXPECT_EQ(irs.TotalSketchEntries(), kEntries);
        }
        ASSERT_TRUE(SaveInfluenceIndex(irs, path));
        const auto bytes = FileContents(path);
        ASSERT_TRUE(bytes.has_value());
        EXPECT_EQ(Crc32c(*bytes), kIndexCrc32c) << "sealed " << sealed;
        const IndexLoadResult loaded = LoadInfluenceIndexDetailed(path);
        ASSERT_EQ(loaded.status, IndexLoadStatus::kOk);
        EXPECT_EQ(RowsCrc32c(*loaded.index->arena()), kRowsCrc32c)
            << "sealed " << sealed;
      }
    }
  }
  std::filesystem::remove_all(checkpoints.dir);
  std::remove(path.c_str());
}

// The five tallies of a replay's sketches (ReplayWithoutRetirement):
// insert attempts, evictions, merge entries scanned, cell updates and
// entries.
std::vector<size_t> ReplayTallies(
    std::span<const std::unique_ptr<VersionedHll>> replay) {
  std::vector<size_t> tallies(5, 0);
  for (const auto& sketch : replay) {
    if (sketch == nullptr) continue;
    tallies[0] += sketch->NumInsertAttempts();
    tallies[1] += sketch->NumEvictions();
    tallies[2] += sketch->NumMergeEntriesScanned();
    tallies[3] += sketch->NumCellUpdates();
    tallies[4] += sketch->NumEntries();
  }
  return tallies;
}

// A hub that sends a quarter of a long log grows its runs past their
// capacity again and again while the other senders' runs lie after them
// in every worker's slabs, so its runs move to the slabs' ends, and the
// holes they leave, with those of retired and collapsed sketches, make
// the slabs compact. At beta = 16 over 7 parts and beta = 512 over 1 and
// 3, plain and checkpointed, the build's rows, entry counts, runs and
// tallies still equal the replay's.
TEST_F(ParallelIrsTest, RelocatedRunsAndCompactedSlabsMatchReplay) {
  constexpr size_t kNodes = 300;
  InteractionGraph g(kNodes);
  Rng rng(77);
  for (Timestamp t = 0; t < 30000; ++t) {
    const auto u = static_cast<NodeId>(
        rng.NextBounded(4) == 0 ? 0 : rng.NextBounded(kNodes));
    g.AddInteraction(u, static_cast<NodeId>(rng.NextBounded(kNodes)), t);
  }
  const Duration window = 300;
  const std::string dir = ::testing::TempDir() + "/ipin_relocate_" +
                          std::to_string(reinterpret_cast<uintptr_t>(this));
  struct Case {
    int precision;
    size_t parts;
    bool checkpointed;
  };
  for (const Case c : {Case{4, 7, false}, Case{9, 1, false},
                       Case{9, 3, false}, Case{9, 3, true}}) {
    SCOPED_TRACE(testing::Message()
                 << "beta " << (1 << c.precision) << ", " << c.parts
                 << " parts, checkpointed " << c.checkpointed);
    const auto replay =
        ReplayWithoutRetirement(g, window, Options(c.precision));
    SetGlobalThreads(c.parts);
    std::filesystem::remove_all(dir);
    const IrsApprox irs =
        c.checkpointed
            ? ComputeIrsApproxCheckpointed(g, window, Options(c.precision),
                                           {dir, /*every_edges=*/4000})
            : IrsApprox::ComputeParallel(g, window, Options(c.precision),
                                         c.parts);
    ASSERT_EQ(irs.build_stores().size(), c.parts);
    EXPECT_EQ(ReplayTallies(replay),
              (std::vector<size_t>{irs.TotalInsertAttempts(),
                                   irs.TotalEvictions(),
                                   irs.TotalMergeEntriesScanned(),
                                   irs.TotalCellUpdates(),
                                   irs.TotalSketchEntries()}));
    size_t collapsed = 0;
    size_t retired = 0;
    ExpectRunsMatchReplay(irs, replay, &collapsed, &retired);
    EXPECT_GT(collapsed, 0u);
    EXPECT_GT(retired, 0u);
    size_t relocations = 0;
    size_t compactions = 0;
    for (const PartStore& store : irs.build_stores()) {
      relocations += store.relocations();
      compactions += store.compactions();
    }
    EXPECT_GT(relocations, 0u);
    EXPECT_GT(compactions, 0u);
  }
  std::filesystem::remove_all(dir);
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
