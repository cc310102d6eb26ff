#include "ipin/sketch/sketch_arena.h"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/random.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/source_sets.h"
#include "ipin/graph/interaction_graph.h"
#include "test_util.h"

namespace ipin {
namespace {

constexpr int kPrecision = 6;
constexpr uint64_t kSalt = 42;

// A ragged population: some nodes absent, some empty-but-present, some
// dense — the three shapes the arena must pack distinctly.
std::vector<std::unique_ptr<VersionedHll>> BuildSketches(size_t num_nodes,
                                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<VersionedHll>> sketches(num_nodes);
  for (size_t u = 0; u < num_nodes; ++u) {
    if (u % 3 == 1) continue;  // absent
    sketches[u] = std::make_unique<VersionedHll>(kPrecision, kSalt);
    if (u % 3 == 2) continue;  // allocated but empty
    const size_t items = 1 + rng.NextBounded(300);
    for (size_t i = 0; i < items; ++i) {
      sketches[u]->Add(rng.NextUint64(),
                       static_cast<Timestamp>(rng.NextBounded(1000)));
    }
  }
  return sketches;
}

TEST(SketchArenaTest, RankPlaneAndCountsMatchSource) {
  const auto sketches = BuildSketches(20, 2);
  const SketchArena arena(kPrecision, kSalt, std::span(sketches));
  size_t allocated = 0;
  size_t entries = 0;
  for (NodeId u = 0; u < 20; ++u) {
    EXPECT_TRUE(arena.CheckNodeInvariants(u)) << "node " << u;
    const auto row = arena.rank_row(u);
    ASSERT_EQ(row.size(), size_t{1} << kPrecision);
    if (sketches[u] == nullptr) {
      for (const uint8_t r : row) EXPECT_EQ(r, 0) << "absent node " << u;
      EXPECT_EQ(arena.NodeNumEntries(u), 0u);
      continue;
    }
    ++allocated;
    entries += sketches[u]->NumEntries();
    EXPECT_EQ(arena.NodeNumEntries(u), sketches[u]->NumEntries());
    const auto want = sketches[u]->max_ranks();
    EXPECT_TRUE(std::equal(row.begin(), row.end(), want.begin(), want.end()))
        << "node " << u;
  }
  EXPECT_EQ(arena.NumAllocated(), allocated);
  EXPECT_EQ(arena.TotalEntries(), entries);
  EXPECT_GT(arena.MemoryUsageBytes(), 0u);
}

TEST(SketchArenaTest, EstimatesMatchSourceSketches) {
  const auto sketches = BuildSketches(20, 3);
  const SketchArena arena(kPrecision, kSalt, std::span(sketches));
  for (NodeId u = 0; u < 20; ++u) {
    if (sketches[u] == nullptr) continue;
    EXPECT_EQ(arena.EstimateNode(u), sketches[u]->Estimate()) << "node " << u;
  }
}

// AppendCopy from either store reproduces the node's row and entry count,
// and an arena sized from the copied nodes is exactly as large as the
// sealed one.
TEST(SketchArenaTest, AppendCopyFromEitherStoreIsExact) {
  const auto sketches = BuildSketches(20, 4);
  const SketchArena sealed(kPrecision, kSalt, std::span(sketches));
  SketchArena from_arena(kPrecision, kSalt, 20, sealed.NumAllocated());
  SketchArena from_hll(kPrecision, kSalt, 20, sealed.NumAllocated());
  for (NodeId u = 0; u < 20; ++u) {
    if (sketches[u] == nullptr) continue;
    from_arena.AppendCopy(u, SketchView(&sealed, u));
    from_hll.AppendCopy(u, SketchView(sketches[u].get()));
  }
  for (const SketchArena* copy : {&from_arena, &from_hll}) {
    EXPECT_EQ(copy->NumAllocated(), sealed.NumAllocated());
    EXPECT_EQ(copy->TotalEntries(), sealed.TotalEntries());
    EXPECT_EQ(copy->MemoryUsageBytes(), sealed.MemoryUsageBytes());
    for (NodeId u = 0; u < 20; ++u) {
      ASSERT_EQ(copy->has_node(u), sealed.has_node(u)) << "node " << u;
      EXPECT_TRUE(copy->CheckNodeInvariants(u)) << "node " << u;
      EXPECT_EQ(RowOf(SketchView(copy, u)), RowOf(SketchView(&sealed, u)))
          << "node " << u;
    }
  }
}

// A row is one a VersionedHll can hold: ranks at most 65 - precision, and
// an entry count between its non-zero cells and the sum of its ranks.
TEST(SketchArenaTest, RowIsValidBoundsRanksAndEntries) {
  constexpr size_t kBeta = size_t{1} << kPrecision;
  const int max_rank = VersionedHll::MaxRank(kPrecision);
  EXPECT_EQ(max_rank, 59);
  std::vector<uint8_t> row(kBeta, 0);
  EXPECT_TRUE(RowIsValid(row, 0, kPrecision));
  EXPECT_FALSE(RowIsValid(row, 1, kPrecision));
  row[0] = 3;
  row[5] = static_cast<uint8_t>(max_rank);
  EXPECT_FALSE(RowIsValid(row, 1, kPrecision));  // two non-empty cells
  EXPECT_TRUE(RowIsValid(row, 2, kPrecision));
  EXPECT_TRUE(RowIsValid(row, 3 + max_rank, kPrecision));
  EXPECT_FALSE(RowIsValid(row, 4 + max_rank, kPrecision));
  row[5] = static_cast<uint8_t>(max_rank + 1);
  EXPECT_FALSE(RowIsValid(row, 2, kPrecision));
  row[5] = 200;
  EXPECT_FALSE(RowIsValid(row, 2, kPrecision));
  // A larger precision lowers the bound.
  std::vector<uint8_t> wide(size_t{1} << 18, 0);
  wide[0] = 47;
  EXPECT_TRUE(RowIsValid(wide, 1, 18));
  wide[0] = 48;
  EXPECT_FALSE(RowIsValid(wide, 1, 18));
}

// A row that is not valid appends nothing, a full arena takes no more, and
// RollBack removes nodes appended after a mark without touching earlier
// ones.
TEST(SketchArenaTest, AppendRejectsInvalidRowsAndRollsBack) {
  constexpr size_t kBeta = size_t{1} << kPrecision;
  SketchArena arena(kPrecision, kSalt, 4, 3);
  const auto row_of = [](uint8_t rank) {
    std::vector<uint8_t> row(kBeta, 0);
    row[0] = rank;
    return row;
  };
  ASSERT_TRUE(arena.Append(0, row_of(3), 2));
  EXPECT_FALSE(arena.Append(1, row_of(60), 1));  // above 65 - precision
  EXPECT_FALSE(arena.Append(1, row_of(3), 0));   // a non-empty cell
  EXPECT_FALSE(arena.Append(1, row_of(3), 4));   // 3 ranks hold 3 pairs
  EXPECT_FALSE(arena.has_node(1));
  for (const uint8_t r : arena.rank_row(1)) EXPECT_EQ(r, 0);
  EXPECT_EQ(arena.NumAllocated(), 1u);
  EXPECT_EQ(arena.TotalEntries(), 2u);

  const size_t mark = arena.NumAllocated();
  ASSERT_TRUE(arena.Append(1, row_of(7), 7));
  ASSERT_TRUE(arena.Append(2, row_of(9), 1));
  EXPECT_FALSE(arena.Append(3, row_of(1), 1));  // full
  EXPECT_EQ(arena.TotalEntries(), 10u);
  arena.RollBack(mark, 1, 3);
  EXPECT_EQ(arena.NumAllocated(), 1u);
  EXPECT_EQ(arena.TotalEntries(), 2u);
  EXPECT_TRUE(arena.has_node(0));
  EXPECT_EQ(arena.rank_row(0)[0], 3);
  for (const NodeId u : {NodeId{1}, NodeId{2}}) {
    EXPECT_FALSE(arena.has_node(u));
    EXPECT_EQ(arena.NodeNumEntries(u), 0u);
    for (const uint8_t r : arena.rank_row(u)) EXPECT_EQ(r, 0);
  }
  // The freed slots are reusable.
  ASSERT_TRUE(arena.Append(2, row_of(1), 1));
  EXPECT_EQ(arena.NodeNumEntries(2), 1u);
  EXPECT_TRUE(arena.CheckNodeInvariants(2));
}

TEST(SketchArenaTest, ViewAgreesAcrossStorageModes) {
  const auto sketches = BuildSketches(20, 5);
  const SketchArena arena(kPrecision, kSalt, std::span(sketches));
  for (NodeId u = 0; u < 20; ++u) {
    const SketchView build_view(sketches[u].get());
    const SketchView sealed_view(&arena, u);
    ASSERT_EQ(build_view.valid(), sealed_view.valid()) << "node " << u;
    if (!build_view) continue;
    EXPECT_EQ(sealed_view.precision(), build_view.precision());
    EXPECT_EQ(sealed_view.salt(), build_view.salt());
    EXPECT_EQ(sealed_view.NumEntries(), build_view.NumEntries());
    EXPECT_EQ(sealed_view.Estimate(), build_view.Estimate());
    EXPECT_TRUE(sealed_view.CheckInvariants());
    EXPECT_EQ(sealed_view.build_sketch(), nullptr);
    EXPECT_EQ(build_view.build_sketch(), sketches[u].get());
    EXPECT_EQ(RowOf(sealed_view), RowOf(build_view)) << "node " << u;
  }
}

InteractionGraph TestGraph(size_t num_nodes, size_t num_edges, uint64_t seed) {
  Rng rng(seed);
  InteractionGraph g(num_nodes);
  std::vector<Interaction> edges;
  for (size_t i = 0; i < num_edges; ++i) {
    g.AddInteraction(static_cast<NodeId>(rng.NextBounded(num_nodes)),
                     static_cast<NodeId>(rng.NextBounded(num_nodes)),
                     static_cast<Timestamp>(rng.NextBounded(2000)));
  }
  g.SortByTime();
  return g;
}

// Sealing must not change a single answer: an unsealed Compute() result
// and an explicitly sealed one agree bit for bit on every query surface.
TEST(SketchArenaTest, SealedIrsAnswersAreBitIdenticalToUnsealed) {
  const InteractionGraph g = TestGraph(40, 800, 9);
  IrsApproxOptions options;
  options.precision = kPrecision;
  options.salt = kSalt;

  const IrsApprox streamed = IrsApprox::Compute(g, 300, options);
  ASSERT_FALSE(streamed.sealed());

  IrsApprox sealed = IrsApprox::Compute(g, 300, options);
  ASSERT_FALSE(sealed.sealed());  // builds return unsealed
  sealed.Seal();
  ASSERT_TRUE(sealed.sealed());
  ASSERT_NE(sealed.arena(), nullptr);

  EXPECT_EQ(sealed.NumAllocatedSketches(), streamed.NumAllocatedSketches());
  EXPECT_EQ(sealed.TotalSketchEntries(), streamed.TotalSketchEntries());
  EXPECT_EQ(sealed.TotalInsertAttempts(), streamed.TotalInsertAttempts());
  EXPECT_EQ(sealed.TotalEvictions(), streamed.TotalEvictions());

  std::vector<uint8_t> scratch;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(sealed.Sketch(u).valid(), streamed.Sketch(u).valid())
        << "node " << u;
    EXPECT_EQ(sealed.EstimateIrsSize(u), streamed.EstimateIrsSize(u))
        << "node " << u;
    EXPECT_EQ(RowOf(sealed.Sketch(u)), RowOf(streamed.Sketch(u)))
        << "node " << u;
  }
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {1, 2, 3}, {4, 9, 14, 19, 24}, {39}};
  for (const auto& seeds : seed_sets) {
    EXPECT_EQ(sealed.EstimateUnionSize(seeds),
              streamed.EstimateUnionSize(seeds));
    EXPECT_EQ(sealed.EstimateUnionSize(seeds, &scratch),
              streamed.EstimateUnionSize(seeds));
  }
}

TEST(SketchArenaTest, SealedSourceSetsAnswersAreBitIdenticalToUnsealed) {
  const InteractionGraph g = TestGraph(40, 800, 10);
  IrsApproxOptions options;
  options.precision = kPrecision;
  options.salt = kSalt;

  SourceSetApprox streamed(g.num_nodes(), 300, options);
  for (const Interaction& e : g.interactions()) {
    streamed.ProcessInteraction(e);
  }
  ASSERT_FALSE(streamed.sealed());

  const SourceSetApprox sealed = SourceSetApprox::Compute(g, 300, options);
  ASSERT_TRUE(sealed.sealed());

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(sealed.Sketch(v).valid(), streamed.Sketch(v).valid())
        << "node " << v;
    EXPECT_EQ(sealed.EstimateSourceSetSize(v),
              streamed.EstimateSourceSetSize(v))
        << "node " << v;
  }
  EXPECT_EQ(sealed.EstimateUnionSize(std::vector<NodeId>{1, 5, 9}),
            streamed.EstimateUnionSize(std::vector<NodeId>{1, 5, 9}));

  // Sealing the streamed instance by hand converges the storage modes.
  streamed.Seal();
  EXPECT_TRUE(streamed.sealed());
  EXPECT_EQ(sealed.TotalSketchEntries(), streamed.TotalSketchEntries());
}

}  // namespace
}  // namespace ipin
