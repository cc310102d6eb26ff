#include "ipin/sketch/sketch_arena.h"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/random.h"
#include "ipin/core/irs_approx.h"
#include "ipin/graph/interaction_graph.h"
#include "ipin/sketch/estimators.h"
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

// An arena of the rows of `sketches` (null: absent), appended in node
// order.
SketchArena ArenaOf(
    const std::vector<std::unique_ptr<VersionedHll>>& sketches) {
  const auto present = static_cast<size_t>(std::count_if(
      sketches.begin(), sketches.end(),
      [](const auto& sketch) { return sketch != nullptr; }));
  SketchArena arena(kPrecision, kSalt, sketches.size(), present);
  for (NodeId u = 0; u < sketches.size(); ++u) {
    if (sketches[u] == nullptr) continue;
    EXPECT_TRUE(
        arena.Append(u, sketches[u]->max_ranks(), sketches[u]->NumEntries()));
  }
  return arena;
}

TEST(SketchArenaTest, RankPlaneAndCountsMatchSource) {
  const auto sketches = BuildSketches(20, 2);
  const SketchArena arena = ArenaOf(sketches);
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
  const SketchArena arena = ArenaOf(sketches);
  for (NodeId u = 0; u < 20; ++u) {
    if (sketches[u] == nullptr) continue;
    EXPECT_EQ(arena.EstimateNode(u), sketches[u]->Estimate()) << "node " << u;
  }
}

// AppendCopy reproduces the node's row and entry count, and an arena sized
// from the copied nodes is exactly as large as the source.
TEST(SketchArenaTest, AppendCopyIsExact) {
  const auto sketches = BuildSketches(20, 4);
  const SketchArena source = ArenaOf(sketches);
  SketchArena copy(kPrecision, kSalt, 20, source.NumAllocated());
  for (NodeId u = 0; u < 20; ++u) {
    if (source.has_node(u)) copy.AppendCopy(u, source);
  }
  EXPECT_EQ(copy.NumAllocated(), source.NumAllocated());
  EXPECT_EQ(copy.TotalEntries(), source.TotalEntries());
  EXPECT_EQ(copy.MemoryUsageBytes(), source.MemoryUsageBytes());
  for (NodeId u = 0; u < 20; ++u) {
    ASSERT_EQ(copy.has_node(u), source.has_node(u)) << "node " << u;
    EXPECT_TRUE(copy.CheckNodeInvariants(u)) << "node " << u;
    EXPECT_EQ(RowOf(copy, u), RowOf(source, u)) << "node " << u;
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

// The plane of a dropped arena is the plane of the next arena of its size,
// and that arena reads every node as absent. The tally charges only the
// arenas alive.
TEST(SketchArenaTest, DroppedPlaneIsReusedBySameSizedArena) {
  constexpr size_t kBeta = size_t{1} << kPrecision;
  const int64_t baseline = SketchArenaMemTally().CurrentBytes();
  std::vector<uint8_t> row(kBeta, 0);
  row[0] = 3;
  const uint8_t* plane = nullptr;
  {
    SketchArena arena(kPrecision, kSalt, 4, 3);
    ASSERT_TRUE(arena.Append(0, row, 2));
    plane = arena.rank_row(1).data();  // absent: the plane's zero row
  }
  EXPECT_EQ(SketchArenaMemTally().CurrentBytes(), baseline);
  // A heap block of the plane's size, allocated in between, would take a
  // plane that had been handed back to the heap.
  const std::vector<uint8_t> squatter(4 * kBeta, 1);
  {
    SketchArena arena(kPrecision, kSalt, 4, 3);
    EXPECT_EQ(arena.rank_row(0).data(), plane);
    EXPECT_NE(squatter.data(), plane);
    for (NodeId u = 0; u < 4; ++u) {
      EXPECT_FALSE(arena.has_node(u));
      for (const uint8_t r : arena.rank_row(u)) EXPECT_EQ(r, 0);
    }
    ASSERT_TRUE(arena.Append(2, row, 2));
    EXPECT_EQ(arena.rank_row(2)[0], 3);
    EXPECT_EQ(arena.TotalEntries(), 2u);
  }
  {
    SketchArena smaller(kPrecision, kSalt, 4, 2);
    ASSERT_TRUE(smaller.Append(1, row, 2));
    EXPECT_EQ(smaller.MemoryUsageBytes(),
              3 * kBeta + 4 * sizeof(uint32_t) + 2 * sizeof(uint32_t));
  }
  EXPECT_EQ(SketchArenaMemTally().CurrentBytes(), baseline);
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

// A build's arena: a zero row for each present node, in node order, which
// the build writes in place, and an entry count set once the scan ends,
// refused (nothing set) when the row could not hold it.
TEST(SketchArenaTest, BuildArenaRowsAreWrittenInPlace) {
  constexpr size_t kBeta = size_t{1} << kPrecision;
  SketchArena arena(kPrecision, kSalt, std::vector<bool>{true, false, true});
  ASSERT_EQ(arena.NumAllocated(), 2u);
  EXPECT_TRUE(arena.has_node(0));
  EXPECT_FALSE(arena.has_node(1));
  EXPECT_EQ(arena.slot(0), 0u);
  EXPECT_EQ(arena.slot(2), 1u);
  for (const NodeId u : {0u, 2u}) {
    for (const uint8_t r : arena.rank_row(u)) EXPECT_EQ(r, 0);
  }
  // Node 2's cells 3 and 5 hold ranks 4 and 1.
  uint8_t* const row2 = arena.build_rows() + arena.slot(2) * kBeta;
  row2[3] = 4;
  row2[5] = 1;
  EXPECT_EQ(arena.rank_row(2)[3], 4);
  EXPECT_FALSE(arena.SetEntries(2, 1));  // two non-empty cells
  EXPECT_FALSE(arena.SetEntries(2, 6));  // above the ranks' sum
  EXPECT_EQ(arena.TotalEntries(), 0u);
  EXPECT_TRUE(arena.SetEntries(2, 3));
  EXPECT_TRUE(arena.SetEntries(0, 0));
  EXPECT_EQ(arena.NodeNumEntries(2), 3u);
  EXPECT_EQ(arena.TotalEntries(), 3u);
  EXPECT_TRUE(arena.CheckNodeInvariants(2));
}

// Build rows = served rows: a finished build's arena holds a row for
// exactly the nodes with a build sketch, written in place by the worker
// stores (whose cells top out at it) and that sketch's entry count, so
// every answer read from the arena is the build sketches' answer. Seal()
// frees the stores and changes no answer, row or tally.
TEST(SketchArenaTest, BuildRowsAreServedRows) {
  const InteractionGraph g = TestGraph(40, 800, 9);
  IrsApproxOptions options;
  options.precision = kPrecision;
  options.salt = kSalt;

  IrsApprox irs = IrsApprox::Compute(g, 300, options);
  const SketchArena& arena = *irs.arena();
  ASSERT_EQ(arena.precision(), kPrecision);
  ASSERT_EQ(arena.salt(), kSalt);
  for (const PartStore& store : irs.build_stores()) {
    EXPECT_TRUE(store.CheckInvariants());
  }
  size_t allocated = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::optional<SketchCells> sketch = BuildCellsOf(irs, u);
    ASSERT_EQ(arena.has_node(u), sketch.has_value()) << "node " << u;
    EXPECT_TRUE(arena.CheckNodeInvariants(u)) << "node " << u;
    if (!sketch.has_value()) {
      EXPECT_EQ(irs.EstimateIrsSize(u), 0.0) << "node " << u;
      continue;
    }
    ++allocated;
    EXPECT_EQ(RowOf(arena, u), RowOf(*sketch)) << "node " << u;
    EXPECT_EQ(irs.EstimateIrsSize(u), EstimateFromRanks(sketch->row))
        << "node " << u;
  }
  EXPECT_EQ(irs.NumAllocatedSketches(), allocated);

  // A union read from the arena is the cellwise max of the build rows.
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {1, 2, 3}, {4, 9, 14, 19, 24}, {39}};
  std::vector<double> unions;
  for (const auto& seeds : seed_sets) {
    std::vector<uint8_t> ranks(arena.num_cells(), 0);
    for (const NodeId u : seeds) {
      if (const std::optional<SketchCells> sketch = BuildCellsOf(irs, u)) {
        for (size_t c = 0; c < ranks.size(); ++c) {
          ranks[c] = std::max(ranks[c], sketch->row[c]);
        }
      }
    }
    unions.push_back(irs.EstimateUnionSize(seeds));
    EXPECT_EQ(unions.back(), EstimateFromRanks(ranks));
  }

  const size_t attempts = irs.TotalInsertAttempts();
  const size_t evictions = irs.TotalEvictions();
  const size_t entries = irs.TotalSketchEntries();
  std::vector<SketchRow> rows;
  for (NodeId u = 0; u < g.num_nodes(); ++u) rows.push_back(RowOf(arena, u));
  const size_t build_bytes = irs.MemoryUsageBytes();

  irs.Seal();
  irs.Seal();  // idempotent
  EXPECT_EQ(irs.arena(), &arena);
  EXPECT_EQ(irs.MemoryUsageBytes(), arena.MemoryUsageBytes());
  EXPECT_LT(irs.MemoryUsageBytes(), build_bytes);
  EXPECT_EQ(irs.NumAllocatedSketches(), allocated);
  EXPECT_EQ(irs.TotalInsertAttempts(), attempts);
  EXPECT_EQ(irs.TotalEvictions(), evictions);
  EXPECT_EQ(irs.TotalSketchEntries(), entries);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_FALSE(BuildCellsOf(irs, u).has_value()) << "node " << u;
    EXPECT_EQ(RowOf(arena, u), rows[u]) << "node " << u;
  }
  for (size_t i = 0; i < seed_sets.size(); ++i) {
    EXPECT_EQ(irs.EstimateUnionSize(seed_sets[i]), unions[i]);
  }
}

}  // namespace
}  // namespace ipin
