#include "ipin/sketch/sketch_arena.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/random.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/source_sets.h"
#include "ipin/graph/interaction_graph.h"

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

TEST(SketchArenaTest, SerializeNodeIsByteIdenticalToVersionedHll) {
  const auto sketches = BuildSketches(20, 1);
  const SketchArena arena(kPrecision, kSalt, std::span(sketches));
  for (NodeId u = 0; u < 20; ++u) {
    ASSERT_EQ(arena.has_node(u), sketches[u] != nullptr) << "node " << u;
    if (sketches[u] == nullptr) continue;
    std::string want, got;
    sketches[u]->Serialize(&want);
    arena.SerializeNode(u, &got);
    EXPECT_EQ(got, want) << "node " << u;
  }
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
  std::vector<uint8_t> scratch_a, scratch_b;
  for (NodeId u = 0; u < 20; ++u) {
    if (sketches[u] == nullptr) continue;
    EXPECT_EQ(arena.EstimateNode(u), sketches[u]->Estimate()) << "node " << u;
    for (const Timestamp bound : {Timestamp{0}, Timestamp{100},
                                  Timestamp{500}, Timestamp{2000}}) {
      EXPECT_EQ(arena.EstimateNodeBefore(u, bound, &scratch_a),
                sketches[u]->EstimateBefore(bound, &scratch_b))
          << "node " << u << " bound " << bound;
    }
  }
}

// AppendCopy from either store reproduces the node exactly, and an arena
// sized from the copied nodes is exactly as large as the sealed one.
TEST(SketchArenaTest, AppendCopyFromEitherStoreIsExact) {
  const auto sketches = BuildSketches(20, 4);
  const SketchArena sealed(kPrecision, kSalt, std::span(sketches));
  const SketchArena::Capacity capacity{sealed.NumAllocated(),
                                       sealed.TotalEntries()};
  SketchArena from_arena(kPrecision, kSalt, 20, capacity);
  SketchArena from_hll(kPrecision, kSalt, 20, capacity);
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
      const auto want = sealed.rank_row(u);
      const auto got = copy->rank_row(u);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "node " << u;
      if (!sealed.has_node(u)) continue;
      std::string a, b;
      sealed.SerializeNode(u, &a);
      copy->SerializeNode(u, &b);
      EXPECT_EQ(b, a) << "node " << u;
    }
  }
}

// A cell that breaks a vHLL invariant rejects the whole node, and RollBack
// removes nodes appended after a mark without touching earlier ones.
TEST(SketchArenaTest, AppendRejectsBadCellsAndRollsBack) {
  SketchArena arena(kPrecision, kSalt, 4, {4, 16});
  const auto one_pair = [](uint8_t rank) {
    return [rank](size_t c, uint8_t* ranks, int64_t* times, size_t) {
      if (c != 0) return 0;
      ranks[0] = rank;
      times[0] = 5;
      return 1;
    };
  };
  ASSERT_TRUE(arena.AppendNode(0, one_pair(3)));
  EXPECT_FALSE(arena.AppendNode(1, one_pair(0)));  // rank 0 is never stored
  EXPECT_FALSE(arena.AppendNode(
      1, [](size_t, uint8_t* ranks, int64_t* times, size_t room) {
        if (room < 2) return -1;
        ranks[0] = 4;  // ranks must strictly ascend
        ranks[1] = 4;
        times[0] = times[1] = 1;
        return 2;
      }));
  EXPECT_FALSE(arena.AppendNode(
      1, [](size_t, uint8_t*, int64_t*, size_t) { return 65; }));
  EXPECT_FALSE(arena.has_node(1));
  for (const uint8_t r : arena.rank_row(1)) EXPECT_EQ(r, 0);

  const size_t mark = arena.NumAllocated();
  ASSERT_TRUE(arena.AppendNode(1, one_pair(7)));
  ASSERT_TRUE(arena.AppendNode(2, one_pair(9)));
  arena.RollBack(mark, 1, 3);
  EXPECT_EQ(arena.NumAllocated(), 1u);
  EXPECT_EQ(arena.TotalEntries(), 1u);
  EXPECT_TRUE(arena.has_node(0));
  EXPECT_EQ(arena.rank_row(0)[0], 3);
  for (const NodeId u : {NodeId{1}, NodeId{2}}) {
    EXPECT_FALSE(arena.has_node(u));
    for (const uint8_t r : arena.rank_row(u)) EXPECT_EQ(r, 0);
  }
  // The freed slots are reusable.
  ASSERT_TRUE(arena.AppendNode(2, one_pair(1)));
  EXPECT_EQ(arena.NodeNumEntries(2), 1u);
  EXPECT_TRUE(arena.CheckNodeInvariants(2));
}

// The bytes of a ContiguousRange's times, as a saved index stores them.
std::vector<uint8_t> TimeBytes(std::span<const int64_t> times) {
  std::vector<uint8_t> bytes(times.size_bytes());
  if (!bytes.empty()) std::memcpy(bytes.data(), times.data(), bytes.size());
  return bytes;
}

// Runs of nodes copied in bulk through ContiguousRange + AppendNodes
// reproduce the sealed arena exactly: rows, entries, encodings and size.
TEST(SketchArenaTest, AppendNodesRebuildsContiguousRanges) {
  const auto sketches = BuildSketches(20, 6);
  const SketchArena sealed(kPrecision, kSalt, std::span(sketches));
  SketchArena copy(kPrecision, kSalt, 20,
                   {sealed.NumAllocated(), sealed.TotalEntries()});
  for (const auto& [first, end] :
       {std::pair<NodeId, NodeId>{0, 7}, {7, 8}, {8, 20}}) {
    const auto range = sealed.ContiguousRange(first, end);
    ASSERT_TRUE(range.has_value());
    std::vector<uint8_t> present;
    for (NodeId u = first; u < end; ++u) present.push_back(sealed.has_node(u));
    ASSERT_TRUE(copy.AppendNodes(first, present, range->cell_counts,
                                 range->ranks, TimeBytes(range->times)));
  }
  EXPECT_EQ(copy.NumAllocated(), sealed.NumAllocated());
  EXPECT_EQ(copy.TotalEntries(), sealed.TotalEntries());
  EXPECT_EQ(copy.MemoryUsageBytes(), sealed.MemoryUsageBytes());
  for (NodeId u = 0; u < 20; ++u) {
    ASSERT_EQ(copy.has_node(u), sealed.has_node(u)) << "node " << u;
    EXPECT_TRUE(copy.CheckNodeInvariants(u)) << "node " << u;
    const auto want = sealed.rank_row(u);
    const auto got = copy.rank_row(u);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "node " << u;
    if (!sealed.has_node(u)) continue;
    std::string a, b;
    sealed.SerializeNode(u, &a);
    copy.SerializeNode(u, &b);
    EXPECT_EQ(b, a) << "node " << u;
  }

  // Slots out of node order have no contiguous range.
  const size_t entries = sealed.NodeNumEntries(0) + sealed.NodeNumEntries(2);
  SketchArena shuffled(kPrecision, kSalt, 3, {2, entries});
  shuffled.AppendCopy(2, SketchView(&sealed, 2));
  shuffled.AppendCopy(0, SketchView(&sealed, 0));
  EXPECT_FALSE(shuffled.ContiguousRange(0, 3).has_value());
  EXPECT_TRUE(shuffled.ContiguousRange(0, 1).has_value());
}

// A run that breaks any invariant appends nothing and leaves earlier nodes
// as they were; the arena stays usable.
TEST(SketchArenaTest, AppendNodesRejectsBadRunsWhole) {
  constexpr size_t kBeta = size_t{1} << kPrecision;
  // Node 0: cell 0 holds (2, 10), (5, 20); cell 1 holds (1, 5). Node 1:
  // cell 3 holds (4, 7).
  const std::vector<uint8_t> present = {1, 1};
  std::vector<uint8_t> counts(2 * kBeta, 0);
  counts[0] = 2;
  counts[1] = 1;
  counts[kBeta + 3] = 1;
  const std::vector<uint8_t> ranks = {2, 5, 1, 4};
  const std::vector<int64_t> times = {10, 20, 5, 7};

  SketchArena arena(kPrecision, kSalt, 4, {3, 5});
  const auto one_pair = [](size_t c, uint8_t* r, int64_t* t, size_t) {
    if (c != 0) return 0;
    r[0] = 9;
    t[0] = 1;
    return 1;
  };
  ASSERT_TRUE(arena.AppendNode(3, one_pair));
  const auto expect_rejected = [&](std::vector<uint8_t> c,
                                   std::vector<uint8_t> r,
                                   std::vector<int64_t> t, const char* what) {
    EXPECT_FALSE(arena.AppendNodes(1, present, c, r, TimeBytes(t))) << what;
    EXPECT_EQ(arena.NumAllocated(), 1u) << what;
    for (const NodeId u : {NodeId{1}, NodeId{2}}) {
      EXPECT_FALSE(arena.has_node(u)) << what;
      for (const uint8_t x : arena.rank_row(u)) EXPECT_EQ(x, 0) << what;
    }
  };
  std::vector<uint8_t> c = counts;
  c[5] = 1;  // counts sum to 5, four pairs given
  expect_rejected(c, ranks, times, "sum");
  expect_rejected(counts, {2, 5, 1}, {10, 20, 5}, "sizes");
  expect_rejected(counts, {2, 2, 1, 4}, times, "equal ranks");
  expect_rejected(counts, {0, 5, 1, 4}, times, "rank 0");
  expect_rejected(counts, {2, 5, 1, 0}, times, "rank 0 last");
  expect_rejected(counts, ranks, {20, 10, 5, 7}, "descending time");
  c = counts;
  c[0] = 65;
  c[1] = 0;
  c[kBeta + 3] = 0;
  std::vector<uint8_t> many(65);
  for (size_t i = 0; i < many.size(); ++i) {
    many[i] = static_cast<uint8_t>(i + 1);
  }
  expect_rejected(c, many, std::vector<int64_t>(65, 0), "count 65");

  // The same run, valid: ranks may fall and times go back across cells.
  ASSERT_TRUE(arena.AppendNodes(1, present, counts, ranks, TimeBytes(times)));
  EXPECT_EQ(arena.rank_row(1)[0], 5);
  EXPECT_EQ(arena.rank_row(1)[1], 1);
  EXPECT_EQ(arena.rank_row(2)[3], 4);
  EXPECT_EQ(arena.NodeNumEntries(1), 3u);
  EXPECT_EQ(arena.NodeNumEntries(2), 1u);
  EXPECT_EQ(arena.rank_row(3)[0], 9);
  for (NodeId u = 0; u < 4; ++u) EXPECT_TRUE(arena.CheckNodeInvariants(u));
  // Full: no room for another sketch.
  EXPECT_FALSE(arena.AppendNodes(0, std::vector<uint8_t>{1},
                                 std::vector<uint8_t>(kBeta, 0), {}, {}));
}

TEST(SketchArenaTest, ViewAgreesAcrossStorageModes) {
  const auto sketches = BuildSketches(20, 5);
  const SketchArena arena(kPrecision, kSalt, std::span(sketches));
  std::vector<uint8_t> scratch_a, scratch_b;
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
    std::string a, b;
    build_view.Serialize(&a);
    sealed_view.Serialize(&b);
    EXPECT_EQ(b, a) << "node " << u;
    EXPECT_EQ(sealed_view.EstimateBefore(400, &scratch_a),
              build_view.EstimateBefore(400, &scratch_b))
        << "node " << u;
    std::vector<uint8_t> ra(size_t{1} << kPrecision, 1);
    std::vector<uint8_t> rb(size_t{1} << kPrecision, 1);
    build_view.MaxRanks(400, &ra);
    sealed_view.MaxRanks(400, &rb);
    EXPECT_EQ(rb, ra) << "node " << u;
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

// Sealing must not change a single answer: an unsealed hand-fed build and
// an explicitly sealed Compute() result agree bit for bit on every query
// surface.
TEST(SketchArenaTest, SealedIrsAnswersAreBitIdenticalToUnsealed) {
  const InteractionGraph g = TestGraph(40, 800, 9);
  IrsApproxOptions options;
  options.precision = kPrecision;
  options.salt = kSalt;

  IrsApprox streamed(g.num_nodes(), 300, options);
  const auto& edges = g.interactions();
  for (size_t i = edges.size(); i > 0; --i) {
    streamed.ProcessInteraction(edges[i - 1]);
  }
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
    if (!sealed.Sketch(u)) continue;
    std::string a, b;
    streamed.Sketch(u).Serialize(&a);
    sealed.Sketch(u).Serialize(&b);
    EXPECT_EQ(b, a) << "node " << u;
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

TEST(SketchArenaDeathTest, ProcessInteractionAfterSealDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  InteractionGraph g(4);
  g.AddInteraction(0, 1, 5);
  g.SortByTime();
  IrsApproxOptions options;
  options.precision = kPrecision;
  IrsApprox sealed = IrsApprox::Compute(g, 10, options);
  sealed.Seal();
  EXPECT_DEATH(sealed.ProcessInteraction({0, 1, 4}), "sealed");
}

}  // namespace
}  // namespace ipin
