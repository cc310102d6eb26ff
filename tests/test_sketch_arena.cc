#include "ipin/sketch/sketch_arena.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/random.h"
#include "ipin/common/safe_io.h"
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
// Their times lie in [0, 1000), stored in `times`.
std::vector<std::unique_ptr<VersionedHll>> BuildSketches(
    size_t num_nodes, uint64_t seed, TimeEncoding times = {}) {
  Rng rng(seed);
  std::vector<std::unique_ptr<VersionedHll>> sketches(num_nodes);
  for (size_t u = 0; u < num_nodes; ++u) {
    if (u % 3 == 1) continue;  // absent
    sketches[u] = std::make_unique<VersionedHll>(kPrecision, kSalt,
                                                 /*num_parts=*/1, times);
    if (u % 3 == 2) continue;  // allocated but empty
    const size_t items = 1 + rng.NextBounded(300);
    for (size_t i = 0; i < items; ++i) {
      sketches[u]->Add(rng.NextUint64(),
                       static_cast<Timestamp>(rng.NextBounded(1000)));
    }
  }
  return sketches;
}

// Sealing stores every cell list as it is: the node's range holds, cell
// by cell, the source sketch's (rank, time) pairs in order.
TEST(SketchArenaTest, SealedNodeStoresTheSourceCellLists) {
  const auto sketches = BuildSketches(20, 1);
  const SketchArena arena(kPrecision, kSalt, std::span(sketches));
  for (NodeId u = 0; u < 20; ++u) {
    ASSERT_EQ(arena.has_node(u), sketches[u] != nullptr) << "node " << u;
    if (sketches[u] == nullptr) continue;
    const SketchArena::NodeRange range = *arena.ContiguousRange(u, u + 1);
    ASSERT_EQ(range.cell_counts.size(), sketches[u]->num_cells());
    size_t entry = 0;
    for (size_t c = 0; c < sketches[u]->num_cells(); ++c) {
      const VersionedHll::CellList list = sketches[u]->cell(c);
      ASSERT_EQ(range.cell_counts[c], list.size()) << "node " << u;
      for (const VersionedHll::Entry& e : list) {
        EXPECT_EQ(range.ranks[entry], e.rank) << "node " << u;
        EXPECT_EQ(range.time(entry), e.time) << "node " << u;
        ++entry;
      }
    }
    EXPECT_EQ(entry, range.ranks.size()) << "node " << u;
  }
}

// Sketches stored as u32 offsets seal alike in their own encoding, whose
// offsets are handed over as they are, and in any other that holds their
// times: the narrowest (a later base) and the wide one.
TEST(SketchArenaTest, NarrowSketchesSealInAnyEncodingThatHoldsThem) {
  const TimeEncoding own{-500, 4};
  const auto sketches = BuildSketches(20, 7, own);
  const TimeEncoding narrowest = TimeEncodingOf(sketches);
  EXPECT_EQ(narrowest.width, 4);
  EXPECT_NE(narrowest, own);
  for (const TimeEncoding& times : {own, narrowest, TimeEncoding{}}) {
    SCOPED_TRACE(testing::Message() << "base " << times.base);
    const SketchArena arena(kPrecision, kSalt, std::span(sketches), times);
    EXPECT_EQ(arena.time_encoding(), times);
    for (NodeId u = 0; u < 20; ++u) {
      ASSERT_EQ(arena.has_node(u), sketches[u] != nullptr) << "node " << u;
      if (sketches[u] == nullptr) continue;
      EXPECT_TRUE(arena.CheckNodeInvariants(u)) << "node " << u;
      EXPECT_EQ(CellsOf(SketchView(&arena, u)),
                CellsOf(SketchView(sketches[u].get())))
          << "node " << u;
    }
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
  for (NodeId u = 0; u < 20; ++u) {
    if (sketches[u] == nullptr) continue;
    EXPECT_EQ(arena.EstimateNode(u), sketches[u]->Estimate()) << "node " << u;
  }
}

// AppendCopy from either store reproduces the node exactly, and an arena
// sized from the copied nodes is exactly as large as the sealed one.
TEST(SketchArenaTest, AppendCopyFromEitherStoreIsExact) {
  const auto sketches = BuildSketches(20, 4);
  const SketchArena sealed(kPrecision, kSalt, std::span(sketches));
  const SketchArena::Capacity capacity{sealed.NumAllocated(),
                                       sealed.TotalEntries()};
  SketchArena from_arena(kPrecision, kSalt, 20, capacity,
                         sealed.time_encoding());
  SketchArena from_hll(kPrecision, kSalt, 20, capacity,
                       sealed.time_encoding());
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
      EXPECT_EQ(CellsOf(SketchView(copy, u)), CellsOf(SketchView(&sealed, u)))
          << "node " << u;
    }
  }
}

// The narrowest encoding is chosen from the span alone: u32 offsets from
// the first time up to a span of 2^32 - 1, u64 offsets from INT64_MIN
// beyond. Only valid encodings decode every offset of their width.
TEST(SketchArenaTest, TimeEncodingIsTheNarrowestThatHoldsTheSpan) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kU32 = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(TimeEncoding::Covering(-3, -3 + kU32), (TimeEncoding{-3, 4}));
  EXPECT_EQ(TimeEncoding::Covering(-3, -2 + kU32), TimeEncoding{});
  EXPECT_EQ(TimeEncoding::Covering(kMax - kU32, kMax),
            (TimeEncoding{kMax - kU32, 4}));
  // Times within 2^32 - 1 of INT64_MAX take the largest valid base.
  EXPECT_EQ(TimeEncoding::Covering(kMax, kMax), (TimeEncoding{kMax - kU32, 4}));
  EXPECT_EQ(TimeEncoding::Covering(kMax - 7, kMax - 3),
            (TimeEncoding{kMax - kU32, 4}));
  EXPECT_EQ(TimeEncoding::Covering(kMin, kMax), TimeEncoding{});
  EXPECT_EQ(TimeEncoding::Covering(1, 0), (TimeEncoding{0, 4}));  // no times
  EXPECT_TRUE(TimeEncoding{}.valid());
  EXPECT_TRUE((TimeEncoding{kMax - kU32, 4}.valid()));
  EXPECT_FALSE((TimeEncoding{kMax - kU32 + 1, 4}.valid()));
  EXPECT_FALSE((TimeEncoding{0, 8}.valid()));
  EXPECT_FALSE((TimeEncoding{0, 2}.valid()));

  const TimeEncoding narrow{100, 4};
  EXPECT_TRUE(narrow.Holds(100));
  EXPECT_TRUE(narrow.Holds(100 + kU32));
  EXPECT_FALSE(narrow.Holds(99));
  EXPECT_FALSE(narrow.Holds(101 + kU32));
  for (const Timestamp t : {Timestamp{100}, Timestamp{100 + kU32}}) {
    uint8_t bytes[4];
    TimeCodec<uint32_t>::Store(bytes, 0, TimeCodec<uint32_t>::Encode(100, t));
    EXPECT_EQ(narrow.Decode(bytes, 0), t);
  }
  for (const Timestamp t : {kMin, Timestamp{-1}, Timestamp{0}, kMax}) {
    uint8_t bytes[8];
    TimeCodec<uint64_t>::Store(bytes, 0, TimeCodec<uint64_t>::Encode(kMin, t));
    EXPECT_EQ(TimeEncoding{}.Decode(bytes, 0), t);
  }

  // An arena takes only the times its encoding holds.
  SketchArena arena(kPrecision, kSalt, 2, {2, 2}, narrow);
  const auto one_pair = [](Timestamp time) {
    return [time](size_t c, uint8_t* ranks, int64_t* times, size_t) {
      if (c != 0) return 0;
      ranks[0] = 1;
      times[0] = time;
      return 1;
    };
  };
  EXPECT_FALSE(arena.AppendNode(0, one_pair(99)));
  EXPECT_FALSE(arena.AppendNode(0, one_pair(101 + kU32)));
  ASSERT_TRUE(arena.AppendNode(0, one_pair(100 + kU32)));
  EXPECT_EQ(arena.ContiguousRange(0, 1)->time(0), 100 + kU32);
}

// A cell that breaks a vHLL invariant rejects the whole node, and RollBack
// removes nodes appended after a mark without touching earlier ones.
TEST(SketchArenaTest, AppendRejectsBadCellsAndRollsBack) {
  SketchArena arena(kPrecision, kSalt, 4, {4, 16}, TimeEncoding{});
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

// The bytes of `times` as an arena (and a saved index) in `encoding`
// stores them.
std::vector<uint8_t> TimeBytes(std::span<const int64_t> times,
                               const TimeEncoding& encoding) {
  std::vector<uint8_t> bytes(times.size() * encoding.width);
  WithTimeCodec(encoding.width, [&](auto codec) {
    for (size_t i = 0; i < times.size(); ++i) {
      codec.Store(bytes.data(), i, codec.Encode(encoding.base, times[i]));
    }
  });
  return bytes;
}

// Appends `bytes` to *image and returns where they start.
size_t Put(std::string* image, std::span<const uint8_t> bytes) {
  const size_t at = image->size();
  image->append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return at;
}

// Runs of nodes laid out in an image as ContiguousRange returns them, and
// placed there by AppendNodes, reproduce the sealed arena exactly: rows,
// entries and encodings. The arena keeps the image, and counts it.
TEST(SketchArenaTest, AppendNodesPlacesRunsWhereTheyLieInTheImage) {
  const auto sketches = BuildSketches(20, 6);
  const SketchArena sealed(kPrecision, kSalt, std::span(sketches));
  struct Run {
    NodeId first, end;
    std::vector<uint8_t> present;
    size_t counts_at, ranks_at, times_at;
    SketchArena::NodeRange range;
  };
  std::vector<Run> runs;
  std::string bytes = "header";  // the runs need not start the image
  for (const auto& [first, end] :
       {std::pair<NodeId, NodeId>{0, 7}, {7, 8}, {8, 20}}) {
    const auto range = sealed.ContiguousRange(first, end);
    ASSERT_TRUE(range.has_value());
    Run run{first, end, {}, 0, 0, 0, *range};
    for (NodeId u = first; u < end; ++u) run.present.push_back(sealed.has_node(u));
    run.counts_at = Put(&bytes, range->cell_counts);
    run.ranks_at = Put(&bytes, range->ranks);
    run.times_at = Put(&bytes, range->time_bytes);
    runs.push_back(std::move(run));
  }
  auto image = std::make_shared<const FileImage>(bytes);
  SketchArena copy(kPrecision, kSalt, 20, sealed.NumAllocated(),
                   sealed.time_encoding(), image);
  for (const Run& run : runs) {
    const uint8_t* at = image->data();
    ASSERT_TRUE(copy.AppendNodes(
        run.first, run.present,
        {at + run.counts_at, run.range.cell_counts.size()},
        {at + run.ranks_at, run.range.ranks.size()},
        {at + run.times_at, run.range.time_bytes.size()}));
  }
  image.reset();  // the arena holds its own reference
  EXPECT_EQ(copy.NumAllocated(), sealed.NumAllocated());
  EXPECT_EQ(copy.TotalEntries(), sealed.TotalEntries());
  EXPECT_GE(copy.MemoryUsageBytes(), bytes.size());
  for (NodeId u = 0; u < 20; ++u) {
    ASSERT_EQ(copy.has_node(u), sealed.has_node(u)) << "node " << u;
    EXPECT_TRUE(copy.CheckNodeInvariants(u)) << "node " << u;
    EXPECT_EQ(copy.NodeNumEntries(u), sealed.NodeNumEntries(u)) << "node " << u;
    const auto want = sealed.rank_row(u);
    const auto got = copy.rank_row(u);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "node " << u;
    if (!sealed.has_node(u)) continue;
    EXPECT_EQ(CellsOf(SketchView(&copy, u)), CellsOf(SketchView(&sealed, u)))
        << "node " << u;
  }
  // Each run is one contiguous range of the image; runs that lie apart
  // have none, though their slots are consecutive.
  for (const Run& run : runs) {
    const auto range = copy.ContiguousRange(run.first, run.end);
    ASSERT_TRUE(range.has_value());
    EXPECT_TRUE(std::ranges::equal(range->cell_counts, run.range.cell_counts));
    EXPECT_TRUE(std::ranges::equal(range->ranks, run.range.ranks));
    EXPECT_TRUE(std::ranges::equal(range->time_bytes, run.range.time_bytes));
  }
  EXPECT_FALSE(copy.ContiguousRange(0, 20).has_value());

  // Slots out of node order have no contiguous range.
  const size_t entries = sealed.NodeNumEntries(0) + sealed.NodeNumEntries(2);
  SketchArena shuffled(kPrecision, kSalt, 3, {2, entries},
                       sealed.time_encoding());
  shuffled.AppendCopy(2, SketchView(&sealed, 2));
  shuffled.AppendCopy(0, SketchView(&sealed, 0));
  EXPECT_FALSE(shuffled.ContiguousRange(0, 3).has_value());
  EXPECT_TRUE(shuffled.ContiguousRange(0, 1).has_value());
}

// A run that breaks any invariant appends nothing and leaves earlier nodes
// as they were; the arena stays usable.
TEST(SketchArenaTest, AppendNodesRejectsBadRunsWhole) {
  constexpr size_t kBeta = size_t{1} << kPrecision;
  // Node 1: cell 0 holds (2, 10), (5, 20); cell 1 holds (1, 5). Node 2:
  // cell 3 holds (4, 7).
  const std::vector<uint8_t> present = {1, 1};
  std::vector<uint8_t> counts(2 * kBeta, 0);
  counts[0] = 2;
  counts[1] = 1;
  counts[kBeta + 3] = 1;
  const std::vector<uint8_t> ranks = {2, 5, 1, 4};
  const std::vector<int64_t> times = {10, 20, 5, 7};
  const TimeEncoding encoding = TimeEncoding::Covering(0, 100);

  // Every run tried lies in one image, each as counts | ranks | offsets.
  struct Lists {
    std::vector<uint8_t> counts, ranks, time_bytes;
  };
  std::vector<Lists> tried;
  const auto add = [&](std::vector<uint8_t> c, std::vector<uint8_t> r,
                       std::vector<int64_t> t) {
    tried.push_back({std::move(c), std::move(r), TimeBytes(t, encoding)});
  };
  std::vector<uint8_t> c = counts;
  c[5] = 1;  // counts sum to 5, four pairs given
  add(c, ranks, times);
  add(counts, {2, 5, 1}, {10, 20, 5});
  add(counts, {2, 2, 1, 4}, times);
  add(counts, {0, 5, 1, 4}, times);
  add(counts, {2, 5, 1, 0}, times);
  add(counts, ranks, {20, 10, 5, 7});
  c = counts;
  c[0] = 65;
  c[1] = 0;
  c[kBeta + 3] = 0;
  std::vector<uint8_t> many(65);
  for (size_t i = 0; i < many.size(); ++i) {
    many[i] = static_cast<uint8_t>(i + 1);
  }
  add(c, many, std::vector<int64_t>(65, 0));
  add(counts, ranks, times);  // valid
  add(std::vector<uint8_t>(kBeta, 0), {}, {});  // valid, one empty sketch
  const char* const what[] = {"sum",          "sizes",          "equal ranks",
                              "rank 0",       "rank 0 last",    "descending time",
                              "count 65"};
  std::string bytes;
  std::vector<std::array<size_t, 3>> at;
  for (const Lists& lists : tried) {
    at.push_back({Put(&bytes, lists.counts), Put(&bytes, lists.ranks),
                  Put(&bytes, lists.time_bytes)});
  }
  const auto image = std::make_shared<const FileImage>(bytes);
  const auto append = [&](SketchArena* arena, NodeId first,
                          std::span<const uint8_t> run_present, size_t i) {
    const uint8_t* base = image->data();
    return arena->AppendNodes(
        first, run_present, {base + at[i][0], tried[i].counts.size()},
        {base + at[i][1], tried[i].ranks.size()},
        {base + at[i][2], tried[i].time_bytes.size()});
  };

  SketchArena arena(kPrecision, kSalt, 4, 3, encoding, image);
  ASSERT_TRUE(append(&arena, 3, std::vector<uint8_t>{1}, tried.size() - 1));
  for (size_t i = 0; i < std::size(what); ++i) {
    EXPECT_FALSE(append(&arena, 1, present, i)) << what[i];
    EXPECT_EQ(arena.NumAllocated(), 1u) << what[i];
    for (const NodeId u : {NodeId{1}, NodeId{2}}) {
      EXPECT_FALSE(arena.has_node(u)) << what[i];
      for (const uint8_t x : arena.rank_row(u)) EXPECT_EQ(x, 0) << what[i];
    }
  }

  // The same run, valid: ranks may fall and times go back across cells.
  ASSERT_TRUE(append(&arena, 1, present, std::size(what)));
  EXPECT_EQ(arena.rank_row(1)[0], 5);
  EXPECT_EQ(arena.rank_row(1)[1], 1);
  EXPECT_EQ(arena.rank_row(2)[3], 4);
  EXPECT_EQ(arena.NodeNumEntries(1), 3u);
  EXPECT_EQ(arena.NodeNumEntries(2), 1u);
  EXPECT_EQ(arena.NodeNumEntries(3), 0u);
  for (NodeId u = 0; u < 4; ++u) EXPECT_TRUE(arena.CheckNodeInvariants(u));
  // Full: no room for another sketch.
  EXPECT_FALSE(append(&arena, 0, std::vector<uint8_t>{1}, tried.size() - 1));
}

// Runs handed to AppendNodes must lie in the arena's image.
TEST(SketchArenaDeathTest, AppendNodesOutsideTheImageDies) {
  constexpr size_t kBeta = size_t{1} << kPrecision;
  const auto image = std::make_shared<const FileImage>(std::string(kBeta, '\0'));
  const std::vector<uint8_t> elsewhere(kBeta, 0);
  const std::vector<uint8_t> present = {1};
  SketchArena arena(kPrecision, kSalt, 1, 1, TimeEncoding::Covering(0, 1),
                    image);
  EXPECT_DEATH(arena.AppendNodes(0, present, elsewhere, {}, {}), "");
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
    EXPECT_EQ(CellsOf(sealed_view), CellsOf(build_view)) << "node " << u;
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
    if (!sealed.Sketch(u)) continue;
    EXPECT_EQ(CellsOf(sealed.Sketch(u)), CellsOf(streamed.Sketch(u)))
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
