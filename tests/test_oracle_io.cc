#include "ipin/core/oracle_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/common/safe_io.h"
#include "ipin/core/checkpoint.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/obs/memtally.h"
#include "ipin/serve/shard_map.h"
#include "ipin/sketch/sketch_arena.h"
#include "ipin/sketch/vhll.h"
#include "test_util.h"

namespace ipin {
namespace {

class OracleIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ipin_index_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".bin";
    SetLogLevel(LogLevel::kError);
  }
  void TearDown() override {
    failpoint::ClearAll();
    std::remove(path_.c_str());
  }

  std::string ReadFileBytes() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  void WriteFileBytes(const std::string& contents) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  std::string path_;
};

TEST_F(OracleIoTest, IndexRoundtripPreservesEstimates) {
  const InteractionGraph g = GenerateUniformRandomNetwork(120, 1500, 4000, 9);
  IrsApproxOptions options;
  options.precision = 8;
  options.salt = 7;
  const IrsApprox index = IrsApprox::Compute(g, 800, options);

  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const auto loaded = LoadInfluenceIndexDetailed(path_).index;
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->num_nodes(), index.num_nodes());
  EXPECT_EQ(loaded->window(), index.window());
  EXPECT_EQ(loaded->options().precision, 8);
  EXPECT_EQ(loaded->options().salt, 7u);
  EXPECT_EQ(loaded->TotalSketchEntries(), index.TotalSketchEntries());
  EXPECT_EQ(loaded->NumAllocatedSketches(), index.NumAllocatedSketches());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(loaded->EstimateIrsSize(u), index.EstimateIrsSize(u));
  }
  const std::vector<NodeId> seeds = {0, 10, 20, 30};
  EXPECT_DOUBLE_EQ(loaded->EstimateUnionSize(seeds),
                   index.EstimateUnionSize(seeds));
}

TEST_F(OracleIoTest, MissingFileFails) {
  const IndexLoadResult result =
      LoadInfluenceIndexDetailed("/nonexistent/nothing.bin");
  EXPECT_EQ(result.status, IndexLoadStatus::kMissing);
  EXPECT_FALSE(result.usable());
  EXPECT_FALSE(result.index.has_value());
}

TEST_F(OracleIoTest, GarbageFileFails) {
  WriteFileBytes("this is definitely not an influence index");
  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kCorrupt);
  EXPECT_FALSE(result.usable());
}

// Truncation in the new framed format is recoverable: the sections cut off
// are reported dropped and the surviving ones are served (degraded), never
// silently-wrong data.
TEST_F(OracleIoTest, TruncatedIndexDegradesNotLies) {
  const InteractionGraph g = GenerateUniformRandomNetwork(30, 300, 800, 3);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(g, 200, options);
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));

  std::string contents = ReadFileBytes();
  contents.resize(contents.size() / 2);
  WriteFileBytes(contents);

  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kDegraded);
  ASSERT_TRUE(result.usable());
  EXPECT_GT(result.sections_dropped, 0u);
  // Nodes whose section was cut off report an empty IRS, not garbage.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const double estimate = result.index->EstimateIrsSize(u);
    EXPECT_TRUE(estimate == 0.0 || estimate == index.EstimateIrsSize(u));
  }
}

// A bit flip inside one section drops only that section: every node outside
// it keeps a bit-identical sketch.
TEST_F(OracleIoTest, CorruptSectionDropsOnlyItself) {
  const InteractionGraph g = GenerateUniformRandomNetwork(600, 4000, 9000, 11);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(g, 2000, options);
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));

  std::string contents = ReadFileBytes();
  contents[contents.size() * 3 / 4] ^= 0x40;  // lands in a later chunk
  WriteFileBytes(contents);

  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kDegraded);
  ASSERT_TRUE(result.usable());
  EXPECT_GE(result.sections_total, 3u);
  EXPECT_GT(result.sections_dropped, 0u);
  EXPECT_LT(result.sections_dropped, result.sections_total);
  // The first chunk (nodes 0..255) precedes the flipped byte and must be
  // intact.
  for (NodeId u = 0; u < 256; ++u) {
    EXPECT_DOUBLE_EQ(result.index->EstimateIrsSize(u),
                     index.EstimateIrsSize(u));
  }
}

// A failed save must leave the previous index untouched (atomicity).
TEST_F(OracleIoTest, FailedSaveLeavesOldIndexIntact) {
  const InteractionGraph g = GenerateUniformRandomNetwork(50, 400, 900, 5);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(g, 300, options);
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const std::string before = ReadFileBytes();

  ASSERT_TRUE(failpoint::Set("safe_io.commit", "error"));
  const IrsApprox other = IrsApprox::Compute(g, 500, options);
  EXPECT_FALSE(SaveInfluenceIndex(other, path_));
  failpoint::ClearAll();

  EXPECT_EQ(ReadFileBytes(), before);
  const auto loaded = LoadInfluenceIndexDetailed(path_).index;
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->window(), 300);
}

// The oracle_io.write.short failpoint produces CRC-valid but unparsable
// sections — the "torn section" flavor of damage. Load degrades instead of
// crashing or fabricating sketches.
TEST_F(OracleIoTest, TornSectionsDegradeGracefully) {
  const InteractionGraph g = GenerateUniformRandomNetwork(40, 300, 800, 7);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(g, 200, options);
  ASSERT_TRUE(failpoint::Set("oracle_io.write.short", "short_write(12)"));
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  failpoint::ClearAll();

  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kDegraded);
  ASSERT_TRUE(result.usable());
  EXPECT_EQ(result.sections_dropped, result.sections_total);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(result.index->EstimateIrsSize(u), 0.0);
  }
}

TEST_F(OracleIoTest, EmptyIndexRoundtrips) {
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(InteractionGraph(5), 10, options);
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const auto loaded = LoadInfluenceIndexDetailed(path_).index;
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_nodes(), 5u);
  EXPECT_EQ(loaded->NumAllocatedSketches(), 0u);
}

// --- Hand-crafted framed files -------------------------------------------
//
// The framed index format (oracle_io.cc): safe_io file type "IIDX",
// version 5; frame 0 = i64 window, u8 precision, u64 salt, u64 num_nodes,
// u32 chunk_size; chunk frame k = u64 first_node, u32 count,
// u8 present[count], u32 entries[present], u8 rows[present x beta].

constexpr uint32_t kIndexFileType = 0x58444949;  // "IIDX"
constexpr uint32_t kIndexFormatVersion = 5;
constexpr int kCraftPrecision = 4;
constexpr uint64_t kCraftSalt = 9;
constexpr size_t kCraftBeta = size_t{1} << kCraftPrecision;
// The largest rank a precision-4 sketch stores.
constexpr uint8_t kCraftMaxRank = 61;

template <typename T>
void Put(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

std::string HeaderFrame(uint64_t num_nodes, uint32_t chunk_size) {
  std::string frame;
  Put<int64_t>(&frame, 100);
  Put<uint8_t>(&frame, kCraftPrecision);
  Put<uint64_t>(&frame, kCraftSalt);
  Put<uint64_t>(&frame, num_nodes);
  Put<uint32_t>(&frame, chunk_size);
  return frame;
}

// One node's cell lists, beta of them; no lists at all = absent node.
using Cells = std::vector<std::vector<std::pair<uint8_t, int64_t>>>;

Cells RandomCells(Rng* rng) {
  VersionedHll sketch(kCraftPrecision, kCraftSalt);
  const size_t items = 1 + rng->NextBounded(200);
  for (size_t i = 0; i < items; ++i) {
    sketch.Add(rng->NextUint64(),
               static_cast<Timestamp>(rng->NextBounded(1000)));
  }
  Cells cells(kCraftBeta);
  for (size_t c = 0; c < kCraftBeta; ++c) {
    for (const VersionedHll::Entry& e : sketch.cell(c)) {
      cells[c].emplace_back(e.rank, e.time);
    }
  }
  return cells;
}

// What an index stores of the node: its row and entry count.
SketchRow RowOfCells(const Cells& cells) {
  SketchRow row{kCraftPrecision, kCraftSalt, {}, 0};
  for (const auto& cell : cells) {
    row.row.push_back(cell.empty() ? 0 : cell.back().first);
    row.entries += cell.size();
  }
  return row;
}

// The sections of a v5 chunk, kept apart so a test can damage one before
// Encode() lays them out.
struct Chunk {
  uint64_t first_node = 0;
  uint32_t count = 0;
  std::string present, entries, rows;

  Chunk(uint64_t first, std::span<const Cells> nodes)
      : first_node(first), count(static_cast<uint32_t>(nodes.size())) {
    for (const Cells& cells : nodes) {
      Put<uint8_t>(&present, cells.empty() ? 0 : 1);
      if (cells.empty()) continue;
      const SketchRow row = RowOfCells(cells);
      Put<uint32_t>(&entries, static_cast<uint32_t>(row.entries));
      rows.append(row.row.begin(), row.row.end());
    }
  }

  // The entry count and row of the chunk's k-th present node.
  void SetEntries(size_t k, uint32_t n) {
    std::memcpy(entries.data() + k * sizeof(n), &n, sizeof(n));
  }
  char& RowByte(size_t k, size_t cell) { return rows[k * kCraftBeta + cell]; }

  std::string Encode() const {
    std::string frame;
    Put<uint64_t>(&frame, first_node);
    Put<uint32_t>(&frame, count);
    return frame + present + entries + rows;
  }
};

// A version-4 file's frames: the header with a u32 time encoding from base
// 0, and each chunk as the sealed arena's lists — u64 first_node,
// u32 count, u64 entries, u8 present[count], u8 cell_counts[present x
// beta], u8 ranks[entries], u32 time offsets[entries].
std::string RetiredV4HeaderFrame(uint64_t num_nodes, uint32_t chunk_size) {
  std::string frame = HeaderFrame(num_nodes, chunk_size);
  Put<int64_t>(&frame, 0);  // base_time
  Put<uint8_t>(&frame, 4);  // time_width
  return frame;
}

std::string RetiredV4ChunkFrame(uint64_t first_node,
                                std::span<const Cells> nodes) {
  std::string present, cell_counts, ranks, times;
  uint64_t entries = 0;
  for (const Cells& cells : nodes) {
    Put<uint8_t>(&present, cells.empty() ? 0 : 1);
    for (const auto& cell : cells) {
      Put<uint8_t>(&cell_counts, static_cast<uint8_t>(cell.size()));
      for (const auto& [rank, time] : cell) {
        Put<uint8_t>(&ranks, rank);
        Put<uint32_t>(&times, static_cast<uint32_t>(time));
        ++entries;
      }
    }
  }
  std::string frame;
  Put<uint64_t>(&frame, first_node);
  Put<uint32_t>(&frame, static_cast<uint32_t>(nodes.size()));
  Put<uint64_t>(&frame, entries);
  return frame + present + cell_counts + ranks + times;
}

// The per-node records of the retired formats 1 and 2: u8 present, then
// for a present node a sketch blob — u8 blob version 1, u8 precision,
// u64 salt, and per cell u32 count plus count x (u8 rank, i64 time).
std::string RetiredNodeRecords(std::span<const Cells> nodes) {
  std::string out;
  for (const Cells& cells : nodes) {
    Put<uint8_t>(&out, cells.empty() ? 0 : 1);
    if (cells.empty()) continue;
    Put<uint8_t>(&out, 1);
    Put<uint8_t>(&out, kCraftPrecision);
    Put<uint64_t>(&out, kCraftSalt);
    for (const auto& cell : cells) {
      Put<uint32_t>(&out, static_cast<uint32_t>(cell.size()));
      for (const auto& [rank, time] : cell) {
        Put<uint8_t>(&out, rank);
        Put<int64_t>(&out, time);
      }
    }
  }
  return out;
}

// A version-2 chunk frame: u64 first_node, u32 count, node records.
std::string RetiredChunkFrame(uint64_t first_node,
                              std::span<const Cells> nodes) {
  std::string frame;
  Put<uint64_t>(&frame, first_node);
  Put<uint32_t>(&frame, static_cast<uint32_t>(nodes.size()));
  return frame + RetiredNodeRecords(nodes);
}

class CraftedIndexTest : public OracleIoTest {
 protected:
  void WriteFrames(const std::vector<std::string>& frames,
                   uint32_t version = kIndexFormatVersion) const {
    SafeFileWriter writer(path_, kIndexFileType, version);
    for (const std::string& frame : frames) {
      ASSERT_TRUE(writer.AppendFrame(frame));
    }
    ASSERT_TRUE(writer.Commit());
  }

  // Node u of the loaded index holds exactly the row and entry count of
  // `want` (or is absent with an all-zero rank row when `want` is empty).
  static void ExpectNode(const IrsApprox& index, NodeId u, const Cells& want) {
    const SketchArena& arena = *index.arena();
    ASSERT_EQ(arena.has_node(u), !want.empty()) << "node " << u;
    if (want.empty()) {
      for (const uint8_t r : arena.rank_row(u)) {
        ASSERT_EQ(r, 0) << "node " << u;
      }
      return;
    }
    EXPECT_EQ(RowOf(arena, u), RowOfCells(want)) << "node " << u;
  }

  // Twelve random nodes (node 6 absent) in three 4-node chunks.
  void SetUp() override {
    OracleIoTest::SetUp();
    Rng rng(31);
    for (int i = 0; i < 12; ++i) {
      nodes_.push_back(i == 6 ? Cells{} : RandomCells(&rng));
    }
  }
  std::span<const Cells> Slice(int k) const {
    return std::span(nodes_).subspan(4 * k, 4);
  }
  Chunk ChunkOf(int k) const { return Chunk(4 * k, Slice(k)); }

  // Loads chunks 0 and 2 intact around `middle`.
  IndexLoadResult LoadAround(const std::string& middle) const {
    WriteFrames({HeaderFrame(12, 4), ChunkOf(0).Encode(), middle,
                 ChunkOf(2).Encode()});
    return LoadInfluenceIndexDetailed(path_);
  }

  // Writes chunks 0 and 2 intact around `middle` and expects exactly
  // chunk 1's nodes to be dropped.
  void ExpectOnlyMiddleDropped(const std::string& middle,
                               const std::string& what) {
    SCOPED_TRACE(what);
    const IndexLoadResult result = LoadAround(middle);
    ASSERT_TRUE(result.usable());
    EXPECT_EQ(result.status, IndexLoadStatus::kDegraded);
    EXPECT_EQ(result.sections_total, 3u);
    EXPECT_EQ(result.sections_dropped, 1u);
    EXPECT_EQ(result.index->NumAllocatedSketches(), 8u);
    for (NodeId u = 0; u < 12; ++u) {
      ExpectNode(*result.index, u, u >= 4 && u < 8 ? Cells{} : nodes_[u]);
      EXPECT_TRUE(result.index->arena()->CheckNodeInvariants(u));
    }
  }

  // Expects `middle` to load whole.
  void ExpectLoads(const std::string& middle, const std::string& what) {
    SCOPED_TRACE(what);
    const IndexLoadResult result = LoadAround(middle);
    ASSERT_EQ(result.status, IndexLoadStatus::kOk);
    EXPECT_EQ(result.index->NumAllocatedSketches(), 11u);
  }

  std::vector<Cells> nodes_;
};

TEST_F(CraftedIndexTest, CraftedFileLoadsExactly) {
  WriteFrames({HeaderFrame(12, 4), ChunkOf(0).Encode(), ChunkOf(1).Encode(),
               ChunkOf(2).Encode()});
  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  ASSERT_EQ(result.status, IndexLoadStatus::kOk);
  EXPECT_EQ(result.index->NumAllocatedSketches(), 11u);
  size_t entries = 0;
  for (NodeId u = 0; u < 12; ++u) {
    ExpectNode(*result.index, u, nodes_[u]);
    entries += RowOfCells(nodes_[u]).entries;
  }
  EXPECT_EQ(result.index->TotalSketchEntries(), entries);
}

TEST_F(CraftedIndexTest, HostileHeaderFailsCleanly) {
  // 2^50 nodes would size a rank plane of 2^54 bytes.
  WriteFrames({HeaderFrame(uint64_t{1} << 50, 256)});
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);
  // A chunk size beyond the writer's lets one frame claim 2^32 nodes.
  WriteFrames({HeaderFrame(uint64_t{1} << 32, 0xffffffffu),
               ChunkOf(0).Encode()});
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);
  // More chunks than the bytes after the header could frame.
  WriteFrames({HeaderFrame(256 * 1000, 256), ChunkOf(0).Encode()});
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);
  // A header frame with trailing bytes (a version-4 header's time
  // encoding) is not a version-5 header.
  WriteFrames({RetiredV4HeaderFrame(12, 4), ChunkOf(0).Encode(),
               ChunkOf(1).Encode(), ChunkOf(2).Encode()});
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);
}

// The payload must be exactly 12 + count + present x (4 + beta) bytes; any
// disagreement drops the chunk and nothing else.
TEST_F(CraftedIndexTest, PayloadLengthMustMatchItsCounts) {
  Chunk absent = ChunkOf(1);
  absent.present[0] = 0;  // one node fewer than the rows provide for
  ExpectOnlyMiddleDropped(absent.Encode(), "present flag cleared");

  Chunk extra = ChunkOf(1);
  extra.present[2] = 1;  // node 6 claimed, but it has no row
  ExpectOnlyMiddleDropped(extra.Encode(), "present flag set");

  Chunk short_rows = ChunkOf(1);
  short_rows.rows.pop_back();
  ExpectOnlyMiddleDropped(short_rows.Encode(), "truncated rows");

  Chunk long_rows = ChunkOf(1);
  long_rows.rows.push_back('\0');
  ExpectOnlyMiddleDropped(long_rows.Encode(), "trailing byte");

  ExpectOnlyMiddleDropped(ChunkOf(1).Encode().substr(0, 11), "short prefix");

  Chunk more_nodes = ChunkOf(1);
  ++more_nodes.count;
  more_nodes.present.push_back('\0');
  ExpectOnlyMiddleDropped(more_nodes.Encode(), "count + 1");
}

// A present byte is a flag: 0 or 1. Node 4's byte of 2 with node 5's
// cleared keeps the bytes' sum, and so the payload's length, as written:
// only the flag check can drop the chunk.
TEST_F(CraftedIndexTest, PresentByteAboveOneDropsItsChunk) {
  Chunk two = ChunkOf(1);
  two.present[0] = 2;
  two.present[1] = 0;
  ExpectOnlyMiddleDropped(two.Encode(), "present bytes 2, 0");
}

// A row byte above 65 - precision is a rank no VersionedHll gives; it would
// inflate every estimate the node takes part in. Node 5's cell 5 takes the
// rank, and its entry count stays within the row's bounds.
TEST_F(CraftedIndexTest, RankAboveTheLargestDropsItsChunk) {
  const auto with_rank = [&](int rank) {
    std::vector<uint8_t> row = RowOfCells(nodes_[5]).row;
    row[5] = static_cast<uint8_t>(rank);
    Chunk chunk = ChunkOf(1);
    chunk.RowByte(1, 5) = static_cast<char>(rank);
    const auto non_zero = std::count_if(row.begin(), row.end(),
                                        [](uint8_t r) { return r != 0; });
    chunk.SetEntries(1, static_cast<uint32_t>(non_zero));
    return chunk.Encode();
  };
  ExpectLoads(with_rank(kCraftMaxRank), "rank 61");
  ExpectOnlyMiddleDropped(with_rank(kCraftMaxRank + 1), "rank 62");
  ExpectOnlyMiddleDropped(with_rank(200), "rank 200");
}

// Every non-empty cell keeps at least one pair, so a node's entry count is
// at least its row's non-zero cells.
TEST_F(CraftedIndexTest, EntryCountBelowTheNonZeroCellsDropsItsChunk) {
  const std::vector<uint8_t> row = RowOfCells(nodes_[5]).row;
  const auto non_zero = static_cast<uint32_t>(
      std::count_if(row.begin(), row.end(), [](uint8_t r) { return r != 0; }));
  Chunk least = ChunkOf(1);
  least.SetEntries(1, non_zero);
  ExpectLoads(least.Encode(), "entries = non-zero cells");

  Chunk below = ChunkOf(1);
  below.SetEntries(1, non_zero - 1);
  ExpectOnlyMiddleDropped(below.Encode(), "entries below non-zero cells");
  Chunk zero = ChunkOf(1);
  zero.SetEntries(0, 0);
  ExpectOnlyMiddleDropped(zero.Encode(), "no entries");
}

// A cell's ranks strictly ascend to its row value, so it keeps at most that
// many pairs: a node's entry count is at most the sum of its row.
TEST_F(CraftedIndexTest, EntryCountAboveTheRowSumDropsItsChunk) {
  const std::vector<uint8_t> row = RowOfCells(nodes_[5]).row;
  uint32_t sum = 0;
  for (const uint8_t r : row) sum += r;
  Chunk most = ChunkOf(1);
  most.SetEntries(1, sum);
  ExpectLoads(most.Encode(), "entries = row sum");

  Chunk above = ChunkOf(1);
  above.SetEntries(1, sum + 1);
  ExpectOnlyMiddleDropped(above.Encode(), "entries above the row sum");
  Chunk huge = ChunkOf(1);
  huge.SetEntries(2, 0xffffffffu);
  ExpectOnlyMiddleDropped(huge.Encode(), "entries 2^32 - 1");
}

TEST_F(CraftedIndexTest, MisplacedChunksAreDropped) {
  WriteFrames({HeaderFrame(12, 4), ChunkOf(0).Encode(), ChunkOf(0).Encode(),
               ChunkOf(2).Encode()});
  IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  ASSERT_TRUE(result.usable());
  EXPECT_EQ(result.sections_dropped, 1u);
  for (NodeId u = 0; u < 12; ++u) {
    ExpectNode(*result.index, u, u >= 4 && u < 8 ? Cells{} : nodes_[u]);
  }

  WriteFrames({HeaderFrame(12, 4), ChunkOf(1).Encode(), ChunkOf(0).Encode(),
               ChunkOf(2).Encode()});
  result = LoadInfluenceIndexDetailed(path_);
  ASSERT_TRUE(result.usable());
  EXPECT_EQ(result.sections_dropped, 2u);
  EXPECT_EQ(result.index->NumAllocatedSketches(), 4u);
  for (NodeId u = 0; u < 12; ++u) {
    ExpectNode(*result.index, u, u < 8 ? Cells{} : nodes_[u]);
  }

  Chunk wrapping = ChunkOf(1);
  wrapping.first_node = ~uint64_t{0} - 1;
  ExpectOnlyMiddleDropped(wrapping.Encode(), "wrapping first_node");

  // Chunks of retired versions in a version-5 file are malformed, not
  // reinterpreted.
  ExpectOnlyMiddleDropped(RetiredChunkFrame(4, Slice(1)), "v2 chunk");
  ExpectOnlyMiddleDropped(RetiredV4ChunkFrame(4, Slice(1)), "v4 chunk");
}

// A version this loader does not know is refused whole.
TEST_F(CraftedIndexTest, UnknownVersionIsCorrupt) {
  WriteFrames({HeaderFrame(0, 256)}, 6);
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);
}

// The retired formats — version 4 (the sealed arena's cell lists), version
// 2 (per-node sketch blobs in IIDX frames) and the unframed version 1 — are
// refused whole, however well formed. A version-4 file's error says to
// rebuild it.
TEST_F(CraftedIndexTest, RetiredFormatsLoadAsCorrupt) {
  WriteFrames({RetiredV4HeaderFrame(12, 4), RetiredV4ChunkFrame(0, Slice(0)),
               RetiredV4ChunkFrame(4, Slice(1)),
               RetiredV4ChunkFrame(8, Slice(2))},
              4);
  std::vector<std::string> errors;
  SetLogSink([&errors](LogLevel level, const std::string& message) {
    if (level == LogLevel::kError) errors.push_back(message);
  });
  IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  SetLogSink(nullptr);
  EXPECT_EQ(result.status, IndexLoadStatus::kCorrupt);
  EXPECT_FALSE(result.index.has_value());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("version 4 is not read"), std::string::npos)
      << errors[0];
  EXPECT_NE(errors[0].find("rebuild it with ipin_cli build-index"),
            std::string::npos)
      << errors[0];

  WriteFrames({HeaderFrame(12, 4), RetiredChunkFrame(0, Slice(0)),
               RetiredChunkFrame(4, Slice(1)), RetiredChunkFrame(8, Slice(2))},
              2);
  result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kCorrupt);
  EXPECT_FALSE(result.index.has_value());

  std::string v1 = "IPINIDX1";
  Put<int64_t>(&v1, 100);
  Put<uint8_t>(&v1, kCraftPrecision);
  Put<uint64_t>(&v1, kCraftSalt);
  Put<uint64_t>(&v1, nodes_.size());
  WriteFileBytes(v1 + RetiredNodeRecords(nodes_));
  result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kCorrupt);
  EXPECT_FALSE(result.index.has_value());
}

// Every node of `got` holds exactly the row, entry count and estimate of
// the same node of `want`.
void ExpectSameRows(const IrsApprox& want, const IrsApprox& got) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    ASSERT_EQ(got.arena()->has_node(u), want.arena()->has_node(u))
        << "node " << u;
    EXPECT_EQ(got.EstimateIrsSize(u), want.EstimateIrsSize(u)) << "node " << u;
    ASSERT_EQ(RowOf(*got.arena(), u), RowOf(*want.arena(), u)) << "node " << u;
  }
}

// Every build sketch of `got` holds exactly the cell lists of `want`'s.
void ExpectSameCells(const IrsApprox& want, const IrsApprox& got) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    ASSERT_EQ(BuildCellsOf(got, u), BuildCellsOf(want, u)) << "node " << u;
  }
}

// Two indexes agree on every query surface, byte for byte.
void ExpectSameIndex(const IrsApprox& want, const IrsApprox& got) {
  EXPECT_EQ(got.window(), want.window());
  EXPECT_EQ(got.TotalSketchEntries(), want.TotalSketchEntries());
  ExpectSameRows(want, got);
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<NodeId> group(1 + rng.NextBounded(8));
    for (NodeId& u : group) {
      u = static_cast<NodeId>(rng.NextBounded(want.num_nodes()));
    }
    EXPECT_EQ(got.EstimateUnionSize(group), want.EstimateUnionSize(group))
        << "trial " << trial;
  }
}

TEST_F(OracleIoTest, RestoredIndexIsTheSealedBuildByteForByte) {
  const InteractionGraph g = GenerateUniformRandomNetwork(600, 4000, 9000, 13);
  IrsApproxOptions options;
  options.precision = 7;
  options.salt = 3;
  IrsApprox built = IrsApprox::Compute(g, 2000, options);
  built.Seal();
  ASSERT_TRUE(SaveInfluenceIndex(built, path_));

  obs::MemoryTally& vhll = VhllMemTally();
  const int64_t vhll_before = vhll.CurrentBytes();
  vhll.ResetPeak();
  const IndexLoadResult loaded = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(vhll.PeakBytes(), vhll_before)
      << "restore must not build VersionedHll objects";
  ASSERT_EQ(loaded.status, IndexLoadStatus::kOk);
  ExpectSameIndex(built, *loaded.index);
  // The restored arena is the sealed one: its rank plane, row_of_ and
  // entry counts, sized exactly.
  EXPECT_EQ(loaded.index->arena()->MemoryUsageBytes(),
            built.arena()->MemoryUsageBytes());

  std::vector<serve::ShardInfo> shards(3);
  for (size_t i = 0; i < shards.size(); ++i) {
    shards[i].name = "shard" + std::to_string(i);
    shards[i].endpoint.unix_socket_path =
        "/tmp/ipin-shard" + std::to_string(i) + ".sock";
  }
  const serve::ShardMap map(shards);
  ASSERT_EQ(map.num_shards(), 3u);
  for (size_t s = 0; s < map.num_shards(); ++s) {
    vhll.ResetPeak();
    const IrsApprox want = serve::ExtractShardIndex(built, map, s);
    const IrsApprox got = serve::ExtractShardIndex(*loaded.index, map, s);
    EXPECT_EQ(vhll.PeakBytes(), vhll_before) << "shard " << s;
    ExpectSameIndex(want, got);
    EXPECT_EQ(got.arena()->MemoryUsageBytes(), want.arena()->MemoryUsageBytes())
        << "shard " << s;
  }
}

// A 600-node build whose times span `span` from `first`: u32 offsets below
// 2^32, u64 from there on.
IrsApprox BuildSpanning(Timestamp first, uint64_t span) {
  InteractionGraph g(600);
  Rng rng(span);
  for (int i = 0; i < 4000; ++i) {
    g.AddInteraction(static_cast<NodeId>(rng.NextBounded(600)),
                     static_cast<NodeId>(rng.NextBounded(600)),
                     first + static_cast<Timestamp>(rng.NextBounded(span)));
  }
  g.SortByTime();
  return IrsApprox::Compute(g, static_cast<Duration>(span / 4),
                            IrsApproxOptions{/*precision=*/6, /*salt=*/5});
}

// The frames of the index file at `path`, header frame first.
std::vector<std::string> FramesOf(const std::string& path) {
  constexpr uint32_t kIndexFileType = 0x58444949;  // "IIDX"
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path, kIndexFileType), SafeOpenStatus::kOk);
  std::vector<std::string> frames;
  std::string_view payload;
  while (reader.ReadFrame(&payload) == FrameStatus::kOk) {
    frames.emplace_back(payload);
  }
  return frames;
}

// The reader's frame buffer is charged to the oracle_io tally while the
// load reads it, and freed when the load returns: the load holds one frame
// of the file at a time, never the whole file, and the loaded index holds
// only its arena, which the sketch_arena tally counts. Destroying the index
// returns both tallies to where they were.
TEST_F(OracleIoTest, LoadChargesOneFrameUntilItReturns) {
  const InteractionGraph g = GenerateUniformRandomNetwork(1200, 6000, 8000, 4);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(g, 1000, options);
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  size_t largest_frame = 0;
  for (const std::string& frame : FramesOf(path_)) {
    largest_frame = std::max(largest_frame, frame.size());
  }
  ASSERT_LT(largest_frame, ReadFileBytes().size() / 2);

  obs::MemoryTally& io = obs::GetMemoryTally("oracle_io");
  obs::MemoryTally& arena = SketchArenaMemTally();
  const int64_t io_before = io.CurrentBytes();
  const int64_t arena_before = arena.CurrentBytes();
  io.ResetPeak();
  {
    const IndexLoadResult loaded = LoadInfluenceIndexDetailed(path_);
    ASSERT_TRUE(loaded.usable());
    EXPECT_GT(io.PeakBytes() - io_before, 0);
    EXPECT_LE(io.PeakBytes() - io_before,
              static_cast<int64_t>(largest_frame));
    EXPECT_EQ(io.CurrentBytes(), io_before);
    EXPECT_EQ(arena.CurrentBytes() - arena_before,
              static_cast<int64_t>(loaded.index->MemoryUsageBytes()));
  }
  EXPECT_EQ(arena.CurrentBytes(), arena_before);
  EXPECT_EQ(io.CurrentBytes(), io_before);
}

// An index cut 100 bytes short loses exactly its last section: the cut
// frame reads as truncated, and every earlier chunk loads whole.
TEST_F(OracleIoTest, IndexCutShortLosesOnlyItsLastSection) {
  const IrsApprox built = BuildSpanning(0, 100'000);
  ASSERT_TRUE(SaveInfluenceIndex(built, path_));
  const std::vector<std::string> frames = FramesOf(path_);
  ASSERT_EQ(frames.size(), 4u);  // header + 3 chunks of 256 nodes
  ASSERT_GT(frames.back().size(), 100u);
  std::string contents = ReadFileBytes();
  contents.resize(contents.size() - 100);
  WriteFileBytes(contents);

  const IndexLoadResult loaded = LoadInfluenceIndexDetailed(path_);
  ASSERT_EQ(loaded.status, IndexLoadStatus::kDegraded);
  EXPECT_EQ(loaded.sections_total, 3u);
  EXPECT_EQ(loaded.sections_dropped, 1u);
  const SketchArena& got = *loaded.index->arena();
  for (NodeId u = 0; u < built.num_nodes(); ++u) {
    if (u < 512) {
      EXPECT_EQ(RowOf(got, u), RowOf(*built.arena(), u)) << "node " << u;
    } else {
      EXPECT_FALSE(got.has_node(u)) << "node " << u;
    }
  }
}

// A loaded index saves again to the file it was read from, byte for byte,
// whatever its times' span — also after the index has moved through a
// vector that reallocated (the reshard tool keeps loaded pieces that way).
TEST_F(OracleIoTest, LoadedIndexReSavesByteForByte) {
  const std::string resaved = path_ + ".resaved";
  for (const uint64_t span : {uint64_t{1} << 20, uint64_t{1} << 40}) {
    SCOPED_TRACE(testing::Message() << "span " << span);
    const IrsApprox built = BuildSpanning(1'700'000'000, span);
    ASSERT_TRUE(SaveInfluenceIndex(built, path_));
    const std::string original = ReadFileBytes();

    std::vector<IrsApprox> pieces;
    {
      IndexLoadResult loaded = LoadInfluenceIndexDetailed(path_);
      ASSERT_EQ(loaded.status, IndexLoadStatus::kOk);
      ASSERT_TRUE(SaveInfluenceIndex(*loaded.index, resaved));
      EXPECT_EQ(FramesOf(resaved), FramesOf(path_));
      pieces.push_back(std::move(*loaded.index));
    }
    const InteractionGraph small = GenerateUniformRandomNetwork(8, 20, 100, 1);
    for (int i = 0; i < 8; ++i) {
      pieces.push_back(IrsApprox::Compute(small, 10, IrsApproxOptions{}));
    }
    std::remove(path_.c_str());  // the pieces hold their rows, not the file
    ASSERT_TRUE(SaveInfluenceIndex(pieces.front(), resaved));
    const auto bytes = FileContents(resaved);
    ASSERT_TRUE(bytes.has_value());
    EXPECT_EQ(*bytes, original);
    ExpectSameRows(built, pieces.front());
  }
  std::remove(resaved.c_str());
}

// A degraded load drops one chunk's nodes: the re-saved file lacks exactly
// those nodes, and every other frame is the original's byte for byte.
TEST_F(OracleIoTest, DegradedIndexReSavesAllButTheDroppedChunk) {
  const IrsApprox built = BuildSpanning(0, 100'000);
  ASSERT_TRUE(SaveInfluenceIndex(built, path_));
  const std::vector<std::string> frames = FramesOf(path_);
  ASSERT_EQ(frames.size(), 4u);  // header + 3 chunks of 256 nodes

  // Flip one byte inside the middle chunk's payload: the frame after the
  // file header (20 bytes), the header frame and the first chunk frame.
  std::string contents = ReadFileBytes();
  const size_t middle =
      20 + (12 + frames[0].size()) + (12 + frames[1].size()) + 12;
  contents[middle + frames[2].size() / 2] ^= 0x01;
  WriteFileBytes(contents);
  const IndexLoadResult loaded = LoadInfluenceIndexDetailed(path_);
  ASSERT_EQ(loaded.status, IndexLoadStatus::kDegraded);
  ASSERT_EQ(loaded.sections_dropped, 1u);

  const std::string resaved = path_ + ".resaved";
  ASSERT_TRUE(SaveInfluenceIndex(*loaded.index, resaved));
  const std::vector<std::string> got = FramesOf(resaved);
  std::remove(resaved.c_str());
  ASSERT_EQ(got.size(), frames.size());
  for (const size_t k : {size_t{0}, size_t{1}, size_t{3}}) {
    EXPECT_EQ(got[k], frames[k]) << "frame " << k;
  }
  for (NodeId u = 0; u < built.num_nodes(); ++u) {
    const bool dropped = u >= 256 && u < 512;
    EXPECT_EQ(loaded.index->arena()->has_node(u),
              !dropped && built.arena()->has_node(u))
        << "node " << u;
  }
  // The middle chunk: its 256 nodes, none present.
  std::string empty;
  Put<uint64_t>(&empty, 256);
  Put<uint32_t>(&empty, 256);
  empty.append(256, '\0');
  EXPECT_EQ(got[2], empty);
}

// Freeing the build store changes no saved byte: a save writes each node's
// arena row and entry count, which the build already holds.
TEST_F(OracleIoTest, SealKeepsTheSavedFile) {
  const InteractionGraph g = GenerateUniformRandomNetwork(600, 4000, 9000, 29);
  IrsApproxOptions options;
  options.precision = 5;
  IrsApprox index = IrsApprox::Compute(g, 2000, options);
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const std::string built = ReadFileBytes();
  index.Seal();
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  EXPECT_EQ(ReadFileBytes(), built);
}

// Rewrites the checkpoint at `path` (checkpoint.cc: a meta frame ending
// with the chunks' i64 base time and u8 width, then sketch chunks of
// 2^precision cells; test_util.h, ChunkLayout) with its times in the
// narrowest encoding that holds them, with valid CRCs, and returns that
// encoding.
TimeEncoding NarrowCheckpointTimes(const std::string& path, int precision) {
  constexpr uint32_t kCheckpointType = 0x504b4349;  // "ICKP"
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path, kCheckpointType), SafeOpenStatus::kOk);
  const uint32_t version = reader.version();
  std::vector<std::string> frames;
  std::string_view payload;
  while (reader.ReadFrame(&payload) == FrameStatus::kOk) {
    frames.emplace_back(payload);
  }
  EXPECT_GE(frames.size(), 2u);
  std::string& meta = frames[0];
  TimeEncoding from;
  std::memcpy(&from.base, meta.data() + meta.size() - 9, sizeof(from.base));
  from.width = static_cast<uint8_t>(meta.back());
  // Per chunk, where its time offsets start and how many there are.
  std::vector<std::pair<size_t, uint64_t>> sections;
  std::vector<Timestamp> times;
  for (size_t k = 1; k < frames.size(); ++k) {
    const ChunkLayout layout = LayoutOf(frames[k], precision);
    const size_t at = layout.times_at;
    const uint64_t entries = layout.pairs;
    sections.emplace_back(at, entries);
    const auto* offsets = reinterpret_cast<const uint8_t*>(frames[k].data());
    for (uint64_t i = 0; i < entries; ++i) {
      times.push_back(from.Decode(offsets + at, i));
    }
  }
  const auto [first, last] = std::minmax_element(times.begin(), times.end());
  const TimeEncoding to = times.empty()
                              ? TimeEncoding::Covering(1, 0)
                              : TimeEncoding::Covering(*first, *last);
  std::memcpy(meta.data() + meta.size() - 9, &to.base, sizeof(to.base));
  meta.back() = static_cast<char>(to.width);
  size_t next = 0;
  for (size_t k = 1; k < frames.size(); ++k) {
    const auto [at, entries] = sections[k - 1];
    std::string& chunk = frames[k];
    chunk.resize(at + entries * to.width);
    WithTimeCodec(to.width, [&](auto codec) {
      for (uint64_t i = 0; i < entries; ++i) {
        codec.Store(reinterpret_cast<uint8_t*>(chunk.data() + at), i,
                    codec.Encode(to.base, times[next++]));
      }
    });
  }
  SafeFileWriter writer(path, kCheckpointType, version);
  for (const std::string& frame : frames) {
    EXPECT_TRUE(writer.AppendFrame(frame));
  }
  EXPECT_TRUE(writer.Commit());
  return to;
}

// Times spanning 2^32 or more (nanosecond-style timestamps) keep 8-byte
// offsets; a span of exactly 2^32 - 1 still takes u32 offsets. At either
// width, the build's cells hold the log's own times, every served store of
// it — sealed, saved and loaded, cut into shards — holds the build's rows
// and estimates bit for bit, and a checkpointed build that is killed and
// resumed holds its cells. The end of the span comes back exact from the
// checkpoint a build writes after its first edge. A wide build skips a
// checkpoint in a narrower encoding than its own.
TEST_F(OracleIoTest, TimeWidthFollowsTheSpanAndEveryStoreIsExact) {
  // The killed build runs on the thread pool, which a forked child lacks.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  struct Case {
    Timestamp first;
    uint64_t span;
    uint8_t width;
  };
  for (const Case& c : {Case{1'700'000'000'000'000'000, uint64_t{1} << 40, 8},
                        Case{-7, (uint64_t{1} << 32) - 1, 4}}) {
    SCOPED_TRACE(testing::Message() << "span " << c.span);
    // Nodes 0..49 interact at random times; node 50 sends only at the first
    // time and node 52 only at the last, so both ends of the span are
    // stored: the end's pair until the scan, a window before it, collapses
    // phi(52) to its row.
    InteractionGraph g(54);
    Rng rng(c.span);
    g.AddInteraction(50, 51, c.first);
    g.AddInteraction(52, 53, c.first + static_cast<Timestamp>(c.span));
    for (int i = 0; i < 600; ++i) {
      g.AddInteraction(static_cast<NodeId>(rng.NextBounded(50)),
                       static_cast<NodeId>(rng.NextBounded(50)),
                       c.first + static_cast<Timestamp>(rng.NextBounded(c.span)));
    }
    g.SortByTime();
    const Duration window = static_cast<Duration>(c.span / 8);
    const IrsApproxOptions options{/*precision=*/5, /*salt=*/11};

    const IrsApprox built = IrsApprox::Compute(g, window, options);
    const TimeEncoding times = built.time_encoding();
    EXPECT_EQ(times.width, c.width);
    if (c.width == 4) {
      EXPECT_EQ(times.base, c.first);
    }

    IrsApprox sealed = IrsApprox::Compute(g, window, options);
    sealed.Seal();
    ExpectSameRows(built, sealed);
    // The decoded times are the log's own, the start of the span included
    // (the end's is checked in a checkpoint below).
    std::set<Timestamp> logged;
    for (const Interaction& e : g.interactions()) logged.insert(e.time);
    std::set<Timestamp> stored;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const std::optional<SketchCells> cells = BuildCellsOf(built, u);
      if (cells.has_value()) {
        stored.insert(cells->times.begin(), cells->times.end());
      }
    }
    ASSERT_FALSE(stored.empty());
    EXPECT_TRUE(std::includes(logged.begin(), logged.end(), stored.begin(),
                              stored.end()));
    EXPECT_EQ(*stored.begin(), c.first);
    ASSERT_TRUE(BuildCellsOf(built, 52)->collapsed);
    EXPECT_EQ(BuildCellsOf(built, 52)->entries, 1u);

    ASSERT_TRUE(SaveInfluenceIndex(built, path_));
    const IndexLoadResult loaded = LoadInfluenceIndexDetailed(path_);
    ASSERT_EQ(loaded.status, IndexLoadStatus::kOk);
    ExpectSameRows(built, *loaded.index);

    std::vector<serve::ShardInfo> shards(2);
    for (size_t i = 0; i < shards.size(); ++i) {
      shards[i].name = "shard" + std::to_string(i);
      shards[i].endpoint.unix_socket_path =
          "/tmp/ipin-shard" + std::to_string(i) + ".sock";
    }
    const serve::ShardMap map(shards);
    ASSERT_EQ(map.num_shards(), 2u);
    for (size_t s = 0; s < map.num_shards(); ++s) {
      const IrsApprox shard = serve::ExtractShardIndex(*loaded.index, map, s);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (map.OwnerOf(u) != s || !built.arena()->has_node(u)) continue;
        ASSERT_EQ(RowOf(*shard.arena(), u), RowOf(*built.arena(), u))
            << "shard " << s << " node " << u;
        EXPECT_EQ(shard.EstimateIrsSize(u), built.EstimateIrsSize(u));
      }
    }

    // Named without the fixture's address, which a death test's child
    // need not share.
    const std::string dir = ::testing::TempDir() + "/ipin_time_width_" +
                            std::to_string(c.width) + ".ckpt";
    std::filesystem::remove_all(dir);
    const CheckpointOptions checkpoints{dir, /*every_edges=*/100};
    EXPECT_EXIT(
        {
          failpoint::Set("checkpoint.save", "crash_after_n(2)");
          (void)ComputeIrsApproxCheckpointed(g, window, options, checkpoints);
        },
        ::testing::ExitedWithCode(134), "failpoint");
    CheckpointStats stats;
    const IrsApprox resumed = ComputeIrsApproxCheckpointed(
        g, window, options, checkpoints, &stats);
    EXPECT_EQ(stats.resumed_edges, 200u);
    EXPECT_EQ(resumed.time_encoding(), times);
    ExpectSameCells(built, resumed);
    std::filesystem::remove_all(dir);

    // The checkpoint at edge 1 (every later save fails) holds phi(52)
    // alone, its one pair at the end of the span, before it collapses:
    // that time decodes exact, so the narrowest encoding holding it is
    // based there.
    ASSERT_TRUE(failpoint::Set("checkpoint.save", "error(2)"));
    (void)ComputeIrsApproxCheckpointed(g, window, options,
                                       {dir, /*every_edges=*/1, /*keep=*/1});
    failpoint::ClearAll();
    const std::string at_1 = dir + "/ckpt_approx_00000000000000000001.ipinckpt";
    ASSERT_TRUE(std::filesystem::exists(at_1));
    EXPECT_EQ(NarrowCheckpointTimes(at_1, options.precision),
              (TimeEncoding{c.first + static_cast<Timestamp>(c.span), 4}));
    if (c.width == 4) {
      std::filesystem::remove_all(dir);
      continue;
    }

    // Earlier versions wrote a wide build's checkpoint in the narrowest
    // encoding holding its times, as the rewrite above did. A checkpoint
    // must be in the build's own encoding: resume skips it like a damaged
    // file and builds fresh.
    CheckpointStats upgraded;
    const IrsApprox fresh = ComputeIrsApproxCheckpointed(
        g, window, options, checkpoints, &upgraded);
    EXPECT_EQ(upgraded.invalid_checkpoints_skipped, 1u);
    EXPECT_EQ(upgraded.resumed_edges, 0u);
    ExpectSameCells(built, fresh);
    ASSERT_TRUE(SaveInfluenceIndex(built, path_));
    const std::string built_bytes = ReadFileBytes();
    ASSERT_TRUE(SaveInfluenceIndex(fresh, path_));
    EXPECT_EQ(ReadFileBytes(), built_bytes);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace ipin
