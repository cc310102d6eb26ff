#include "ipin/core/oracle_io.h"

#include <algorithm>
#include <cstdio>
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
// version 4; frame 0 = i64 window, u8 precision, u64 salt, u64 num_nodes,
// u32 chunk_size, i64 base_time, u8 time_width; chunk frame k = u64
// first_node, u32 count, u64 entries, u8 present[count],
// u8 cell_counts[present x beta], u8 ranks[entries], then each time as a
// time_width-byte offset from base_time. The crafted files use base 0 and
// u32 offsets.

constexpr uint32_t kIndexFileType = 0x58444949;  // "IIDX"
constexpr uint32_t kIndexFormatVersion = 4;
constexpr int kCraftPrecision = 4;
constexpr uint64_t kCraftSalt = 9;
constexpr size_t kCraftBeta = size_t{1} << kCraftPrecision;

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
  Put<int64_t>(&frame, 0);  // base_time
  Put<uint8_t>(&frame, 4);  // time_width
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

// The sections of a chunk, kept apart so a test can damage one before
// Encode() lays them out.
struct Chunk {
  uint64_t first_node = 0;
  uint32_t count = 0;
  uint64_t entries = 0;
  std::string present, cell_counts, ranks, times;

  Chunk(uint64_t first, std::span<const Cells> nodes)
      : first_node(first), count(static_cast<uint32_t>(nodes.size())) {
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
  }

  std::string Encode() const {
    std::string frame;
    Put<uint64_t>(&frame, first_node);
    Put<uint32_t>(&frame, count);
    Put<uint64_t>(&frame, entries);
    return frame + present + cell_counts + ranks + times;
  }
};

// The per-node records of the retired formats: u8 present, then for a
// present node a sketch blob — u8 blob version 1, u8 precision, u64 salt,
// and per cell u32 count plus count x (u8 rank, i64 time).
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

class CraftedV4IndexTest : public OracleIoTest {
 protected:
  void WriteFrames(const std::vector<std::string>& frames,
                   uint32_t version = kIndexFormatVersion) const {
    SafeFileWriter writer(path_, kIndexFileType, version);
    for (const std::string& frame : frames) {
      ASSERT_TRUE(writer.AppendFrame(frame));
    }
    ASSERT_TRUE(writer.Commit());
  }

  // Node u of the loaded index holds exactly `want` (or is absent with an
  // all-zero rank row when `want` is empty).
  static void ExpectNode(const IrsApprox& index, NodeId u, const Cells& want) {
    const SketchView sketch = index.Sketch(u);
    ASSERT_EQ(sketch.valid(), !want.empty()) << "node " << u;
    if (want.empty()) {
      for (const uint8_t r : index.arena()->rank_row(u)) {
        ASSERT_EQ(r, 0) << "node " << u;
      }
      return;
    }
    SketchCells cells{kCraftPrecision, kCraftSalt, {}, {}, {}};
    for (const auto& cell : want) {
      cells.counts.push_back(static_cast<uint8_t>(cell.size()));
      for (const auto& [rank, time] : cell) {
        cells.ranks.push_back(rank);
        cells.times.push_back(time);
      }
    }
    EXPECT_EQ(CellsOf(sketch), cells) << "node " << u;
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

  // Writes chunks 0 and 2 intact around `middle` and expects exactly
  // chunk 1's nodes to be dropped.
  void ExpectOnlyMiddleDropped(const std::string& middle,
                               const std::string& what) {
    SCOPED_TRACE(what);
    WriteFrames({HeaderFrame(12, 4), ChunkOf(0).Encode(), middle,
                 ChunkOf(2).Encode()});
    const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
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

  std::vector<Cells> nodes_;
};

TEST_F(CraftedV4IndexTest, CraftedFileLoadsExactly) {
  WriteFrames({HeaderFrame(12, 4), ChunkOf(0).Encode(), ChunkOf(1).Encode(),
               ChunkOf(2).Encode()});
  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  ASSERT_EQ(result.status, IndexLoadStatus::kOk);
  EXPECT_EQ(result.index->NumAllocatedSketches(), 11u);
  for (NodeId u = 0; u < 12; ++u) ExpectNode(*result.index, u, nodes_[u]);
}

TEST_F(CraftedV4IndexTest, HostileHeaderFailsCleanly) {
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
}

// The payload must be exactly 20 + count + present x beta + 5 x entries
// bytes; any disagreement drops the chunk and nothing else.
TEST_F(CraftedV4IndexTest, PayloadLengthMustMatchItsCounts) {
  Chunk more_entries = ChunkOf(1);
  ++more_entries.entries;
  ExpectOnlyMiddleDropped(more_entries.Encode(), "entries + 1");

  Chunk fewer_entries = ChunkOf(1);
  --fewer_entries.entries;
  ExpectOnlyMiddleDropped(fewer_entries.Encode(), "entries - 1");

  Chunk huge_entries = ChunkOf(1);
  huge_entries.entries = ~uint64_t{0} / 5 + 1;  // 5 x entries wraps
  ExpectOnlyMiddleDropped(huge_entries.Encode(), "entries overflow");

  Chunk absent = ChunkOf(1);
  absent.present[0] = 0;  // one node fewer than the counts provide for
  ExpectOnlyMiddleDropped(absent.Encode(), "present flag cleared");

  Chunk extra = ChunkOf(1);
  extra.present[2] = 1;  // node 6 claimed, but it has no counts
  ExpectOnlyMiddleDropped(extra.Encode(), "present flag set");

  Chunk two = ChunkOf(1);
  two.present[0] = 2;  // not a flag
  ExpectOnlyMiddleDropped(two.Encode(), "present byte 2");

  Chunk short_times = ChunkOf(1);
  short_times.times.pop_back();
  ExpectOnlyMiddleDropped(short_times.Encode(), "truncated times");

  Chunk long_times = ChunkOf(1);
  long_times.times.push_back('\0');
  ExpectOnlyMiddleDropped(long_times.Encode(), "trailing byte");

  ExpectOnlyMiddleDropped(ChunkOf(1).Encode().substr(0, 19), "short prefix");

  Chunk more_nodes = ChunkOf(1);
  ++more_nodes.count;
  more_nodes.present.push_back('\0');
  ExpectOnlyMiddleDropped(more_nodes.Encode(), "count + 1");
}

// Well-framed chunks whose contents break a vHLL invariant: only the
// append's checks catch these, and they drop exactly the chunk.
TEST_F(CraftedV4IndexTest, BadCellsDropExactlyTheirChunk) {
  const std::vector<Cells> nodes(Slice(1).begin(), Slice(1).end());
  const auto with_node5_cell0 =
      [&](std::vector<std::pair<uint8_t, int64_t>> pairs) {
        std::vector<Cells> bad = nodes;
        bad[1][0] = std::move(pairs);
        return Chunk(4, bad);
      };
  // The good version of the edit loads: ranks may fall across cells.
  Chunk good = with_node5_cell0({{60, 1}, {61, 1}, {62, 5}});
  WriteFrames({HeaderFrame(12, 4), ChunkOf(0).Encode(), good.Encode(),
               ChunkOf(2).Encode()});
  ASSERT_EQ(LoadInfluenceIndexDetailed(path_).status, IndexLoadStatus::kOk);

  Chunk sum_high = ChunkOf(1);
  ++sum_high.cell_counts[kCraftBeta + 3];  // counts sum to entries + 1
  ExpectOnlyMiddleDropped(sum_high.Encode(), "counts sum above entries");

  // The chunk's last cell claims one pair more than there is: only the
  // sum check sees it, as no pair moves to another cell.
  Chunk last_high = ChunkOf(1);
  ++last_high.cell_counts.back();
  ExpectOnlyMiddleDropped(last_high.Encode(), "last cell above entries");

  // Same total, but every cell boundary after the first non-empty cell
  // moves back one pair. Whether that breaks an order or not, whatever
  // loads must hold the invariants.
  Chunk sum_shifted = ChunkOf(1);
  for (char& n : sum_shifted.cell_counts) {
    if (n != 0) {
      --n;
      break;
    }
  }
  ++sum_shifted.cell_counts.back();
  WriteFrames({HeaderFrame(12, 4), ChunkOf(0).Encode(), sum_shifted.Encode(),
               ChunkOf(2).Encode()});
  {
    const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
    ASSERT_TRUE(result.usable());
    for (NodeId u = 0; u < 12; ++u) {
      EXPECT_TRUE(result.index->arena()->CheckNodeInvariants(u)) << u;
    }
  }

  std::vector<std::pair<uint8_t, int64_t>> sixty_five;
  for (int i = 0; i < 65; ++i) {
    sixty_five.emplace_back(static_cast<uint8_t>(i + 1), i);
  }
  ExpectOnlyMiddleDropped(with_node5_cell0(sixty_five).Encode(), "count 65");
  ExpectOnlyMiddleDropped(with_node5_cell0({{0, 1}}).Encode(), "rank 0");
  ExpectOnlyMiddleDropped(with_node5_cell0({{3, 1}, {0, 2}}).Encode(),
                          "rank 0 second");
  ExpectOnlyMiddleDropped(with_node5_cell0({{4, 1}, {4, 2}}).Encode(),
                          "equal ranks");
  ExpectOnlyMiddleDropped(with_node5_cell0({{4, 1}, {3, 2}}).Encode(),
                          "descending ranks");
  ExpectOnlyMiddleDropped(with_node5_cell0({{3, 5}, {4, 4}}).Encode(),
                          "descending time");
}

TEST_F(CraftedV4IndexTest, MisplacedChunksAreDropped) {
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

  // A version-2 chunk in a version-4 file is malformed, not reinterpreted.
  ExpectOnlyMiddleDropped(RetiredChunkFrame(4, Slice(1)), "v2 chunk");
}

// A version this loader does not know is refused whole.
TEST_F(CraftedV4IndexTest, UnknownVersionIsCorrupt) {
  WriteFrames({HeaderFrame(0, 256)}, 5);
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);
}

// The retired formats — version 2 (per-node sketch blobs in IIDX frames)
// and the unframed version 1 — are refused whole, however well formed.
TEST_F(CraftedV4IndexTest, RetiredFormatsLoadAsCorrupt) {
  WriteFrames({HeaderFrame(12, 4), RetiredChunkFrame(0, Slice(0)),
               RetiredChunkFrame(4, Slice(1)), RetiredChunkFrame(8, Slice(2))},
              2);
  IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
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

// Every node of `got` holds exactly the cells and estimate of the same
// node of `want`.
void ExpectSameCells(const IrsApprox& want, const IrsApprox& got) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    ASSERT_EQ(got.Sketch(u).valid(), want.Sketch(u).valid()) << "node " << u;
    EXPECT_EQ(got.EstimateIrsSize(u), want.EstimateIrsSize(u)) << "node " << u;
    if (!want.Sketch(u)) continue;
    ASSERT_EQ(CellsOf(got.Sketch(u)), CellsOf(want.Sketch(u))) << "node " << u;
  }
}

// Two sealed indexes agree on every query surface, byte for byte.
void ExpectSameIndex(const IrsApprox& want, const IrsApprox& got) {
  ASSERT_TRUE(want.sealed());
  ASSERT_TRUE(got.sealed());
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.window(), want.window());
  const SketchArena& a = *want.arena();
  const SketchArena& b = *got.arena();
  EXPECT_EQ(b.TotalEntries(), a.TotalEntries());
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    ASSERT_EQ(b.has_node(u), a.has_node(u)) << "node " << u;
    const auto row_a = a.rank_row(u);
    const auto row_b = b.rank_row(u);
    ASSERT_TRUE(std::equal(row_a.begin(), row_a.end(), row_b.begin(),
                           row_b.end()))
        << "node " << u;
    ASSERT_EQ(b.NodeNumEntries(u), a.NodeNumEntries(u)) << "node " << u;
    if (!a.has_node(u)) continue;
    ASSERT_EQ(CellsOf(SketchView(&b, u)), CellsOf(SketchView(&a, u)))
        << "node " << u;
  }
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
  // The restored arena holds the file where the sealed one holds its lists,
  // and is otherwise the same size.
  const SketchArena& sealed = *built.arena();
  const size_t lists = sealed.NumAllocated() * sealed.num_cells() +
                       sealed.TotalEntries() * (1 + sealed.time_encoding().width);
  EXPECT_EQ(loaded.index->arena()->MemoryUsageBytes(),
            sealed.MemoryUsageBytes() - lists + ReadFileBytes().size());

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

// The reader's whole file buffer is charged from the read on: to the
// oracle_io tally while the load verifies it, then to the sketch_arena tally
// for as long as the loaded index keeps it as its list storage. The arena
// counts it, and destroying the index returns both tallies to where they
// were.
TEST_F(OracleIoTest, LoadChargesTheWholeFileBuffer) {
  const InteractionGraph g = GenerateUniformRandomNetwork(300, 2000, 4000, 4);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(g, 1000, options);
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const auto file_size = static_cast<int64_t>(ReadFileBytes().size());

  obs::MemoryTally& io = obs::GetMemoryTally("oracle_io");
  obs::MemoryTally& arena = SketchArenaMemTally();
  const int64_t io_before = io.CurrentBytes();
  const int64_t arena_before = arena.CurrentBytes();
  io.ResetPeak();
  {
    const IndexLoadResult loaded = LoadInfluenceIndexDetailed(path_);
    ASSERT_TRUE(loaded.usable());
    EXPECT_GE(io.PeakBytes() - io_before, file_size);
    EXPECT_EQ(io.CurrentBytes(), io_before);
    EXPECT_GE(arena.CurrentBytes() - arena_before, file_size);
    EXPECT_GE(loaded.index->MemoryUsageBytes(), static_cast<size_t>(file_size));
  }
  EXPECT_EQ(arena.CurrentBytes(), arena_before);
  EXPECT_EQ(io.CurrentBytes(), io_before);
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

// A loaded index serves its lists from the file image it was read from, so
// saving it again writes that file byte for byte, at either time width —
// also after the index has moved through a vector that reallocated (the
// reshard tool keeps loaded pieces that way).
TEST_F(OracleIoTest, LoadedIndexReSavesByteForByte) {
  const std::string resaved = path_ + ".resaved";
  for (const uint64_t span : {uint64_t{1} << 20, uint64_t{1} << 40}) {
    SCOPED_TRACE(testing::Message() << "span " << span);
    const IrsApprox built = BuildSpanning(1'700'000'000, span);
    EXPECT_EQ(built.time_encoding().width, span < (uint64_t{1} << 32) ? 4 : 8);
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
    std::remove(path_.c_str());  // the pieces hold the image, not the file
    ASSERT_TRUE(SaveInfluenceIndex(pieces.front(), resaved));
    const auto image = ReadWholeFile(resaved);
    ASSERT_NE(image, nullptr);
    EXPECT_EQ(image->view(), original);
    ExpectSameCells(built, pieces.front());
  }
  std::remove(resaved.c_str());
}

// A degraded load keeps the dropped chunk's bytes unreferenced: the
// re-saved file lacks exactly that chunk's nodes, and every other frame is
// the original's byte for byte.
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
    EXPECT_EQ(loaded.index->Sketch(u).valid(),
              !dropped && built.Sketch(u).valid())
        << "node " << u;
  }
  // The middle chunk: its 256 nodes, none present, no pairs.
  std::string empty;
  Put<uint64_t>(&empty, 256);
  Put<uint32_t>(&empty, 256);
  Put<uint64_t>(&empty, 0);
  empty.append(256, '\0');
  EXPECT_EQ(got[2], empty);
}

// An unsealed index and its sealed twin write the same bytes: both go
// through the one chunk encoder.
TEST_F(OracleIoTest, SealedAndUnsealedIndexesWriteTheSameFile) {
  const InteractionGraph g = GenerateUniformRandomNetwork(600, 4000, 9000, 29);
  IrsApproxOptions options;
  options.precision = 5;
  IrsApprox index = IrsApprox::Compute(g, 2000, options);
  ASSERT_FALSE(index.sealed());
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const std::string unsealed = ReadFileBytes();
  index.Seal();
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  EXPECT_EQ(ReadFileBytes(), unsealed);
}

// Times spanning 2^32 or more (nanosecond-style timestamps) keep 8-byte
// offsets; a span of exactly 2^32 - 1 still takes u32 offsets. At either
// width, every store of a build — sealed, saved and loaded, cut into
// shards, checkpointed, killed and resumed — holds the unsealed build's
// cells and estimates bit for bit.
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
    // time and node 52 only at the last, so both ends of the span are kept.
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

    const IrsApprox unsealed = IrsApprox::Compute(g, window, options);
    const TimeEncoding times = unsealed.time_encoding();
    EXPECT_EQ(times.width, c.width);
    if (c.width == 4) {
      EXPECT_EQ(times.base, c.first);
    }

    IrsApprox sealed = IrsApprox::Compute(g, window, options);
    sealed.Seal();
    EXPECT_EQ(sealed.time_encoding(), times);
    ExpectSameCells(unsealed, sealed);
    // The decoded times are the log's own, both ends of the span included.
    std::set<Timestamp> logged;
    for (const Interaction& e : g.interactions()) logged.insert(e.time);
    std::set<Timestamp> stored;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (!sealed.Sketch(u)) continue;
      const SketchCells cells = CellsOf(sealed.Sketch(u));
      stored.insert(cells.times.begin(), cells.times.end());
    }
    ASSERT_FALSE(stored.empty());
    EXPECT_TRUE(std::includes(logged.begin(), logged.end(), stored.begin(),
                              stored.end()));
    EXPECT_EQ(*stored.begin(), c.first);
    EXPECT_EQ(*stored.rbegin(), c.first + static_cast<Timestamp>(c.span));

    ASSERT_TRUE(SaveInfluenceIndex(unsealed, path_));
    const IndexLoadResult loaded = LoadInfluenceIndexDetailed(path_);
    ASSERT_EQ(loaded.status, IndexLoadStatus::kOk);
    EXPECT_EQ(loaded.index->time_encoding(), times);
    ExpectSameCells(unsealed, *loaded.index);

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
      EXPECT_EQ(shard.time_encoding(), times);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (map.OwnerOf(u) != s || !unsealed.Sketch(u)) continue;
        ASSERT_EQ(CellsOf(shard.Sketch(u)), CellsOf(unsealed.Sketch(u)))
            << "shard " << s << " node " << u;
        EXPECT_EQ(shard.EstimateIrsSize(u), unsealed.EstimateIrsSize(u));
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
    ExpectSameCells(unsealed, resumed);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace ipin
