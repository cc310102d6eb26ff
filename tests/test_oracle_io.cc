#include "ipin/core/oracle_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/common/safe_io.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/obs/memtally.h"
#include "ipin/serve/shard_map.h"
#include "ipin/sketch/sketch_arena.h"
#include "ipin/sketch/vhll.h"

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

TEST(VhllSerializeTest, RoundtripPreservesEverything) {
  VersionedHll original(7, 42);
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    original.Add(rng.NextUint64(),
                 static_cast<Timestamp>(rng.NextBounded(1000)));
  }
  std::string blob;
  original.Serialize(&blob);
  size_t offset = 0;
  const auto restored = VersionedHll::Deserialize(blob, &offset);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(offset, blob.size());
  EXPECT_EQ(restored->precision(), 7);
  EXPECT_EQ(restored->salt(), 42u);
  EXPECT_EQ(restored->NumEntries(), original.NumEntries());
  EXPECT_DOUBLE_EQ(restored->Estimate(), original.Estimate());
  for (size_t c = 0; c < original.num_cells(); ++c) {
    const auto& a = original.cell(c);
    const auto& b = restored->cell(c);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].rank, b[i].rank);
      EXPECT_EQ(a[i].time, b[i].time);
    }
  }
}

TEST(VhllSerializeTest, TruncatedBlobRejected) {
  VersionedHll sketch(5);
  sketch.Add(1, 10);
  sketch.Add(2, 20);
  std::string blob;
  sketch.Serialize(&blob);
  for (const size_t cut : {size_t{0}, size_t{1}, blob.size() / 2,
                           blob.size() - 1}) {
    size_t offset = 0;
    EXPECT_FALSE(
        VersionedHll::Deserialize(std::string_view(blob.data(), cut), &offset)
            .has_value())
        << "cut " << cut;
  }
}

TEST(VhllSerializeTest, CorruptVersionRejected) {
  VersionedHll sketch(5);
  sketch.Add(1, 10);
  std::string blob;
  sketch.Serialize(&blob);
  blob[0] = 99;  // bogus format version
  size_t offset = 0;
  EXPECT_FALSE(VersionedHll::Deserialize(blob, &offset).has_value());
}

TEST(VhllSerializeTest, MultipleSketchesInOneBuffer) {
  VersionedHll a(4, 1);
  VersionedHll b(6, 2);
  a.Add(10, 1);
  b.Add(20, 2);
  std::string blob;
  a.Serialize(&blob);
  b.Serialize(&blob);
  size_t offset = 0;
  const auto ra = VersionedHll::Deserialize(blob, &offset);
  const auto rb = VersionedHll::Deserialize(blob, &offset);
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(offset, blob.size());
  EXPECT_EQ(ra->precision(), 4);
  EXPECT_EQ(rb->precision(), 6);
  EXPECT_EQ(rb->salt(), 2u);
}

TEST_F(OracleIoTest, IndexRoundtripPreservesEstimates) {
  const InteractionGraph g = GenerateUniformRandomNetwork(120, 1500, 4000, 9);
  IrsApproxOptions options;
  options.precision = 8;
  options.salt = 7;
  const IrsApprox index = IrsApprox::Compute(g, 800, options);

  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const auto loaded = LoadInfluenceIndex(path_);
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
  EXPECT_FALSE(LoadInfluenceIndex("/nonexistent/nothing.bin").has_value());
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
  const auto loaded = LoadInfluenceIndex(path_);
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

// Files written by the pre-safe_io in-place format are still readable.
TEST_F(OracleIoTest, LegacyFormatStillLoads) {
  VersionedHll sketch(6, 3);
  sketch.Add(42, 10);
  sketch.Add(7, 20);

  std::string legacy = "IPINIDX1";
  const auto append = [&legacy](const void* p, size_t n) {
    legacy.append(reinterpret_cast<const char*>(p), n);
  };
  const int64_t window = 123;
  const uint8_t precision = 6;
  const uint64_t salt = 3;
  const uint64_t num_nodes = 3;
  append(&window, sizeof(window));
  append(&precision, sizeof(precision));
  append(&salt, sizeof(salt));
  append(&num_nodes, sizeof(num_nodes));
  const uint8_t absent = 0, present = 1;
  append(&absent, 1);
  append(&present, 1);
  sketch.Serialize(&legacy);
  append(&absent, 1);
  WriteFileBytes(legacy);

  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  EXPECT_EQ(result.status, IndexLoadStatus::kOk);
  ASSERT_TRUE(result.usable());
  EXPECT_EQ(result.index->num_nodes(), 3u);
  EXPECT_EQ(result.index->window(), 123);
  ASSERT_TRUE(result.index->Sketch(1).valid());
  EXPECT_DOUBLE_EQ(result.index->EstimateIrsSize(1), sketch.Estimate());
}

TEST_F(OracleIoTest, EmptyIndexRoundtrips) {
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index(5, 10, options);  // no interactions processed
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const auto loaded = LoadInfluenceIndex(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_nodes(), 5u);
  EXPECT_EQ(loaded->NumAllocatedSketches(), 0u);
}

// --- Hand-crafted framed files -------------------------------------------
//
// The framed index format (oracle_io.cc): safe_io file type "IIDX",
// version 2; frame 0 = i64 window, u8 precision, u64 salt, u64 num_nodes,
// u32 chunk_size; chunk frame k = u64 first_node, u32 count, then per node
// u8 present [+ VersionedHll::Serialize blob].

constexpr uint32_t kIndexFileType = 0x58444949;  // "IIDX"
constexpr uint32_t kIndexFormatVersion = 2;
constexpr int kCraftPrecision = 4;
constexpr uint64_t kCraftSalt = 9;

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

// A chunk frame holding `blobs` (an empty blob = absent node).
std::string ChunkFrame(uint64_t first_node,
                       const std::vector<std::string>& blobs) {
  std::string frame;
  Put<uint64_t>(&frame, first_node);
  Put<uint32_t>(&frame, static_cast<uint32_t>(blobs.size()));
  for (const std::string& blob : blobs) {
    Put<uint8_t>(&frame, blob.empty() ? 0 : 1);
    frame += blob;
  }
  return frame;
}

std::string RandomBlob(Rng* rng) {
  VersionedHll sketch(kCraftPrecision, kCraftSalt);
  const size_t items = 1 + rng->NextBounded(200);
  for (size_t i = 0; i < items; ++i) {
    sketch.Add(rng->NextUint64(),
               static_cast<Timestamp>(rng->NextBounded(1000)));
  }
  std::string blob;
  sketch.Serialize(&blob);
  return blob;
}

// A blob whose cell 0 declares `count` pairs and holds `pairs`; every other
// cell is empty.
std::string BlobWithCell0(uint32_t count,
                          const std::vector<std::pair<uint8_t, int64_t>>& pairs) {
  std::string blob;
  Put<uint8_t>(&blob, VersionedHll::kFormatVersion);
  Put<uint8_t>(&blob, kCraftPrecision);
  Put<uint64_t>(&blob, kCraftSalt);
  Put<uint32_t>(&blob, count);
  for (const auto& [rank, time] : pairs) {
    Put<uint8_t>(&blob, rank);
    Put<int64_t>(&blob, time);
  }
  for (size_t c = 1; c < (size_t{1} << kCraftPrecision); ++c) {
    Put<uint32_t>(&blob, 0);
  }
  return blob;
}

class CraftedIndexTest : public OracleIoTest {
 protected:
  void WriteFrames(const std::vector<std::string>& frames) const {
    SafeFileWriter writer(path_, kIndexFileType, kIndexFormatVersion);
    for (const std::string& frame : frames) {
      ASSERT_TRUE(writer.AppendFrame(frame));
    }
    ASSERT_TRUE(writer.Commit());
  }

  // Node u of the loaded index serializes to exactly `blob` (or is absent
  // with an all-zero rank row when `blob` is empty).
  static void ExpectNode(const IrsApprox& index, NodeId u,
                         const std::string& blob) {
    const SketchView sketch = index.Sketch(u);
    ASSERT_EQ(sketch.valid(), !blob.empty()) << "node " << u;
    if (blob.empty()) {
      for (const uint8_t r : index.arena()->rank_row(u)) {
        ASSERT_EQ(r, 0) << "node " << u;
      }
      return;
    }
    std::string got;
    sketch.Serialize(&got);
    EXPECT_EQ(got, blob) << "node " << u;
  }
};

TEST_F(CraftedIndexTest, HostileHeaderFailsCleanly) {
  // 2^50 nodes would size a rank plane of 2^54 bytes.
  WriteFrames({HeaderFrame(uint64_t{1} << 50, 256)});
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);

  // A chunk size beyond the writer's lets one frame claim 2^32 nodes.
  Rng rng(1);
  WriteFrames({HeaderFrame(uint64_t{1} << 32, 0xffffffffu),
               ChunkFrame(0, {RandomBlob(&rng)})});
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);

  // The legacy loader: every node needs at least its present byte.
  std::string legacy = "IPINIDX1";
  Put<int64_t>(&legacy, 100);
  Put<uint8_t>(&legacy, kCraftPrecision);
  Put<uint64_t>(&legacy, kCraftSalt);
  Put<uint64_t>(&legacy, uint64_t{1} << 50);
  legacy += std::string(64, '\0');
  WriteFileBytes(legacy);
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);
}

// Chunk k must start at node k * chunk_size: a duplicated, reordered or
// overflowing chunk is dropped, so no node is ever placed twice.
TEST_F(CraftedIndexTest, MisplacedChunksAreDropped) {
  Rng rng(2);
  std::vector<std::string> blobs;
  for (int i = 0; i < 8; ++i) blobs.push_back(i == 5 ? "" : RandomBlob(&rng));
  const std::string chunk0 =
      ChunkFrame(0, {blobs.begin(), blobs.begin() + 4});
  const std::string chunk1 =
      ChunkFrame(4, {blobs.begin() + 4, blobs.end()});

  WriteFrames({HeaderFrame(8, 4), chunk0, chunk0});  // duplicated
  IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  ASSERT_TRUE(result.usable());
  EXPECT_EQ(result.status, IndexLoadStatus::kDegraded);
  EXPECT_EQ(result.sections_total, 2u);
  EXPECT_EQ(result.sections_dropped, 1u);
  for (NodeId u = 0; u < 8; ++u) {
    ExpectNode(*result.index, u, u < 4 ? blobs[u] : "");
  }

  WriteFrames({HeaderFrame(8, 4), chunk1, chunk0});  // reordered
  result = LoadInfluenceIndexDetailed(path_);
  ASSERT_TRUE(result.usable());
  EXPECT_EQ(result.sections_dropped, 2u);
  EXPECT_EQ(result.index->NumAllocatedSketches(), 0u);

  // first_node + count would wrap around.
  const std::string wrapping = ChunkFrame(
      ~uint64_t{0} - 1, {blobs.begin(), blobs.begin() + 4});
  WriteFrames({HeaderFrame(8, 4), wrapping, chunk1});
  result = LoadInfluenceIndexDetailed(path_);
  ASSERT_TRUE(result.usable());
  EXPECT_EQ(result.sections_dropped, 1u);
  for (NodeId u = 0; u < 8; ++u) {
    ExpectNode(*result.index, u, u < 4 ? "" : blobs[u]);
  }
}

// A CRC-valid chunk that fails at its 3rd node loses its whole slice —
// including the two nodes parsed before the failure — and nothing else.
TEST_F(CraftedIndexTest, FailedChunkLosesExactlyItsSlice) {
  Rng rng(3);
  std::vector<std::string> blobs;
  for (int i = 0; i < 12; ++i) blobs.push_back(RandomBlob(&rng));
  const std::vector<std::string> bad_third_nodes = {
      // A cell count of 65: no undominated list is that long.
      BlobWithCell0(65, std::vector<std::pair<uint8_t, int64_t>>(65, {1, 0})),
      // Well-framed, but ranks descend: only the full parse catches it.
      BlobWithCell0(2, {{5, 1}, {3, 2}}),
  };
  for (const std::string& bad : bad_third_nodes) {
    std::vector<std::string> middle(blobs.begin() + 4, blobs.begin() + 8);
    middle[2] = bad;
    WriteFrames({HeaderFrame(12, 4),
                 ChunkFrame(0, {blobs.begin(), blobs.begin() + 4}),
                 ChunkFrame(4, middle),
                 ChunkFrame(8, {blobs.begin() + 8, blobs.end()})});
    const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
    ASSERT_TRUE(result.usable());
    EXPECT_EQ(result.status, IndexLoadStatus::kDegraded);
    EXPECT_EQ(result.sections_dropped, 1u);
    EXPECT_EQ(result.index->NumAllocatedSketches(), 8u);
    for (NodeId u = 0; u < 12; ++u) {
      const bool dropped = u >= 4 && u < 8;
      ExpectNode(*result.index, u, dropped ? "" : blobs[u]);
      if (dropped) {
        EXPECT_EQ(result.index->EstimateIrsSize(u), 0.0);
      }
    }
  }
}

// --- Hand-crafted version-3 files ------------------------------------------
//
// Version 3 chunk frame k = u64 first_node, u32 count, u64 entries,
// u8 present[count], u8 cell_counts[present x beta], u8 ranks[entries],
// i64 times[entries].

constexpr uint32_t kIndexFormatVersionV3 = 3;
constexpr size_t kCraftBeta = size_t{1} << kCraftPrecision;

// One node's cell lists, beta of them; no lists at all = absent node.
using Cells = std::vector<std::vector<std::pair<uint8_t, int64_t>>>;

// The cell lists of a VersionedHll::Serialize blob (or none for "").
Cells CellsOfBlob(const std::string& blob) {
  if (blob.empty()) return {};
  Cells cells(kCraftBeta);
  size_t offset = 2 + sizeof(uint64_t);  // version, precision, salt
  for (auto& cell : cells) {
    uint32_t count = 0;
    std::memcpy(&count, blob.data() + offset, sizeof(count));
    offset += sizeof(count);
    for (uint32_t i = 0; i < count; ++i) {
      int64_t time = 0;
      std::memcpy(&time, blob.data() + offset + 1, sizeof(time));
      cell.emplace_back(static_cast<uint8_t>(blob[offset]), time);
      offset += 1 + sizeof(time);
    }
  }
  return cells;
}

// The sections of a version-3 chunk, kept apart so a test can damage one
// before Encode() lays them out.
struct ChunkV3 {
  uint64_t first_node = 0;
  uint32_t count = 0;
  uint64_t entries = 0;
  std::string present, cell_counts, ranks, times;

  ChunkV3(uint64_t first, const std::vector<Cells>& nodes)
      : first_node(first), count(static_cast<uint32_t>(nodes.size())) {
    for (const Cells& cells : nodes) {
      Put<uint8_t>(&present, cells.empty() ? 0 : 1);
      for (const auto& cell : cells) {
        Put<uint8_t>(&cell_counts, static_cast<uint8_t>(cell.size()));
        for (const auto& [rank, time] : cell) {
          Put<uint8_t>(&ranks, rank);
          Put<int64_t>(&times, time);
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

std::vector<Cells> CellsOfBlobs(std::vector<std::string>::const_iterator begin,
                                std::vector<std::string>::const_iterator end) {
  std::vector<Cells> nodes;
  for (auto it = begin; it != end; ++it) nodes.push_back(CellsOfBlob(*it));
  return nodes;
}

class CraftedV3IndexTest : public CraftedIndexTest {
 protected:
  void WriteV3Frames(const std::vector<std::string>& frames) const {
    SafeFileWriter writer(path_, kIndexFileType, kIndexFormatVersionV3);
    for (const std::string& frame : frames) {
      ASSERT_TRUE(writer.AppendFrame(frame));
    }
    ASSERT_TRUE(writer.Commit());
  }

  // Twelve random nodes (node 6 absent) in three 4-node chunks.
  void SetUp() override {
    CraftedIndexTest::SetUp();
    Rng rng(31);
    for (int i = 0; i < 12; ++i) {
      blobs_.push_back(i == 6 ? "" : RandomBlob(&rng));
    }
  }
  ChunkV3 Chunk(int k) const {
    return ChunkV3(4 * k, CellsOfBlobs(blobs_.begin() + 4 * k,
                                       blobs_.begin() + 4 * k + 4));
  }

  // Writes chunks 0 and 2 intact around `middle` and expects exactly
  // chunk 1's nodes to be dropped.
  void ExpectOnlyMiddleDropped(const std::string& middle,
                               const std::string& what) {
    SCOPED_TRACE(what);
    WriteV3Frames({HeaderFrame(12, 4), Chunk(0).Encode(), middle,
                   Chunk(2).Encode()});
    const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
    ASSERT_TRUE(result.usable());
    EXPECT_EQ(result.status, IndexLoadStatus::kDegraded);
    EXPECT_EQ(result.sections_total, 3u);
    EXPECT_EQ(result.sections_dropped, 1u);
    EXPECT_EQ(result.index->NumAllocatedSketches(), 8u);
    for (NodeId u = 0; u < 12; ++u) {
      ExpectNode(*result.index, u, u >= 4 && u < 8 ? "" : blobs_[u]);
      EXPECT_TRUE(result.index->arena()->CheckNodeInvariants(u));
    }
  }

  std::vector<std::string> blobs_;
};

TEST_F(CraftedV3IndexTest, CraftedFileLoadsExactly) {
  WriteV3Frames({HeaderFrame(12, 4), Chunk(0).Encode(), Chunk(1).Encode(),
                 Chunk(2).Encode()});
  const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  ASSERT_EQ(result.status, IndexLoadStatus::kOk);
  EXPECT_EQ(result.index->NumAllocatedSketches(), 11u);
  for (NodeId u = 0; u < 12; ++u) ExpectNode(*result.index, u, blobs_[u]);
}

TEST_F(CraftedV3IndexTest, HostileHeaderFailsCleanly) {
  WriteV3Frames({HeaderFrame(uint64_t{1} << 50, 256)});
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);
  WriteV3Frames({HeaderFrame(uint64_t{1} << 32, 0xffffffffu),
                 Chunk(0).Encode()});
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);
  // More chunks than the bytes after the header could frame.
  WriteV3Frames({HeaderFrame(256 * 1000, 256), Chunk(0).Encode()});
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);
}

// The payload must be exactly 20 + count + present x beta + 9 x entries
// bytes; any disagreement drops the chunk and nothing else.
TEST_F(CraftedV3IndexTest, PayloadLengthMustMatchItsCounts) {
  ChunkV3 more_entries = Chunk(1);
  ++more_entries.entries;
  ExpectOnlyMiddleDropped(more_entries.Encode(), "entries + 1");

  ChunkV3 fewer_entries = Chunk(1);
  --fewer_entries.entries;
  ExpectOnlyMiddleDropped(fewer_entries.Encode(), "entries - 1");

  ChunkV3 huge_entries = Chunk(1);
  huge_entries.entries = ~uint64_t{0} / 9 + 1;  // 9 x entries wraps
  ExpectOnlyMiddleDropped(huge_entries.Encode(), "entries overflow");

  ChunkV3 absent = Chunk(1);
  absent.present[0] = 0;  // one node fewer than the counts provide for
  ExpectOnlyMiddleDropped(absent.Encode(), "present flag cleared");

  ChunkV3 extra = Chunk(1);
  extra.present[2] = 1;  // node 6 claimed, but it has no counts
  ExpectOnlyMiddleDropped(extra.Encode(), "present flag set");

  ChunkV3 two = Chunk(1);
  two.present[0] = 2;  // not a flag
  ExpectOnlyMiddleDropped(two.Encode(), "present byte 2");

  ChunkV3 short_times = Chunk(1);
  short_times.times.pop_back();
  ExpectOnlyMiddleDropped(short_times.Encode(), "truncated times");

  ChunkV3 long_times = Chunk(1);
  long_times.times.push_back('\0');
  ExpectOnlyMiddleDropped(long_times.Encode(), "trailing byte");

  ExpectOnlyMiddleDropped(Chunk(1).Encode().substr(0, 19), "short prefix");

  ChunkV3 more_nodes = Chunk(1);
  ++more_nodes.count;
  more_nodes.present.push_back('\0');
  ExpectOnlyMiddleDropped(more_nodes.Encode(), "count + 1");
}

// Well-framed chunks whose contents break a vHLL invariant: only the
// append's checks catch these, and they drop exactly the chunk.
TEST_F(CraftedV3IndexTest, BadCellsDropExactlyTheirChunk) {
  std::vector<Cells> nodes = CellsOfBlobs(blobs_.begin() + 4,
                                          blobs_.begin() + 8);
  const auto with_node5_cell0 =
      [&](std::vector<std::pair<uint8_t, int64_t>> pairs) {
        std::vector<Cells> bad = nodes;
        bad[1][0] = std::move(pairs);
        return ChunkV3(4, bad);
      };
  // The good version of the edit loads: ranks may fall across cells.
  ChunkV3 good = with_node5_cell0({{60, 1}, {61, 1}, {62, 5}});
  WriteV3Frames({HeaderFrame(12, 4), Chunk(0).Encode(), good.Encode(),
                 Chunk(2).Encode()});
  ASSERT_EQ(LoadInfluenceIndexDetailed(path_).status, IndexLoadStatus::kOk);

  ChunkV3 sum_high = Chunk(1);
  ++sum_high.cell_counts[kCraftBeta + 3];  // counts sum to entries + 1
  ExpectOnlyMiddleDropped(sum_high.Encode(), "counts sum above entries");

  // The chunk's last cell claims one pair more than there is: only the
  // sum check sees it, as no pair moves to another cell.
  ChunkV3 last_high = Chunk(1);
  ++last_high.cell_counts.back();
  ExpectOnlyMiddleDropped(last_high.Encode(), "last cell above entries");

  // Same total, but every cell boundary after the first non-empty cell
  // moves back one pair. Whether that breaks an order or not, whatever
  // loads must hold the invariants.
  ChunkV3 sum_shifted = Chunk(1);
  for (char& n : sum_shifted.cell_counts) {
    if (n != 0) {
      --n;
      break;
    }
  }
  ++sum_shifted.cell_counts.back();
  WriteV3Frames({HeaderFrame(12, 4), Chunk(0).Encode(), sum_shifted.Encode(),
                 Chunk(2).Encode()});
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

TEST_F(CraftedV3IndexTest, MisplacedChunksAreDropped) {
  WriteV3Frames({HeaderFrame(12, 4), Chunk(0).Encode(), Chunk(0).Encode(),
                 Chunk(2).Encode()});
  IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
  ASSERT_TRUE(result.usable());
  EXPECT_EQ(result.sections_dropped, 1u);
  for (NodeId u = 0; u < 12; ++u) {
    ExpectNode(*result.index, u, u >= 4 && u < 8 ? "" : blobs_[u]);
  }

  WriteV3Frames({HeaderFrame(12, 4), Chunk(1).Encode(), Chunk(0).Encode(),
                 Chunk(2).Encode()});
  result = LoadInfluenceIndexDetailed(path_);
  ASSERT_TRUE(result.usable());
  EXPECT_EQ(result.sections_dropped, 2u);
  EXPECT_EQ(result.index->NumAllocatedSketches(), 4u);
  for (NodeId u = 0; u < 12; ++u) {
    ExpectNode(*result.index, u, u < 8 ? "" : blobs_[u]);
  }

  ChunkV3 wrapping = Chunk(1);
  wrapping.first_node = ~uint64_t{0} - 1;
  ExpectOnlyMiddleDropped(wrapping.Encode(), "wrapping first_node");

  // A v2 chunk in a v3 file is malformed, not reinterpreted.
  ExpectOnlyMiddleDropped(
      ChunkFrame(4, {blobs_.begin() + 4, blobs_.begin() + 8}), "v2 chunk");
}

// A version this loader does not know is refused whole.
TEST_F(CraftedIndexTest, UnknownVersionIsCorrupt) {
  SafeFileWriter writer(path_, kIndexFileType, 4);
  ASSERT_TRUE(writer.AppendFrame(HeaderFrame(0, 256)));
  ASSERT_TRUE(writer.Commit());
  EXPECT_EQ(LoadInfluenceIndexDetailed(path_).status,
            IndexLoadStatus::kCorrupt);
}

// Two sealed indexes agree on every query surface, byte for byte, and
// their arenas are the same size.
void ExpectSameIndex(const IrsApprox& want, const IrsApprox& got) {
  ASSERT_TRUE(want.sealed());
  ASSERT_TRUE(got.sealed());
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.window(), want.window());
  const SketchArena& a = *want.arena();
  const SketchArena& b = *got.arena();
  EXPECT_EQ(b.MemoryUsageBytes(), a.MemoryUsageBytes());
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
    std::string bytes_a, bytes_b;
    a.SerializeNode(u, &bytes_a);
    b.SerializeNode(u, &bytes_b);
    ASSERT_EQ(bytes_b, bytes_a) << "node " << u;
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
  }
}

// The oracle_io tally covers the reader's whole file buffer while loading.
TEST_F(OracleIoTest, LoadChargesTheWholeFileBuffer) {
  const InteractionGraph g = GenerateUniformRandomNetwork(300, 2000, 4000, 4);
  IrsApproxOptions options;
  options.precision = 6;
  const IrsApprox index = IrsApprox::Compute(g, 1000, options);
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  const size_t file_size = ReadFileBytes().size();

  obs::MemoryTally& tally = obs::GetMemoryTally("oracle_io");
  const int64_t before = tally.CurrentBytes();
  tally.ResetPeak();
  ASSERT_TRUE(LoadInfluenceIndexDetailed(path_).usable());
  EXPECT_GE(tally.PeakBytes() - before, static_cast<int64_t>(file_size));
  EXPECT_EQ(tally.CurrentBytes(), before);
}

// The version-2 encoding of a built index — crafted here, as nothing
// writes it any more — restores to exactly the arena the version-3 file
// does.
TEST_F(OracleIoTest, V2FileLoadsToTheSameArenaAsV3) {
  const InteractionGraph g = GenerateUniformRandomNetwork(700, 5000, 9000, 23);
  IrsApproxOptions options;
  options.precision = 6;
  options.salt = 5;
  IrsApprox built = IrsApprox::Compute(g, 2500, options);
  built.Seal();
  ASSERT_TRUE(SaveInfluenceIndex(built, path_));

  const std::string v2_path = path_ + ".v2";
  {
    SafeFileWriter writer(v2_path, kIndexFileType, kIndexFormatVersion);
    ASSERT_TRUE(writer.AppendFrame([&] {
      std::string frame;
      Put<int64_t>(&frame, built.window());
      Put<uint8_t>(&frame, static_cast<uint8_t>(options.precision));
      Put<uint64_t>(&frame, options.salt);
      Put<uint64_t>(&frame, built.num_nodes());
      Put<uint32_t>(&frame, 256);
      return frame;
    }()));
    for (uint64_t first = 0; first < built.num_nodes(); first += 256) {
      const uint64_t end = std::min<uint64_t>(first + 256, built.num_nodes());
      std::string frame;
      Put<uint64_t>(&frame, first);
      Put<uint32_t>(&frame, static_cast<uint32_t>(end - first));
      for (uint64_t u = first; u < end; ++u) {
        const SketchView sketch = built.Sketch(static_cast<NodeId>(u));
        Put<uint8_t>(&frame, sketch ? 1 : 0);
        if (sketch) sketch.Serialize(&frame);
      }
      ASSERT_TRUE(writer.AppendFrame(frame));
    }
    ASSERT_TRUE(writer.Commit());
  }

  const IndexLoadResult v3 = LoadInfluenceIndexDetailed(path_);
  const IndexLoadResult v2 = LoadInfluenceIndexDetailed(v2_path);
  std::remove(v2_path.c_str());
  ASSERT_EQ(v3.status, IndexLoadStatus::kOk);
  ASSERT_EQ(v2.status, IndexLoadStatus::kOk);
  EXPECT_EQ(v2.sections_total, v3.sections_total);
  ExpectSameIndex(*v3.index, *v2.index);
  ExpectSameIndex(built, *v3.index);
  for (NodeId u = 0; u < built.num_nodes(); ++u) {
    EXPECT_EQ(v2.index->EstimateIrsSize(u), v3.index->EstimateIrsSize(u));
  }
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

}  // namespace
}  // namespace ipin
