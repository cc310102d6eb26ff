// Robustness fuzzing of the text/binary parsers: random byte soup must
// never crash the loaders — they either parse or cleanly return nullopt.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/json.h"
#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/common/safe_io.h"
#include "ipin/core/checkpoint.h"
#include "ipin/core/oracle_io.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/graph/graph_io.h"
#include "ipin/obs/ledger.h"
#include "ipin/serve/protocol.h"
#include "ipin/serve/shard_map.h"
#include "ipin/sketch/sketch_arena.h"
#include "ipin/sketch/vhll.h"
#include "test_util.h"

namespace ipin {
namespace {

class IoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ipin_fuzz_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    SetLogLevel(LogLevel::kError);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

std::string RandomBytes(Rng* rng, size_t length, bool printable) {
  std::string s;
  s.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    if (printable) {
      // Digits, whitespace, minus signs, newlines — parser-adjacent soup.
      static const char kAlphabet[] = "0123456789 -\t\n#%abcxyz.";
      s.push_back(kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)]);
    } else {
      s.push_back(static_cast<char>(rng->NextUint64() & 0xff));
    }
  }
  return s;
}

TEST_F(IoFuzzTest, EdgeListLoaderSurvivesTextSoup) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    WriteBytes(RandomBytes(&rng, 1 + rng.NextBounded(2000), true));
    const auto result = LoadInteractionsFromFile(path_);
    if (result.has_value()) {
      EXPECT_TRUE(result->is_sorted());  // contract holds when it parses
    }
  }
}

TEST_F(IoFuzzTest, EdgeListLoaderSurvivesBinarySoup) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    WriteBytes(RandomBytes(&rng, 1 + rng.NextBounded(4000), false));
    (void)LoadInteractionsFromFile(path_);  // must not crash
  }
}

TEST_F(IoFuzzTest, IndexLoaderSurvivesBinarySoup) {
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    std::string soup;
    if (trial % 3 == 0) soup += "IPINIDX1";  // the retired version-1 magic
    soup += RandomBytes(&rng, 1 + rng.NextBounded(3000), false);
    WriteBytes(soup);
    EXPECT_FALSE(LoadInfluenceIndexDetailed(path_).index.has_value());
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// A hostile file the loader accepted is a fixed point: the loaded index
// saves to `scratch`, reloads whole to the same rows, entry counts and
// estimates, and saves again to the same bytes.
void ExpectReSavesToAFixedPoint(const IrsApprox& loaded,
                                const std::string& scratch) {
  ASSERT_TRUE(SaveInfluenceIndex(loaded, scratch));
  const std::string saved = ReadFile(scratch);
  const IndexLoadResult again = LoadInfluenceIndexDetailed(scratch);
  ASSERT_EQ(again.status, IndexLoadStatus::kOk);
  ASSERT_EQ(again.index->num_nodes(), loaded.num_nodes());
  for (NodeId u = 0; u < loaded.num_nodes(); ++u) {
    ASSERT_EQ(again.index->arena()->has_node(u), loaded.arena()->has_node(u))
        << "node " << u;
    ASSERT_EQ(again.index->EstimateIrsSize(u), loaded.EstimateIrsSize(u))
        << "node " << u;
    ASSERT_EQ(RowOf(*again.index->arena(), u), RowOf(*loaded.arena(), u))
        << "node " << u;
  }
  ASSERT_TRUE(SaveInfluenceIndex(*again.index, scratch));
  EXPECT_EQ(ReadFile(scratch), saved);
  std::remove(scratch.c_str());
}

// Randomized corruption of a *valid* saved index: for every bit flip or
// truncation, the load must either reject the file or serve only sections
// whose checksums verify — a node estimate is the saved value or 0 (its
// section was dropped), never silently-wrong data.
TEST_F(IoFuzzTest, SavedIndexSurvivesRandomCorruption) {
  const InteractionGraph g = GenerateUniformRandomNetwork(300, 900, 2000, 21);
  const IrsApprox index = IrsApprox::Compute(g, 100, {/*precision=*/4});
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  std::string pristine;
  {
    std::ifstream in(path_, std::ios::binary);
    pristine.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }

  Rng rng(6);
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = pristine;
    if (trial % 2 == 0) {
      corrupted[rng.NextBounded(corrupted.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
    } else {
      corrupted.resize(rng.NextBounded(corrupted.size()));
    }
    WriteBytes(corrupted);

    const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
    if (!result.usable()) continue;  // clean rejection is always fine
    ASSERT_EQ(result.index->num_nodes(), index.num_nodes()) << trial;
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ExpectReSavesToAFixedPoint(*result.index, path_ + ".again");
    for (NodeId u = 0; u < index.num_nodes(); ++u) {
      const double got = result.index->EstimateIrsSize(u);
      const double want = index.EstimateIrsSize(u);
      EXPECT_TRUE(got == want || got == 0.0)
          << "trial " << trial << " node " << u << ": silently-wrong estimate "
          << got << " (saved " << want << ")";
    }
  }
}

// One to three random edits of a chunk payload, stopping once it is empty:
// overwrite a byte, add one to a byte (counts and ranks stay plausible),
// cut the payload, or drop a byte.
void EditChunk(Rng* rng, std::string* chunk) {
  const size_t edits = 1 + rng->NextBounded(3);
  for (size_t e = 0; e < edits && !chunk->empty(); ++e) {
    const size_t pos = rng->NextBounded(chunk->size());
    switch (rng->NextBounded(4)) {
      case 0:
        (*chunk)[pos] = static_cast<char>(rng->NextUint64());
        break;
      case 1:
        (*chunk)[pos] = static_cast<char>((*chunk)[pos] + 1);
        break;
      case 2:
        chunk->resize(pos);
        break;
      default:
        chunk->erase(pos, 1);
        break;
    }
  }
}

// Files from SaveInfluenceIndex under two kinds of damage: byte
// flips and truncation of the file (which the frame CRCs catch), and
// hostile chunk payloads re-framed with valid CRCs (which only the chunk's
// own checks can catch). Every load ends in a clean status, every node
// the loaded arena holds has a row a VersionedHll can hold, and every
// accepted file re-saves to a fixed point; nodes outside the damaged chunk
// are exactly as saved.
TEST_F(IoFuzzTest, SavedIndexSurvivesFlipsAndHostileChunks) {
  constexpr uint32_t kIndexFileType = 0x58444949;  // "IIDX"
  const InteractionGraph g = GenerateUniformRandomNetwork(700, 3000, 4000, 24);
  IrsApprox index = IrsApprox::Compute(g, 400, {/*precision=*/4});
  index.Seal();
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  std::string pristine;
  {
    std::ifstream in(path_, std::ios::binary);
    pristine.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path_, kIndexFileType), SafeOpenStatus::kOk);
  const uint32_t version = reader.version();
  std::vector<std::string> frames;
  std::string_view payload;
  while (reader.ReadFrame(&payload) == FrameStatus::kOk) {
    frames.emplace_back(payload);
  }
  ASSERT_EQ(frames.size(), 4u);  // header + three chunks

  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    size_t damaged = 0;  // chunk frame edited, 0 = none (file-level damage)
    if (trial % 4 == 0) {
      std::string corrupted = pristine;
      corrupted[rng.NextBounded(corrupted.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
      WriteBytes(corrupted);
    } else if (trial % 4 == 1) {
      WriteBytes(pristine.substr(0, rng.NextBounded(pristine.size())));
    } else {
      std::vector<std::string> edited = frames;
      damaged = 1 + rng.NextBounded(frames.size() - 1);
      EditChunk(&rng, &edited[damaged]);
      SafeFileWriter writer(path_, kIndexFileType, version);
      for (const std::string& frame : edited) {
        ASSERT_TRUE(writer.AppendFrame(frame));
      }
      ASSERT_TRUE(writer.Commit());
    }

    const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
    const bool usable_status = result.status == IndexLoadStatus::kOk ||
                               result.status == IndexLoadStatus::kDegraded;
    ASSERT_EQ(result.usable(), usable_status) << trial;
    if (!result.usable()) continue;
    ASSERT_LE(result.sections_dropped, result.sections_total) << trial;
    ASSERT_EQ(result.index->num_nodes(), index.num_nodes()) << trial;
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ExpectReSavesToAFixedPoint(*result.index, path_ + ".again");
    const SketchArena& arena = *result.index->arena();
    for (NodeId u = 0; u < index.num_nodes(); ++u) {
      ASSERT_TRUE(arena.CheckNodeInvariants(u))
          << "trial " << trial << " node " << u;
      const double got = result.index->EstimateIrsSize(u);
      const double want = index.EstimateIrsSize(u);
      if (damaged != 0 && u / 256 == damaged - 1) continue;
      EXPECT_TRUE(got == want || got == 0.0)
          << "trial " << trial << " node " << u << ": silently-wrong estimate "
          << got << " (saved " << want << ")";
      if (damaged != 0) {
        EXPECT_EQ(got, want) << trial;
      }
    }
  }
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Every file in `dir`, as (path, bytes).
std::vector<std::pair<std::string, std::string>> ReadDir(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.emplace_back(entry.path().string(), ReadFile(entry.path().string()));
  }
  return files;
}

// Runs `trials` rounds over the checkpoints in `dir`: restore every file,
// damage a random subset (a bit flip or a truncation each), then call
// `resume(trial)`.
template <typename Resume>
void DamageCheckpointsAndResume(const std::string& dir, uint64_t seed,
                                int trials, Resume resume) {
  auto pristine = ReadDir(dir);
  ASSERT_FALSE(pristine.empty());
  Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    for (const auto& [p, bytes] : pristine) WriteFile(p, bytes);
    for (const auto& [p, bytes] : pristine) {
      if (rng.NextBounded(2) == 0) continue;
      std::string corrupted = bytes;
      if (rng.NextBounded(2) == 0) {
        corrupted[rng.NextBounded(corrupted.size())] ^=
            static_cast<char>(1u << rng.NextBounded(8));
      } else {
        corrupted.resize(rng.NextBounded(corrupted.size()));
      }
      WriteFile(p, corrupted);
    }
    resume(trial);
    // The rerun may have rewritten checkpoints; re-list for the next round.
    pristine = ReadDir(dir);
  }
}

// Bit-identical comparison of two approx builds: the same nodes hold
// sketches, with the same cells.
void ExpectSameSketches(const IrsApprox& got, const IrsApprox& want,
                        int trial) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << trial;
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    ASSERT_EQ(BuildCellsOf(got, u), BuildCellsOf(want, u))
        << "trial " << trial << " node " << u;
  }
}

// Randomized corruption of checkpoint files: a resumed build must never
// crash and must always end bit-identical to an uninterrupted run (a
// damaged checkpoint is skipped, worst case falling back to a fresh scan).
TEST_F(IoFuzzTest, CheckpointResumeSurvivesRandomCorruption) {
  const std::string dir = path_ + ".ckpt";
  // 600 nodes make three sketch chunks per file.
  const InteractionGraph big = GenerateUniformRandomNetwork(600, 1200, 900, 23);
  const IrsApproxOptions sketch{/*precision=*/4, /*salt=*/5};
  const IrsApprox want_approx = IrsApprox::Compute(big, 90, sketch);
  const CheckpointOptions approx_options{dir, /*every_edges=*/250,
                                         /*keep=*/3};
  (void)ComputeIrsApproxCheckpointed(big, 90, sketch, approx_options);
  DamageCheckpointsAndResume(dir, 8, 30, [&](int trial) {
    const IrsApprox got =
        ComputeIrsApproxCheckpointed(big, 90, sketch, approx_options);
    ExpectSameSketches(got, want_approx, trial);
  });
  std::filesystem::remove_all(dir);
}

// Hostile sketch chunks re-framed with valid CRCs, which only the chunk's
// own checks can catch, in the only checkpoint there is. Resuming must not
// crash. A chunk that fails its checks makes the build skip the
// checkpoint and end bit-identical to an uninterrupted run; one that
// passes them yields sketches that hold the vHLL invariants.
TEST_F(IoFuzzTest, ApproxCheckpointSurvivesHostileChunks) {
  constexpr uint32_t kCheckpointFileType = 0x504b4349;  // "ICKP"
  const InteractionGraph g = GenerateUniformRandomNetwork(600, 1200, 900, 25);
  const IrsApproxOptions sketch{/*precision=*/4, /*salt=*/5};
  const IrsApprox want = IrsApprox::Compute(g, 90, sketch);
  const std::string dir = path_ + ".ckpt";
  const CheckpointOptions options{dir, /*every_edges=*/1000, /*keep=*/1};
  (void)ComputeIrsApproxCheckpointed(g, 90, sketch, options);
  const auto files = ReadDir(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string& path = files[0].first;

  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path, kCheckpointFileType), SafeOpenStatus::kOk);
  const uint32_t version = reader.version();
  std::vector<std::string> frames;
  std::string_view payload;
  while (reader.ReadFrame(&payload) == FrameStatus::kOk) {
    frames.emplace_back(payload);
  }
  ASSERT_EQ(frames.size(), 4u);  // meta + three chunks

  Rng rng(10);
  size_t skipped = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::string> edited = frames;
    EditChunk(&rng, &edited[1 + rng.NextBounded(frames.size() - 1)]);
    {
      SafeFileWriter writer(path, kCheckpointFileType, version);
      for (const std::string& frame : edited) {
        ASSERT_TRUE(writer.AppendFrame(frame));
      }
      ASSERT_TRUE(writer.Commit());
    }

    CheckpointStats stats;
    const IrsApprox got =
        ComputeIrsApproxCheckpointed(g, 90, sketch, options, &stats);
    if (stats.invalid_checkpoints_skipped == 1) {
      ++skipped;
      ExpectSameSketches(got, want, trial);
    } else {
      ASSERT_EQ(stats.resumed_edges, 1000u) << trial;
      for (const PartStore& store : got.build_stores()) {
        ASSERT_TRUE(store.CheckInvariants()) << "trial " << trial;
      }
      for (NodeId u = 0; u < got.num_nodes(); ++u) {
        ASSERT_TRUE(got.arena()->CheckNodeInvariants(u))
            << "trial " << trial << " node " << u;
      }
    }
  }
  EXPECT_GT(skipped, 50u);
  EXPECT_LT(skipped, 100u);  // some edits pass every check
  std::filesystem::remove_all(dir);
}

// The frames of the framed file at `path`, and its version.
std::vector<std::string> ReadFrames(const std::string& path, uint32_t type,
                                    uint32_t* version) {
  SafeFileReader reader;
  EXPECT_EQ(reader.Open(path, type), SafeOpenStatus::kOk);
  *version = reader.version();
  std::vector<std::string> frames;
  std::string_view payload;
  while (reader.ReadFrame(&payload) == FrameStatus::kOk) {
    frames.emplace_back(payload);
  }
  return frames;
}

void WriteFrames(const std::string& path, uint32_t type, uint32_t version,
                 const std::vector<std::string>& frames) {
  SafeFileWriter writer(path, type, version);
  for (const std::string& frame : frames) {
    ASSERT_TRUE(writer.AppendFrame(frame));
  }
  ASSERT_TRUE(writer.Commit());
}

// A checkpoint's sketch chunk (checkpoint.cc; layout: test_util.h,
// ChunkLayout) of sketches with 2^precision cells, its time offsets (in
// `from`) re-encoded as the low `width` bytes of each time minus `base`.
// At width 8 and base 0 these are the i64 times of the retired formats.
std::string ReencodeTimes(const std::string& chunk, int precision,
                          const TimeEncoding& from, size_t width,
                          int64_t base) {
  const ChunkLayout layout = LayoutOf(chunk, precision);
  std::string out = chunk.substr(0, layout.times_at);
  const auto* offsets =
      reinterpret_cast<const uint8_t*>(chunk.data()) + layout.times_at;
  for (size_t i = 0; i < layout.pairs; ++i) {
    const uint64_t offset = static_cast<uint64_t>(from.Decode(offsets, i)) -
                            static_cast<uint64_t>(base);
    out.append(reinterpret_cast<const char*>(&offset), width);
  }
  return out;
}

constexpr uint32_t kIndexType = 0x58444949;       // "IIDX"
constexpr uint32_t kCheckpointType = 0x504b4349;  // "ICKP"
// Files of the retired index versions 3, 4 and 5 are refused whole, and
// the error says to rebuild the index. Their frames here are today's,
// relabelled, so only the version check can tell.
TEST_F(IoFuzzTest, RetiredIndexVersionsLoadAsCorruptWithTheRebuildMessage) {
  const InteractionGraph g = GenerateUniformRandomNetwork(700, 3000, 4000, 24);
  IrsApprox index = IrsApprox::Compute(g, 400, {/*precision=*/4});
  index.Seal();
  ASSERT_TRUE(SaveInfluenceIndex(index, path_));
  uint32_t version = 0;
  const std::vector<std::string> frames =
      ReadFrames(path_, kIndexType, &version);
  ASSERT_EQ(version, 6u);
  for (const uint32_t retired : {3u, 4u, 5u}) {
    SCOPED_TRACE(testing::Message() << "version " << retired);
    WriteFrames(path_, kIndexType, retired, frames);
    std::vector<std::string> errors;
    SetLogSink([&errors](LogLevel level, const std::string& message) {
      if (level == LogLevel::kError) errors.push_back(message);
    });
    const IndexLoadResult result = LoadInfluenceIndexDetailed(path_);
    SetLogSink(nullptr);
    EXPECT_EQ(result.status, IndexLoadStatus::kCorrupt);
    EXPECT_FALSE(result.usable());
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("version " + std::to_string(retired) +
                             " is not read"),
              std::string::npos)
        << errors[0];
    EXPECT_NE(errors[0].find("rebuild it with ipin_cli build-index"),
              std::string::npos)
        << errors[0];
  }
}

// A well-formed version-3 checkpoint is skipped, and the build runs fresh
// to the uninterrupted result. It is today's checkpoint at edge 50 of
// 1,200, before any sketch retires or collapses, written out in the
// version-3 layout: a meta frame with the algorithm byte, the last scanned
// time, the saw-interaction byte and four tallies, and chunks of u64
// first, u32 count, u64 entries, present[count], cell counts[present x
// beta], ranks[entries] and time offsets[entries].
TEST_F(IoFuzzTest, V3CheckpointIsSkippedCleanly) {
  const InteractionGraph g = GenerateUniformRandomNetwork(600, 1200, 900, 25);
  const IrsApproxOptions sketch{/*precision=*/4, /*salt=*/5};
  const std::string dir = path_ + ".ckpt";
  const CheckpointOptions options{dir, /*every_edges=*/50, /*keep=*/30};
  (void)ComputeIrsApproxCheckpointed(g, 90, sketch, options);
  const std::string path = dir + "/ckpt_approx_00000000000000000050.ipinckpt";
  uint32_t version = 0;
  std::vector<std::string> frames = ReadFrames(path, kCheckpointType, &version);
  ASSERT_EQ(version, 4u);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Meta: i64 window ... u64 salt (41 bytes), u64 edges, u32 chunk size,
  // u64 edges scanned, u64 merges, i64 base, u8 width.
  const std::string& meta = frames[0];
  ASSERT_EQ(meta.size(), 41u + 8 + 4 + 8 + 8 + 9);
  const auto raw = [](auto value) {
    return std::string(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  const int64_t last_time = g.interactions()[1150].time;
  std::string v3_meta = std::string(1, '\x02') + meta.substr(0, 49) +
                        raw(last_time) + std::string(1, '\x01') +
                        meta.substr(49, 4) + meta.substr(53, 16) +
                        raw(uint64_t{0}) + raw(uint64_t{0}) +
                        meta.substr(69, 9);
  std::vector<std::string> v3_frames = {v3_meta};
  for (size_t k = 1; k < frames.size(); ++k) {
    const std::string& chunk = frames[k];
    const ChunkLayout layout = LayoutOf(chunk, 4);
    ASSERT_EQ(layout.ranks, layout.pairs);  // nothing retired yet
    std::string present;
    std::string counts;
    for (uint32_t i = 0; i < layout.count; ++i) {
      ASSERT_LE(static_cast<uint8_t>(chunk[28 + i]), 1);  // none collapsed
      present += chunk[28 + i];
      if (layout.blocks[i] != 0) counts += chunk.substr(layout.blocks[i], 16);
    }
    v3_frames.push_back(chunk.substr(0, 12) + raw(layout.pairs) + present +
                        counts + chunk.substr(layout.ranks_at));
  }
  WriteFrames(path, kCheckpointType, 3, v3_frames);

  CheckpointStats stats;
  const IrsApprox got =
      ComputeIrsApproxCheckpointed(g, 90, sketch, {dir, 1000, 1}, &stats);
  EXPECT_EQ(stats.invalid_checkpoints_skipped, 1u);
  EXPECT_EQ(stats.resumed_edges, 0u);
  ExpectSameSketches(got, IrsApprox::Compute(g, 90, sketch), 0);
  std::filesystem::remove_all(dir);
}

// CRC-valid approx checkpoints whose times lie outside the resuming build's
// time encoding (u32 offsets from the log's earliest time): one claims u32
// offsets from a base 2^33 below it, one u64 offsets that decode 2^40
// above the log's times. No scan of this graph wrote them, so resume skips
// each cleanly, without a CHECK, and the build saves an index
// byte-identical to an uninterrupted one's.
TEST_F(IoFuzzTest, CheckpointTimesOutsideTheBuildEncodingAreSkipped) {
  const InteractionGraph g = GenerateUniformRandomNetwork(600, 1200, 900, 25);
  const IrsApproxOptions sketch{/*precision=*/4, /*salt=*/5};
  IrsApprox want = IrsApprox::Compute(g, 90, sketch);
  const TimeEncoding build_times = want.time_encoding();
  want.Seal();
  ASSERT_TRUE(SaveInfluenceIndex(want, path_));
  const std::string want_bytes = ReadFile(path_);
  const std::string dir = path_ + ".ckpt";
  const CheckpointOptions options{dir, /*every_edges=*/1000, /*keep=*/1};
  (void)ComputeIrsApproxCheckpointed(g, 90, sketch, options);
  const auto files = ReadDir(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string& path = files[0].first;
  uint32_t version = 0;
  const std::vector<std::string> frames =
      ReadFrames(path, kCheckpointType, &version);
  ASSERT_EQ(frames.size(), 4u);  // meta + three chunks
  // The meta frame ends with the chunks' i64 base time and u8 width.
  const std::string& meta = frames[0];
  TimeEncoding times;
  std::memcpy(&times.base, meta.data() + meta.size() - 9, sizeof(times.base));
  times.width = static_cast<uint8_t>(meta.back());
  ASSERT_EQ(times.width, 4);
  ASSERT_EQ(times, build_times);

  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const TimeEncoding below{times.base - (int64_t{1} << 33), 4};
  const TimeEncoding wide;
  for (const TimeEncoding& hostile : {below, wide}) {
    SCOPED_TRACE(testing::Message() << "width " << int{hostile.width});
    std::vector<std::string> edited = frames;
    std::memcpy(edited[0].data() + meta.size() - 9, &hostile.base,
                sizeof(hostile.base));
    edited[0].back() = static_cast<char>(hostile.width);
    if (hostile.width == 8) {
      // Offsets from INT64_MIN - 2^40 (mod 2^64): read from INT64_MIN,
      // each decodes to its time plus 2^40.
      const auto shifted = static_cast<int64_t>(static_cast<uint64_t>(kMin) -
                                                (uint64_t{1} << 40));
      for (size_t k = 1; k < frames.size(); ++k) {
        edited[k] = ReencodeTimes(frames[k], 4, times, 8, shifted);
      }
    }
    WriteFrames(path, kCheckpointType, version, edited);

    CheckpointStats stats;
    const IrsApprox got =
        ComputeIrsApproxCheckpointed(g, 90, sketch, options, &stats);
    EXPECT_EQ(stats.invalid_checkpoints_skipped, 1u);
    EXPECT_EQ(stats.resumed_edges, 0u);
    ASSERT_TRUE(SaveInfluenceIndex(got, path_));
    EXPECT_EQ(ReadFile(path_), want_bytes);
  }
  std::filesystem::remove_all(dir);
}

// A checkpoint's sketch chunk of sketches with 2^precision cells and
// `width`-byte time offsets, with live node `u` made absent (its block,
// ranks and times cut out) or, when it is absent, live with empty cells.
std::string ToggleNode(const std::string& chunk, int precision, size_t width,
                       NodeId u) {
  const size_t beta = size_t{1} << precision;
  const ChunkLayout layout = LayoutOf(chunk, precision);
  const size_t local = u - layout.first;
  // u's ranks and times follow those of the live nodes before it.
  size_t rank = 0;
  size_t pair = 0;
  size_t block = layout.ranks_at;  // where u's block is, or would go
  for (size_t i = 0; i < layout.count; ++i) {
    if (layout.blocks[i] == 0) continue;
    if (i >= local) {
      block = layout.blocks[i];
      break;
    }
    if (chunk[28 + i] != 1) continue;
    for (size_t c = 0; c < beta; ++c) {
      const auto live = static_cast<uint8_t>(chunk[layout.blocks[i] + c]);
      const auto retired =
          static_cast<uint8_t>(chunk[layout.blocks[i] + beta + c]);
      rank += live + retired;
      pair += live;
    }
  }
  std::string out = chunk;
  uint64_t ranks = layout.ranks;
  uint64_t pairs = layout.pairs;
  if (chunk[28 + local] == 1) {
    size_t n_ranks = 0;
    size_t n_pairs = 0;
    for (size_t c = 0; c < beta; ++c) {
      const auto live = static_cast<uint8_t>(chunk[block + c]);
      n_ranks += live + static_cast<uint8_t>(chunk[block + beta + c]);
      n_pairs += live;
    }
    out.erase(layout.times_at + pair * width, n_pairs * width);
    out.erase(layout.ranks_at + rank, n_ranks);
    out.erase(block, 2 * beta);
    out[28 + local] = 0;
    ranks -= n_ranks;
    pairs -= n_pairs;
  } else {
    out.insert(block, 2 * beta, '\0');
    out[28 + local] = 1;
  }
  std::memcpy(out.data() + 12, &ranks, sizeof(ranks));
  std::memcpy(out.data() + 20, &pairs, sizeof(pairs));
  return out;
}

// CRC-valid approx checkpoints at edge 1000 of 1200 whose well-formed
// chunks hold another set of sketches than the scan held there: one lacks
// the sketch of a node that sends both among the scanned edges and among
// the 200 left, one holds a sketch for a node that sends only among the
// 200 left. Resume skips each, and the build saves the uninterrupted
// index's bytes.
TEST_F(IoFuzzTest, CheckpointWithAnotherSketchSetIsSkipped) {
  const InteractionGraph g = GenerateUniformRandomNetwork(600, 1200, 900, 25);
  const IrsApproxOptions sketch{/*precision=*/4, /*salt=*/5};
  ASSERT_TRUE(SaveInfluenceIndex(IrsApprox::Compute(g, 90, sketch), path_));
  const std::string want_bytes = ReadFile(path_);
  const std::string dir = path_ + ".ckpt";
  const CheckpointOptions options{dir, /*every_edges=*/1000, /*keep=*/1};
  (void)ComputeIrsApproxCheckpointed(g, 90, sketch, options);
  const auto files = ReadDir(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string& path = files[0].first;
  uint32_t version = 0;
  const std::vector<std::string> frames =
      ReadFrames(path, kCheckpointType, &version);
  ASSERT_EQ(frames.size(), 4u);  // meta + three chunks of 256 nodes
  const size_t width = static_cast<uint8_t>(frames[0].back());

  const auto edges = g.interactions();
  std::vector<bool> sends_scanned(g.num_nodes(), false);
  std::vector<bool> sends_left(g.num_nodes(), false);
  for (size_t i = 0; i < edges.size(); ++i) {
    (i < 200 ? sends_left : sends_scanned)[edges[i].src] = true;
  }
  std::vector<NodeId> toggled;
  for (const bool scanned : {true, false}) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (sends_left[u] && sends_scanned[u] == scanned &&
          (!scanned || frames[1 + u / 256][28 + u % 256] == 1)) {
        toggled.push_back(u);
        break;
      }
    }
  }
  ASSERT_EQ(toggled.size(), 2u);
  for (const NodeId u : toggled) {
    SCOPED_TRACE(testing::Message() << "node " << u);
    std::vector<std::string> edited = frames;
    std::string& chunk = edited[1 + u / 256];
    chunk = ToggleNode(chunk, 4, width, u);
    // Still well formed: 28 + count + blocks + ranks + width x pairs bytes.
    const ChunkLayout layout = LayoutOf(chunk, 4);
    ASSERT_EQ(chunk.size(), layout.times_at + layout.pairs * width);
    WriteFrames(path, kCheckpointType, version, edited);

    CheckpointStats stats;
    const IrsApprox got =
        ComputeIrsApproxCheckpointed(g, 90, sketch, options, &stats);
    EXPECT_EQ(stats.invalid_checkpoints_skipped, 1u);
    EXPECT_EQ(stats.resumed_edges, 0u);
    ASSERT_TRUE(SaveInfluenceIndex(got, path_));
    EXPECT_EQ(ReadFile(path_), want_bytes);
  }
  std::filesystem::remove_all(dir);
}

// CRC-valid approx checkpoints whose chunk breaks one check of the restore
// and that nothing else catches, in the only checkpoint there is (edge
// 1000 of 1200, so it holds live nodes with retired ranks and collapsed
// ones):
// - a live list ending in rank 200 (above 65 - precision, still strictly
//   ascending);
// - a live list whose second time precedes its first (a time the build's
//   encoding holds);
// - a live list whose second time equals its first;
// - a live list whose second rank equals its first (not ascending);
// - live counts summing to one pair fewer than the chunk's (the last list
//   loses its last pair), or one more (the first list claims a pair of the
//   next);
// - a header claiming one pair more than the chunk holds;
// - a node's form byte of 3;
// - a live node's form byte swapped with an absent neighbour's, so the
//   runs are whole but a node the scan has not reached holds a sketch;
// - a collapsed row with a rank above MaxRank;
// - a collapsed entry count above 64 x beta;
// - a retired rank not above its cell's last live rank;
// - a cell whose live and retired counts add up to more than 64.
// Each edit keeps the chunk's length. The restore checks a whole chunk
// before it places a node in a worker store, so resume skips each cleanly,
// without a CHECK, and the build saves the uninterrupted index's bytes.
TEST_F(IoFuzzTest, CheckpointChunkBreakingAnInvariantIsSkipped) {
  const InteractionGraph g = GenerateUniformRandomNetwork(600, 1200, 900, 25);
  const IrsApproxOptions sketch{/*precision=*/4, /*salt=*/5};
  ASSERT_TRUE(SaveInfluenceIndex(IrsApprox::Compute(g, 90, sketch), path_));
  const std::string want_bytes = ReadFile(path_);
  const std::string dir = path_ + ".ckpt";
  const CheckpointOptions options{dir, /*every_edges=*/1000, /*keep=*/1};
  (void)ComputeIrsApproxCheckpointed(g, 90, sketch, options);
  const auto files = ReadDir(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string& path = files[0].first;
  uint32_t version = 0;
  const std::vector<std::string> frames =
      ReadFrames(path, kCheckpointType, &version);
  ASSERT_EQ(frames.size(), 4u);  // meta + three chunks of 256 nodes
  ASSERT_EQ(frames[0].back(), 4);  // u32 time offsets

  // Chunk 1, and per cell of its live nodes: where its live count, retired
  // count, first rank and first time offset are (test_util.h, ChunkLayout).
  const std::string& chunk = frames[1];
  const ChunkLayout layout = LayoutOf(chunk, 4);
  struct Cell {
    size_t count_at, retired_at, rank, pair;
    uint8_t live, retired;
  };
  std::vector<Cell> cells;
  std::vector<size_t> collapsed;  // blocks of the collapsed nodes
  size_t rank = 0;
  size_t pair = 0;
  for (uint32_t i = 0; i < layout.count; ++i) {
    if (chunk[28 + i] == 2) collapsed.push_back(layout.blocks[i]);
    if (chunk[28 + i] != 1) continue;
    for (size_t c = 0; c < 16; ++c) {
      Cell cell{layout.blocks[i] + c, layout.blocks[i] + 16 + c, 0, 0,
                static_cast<uint8_t>(chunk[layout.blocks[i] + c]),
                static_cast<uint8_t>(chunk[layout.blocks[i] + 16 + c])};
      cell.rank = rank;
      cell.pair = pair;
      rank += cell.live + cell.retired;
      pair += cell.live;
      cells.push_back(cell);
    }
  }
  ASSERT_EQ(rank, layout.ranks);
  ASSERT_EQ(pair, layout.pairs);
  ASSERT_FALSE(collapsed.empty());
  const auto offset_at = [&](size_t at) {
    uint32_t offset = 0;
    std::memcpy(&offset, chunk.data() + layout.times_at + 4 * at, 4);
    return offset;
  };
  const auto find = [&](auto pred) {
    const auto it = std::find_if(cells.begin(), cells.end(), pred);
    EXPECT_NE(it, cells.end());
    return it == cells.end() ? cells.front() : *it;
  };

  std::vector<std::pair<std::string, std::string>> edits;
  edits.reserve(16);
  {
    std::string edited = chunk;
    const Cell c = find([](const Cell& c) { return c.live > 0; });
    edited[layout.ranks_at + c.rank + c.live - 1] = static_cast<char>(200);
    edits.emplace_back("rank 200", edited);
  }
  {
    // The first list of two or more live pairs whose first time is above
    // the encoding's base: its second time becomes the first minus one.
    std::string edited = chunk;
    const Cell c = find([&](const Cell& c) {
      return c.live >= 2 && offset_at(c.pair) > 0;
    });
    const uint32_t earlier = offset_at(c.pair) - 1;
    std::memcpy(edited.data() + layout.times_at + 4 * (c.pair + 1), &earlier,
                4);
    edits.emplace_back("descending times", edited);
  }
  {
    std::string edited = chunk;
    const Cell c = find([](const Cell& c) { return c.live >= 2; });
    std::memcpy(edited.data() + layout.times_at + 4 * (c.pair + 1),
                chunk.data() + layout.times_at + 4 * c.pair, 4);
    edits.emplace_back("equal times", edited);
  }
  {
    std::string edited = chunk;
    const Cell c = find([](const Cell& c) { return c.live >= 2; });
    edited[layout.ranks_at + c.rank + 1] = edited[layout.ranks_at + c.rank];
    edits.emplace_back("equal live ranks", edited);
  }
  {
    std::string edited = chunk;
    const Cell c = find([](const Cell& c) { return c.live > 0; });
    ++edited[c.count_at];
    edits.emplace_back("counts sum above pairs", edited);
  }
  {
    // The header's pair count one above, with the chunk's length: the
    // sizes no longer add up.
    std::string edited = chunk;
    const uint64_t pairs = layout.pairs + 1;
    std::memcpy(edited.data() + 20, &pairs, 8);
    edits.emplace_back("header pairs one above", edited);
  }
  {
    std::string edited = chunk;
    size_t live = 0;
    while (live + 1 < layout.count &&
           (chunk[28 + live] != 1 || chunk[28 + live + 1] != 0)) {
      ++live;
    }
    ASSERT_LT(live + 1, layout.count);
    std::swap(edited[28 + live], edited[28 + live + 1]);
    edits.emplace_back("live form on a node the scan has not reached",
                       edited);
  }
  {
    std::string edited = chunk;
    const Cell c = *std::find_if(cells.rbegin(), cells.rend(),
                                 [](const Cell& c) { return c.live > 0; });
    --edited[c.count_at];
    edits.emplace_back("counts sum below pairs", edited);
  }
  {
    std::string edited = chunk;
    size_t i = 0;
    while (layout.blocks[i] == 0) ++i;
    edited[28 + i] = 3;
    edits.emplace_back("form 3", edited);
  }
  {
    std::string edited = chunk;
    edited[collapsed[0]] = static_cast<char>(VersionedHll::MaxRank(4) + 1);
    edits.emplace_back("collapsed rank above MaxRank", edited);
  }
  {
    std::string edited = chunk;
    const uint32_t entries = 64 * 16 + 1;
    std::memcpy(edited.data() + collapsed[0] + 16, &entries, 4);
    edits.emplace_back("collapsed count above 64 x beta", edited);
  }
  {
    std::string edited = chunk;
    const Cell c =
        find([](const Cell& c) { return c.live > 0 && c.retired > 0; });
    edited[layout.ranks_at + c.rank + c.live] =
        edited[layout.ranks_at + c.rank + c.live - 1];
    edits.emplace_back("retired rank not above the last live one", edited);
  }
  {
    std::string edited = chunk;
    const Cell c = find([](const Cell& c) { return c.live > 0; });
    edited[c.retired_at] = static_cast<char>(65 - c.live);
    edits.emplace_back("live and retired above 64", edited);
  }
  for (const auto& [what, edited] : edits) {
    SCOPED_TRACE(what);
    ASSERT_EQ(edited.size(), chunk.size());
    std::vector<std::string> damaged = frames;
    damaged[1] = edited;
    WriteFrames(path, kCheckpointType, version, damaged);
    CheckpointStats stats;
    const IrsApprox got =
        ComputeIrsApproxCheckpointed(g, 90, sketch, options, &stats);
    EXPECT_EQ(stats.invalid_checkpoints_skipped, 1u);
    EXPECT_EQ(stats.resumed_edges, 0u);
    ASSERT_TRUE(SaveInfluenceIndex(got, path_));
    EXPECT_EQ(ReadFile(path_), want_bytes);
  }
  std::filesystem::remove_all(dir);
}

// One to three random edits of a protocol line: a byte flip, a substitution
// or insertion from the JSON alphabet, an erased run, or a truncation.
std::string MutateWireLine(std::string line, Rng* rng) {
  static constexpr std::string_view kJsonAlphabet =
      "{}[]\":,.-+eE0123456789 \\/truefalsnl";
  const auto json_char = [&] {
    return kJsonAlphabet[rng->NextBounded(kJsonAlphabet.size())];
  };
  const uint64_t edits = 1 + rng->NextBounded(3);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t pos = rng->NextBounded(line.size() + 1);
    const bool at_end = pos == line.size();
    switch (rng->NextBounded(5)) {
      case 0:
        if (!at_end) line[pos] ^= static_cast<char>(1 + rng->NextBounded(255));
        break;
      case 1:
        if (!at_end) line[pos] = json_char();
        break;
      case 2:
        line.insert(pos, 1, json_char());
        break;
      case 3:
        line.erase(pos, 1 + rng->NextBounded(8));
        break;
      default:
        line.resize(pos);
        break;
    }
  }
  return line;
}

// Mutated request and response lines, built from fixtures that set every
// field the wire carries: whatever the parser accepts must serialize to a
// line that parses back and serializes to the same bytes, so a value the
// parser admits is always one the writer can carry.
TEST_F(IoFuzzTest, WireLinesParseToFixedPointsOrNothing) {
  std::vector<serve::Request> requests(8);
  requests[0].id = 42;
  requests[0].seeds = {1, 5, 9};
  requests[0].mode = serve::QueryMode::kExact;
  requests[0].deadline_ms = 250;
  requests[1].method = serve::Method::kTopk;
  requests[1].k = 25;
  requests[2].id = -3;
  requests[2].seeds = {4294967295u};
  requests[2].trace_id = 0x00c0ffee0badf00dULL;
  requests[2].parent_span = 1;
  requests[3].seeds = {0, 7};
  requests[3].mode = serve::QueryMode::kSketch;
  requests[3].want_ranks = true;
  requests[4].method = serve::Method::kMetrics;
  requests[4].format = serve::MetricsFormat::kJson;
  requests[5].method = serve::Method::kDebug;
  requests[6].method = serve::Method::kHealth;
  requests[7].method = serve::Method::kStats;
  requests[7].trace_id = 0xffffffffffffffffULL;
  // The removed reshard_status verb is an unknown method: its line is
  // rejected with the request's id, which the frontend answers BAD_REQUEST.
  std::string error;
  int64_t id = 0;
  EXPECT_FALSE(serve::ParseRequest(R"({"id":9,"method":"reshard_status"})",
                                   &error, &id)
                   .has_value());
  EXPECT_EQ(error, "unknown method");
  EXPECT_EQ(id, 9);

  std::vector<serve::Response> responses(6);
  responses[0].id = 13;
  responses[0].estimate = 123.5;
  responses[0].degraded = true;
  responses[0].epoch = 4;
  responses[1].topk = {{4, 99.5}, {2, 1e-7}, {11, 0.0}};
  responses[2].ranks = {0x0a, 0x03, 0x00, 0x3f};
  responses[2].trace_id = 0x00c0ffee0badf00dULL;
  responses[3].estimate = 77.25;
  responses[3].degraded = true;
  responses[3].shards_total = 3;
  responses[3].shards_answered = 2;
  responses[3].coverage = 0.66;
  responses[4].status = serve::StatusCode::kOverloaded;
  responses[4].retry_after_ms = 75;
  responses[4].error = "queue \"full\"\n\\ at\t1";
  responses[5].info = {{"queue_depth", 0.0}, {"epoch", 3.0}};
  responses[5].payload = R"({"schema": "ipin.debug.v1", "slow": [1, 2]})";

  const auto parse_request = [](std::string_view line) {
    return serve::ParseRequest(line, nullptr);
  };
  size_t accepted = 0;
  size_t rejected = 0;
  // Parses `line`; an accepted value must serialize to a fixed point.
  const auto check = [&](const std::string& line, const auto& parse,
                         const auto& serialize) {
    const auto parsed = parse(line);
    if (!parsed.has_value()) {
      ++rejected;
      return;
    }
    ++accepted;
    const std::string once = serialize(*parsed);
    const auto again = parse(std::string_view(once).substr(0, once.size() - 1));
    ASSERT_TRUE(again.has_value()) << "accepted: " << line
                                   << "\nwrote: " << once;
    EXPECT_EQ(serialize(*again), once) << "accepted: " << line;
  };

  Rng rng(20261018);
  for (int trial = 0; trial < 20000 && !HasFailure(); ++trial) {
    if (trial % 2 == 0) {
      std::string line =
          serve::SerializeRequest(requests[rng.NextBounded(requests.size())]);
      line.pop_back();
      check(MutateWireLine(std::move(line), &rng), parse_request,
            serve::SerializeRequest);
    } else {
      std::string line = serve::SerializeResponse(
          responses[rng.NextBounded(responses.size())]);
      line.pop_back();
      check(MutateWireLine(std::move(line), &rng), serve::ParseResponse,
            serve::SerializeResponse);
    }
  }
  // Both outcomes occur, so the property was tested, not skipped.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// JsonValue's typed accessors (bool_value, number_value, string_value,
// array_items, object_items) abort on a value of another type. Every wire
// and shard-map field read through one is type-checked first, so a field
// of the wrong type is a clean error: one hostile type per surface.
TEST_F(IoFuzzTest, HostileFieldTypesFailCleanly) {
  enum class Surface { kRequest, kResponse, kShardMap };
  struct Case {
    const char* what;
    Surface surface;
    std::string text;
  };
  const std::string shard = R"({"schema":"ipin.shardmap.v2","shards":[{)"
                            R"("name":"a","unix_socket":"/tmp/a.sock",)";
  const std::vector<Case> cases = {
      {"trace_id as a number", Surface::kRequest,
       R"({"id":1,"method":"query","seeds":[1],"trace_id":12648430})"},
      {"parent_span as a bool", Surface::kRequest,
       R"({"id":1,"method":"query","seeds":[1],"parent_span":true})"},
      {"seeds as an object", Surface::kRequest,
       R"({"id":1,"method":"query","seeds":{"0":1}})"},
      {"a seed as a string", Surface::kRequest,
       R"({"id":1,"method":"query","seeds":["1"]})"},
      {"topk pair not an array", Surface::kResponse,
       R"({"id":1,"status":"OK","topk":[{"node":1,"estimate":2}]})"},
      {"topk as a number", Surface::kResponse,
       R"({"id":1,"status":"OK","topk":3})"},
      {"info as an array", Surface::kResponse,
       R"({"id":1,"status":"OK","info":[["queue_depth",0]]})"},
      {"shards as an object", Surface::kShardMap,
       R"({"schema":"ipin.shardmap.v2","shards":{"a":1}})"},
      {"port as a string", Surface::kShardMap,
       shard + R"("tcp_port":"7101"}]})"},
      {"virtual_points as a string", Surface::kShardMap,
       R"({"schema":"ipin.shardmap.v2","virtual_points":"64","shards":[{)"
       R"("name":"a","unix_socket":"/tmp/a.sock"}]})"},
      {"name as a number", Surface::kShardMap,
       R"({"schema":"ipin.shardmap.v2","shards":[{)"
       R"("name":7,"unix_socket":"/tmp/a.sock"}]})"},
  };
  // The documents parse with well-typed fields, so each rejection below is
  // its hostile field's.
  const std::string request =
      R"({"id":1,"method":"query","seeds":[1],"trace_id":"c0ffee",)"
      R"("parent_span":"1"})";
  const std::string response =
      R"({"id":1,"status":"OK","topk":[[1,2]],"info":{"queue_depth":0}})";
  const std::string map = shard + R"("index_file":"a.bin"}]})";
  std::string error;
  ASSERT_TRUE(serve::ParseRequest(request, &error).has_value()) << error;
  ASSERT_TRUE(serve::ParseResponse(response).has_value());
  ASSERT_TRUE(serve::ShardMap::Parse(map, &error).has_value()) << error;
  for (const Case& c : cases) {
    error.clear();
    switch (c.surface) {
      case Surface::kRequest:
        EXPECT_FALSE(serve::ParseRequest(c.text, &error).has_value())
            << c.what;
        EXPECT_FALSE(error.empty()) << c.what;
        break;
      case Surface::kResponse:
        EXPECT_FALSE(serve::ParseResponse(c.text).has_value()) << c.what;
        break;
      case Surface::kShardMap:
        EXPECT_FALSE(serve::ShardMap::Parse(c.text, &error).has_value())
            << c.what;
        EXPECT_FALSE(error.empty()) << c.what;
        break;
    }
  }
}

// Mutated shard maps: a v1 map's text and its ToJson, and the ToJson of a
// v2 map with tcp endpoints, index files and fingerprints. Whatever Parse
// rejects comes with an error; whatever it accepts re-parses from its own
// ToJson to the same JSON and the same owner for every node probed.
TEST_F(IoFuzzTest, ShardMapsParseToFixedPointsOrNothing) {
  const std::string v1_text =
      R"({"schema":"ipin.shardmap.v1","virtual_points":16,"shards":[)"
      R"({"name":"a","unix_socket":"/tmp/a.sock"},)"
      R"({"name":"b","tcp_host":"10.0.0.2","tcp_port":7101}]})";
  std::string error;
  const std::optional<serve::ShardMap> v1 =
      serve::ShardMap::Parse(v1_text, &error);
  ASSERT_TRUE(v1.has_value()) << error;

  std::vector<serve::ShardInfo> shards(3);
  for (size_t i = 0; i < shards.size(); ++i) {
    shards[i].name = "s" + std::to_string(i);
    shards[i].endpoint.unix_socket_path = "/tmp/s" + std::to_string(i);
    shards[i].index_file = "piece" + std::to_string(i) + ".bin";
    shards[i].fingerprint = "0123abcd" + std::to_string(i);
  }
  shards[2].endpoint = serve::ShardEndpoint{};
  shards[2].endpoint.tcp_host = "::1";
  shards[2].endpoint.tcp_port = 7300;
  const serve::ShardMap v2(shards, /*virtual_points=*/8);
  const std::vector<std::string> fixtures = {v1_text, v1->ToJson(),
                                             v2.ToJson()};
  for (const std::string& json : fixtures) {
    ASSERT_TRUE(serve::ShardMap::Parse(json, &error).has_value())
        << error << "\n" << json;
  }

  size_t accepted = 0;
  size_t rejected = 0;
  Rng rng(20261019);
  for (int trial = 0; trial < 30000 && !HasFailure(); ++trial) {
    const std::string line = MutateWireLine(
        fixtures[rng.NextBounded(fixtures.size())], &rng);
    error.clear();
    const std::optional<serve::ShardMap> m =
        serve::ShardMap::Parse(line, &error);
    if (!m.has_value()) {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "rejected without an error: " << line;
      continue;
    }
    ++accepted;
    const std::string once = m->ToJson();
    const std::optional<serve::ShardMap> m2 =
        serve::ShardMap::Parse(once, &error);
    ASSERT_TRUE(m2.has_value()) << error << "\naccepted: " << line
                                << "\nwrote: " << once;
    EXPECT_EQ(m2->ToJson(), once) << "accepted: " << line;
    for (NodeId u = 0; u < 1000; ++u) {
      ASSERT_EQ(m2->OwnerOf(u), m->OwnerOf(u))
          << "node " << u << ", accepted: " << line;
    }
  }
  // Both outcomes occur, so the property was tested, not skipped.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// Run ledgers whose frames all pass their CRCs but carry hostile JSON.
// Each trial takes a real ledger's three frames (core, activity, metrics),
// keeps, mutates (MutateWireLine) or replaces each one with a hand-made
// hostile payload, and frames the result with SafeFileWriter, so the
// loader's JSON splice, not the checksum, is what meets the damage.
// Whatever the input, the status is Ok, Degraded or Corrupt; a usable
// result carries the run schema and text that parses.
TEST_F(IoFuzzTest, LedgerFramesWithValidCrcsLoadOrDegrade) {
  const std::string dir = path_ + "_ledgers";
  obs::RunLedgerOptions options;
  options.dir = dir;
  options.tool = "fuzz";
  options.command = "ledger";
  options.args = "--seed={7}";
  obs::RunLedger& ledger = obs::RunLedger::Global();
  ledger.Begin(options);
  ledger.RecordInputFile("/dev/null");
  for (int i = 0; i < 4; ++i) ledger.RecordEvent("e", "{" + std::to_string(i));
  const std::string written = ledger.Finish(0);
  ASSERT_FALSE(written.empty());
  std::vector<std::string> frames;
  {
    SafeFileReader reader;
    ASSERT_EQ(reader.Open(written, obs::kLedgerFileType), SafeOpenStatus::kOk);
    std::string_view payload;
    while (reader.ReadFrame(&payload) == FrameStatus::kOk) {
      frames.emplace_back(payload);
    }
  }
  ASSERT_EQ(frames.size(), 3u);

  const std::vector<std::string> hostile = {
      "{}",
      " { } ",
      "[]",
      "\"ipin.run.v1\"",
      "42",
      "null",
      R"({"schema":"ipin.run.v1","schema":"ipin.run.v2"})",
      R"({"schema":"ipin.run.v2"})",
      R"({"tool":"no schema"})",
      R"({"schema":7})",
      R"({"note":"}{","schema":"ipin.run.v1"})",
      R"({"note":"{\"schema\":\"ipin.run.v1\"}"})",
      R"({"a":{"b":[{"c":"}"}]},"d":"{"})",
      R"({"schema":"ipin.run.v1"} {"x":1})",
      "",
  };
  const auto write = [&](const std::vector<std::string>& payloads) {
    SafeFileWriter writer(path_, obs::kLedgerFileType, obs::kLedgerVersion);
    for (const std::string& payload : payloads) writer.AppendFrame(payload);
    return writer.Commit();
  };

  // The pristine frames, and a core frame followed by empty objects, load.
  ASSERT_TRUE(write(frames));
  EXPECT_EQ(obs::LoadRunLedger(path_).status, obs::LedgerLoadStatus::kOk);
  ASSERT_TRUE(write({frames[0], "{}", " { } "}));
  EXPECT_EQ(obs::LoadRunLedger(path_).status, obs::LedgerLoadStatus::kOk);

  size_t outcomes[3] = {0, 0, 0};
  Rng rng(20261020);
  for (int trial = 0; trial < 3000 && !HasFailure(); ++trial) {
    std::vector<std::string> payloads = frames;
    for (std::string& payload : payloads) {
      switch (rng.NextBounded(3)) {
        case 0:
          break;
        case 1:
          payload = MutateWireLine(std::move(payload), &rng);
          break;
        default:
          payload = hostile[rng.NextBounded(hostile.size())];
          break;
      }
    }
    ASSERT_TRUE(write(payloads));
    const obs::LedgerLoadResult result = obs::LoadRunLedger(path_);
    SCOPED_TRACE(testing::Message() << "trial " << trial << "\n"
                                    << payloads[0] << "\n" << payloads[1]
                                    << "\n" << payloads[2]);
    switch (result.status) {
      case obs::LedgerLoadStatus::kOk:
        ++outcomes[0];
        break;
      case obs::LedgerLoadStatus::kDegraded:
        ++outcomes[1];
        break;
      case obs::LedgerLoadStatus::kCorrupt:
        ++outcomes[2];
        break;
      case obs::LedgerLoadStatus::kMissing:
        FAIL() << "a written ledger loaded as missing";
    }
    if (result.usable()) {
      EXPECT_EQ(result.doc.FindString("schema", ""), "ipin.run.v1");
      EXPECT_TRUE(JsonValue::Parse(result.text).has_value()) << result.text;
    }
  }
  // Every outcome occurs, so each branch of the property was exercised.
  EXPECT_GT(outcomes[0], 100u);
  EXPECT_GT(outcomes[1], 100u);
  EXPECT_GT(outcomes[2], 100u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ipin
