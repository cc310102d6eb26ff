// Robustness fuzzing of the text/binary parsers: random byte soup must
// never crash the loaders — they either parse or cleanly return nullopt.

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/common/safe_io.h"
#include "ipin/core/checkpoint.h"
#include "ipin/core/oracle_io.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/graph/graph_io.h"
#include "ipin/sketch/sketch_arena.h"
#include "ipin/sketch/versioned_bottom_k.h"
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

TEST_F(IoFuzzTest, DimacsLoaderSurvivesSoup) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::string soup = "p sp 5 3\n";  // sometimes give it a valid header
    if (trial % 2 == 0) soup.clear();
    soup += RandomBytes(&rng, 1 + rng.NextBounded(1000), true);
    WriteBytes(soup);
    (void)LoadDimacs(path_);  // must not crash
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

// Version-3 files from SaveInfluenceIndex under two kinds of damage: byte
// flips and truncation of the file (which the frame CRCs catch), and
// hostile chunk payloads re-framed with valid CRCs (which only the chunk's
// own checks can catch). Every load ends in a clean status, and every node
// the loaded arena holds passes the vHLL invariants; nodes outside the
// damaged chunk are exactly as saved.
TEST_F(IoFuzzTest, SavedV3IndexSurvivesFlipsAndHostileChunks) {
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
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
    const SketchView a = got.Sketch(u);
    const SketchView b = want.Sketch(u);
    ASSERT_EQ(a.valid(), b.valid()) << "trial " << trial << " node " << u;
    if (b) {
      ASSERT_EQ(CellsOf(a), CellsOf(b)) << "trial " << trial << " node " << u;
    }
  }
}

// Randomized corruption of checkpoint files: a resumed build must never
// crash and must always end bit-identical to an uninterrupted run (a
// damaged checkpoint is skipped, worst case falling back to a fresh scan).
TEST_F(IoFuzzTest, CheckpointResumeSurvivesRandomCorruption) {
  const InteractionGraph g = GenerateUniformRandomNetwork(40, 160, 400, 22);
  const std::string dir = path_ + ".ckpt";
  const CheckpointOptions options{dir, /*every_edges=*/32, /*keep=*/3};

  const IrsExact want = IrsExact::Compute(g, 60);
  (void)ComputeIrsExactCheckpointed(g, 60, options);
  DamageCheckpointsAndResume(dir, 7, 40, [&](int trial) {
    const IrsExact got = ComputeIrsExactCheckpointed(g, 60, options);
    for (NodeId u = 0; u < want.num_nodes(); ++u) {
      ASSERT_EQ(got.Summary(u).size(), want.Summary(u).size())
          << "trial " << trial << " node " << u;
      for (const auto& [v, t] : want.Summary(u)) {
        const auto it = got.Summary(u).find(v);
        ASSERT_NE(it, got.Summary(u).end()) << trial;
        ASSERT_EQ(it->second, t) << trial;
      }
    }
  });
  std::filesystem::remove_all(dir);

  // The approx scan's checkpoints hold sketch chunks; 600 nodes make three
  // of them per file.
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
  for (int trial = 0; trial < 60; ++trial) {
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
      for (NodeId u = 0; u < got.num_nodes(); ++u) {
        ASSERT_TRUE(got.Sketch(u).CheckInvariants())
            << "trial " << trial << " node " << u;
      }
    }
  }
  EXPECT_GT(skipped, 30u);
  EXPECT_LT(skipped, 60u);  // some edits pass every check
  std::filesystem::remove_all(dir);
}

TEST(BottomKFuzzTest, DeserializeSurvivesBitFlips) {
  VersionedBottomK sketch(16, 3);
  Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    sketch.Add(rng.NextUint64(), static_cast<Timestamp>(rng.NextBounded(50)));
  }
  std::string blob;
  sketch.Serialize(&blob);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = blob;
    const size_t pos = rng.NextBounded(corrupted.size());
    corrupted[pos] = static_cast<char>(rng.NextUint64() & 0xff);
    size_t offset = 0;
    const auto result = VersionedBottomK::Deserialize(corrupted, &offset);
    if (result.has_value()) {
      EXPECT_TRUE(result->CheckInvariants());
    }
  }
}

}  // namespace
}  // namespace ipin
