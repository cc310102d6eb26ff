#include "ipin/core/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/thread_pool.h"
#include "ipin/core/oracle_io.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/obs/metrics.h"
#include "test_util.h"

namespace ipin {
namespace {

namespace fs = std::filesystem;

constexpr Duration kWindow = 40;
constexpr IrsApproxOptions kSketch{/*precision=*/5, /*salt=*/3};

InteractionGraph TestGraph() {
  return GenerateUniformRandomNetwork(/*num_nodes=*/40,
                                      /*num_interactions=*/200,
                                      /*time_span=*/500, /*seed=*/11);
}

// Bit-identical comparison of two approx builds via every sketch's stored
// cells (covers cell contents, versions, and lazy-allocation pattern).
void ExpectApproxEqual(const IrsApprox& got, const IrsApprox& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    EXPECT_EQ(BuildCellsOf(got, u), BuildCellsOf(want, u)) << "node " << u;
    EXPECT_EQ(got.EstimateIrsSize(u), want.EstimateIrsSize(u))
        << "node " << u;
  }
}

// The bytes of the index file `irs` saves to `path` (removed after).
std::string IndexBytes(const IrsApprox& irs, const std::string& path) {
  EXPECT_TRUE(SaveInfluenceIndex(irs, path));
  const auto bytes = FileContents(path);
  EXPECT_TRUE(bytes.has_value());
  fs::remove(path);
  return bytes.value_or("");
}

// (name, bytes) of every file in `dir`, by name.
std::vector<std::pair<std::string, std::string>> FilesIn(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto bytes = FileContents(entry.path().string());
    EXPECT_TRUE(bytes.has_value());
    files.emplace_back(entry.path().filename().string(),
                       bytes.value_or(""));
  }
  std::sort(files.begin(), files.end());
  return files;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::kError);
    dir_ = ::testing::TempDir() + "/ipin_ckpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    failpoint::ClearAll();
    SetGlobalThreads(0);  // restore the default
    fs::remove_all(dir_);
  }

  std::vector<std::string> CheckpointFiles() const {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::string dir_;
};

TEST_F(CheckpointTest, DisabledOptionsMatchPlainCompute) {
  const InteractionGraph g = TestGraph();
  CheckpointStats stats;
  const IrsApprox got =
      ComputeIrsApproxCheckpointed(g, kWindow, kSketch, {}, &stats);
  ExpectApproxEqual(got, IrsApprox::Compute(g, kWindow, kSketch));
  EXPECT_EQ(stats.checkpoints_written, 0u);
  EXPECT_EQ(stats.resumed_edges, 0u);
}

TEST_F(CheckpointTest, ApproxCheckpointedAndResumedMatchesPlainCompute) {
  const InteractionGraph g = TestGraph();
  const IrsApproxOptions irs_options{/*precision=*/5, /*salt=*/3};
  const IrsApprox want = IrsApprox::Compute(g, kWindow, irs_options);

  const CheckpointOptions options{dir_, /*every_edges=*/32};
  CheckpointStats stats;
  const IrsApprox first =
      ComputeIrsApproxCheckpointed(g, kWindow, irs_options, options, &stats);
  ExpectApproxEqual(first, want);
  EXPECT_EQ(stats.checkpoints_written, 6u);  // edges 32, 64 ... 192
  EXPECT_EQ(stats.resumed_edges, 0u);
  EXPECT_EQ(stats.checkpoint_failures, 0u);

  // The rerun picks up the newest checkpoint and replays only the tail.
  CheckpointStats resumed;
  const IrsApprox second =
      ComputeIrsApproxCheckpointed(g, kWindow, irs_options, options, &resumed);
  EXPECT_EQ(resumed.resumed_edges, 192u);  // newest multiple of 32 < 200
  EXPECT_EQ(resumed.invalid_checkpoints_skipped, 0u);
  ExpectApproxEqual(second, want);
}

// A failpoint kills the build mid-scan; the restarted build resumes from
// the surviving checkpoint and the result is bit-identical to an
// uninterrupted run.
TEST_F(CheckpointTest, ApproxKillMidScanThenResumeBitIdentical) {
  // The killed build runs on the thread pool, which a forked child lacks.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const InteractionGraph g = TestGraph();
  const IrsApproxOptions irs_options{/*precision=*/5, /*salt=*/9};
  const CheckpointOptions options{dir_, /*every_edges=*/32};

  EXPECT_EXIT(
      {
        failpoint::Set("checkpoint.save", "crash_after_n(2)");
        (void)ComputeIrsApproxCheckpointed(g, kWindow, irs_options, options);
      },
      ::testing::ExitedWithCode(134), "failpoint");
  ASSERT_FALSE(CheckpointFiles().empty()) << "crash left no checkpoint";

  CheckpointStats stats;
  const IrsApprox got =
      ComputeIrsApproxCheckpointed(g, kWindow, irs_options, options, &stats);
  EXPECT_EQ(stats.resumed_edges, 64u);
  ExpectApproxEqual(got, IrsApprox::Compute(g, kWindow, irs_options));
}

// A build killed at 4 parts resumes at 1, 2 and 3: a checkpoint's chunks
// record no parts, so each resume refills its own part count and ends with
// plain Compute's cells and index bytes.
TEST_F(CheckpointTest, ApproxKillAtFourPartsResumesAtAnyPartCount) {
  // The killed build runs on the thread pool, which a forked child lacks.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const InteractionGraph g = TestGraph();
  const IrsApproxOptions irs_options{/*precision=*/5, /*salt=*/9};
  EXPECT_EXIT(
      {
        SetGlobalThreads(4);
        failpoint::Set("checkpoint.save", "crash_after_n(2)");
        (void)ComputeIrsApproxCheckpointed(g, kWindow, irs_options,
                                           {dir_, /*every_edges=*/32});
      },
      ::testing::ExitedWithCode(134), "failpoint");
  ASSERT_FALSE(CheckpointFiles().empty()) << "crash left no checkpoint";

  const IrsApprox want = IrsApprox::Compute(g, kWindow, irs_options);
  const std::string want_bytes = IndexBytes(want, dir_ + ".idx");
  for (const size_t parts : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "resumed at " << parts << " parts");
    // Every resume starts from the killed build's checkpoints.
    const std::string dir = dir_ + "_" + std::to_string(parts);
    fs::remove_all(dir);
    fs::copy(dir_, dir);
    SetGlobalThreads(parts);
    CheckpointStats stats;
    const IrsApprox got = ComputeIrsApproxCheckpointed(
        g, kWindow, irs_options, {dir, /*every_edges=*/32}, &stats);
    EXPECT_EQ(stats.resumed_edges, 64u);
    ExpectApproxEqual(got, want);
    EXPECT_EQ(IndexBytes(got, dir + ".idx"), want_bytes);
    fs::remove_all(dir);
  }
}

// Checkpoints are cut at the same edges with the same bytes at every
// thread count: at each epoch's end the partitioned scan holds exactly the
// one-part scan's sketches. Each write is timed.
TEST_F(CheckpointTest, ApproxCheckpointBytesDoNotDependOnThreadCount) {
  const InteractionGraph g = TestGraph();
  const IrsApproxOptions irs_options{/*precision=*/5, /*salt=*/3};
  obs::Histogram* save_ms = obs::MetricsRegistry::Global().GetHistogram(
      "robustness.checkpoint.save_ms");
  std::vector<std::pair<std::string, std::string>> files[2];
  for (const size_t threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetGlobalThreads(threads);
    const std::string dir = dir_ + "_t" + std::to_string(threads);
    fs::remove_all(dir);
    [[maybe_unused]] const uint64_t saves_before = save_ms->Count();
    CheckpointStats stats;
    (void)ComputeIrsApproxCheckpointed(
        g, kWindow, irs_options, {dir, /*every_edges=*/32, /*keep=*/10},
        &stats);
    EXPECT_EQ(stats.checkpoints_written, 6u);  // edges 32, 64 ... 192
    EXPECT_GT(stats.save_seconds, 0.0);
#ifndef IPIN_OBS_DISABLED
    EXPECT_EQ(save_ms->Count() - saves_before, 6u);
#endif
    files[threads == 1 ? 0 : 1] = FilesIn(dir);
    fs::remove_all(dir);
  }
  ASSERT_EQ(files[0].size(), 6u);
  ASSERT_EQ(files[1].size(), files[0].size());
  for (size_t i = 0; i < files[0].size(); ++i) {
    EXPECT_EQ(files[1][i].first, files[0][i].first);
    EXPECT_TRUE(files[1][i].second == files[0][i].second)
        << files[0][i].first << " differs";
  }
}

// The approx checkpoint bytes are frozen: the file a fixed-seed build
// (beta = 256) cuts at edge 1,000 of 2,002 has this CRC32C. Beside the
// random log's 200 nodes, node 200 sends only at the start (absent at the
// checkpoint) and node 201 only at the end (collapsed by then), so the
// file holds every form of node, and retired ranks.
TEST_F(CheckpointTest, ApproxCheckpointBytesArePinned) {
  constexpr uint32_t kCheckpointCrc32c = 0x8662c155;
  const InteractionGraph random = GenerateUniformRandomNetwork(
      /*num_nodes=*/200, /*num_interactions=*/2000, /*time_span=*/5000,
      /*seed=*/23);
  InteractionGraph g(202);
  for (const Interaction& e : random.interactions()) {
    g.AddInteraction(e.src, e.dst, e.time);
  }
  g.AddInteraction(200, 3, 0);
  g.AddInteraction(201, 4, 5000);
  g.SortByTime();
  const IrsApproxOptions irs_options{/*precision=*/8, /*salt=*/7};
  (void)ComputeIrsApproxCheckpointed(g, /*window=*/500, irs_options,
                                     {dir_, /*every_edges=*/1000});
  const std::string path = dir_ + "/ckpt_approx_00000000000000001000.ipinckpt";
  const auto bytes = FileContents(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(Crc32c(*bytes), kCheckpointCrc32c);
  // What the pin covers: every form of node, and retired ranks.
  constexpr uint32_t kCheckpointFileType = 0x504b4349;  // "ICKP"
  SafeFileReader reader;
  ASSERT_EQ(reader.Open(path, kCheckpointFileType), SafeOpenStatus::kOk);
  std::string_view payload;
  ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);  // meta
  size_t forms[3] = {0, 0, 0};
  size_t retired = 0;
  while (reader.ReadFrame(&payload) == FrameStatus::kOk) {
    const std::string chunk(payload);
    const ChunkLayout layout = LayoutOf(chunk, irs_options.precision);
    for (uint32_t i = 0; i < layout.count; ++i) {
      const auto form = static_cast<uint8_t>(chunk[28 + i]);
      ++forms[form];
      if (form != 1) continue;
      for (size_t c = 0; c < 256; ++c) {
        retired += static_cast<uint8_t>(chunk[layout.blocks[i] + 256 + c]);
      }
    }
  }
  EXPECT_GT(forms[0], 0u);
  EXPECT_GT(forms[1], 0u);
  EXPECT_GT(forms[2], 0u);
  EXPECT_GT(retired, 0u);
}

// A checkpoint written under one cadence resumes under another: resumed at
// edge 64 with checkpoints every 50 edges, the build cuts its next ones at
// edges 100 and 150, byte-identical to an uninterrupted every-50 build's,
// and ends with plain Compute's index bytes.
TEST_F(CheckpointTest, ApproxResumeUnderAnotherCadenceIsByteIdentical) {
  const InteractionGraph g = TestGraph();
  const IrsApproxOptions irs_options{/*precision=*/5, /*salt=*/3};
  (void)ComputeIrsApproxCheckpointed(
      g, kWindow, irs_options, {dir_, /*every_edges=*/32, /*keep=*/10});
  const std::string at_64 = "ckpt_approx_00000000000000000064.ipinckpt";
  for (const std::string& name : CheckpointFiles()) {
    if (name != at_64) fs::remove(dir_ + "/" + name);
  }
  ASSERT_EQ(CheckpointFiles(), std::vector<std::string>{at_64});

  SetGlobalThreads(3);
  CheckpointStats stats;
  const IrsApprox got = ComputeIrsApproxCheckpointed(
      g, kWindow, irs_options, {dir_, /*every_edges=*/50, /*keep=*/10},
      &stats);
  EXPECT_EQ(stats.resumed_edges, 64u);
  EXPECT_EQ(stats.checkpoints_written, 2u);
  const IrsApprox want = IrsApprox::Compute(g, kWindow, irs_options);
  ExpectApproxEqual(got, want);
  EXPECT_EQ(IndexBytes(got, dir_ + ".got.idx"),
            IndexBytes(want, dir_ + ".want.idx"));

  const std::string fresh = dir_ + "_fresh";
  fs::remove_all(fresh);
  (void)ComputeIrsApproxCheckpointed(
      g, kWindow, irs_options, {fresh, /*every_edges=*/50, /*keep=*/10});
  std::vector<std::pair<std::string, std::string>> resumed = FilesIn(dir_);
  resumed.erase(resumed.begin());  // the checkpoint at edge 64
  const auto uninterrupted = FilesIn(fresh);
  fs::remove_all(fresh);
  ASSERT_EQ(uninterrupted.size(), 3u);  // edges 50, 100, 150
  ASSERT_EQ(resumed.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(resumed[i].first, uninterrupted[i + 1].first);
    EXPECT_TRUE(resumed[i].second == uninterrupted[i + 1].second)
        << resumed[i].first << " differs";
  }
}

// A damaged newest checkpoint must not poison the build: it is skipped and
// the next-older one is used.
TEST_F(CheckpointTest, CorruptNewestFallsBackToOlder) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/32, /*keep=*/3};
  (void)ComputeIrsApproxCheckpointed(g, kWindow, kSketch, options);

  const auto files = CheckpointFiles();
  ASSERT_GE(files.size(), 2u);
  // Zero-padded edge counts make lexicographic order == numeric order.
  const std::string newest = dir_ + "/" + files.back();
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.seekg(100);  // inside a frame payload, past the file header
    f.read(&byte, 1);
    byte ^= 0x20;
    f.seekp(100);
    f.write(&byte, 1);
  }

  CheckpointStats stats;
  const IrsApprox got =
      ComputeIrsApproxCheckpointed(g, kWindow, kSketch, options, &stats);
  EXPECT_EQ(stats.invalid_checkpoints_skipped, 1u);
  EXPECT_EQ(stats.resumed_edges, 160u);  // the one below the corrupted 192
  ExpectApproxEqual(got, IrsApprox::Compute(g, kWindow, kSketch));
}

// A truncated newest checkpoint (torn write / crash during save) behaves
// the same as a corrupt one: skip and fall back.
TEST_F(CheckpointTest, TruncatedNewestFallsBackToOlder) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/32, /*keep=*/3};
  (void)ComputeIrsApproxCheckpointed(g, kWindow, kSketch, options);

  const auto files = CheckpointFiles();
  ASSERT_GE(files.size(), 2u);
  const std::string newest = dir_ + "/" + files.back();
  const auto size = fs::file_size(newest);
  fs::resize_file(newest, size / 2);

  CheckpointStats stats;
  const IrsApprox got =
      ComputeIrsApproxCheckpointed(g, kWindow, kSketch, options, &stats);
  EXPECT_EQ(stats.invalid_checkpoints_skipped, 1u);
  EXPECT_EQ(stats.resumed_edges, 160u);
  ExpectApproxEqual(got, IrsApprox::Compute(g, kWindow, kSketch));
}

// Checkpoints taken against different inputs (here: another window, or
// another salt) carry a different fingerprint and must be ignored, not
// resumed into a wrong build.
TEST_F(CheckpointTest, FingerprintMismatchIsIgnored) {
  const InteractionGraph g = TestGraph();
  (void)ComputeIrsApproxCheckpointed(g, kWindow, kSketch,
                                     {dir_, /*every_edges=*/32, /*keep=*/1});
  // A cadence beyond the log's 200 edges: these builds read checkpoints
  // but write none.
  const CheckpointOptions read_only{dir_, /*every_edges=*/1000};
  struct Case {
    Duration window;
    IrsApproxOptions sketch;
  };
  for (const Case& c :
       {Case{kWindow * 2, kSketch},
        Case{kWindow, {kSketch.precision, kSketch.salt + 1}}}) {
    SCOPED_TRACE(testing::Message()
                 << "window " << c.window << " salt " << c.sketch.salt);
    CheckpointStats stats;
    const IrsApprox got =
        ComputeIrsApproxCheckpointed(g, c.window, c.sketch, read_only, &stats);
    EXPECT_EQ(stats.resumed_edges, 0u);
    EXPECT_EQ(stats.invalid_checkpoints_skipped, 1u);
    ExpectApproxEqual(got, IrsApprox::Compute(g, c.window, c.sketch));
  }
}

// A checkpoint of the previous format version is skipped whole. Its frames
// here are today's, relabelled, so only the version check can tell; the
// build starts fresh and ends as plain Compute does.
TEST_F(CheckpointTest, PreviousVersionCheckpointIsSkipped) {
  constexpr uint32_t kCheckpointFileType = 0x504b4349;  // "ICKP"
  const InteractionGraph g = TestGraph();
  const IrsApproxOptions irs_options{/*precision=*/5, /*salt=*/3};
  const CheckpointOptions options{dir_, /*every_edges=*/64, /*keep=*/1};
  (void)ComputeIrsApproxCheckpointed(g, kWindow, irs_options, options);
  const std::vector<std::string> files = CheckpointFiles();
  ASSERT_EQ(files.size(), 1u);
  const std::string path = dir_ + "/" + files[0];

  std::vector<std::string> frames;
  {
    SafeFileReader reader;
    ASSERT_EQ(reader.Open(path, kCheckpointFileType), SafeOpenStatus::kOk);
    ASSERT_EQ(reader.version(), 4u);
    std::string_view payload;
    while (reader.ReadFrame(&payload) == FrameStatus::kOk) {
      frames.emplace_back(payload);
    }
  }
  SafeFileWriter writer(path, kCheckpointFileType, /*version=*/3);
  for (const std::string& frame : frames) {
    ASSERT_TRUE(writer.AppendFrame(frame));
  }
  ASSERT_TRUE(writer.Commit());

  CheckpointStats stats;
  const IrsApprox got =
      ComputeIrsApproxCheckpointed(g, kWindow, irs_options, options, &stats);
  EXPECT_EQ(stats.invalid_checkpoints_skipped, 1u);
  EXPECT_EQ(stats.resumed_edges, 0u);
  ExpectApproxEqual(got, IrsApprox::Compute(g, kWindow, irs_options));
}

// Two pairs at one time in a cell list are a dominated pair: a scan never
// leaves one (the higher rank evicts the lower), and a build resumed from
// it would count the pair in its index's entries. So a chunk holding such
// a list fails verification even with valid frame checksums: the file is
// skipped whole, and the build starts fresh and ends as plain Compute does.
TEST_F(CheckpointTest, EqualTimesInACellListAreRejected) {
  constexpr uint32_t kCheckpointFileType = 0x504b4349;  // "ICKP"
  constexpr size_t kBeta = size_t{1} << kSketch.precision;
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/64, /*keep=*/1};
  (void)ComputeIrsApproxCheckpointed(g, kWindow, kSketch, options);
  const std::vector<std::string> files = CheckpointFiles();
  ASSERT_EQ(files.size(), 1u);
  const std::string path = dir_ + "/" + files[0];

  std::vector<std::string> frames;
  {
    SafeFileReader reader;
    ASSERT_EQ(reader.Open(path, kCheckpointFileType), SafeOpenStatus::kOk);
    std::string_view payload;
    while (reader.ReadFrame(&payload) == FrameStatus::kOk) {
      frames.emplace_back(payload);
    }
  }
  // In the first cell list of two or more live pairs, the second pair
  // takes the first's time. Ranks still ascend strictly and times never
  // descend (the chunk layout: test_util.h, ChunkLayout).
  bool edited = false;
  for (size_t f = 1; f < frames.size() && !edited; ++f) {
    std::string& chunk = frames[f];
    const ChunkLayout layout = LayoutOf(chunk, kSketch.precision);
    if (layout.pairs == 0) continue;
    const size_t width = (chunk.size() - layout.times_at) / layout.pairs;
    size_t pair = 0;
    for (uint32_t i = 0; i < layout.count && !edited; ++i) {
      if (layout.blocks[i] == 0 || chunk[28 + i] != 1) continue;
      for (size_t c = 0; c < kBeta && !edited; ++c) {
        const auto n = static_cast<uint8_t>(chunk[layout.blocks[i] + c]);
        if (n >= 2) {
          std::memcpy(&chunk[layout.times_at + (pair + 1) * width],
                      &chunk[layout.times_at + pair * width], width);
          edited = true;
        }
        pair += n;
      }
    }
  }
  ASSERT_TRUE(edited);
  SafeFileWriter writer(path, kCheckpointFileType, /*version=*/4);
  for (const std::string& frame : frames) {
    ASSERT_TRUE(writer.AppendFrame(frame));
  }
  ASSERT_TRUE(writer.Commit());

  CheckpointStats stats;
  const IrsApprox got =
      ComputeIrsApproxCheckpointed(g, kWindow, kSketch, options, &stats);
  EXPECT_EQ(stats.invalid_checkpoints_skipped, 1u);
  EXPECT_EQ(stats.resumed_edges, 0u);
  const IrsApprox want = IrsApprox::Compute(g, kWindow, kSketch);
  ExpectApproxEqual(got, want);
  EXPECT_EQ(IndexBytes(got, dir_ + "/got.idx"),
            IndexBytes(want, dir_ + "/want.idx"));
}

// A ckpt_exact_* file, which earlier versions wrote for a checkpointed
// exact scan, is another build's: an approx build neither resumes it, nor
// counts it as skipped, nor prunes it, and resumes from its own files.
TEST_F(CheckpointTest, StrayExactCheckpointFilesAreNeitherReadNorPruned) {
  constexpr uint32_t kCheckpointFileType = 0x504b4349;  // "ICKP"
  const InteractionGraph g = TestGraph();
  (void)ComputeIrsApproxCheckpointed(g, kWindow, kSketch,
                                     {dir_, /*every_edges=*/32, /*keep=*/10});
  const std::string at_64 = "ckpt_approx_00000000000000000064.ipinckpt";
  for (const std::string& name : CheckpointFiles()) {
    if (name != at_64) fs::remove(dir_ + "/" + name);
  }

  // An exact build's checkpoint at edge 192, as those versions framed it:
  // the meta frame names algorithm 1 and no sketch options, and one chunk
  // holds the 40 nodes' empty summaries (u64 first, u32 count, then a u64
  // entry count per node).
  std::string meta;
  {
    SafeFileReader reader;
    ASSERT_EQ(reader.Open(dir_ + "/" + at_64, kCheckpointFileType),
              SafeOpenStatus::kOk);
    std::string_view payload;
    ASSERT_EQ(reader.ReadFrame(&payload), FrameStatus::kOk);
    meta = payload;
  }
  meta[0] = 1;                                         // algo: exact
  std::fill(meta.begin() + 33, meta.begin() + 42, 0);  // precision, salt
  const uint64_t edges = 192;
  std::memcpy(meta.data() + 42, &edges, sizeof(edges));
  std::string chunk(12 + 40 * 8, '\0');
  const uint32_t count = 40;
  std::memcpy(chunk.data() + 8, &count, sizeof(count));
  const std::string stray = "ckpt_exact_00000000000000000192.ipinckpt";
  {
    SafeFileWriter writer(dir_ + "/" + stray, kCheckpointFileType,
                          /*version=*/3);
    ASSERT_TRUE(writer.AppendFrame(meta));
    ASSERT_TRUE(writer.AppendFrame(chunk));
    ASSERT_TRUE(writer.Commit());
  }
  const auto stray_bytes = FileContents(dir_ + "/" + stray);
  ASSERT_TRUE(stray_bytes.has_value());

  // keep = 1: every save prunes down to the newest approx file.
  CheckpointStats stats;
  const IrsApprox got = ComputeIrsApproxCheckpointed(
      g, kWindow, kSketch, {dir_, /*every_edges=*/32, /*keep=*/1}, &stats);
  EXPECT_EQ(stats.resumed_edges, 64u);
  EXPECT_EQ(stats.invalid_checkpoints_skipped, 0u);
  EXPECT_EQ(stats.checkpoints_written, 4u);  // edges 96, 128, 160, 192
  ExpectApproxEqual(got, IrsApprox::Compute(g, kWindow, kSketch));
  EXPECT_EQ(CheckpointFiles(),
            (std::vector<std::string>{
                "ckpt_approx_00000000000000000192.ipinckpt", stray}));
  const auto after = FileContents(dir_ + "/" + stray);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(*after == *stray_bytes);
}

// Pruning keeps the `keep` newest checkpoints, by edge count.
TEST_F(CheckpointTest, PruneKeepsOnlyNewestCheckpoints) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/16, /*keep=*/2};
  CheckpointStats stats;
  (void)ComputeIrsApproxCheckpointed(g, kWindow, kSketch, options, &stats);
  EXPECT_EQ(stats.checkpoints_written, 12u);  // edges 16, 32 ... 192
  EXPECT_EQ(CheckpointFiles(),
            (std::vector<std::string>{
                "ckpt_approx_00000000000000000176.ipinckpt",
                "ckpt_approx_00000000000000000192.ipinckpt"}));
}

// A failing checkpoint save is an inconvenience, not a build failure.
TEST_F(CheckpointTest, SaveFailureDoesNotAbortBuild) {
  const InteractionGraph g = TestGraph();
  ASSERT_TRUE(failpoint::Set("checkpoint.save", "error"));
  const CheckpointOptions options{dir_, /*every_edges=*/32};
  CheckpointStats stats;
  const IrsApprox got =
      ComputeIrsApproxCheckpointed(g, kWindow, kSketch, options, &stats);
  failpoint::ClearAll();
  EXPECT_EQ(stats.checkpoints_written, 0u);
  EXPECT_EQ(stats.checkpoint_failures, 6u);
  EXPECT_TRUE(CheckpointFiles().empty());
  ExpectApproxEqual(got, IrsApprox::Compute(g, kWindow, kSketch));
}

// checkpoint.load failures (e.g. injected read errors) degrade to a fresh
// build rather than crashing or resuming garbage.
TEST_F(CheckpointTest, LoadFailureFallsBackToFreshBuild) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/32};
  (void)ComputeIrsApproxCheckpointed(g, kWindow, kSketch, options);

  ASSERT_TRUE(failpoint::Set("checkpoint.load", "error"));
  CheckpointStats stats;
  const IrsApprox got =
      ComputeIrsApproxCheckpointed(g, kWindow, kSketch, options, &stats);
  failpoint::ClearAll();
  EXPECT_EQ(stats.resumed_edges, 0u);
  EXPECT_EQ(stats.invalid_checkpoints_skipped, 2u);  // keep = 2
  ExpectApproxEqual(got, IrsApprox::Compute(g, kWindow, kSketch));
}

}  // namespace
}  // namespace ipin
