#include "ipin/core/checkpoint.h"

#include <algorithm>
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

InteractionGraph TestGraph() {
  return GenerateUniformRandomNetwork(/*num_nodes=*/40,
                                      /*num_interactions=*/200,
                                      /*time_span=*/500, /*seed=*/11);
}

// Bit-identical comparison of two exact builds: every node's summary map
// must match entry for entry.
void ExpectExactEqual(const IrsExact& got, const IrsExact& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    const auto& a = got.Summary(u);
    const auto& b = want.Summary(u);
    ASSERT_EQ(a.size(), b.size()) << "node " << u;
    for (const auto& [v, t] : b) {
      const auto it = a.find(v);
      ASSERT_NE(it, a.end()) << "node " << u << " missing " << v;
      EXPECT_EQ(it->second, t) << "lambda(" << u << "," << v << ")";
    }
  }
}

// Bit-identical comparison of two approx builds via every sketch's stored
// cells (covers cell contents, versions, and lazy-allocation pattern).
void ExpectApproxEqual(const IrsApprox& got, const IrsApprox& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    const SketchView a = got.Sketch(u);
    const SketchView b = want.Sketch(u);
    ASSERT_EQ(a.valid(), b.valid()) << "node " << u;
    if (!b) continue;
    EXPECT_EQ(CellsOf(a), CellsOf(b)) << "node " << u;
    EXPECT_EQ(got.EstimateIrsSize(u), want.EstimateIrsSize(u))
        << "node " << u;
  }
}

// The bytes of the index file `irs` saves to `path` (removed after).
std::string IndexBytes(const IrsApprox& irs, const std::string& path) {
  EXPECT_TRUE(SaveInfluenceIndex(irs, path));
  const auto image = ReadWholeFile(path);
  EXPECT_NE(image, nullptr);
  fs::remove(path);
  return image == nullptr ? std::string() : std::string(image->view());
}

// (name, bytes) of every file in `dir`, by name.
std::vector<std::pair<std::string, std::string>> FilesIn(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto image = ReadWholeFile(entry.path().string());
    EXPECT_NE(image, nullptr);
    files.emplace_back(entry.path().filename().string(),
                       image == nullptr ? "" : image->view());
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
  const IrsExact got =
      ComputeIrsExactCheckpointed(g, kWindow, CheckpointOptions{}, &stats);
  ExpectExactEqual(got, IrsExact::Compute(g, kWindow));
  EXPECT_EQ(stats.checkpoints_written, 0u);
  EXPECT_EQ(stats.resumed_edges, 0u);
}

TEST_F(CheckpointTest, ExactCheckpointedMatchesPlainCompute) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/32};
  CheckpointStats stats;
  const IrsExact got = ComputeIrsExactCheckpointed(g, kWindow, options, &stats);
  ExpectExactEqual(got, IrsExact::Compute(g, kWindow));
  EXPECT_GT(stats.checkpoints_written, 0u);
  EXPECT_EQ(stats.resumed_edges, 0u);
  EXPECT_EQ(stats.checkpoint_failures, 0u);
}

TEST_F(CheckpointTest, ExactRerunResumesFromNewestCheckpoint) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/32};
  (void)ComputeIrsExactCheckpointed(g, kWindow, options);
  // The rerun picks up the newest checkpoint and replays only the tail.
  CheckpointStats stats;
  const IrsExact got = ComputeIrsExactCheckpointed(g, kWindow, options, &stats);
  EXPECT_EQ(stats.resumed_edges, 192u);  // newest multiple of 32 < 200
  EXPECT_EQ(stats.invalid_checkpoints_skipped, 0u);
  ExpectExactEqual(got, IrsExact::Compute(g, kWindow));
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
  EXPECT_GT(stats.checkpoints_written, 0u);

  CheckpointStats resumed;
  const IrsApprox second =
      ComputeIrsApproxCheckpointed(g, kWindow, irs_options, options, &resumed);
  EXPECT_GT(resumed.resumed_edges, 0u);
  ExpectApproxEqual(second, want);
}

// The tentpole proof: a failpoint kills the build mid-scan; the restarted
// build resumes from the surviving checkpoint and the result is
// bit-identical to an uninterrupted run.
TEST_F(CheckpointTest, ExactKillMidScanThenResumeBitIdentical) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/32};

  // The child arms the crash inside the EXPECT_EXIT statement, so the
  // parent's registry stays clean. crash_after_n(2): saves at edges 32 and
  // 64 land, the third attempt (edge 96) kills the process.
  EXPECT_EXIT(
      {
        failpoint::Set("checkpoint.save", "crash_after_n(2)");
        (void)ComputeIrsExactCheckpointed(g, kWindow, options);
      },
      ::testing::ExitedWithCode(134), "failpoint");
  ASSERT_FALSE(CheckpointFiles().empty()) << "crash left no checkpoint";

  CheckpointStats stats;
  const IrsExact got = ComputeIrsExactCheckpointed(g, kWindow, options, &stats);
  EXPECT_EQ(stats.resumed_edges, 64u);
  ExpectExactEqual(got, IrsExact::Compute(g, kWindow));
}

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
// (beta = 256) cuts at edge 1,000 of 2,000 has this CRC32C.
TEST_F(CheckpointTest, ApproxCheckpointBytesArePinned) {
  constexpr uint32_t kCheckpointCrc32c = 0x8b353ff8;
  const InteractionGraph g = GenerateUniformRandomNetwork(
      /*num_nodes=*/200, /*num_interactions=*/2000, /*time_span=*/5000,
      /*seed=*/23);
  const IrsApproxOptions irs_options{/*precision=*/8, /*salt=*/7};
  (void)ComputeIrsApproxCheckpointed(g, /*window=*/500, irs_options,
                                     {dir_, /*every_edges=*/1000});
  const auto image =
      ReadWholeFile(dir_ + "/ckpt_approx_00000000000000001000.ipinckpt");
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(Crc32c(image->view()), kCheckpointCrc32c);
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
  (void)ComputeIrsExactCheckpointed(g, kWindow, options);

  const auto files = CheckpointFiles();
  ASSERT_GE(files.size(), 2u);
  // Zero-padded edge counts make lexicographic order == numeric order.
  const std::string newest = dir_ + "/" + files.back();
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);  // inside a frame payload, past the file header
    char byte = 0;
    f.seekg(100);
    f.read(&byte, 1);
    byte ^= 0x20;
    f.seekp(100);
    f.write(&byte, 1);
  }

  CheckpointStats stats;
  const IrsExact got = ComputeIrsExactCheckpointed(g, kWindow, options, &stats);
  EXPECT_GE(stats.invalid_checkpoints_skipped, 1u);
  EXPECT_EQ(stats.resumed_edges, 160u);  // the one below the corrupted 192
  ExpectExactEqual(got, IrsExact::Compute(g, kWindow));
}

// A truncated newest checkpoint (torn write / crash during save) behaves
// the same as a corrupt one: skip and fall back.
TEST_F(CheckpointTest, TruncatedNewestFallsBackToOlder) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/32, /*keep=*/3};
  (void)ComputeIrsExactCheckpointed(g, kWindow, options);

  const auto files = CheckpointFiles();
  ASSERT_GE(files.size(), 2u);
  const std::string newest = dir_ + "/" + files.back();
  const auto size = fs::file_size(newest);
  fs::resize_file(newest, size / 2);

  CheckpointStats stats;
  const IrsExact got = ComputeIrsExactCheckpointed(g, kWindow, options, &stats);
  EXPECT_GE(stats.invalid_checkpoints_skipped, 1u);
  EXPECT_EQ(stats.resumed_edges, 160u);
  ExpectExactEqual(got, IrsExact::Compute(g, kWindow));
}

// Checkpoints taken against different inputs (here: another window) carry a
// different fingerprint and must be ignored, not resumed into a wrong build.
TEST_F(CheckpointTest, FingerprintMismatchIsIgnored) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/32};
  (void)ComputeIrsExactCheckpointed(g, /*window=*/kWindow, options);

  CheckpointStats stats;
  const IrsExact got =
      ComputeIrsExactCheckpointed(g, /*window=*/kWindow * 2, options, &stats);
  EXPECT_EQ(stats.resumed_edges, 0u);
  EXPECT_GE(stats.invalid_checkpoints_skipped, 1u);
  ExpectExactEqual(got, IrsExact::Compute(g, kWindow * 2));
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
    ASSERT_EQ(reader.version(), 3u);
    std::string_view payload;
    while (reader.ReadFrame(&payload) == FrameStatus::kOk) {
      frames.emplace_back(payload);
    }
  }
  SafeFileWriter writer(path, kCheckpointFileType, /*version=*/2);
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

// Exact checkpoints must never resume an approx build and vice versa: the
// two algorithms use distinct file prefixes.
TEST_F(CheckpointTest, AlgorithmsUseDistinctCheckpointFiles) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/64};
  (void)ComputeIrsExactCheckpointed(g, kWindow, options);

  CheckpointStats stats;
  const IrsApprox got =
      ComputeIrsApproxCheckpointed(g, kWindow, {}, options, &stats);
  EXPECT_EQ(stats.resumed_edges, 0u);
  EXPECT_EQ(stats.invalid_checkpoints_skipped, 0u);
  ExpectApproxEqual(got, IrsApprox::Compute(g, kWindow, {}));
}

TEST_F(CheckpointTest, PruneKeepsOnlyNewestCheckpoints) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/16, /*keep=*/2};
  CheckpointStats stats;
  (void)ComputeIrsExactCheckpointed(g, kWindow, options, &stats);
  EXPECT_GT(stats.checkpoints_written, 2u);
  EXPECT_EQ(CheckpointFiles().size(), 2u);
}

// A failing checkpoint save is an inconvenience, not a build failure.
TEST_F(CheckpointTest, SaveFailureDoesNotAbortBuild) {
  const InteractionGraph g = TestGraph();
  ASSERT_TRUE(failpoint::Set("checkpoint.save", "error"));
  const CheckpointOptions options{dir_, /*every_edges=*/32};
  CheckpointStats stats;
  const IrsExact got = ComputeIrsExactCheckpointed(g, kWindow, options, &stats);
  failpoint::ClearAll();
  EXPECT_EQ(stats.checkpoints_written, 0u);
  EXPECT_GT(stats.checkpoint_failures, 0u);
  ExpectExactEqual(got, IrsExact::Compute(g, kWindow));
}

// checkpoint.load failures (e.g. injected read errors) degrade to a fresh
// build rather than crashing or resuming garbage.
TEST_F(CheckpointTest, LoadFailureFallsBackToFreshBuild) {
  const InteractionGraph g = TestGraph();
  const CheckpointOptions options{dir_, /*every_edges=*/32};
  (void)ComputeIrsExactCheckpointed(g, kWindow, options);

  ASSERT_TRUE(failpoint::Set("checkpoint.load", "error"));
  CheckpointStats stats;
  const IrsExact got = ComputeIrsExactCheckpointed(g, kWindow, options, &stats);
  failpoint::ClearAll();
  EXPECT_EQ(stats.resumed_edges, 0u);
  EXPECT_GE(stats.invalid_checkpoints_skipped, 1u);
  ExpectExactEqual(got, IrsExact::Compute(g, kWindow));
}

}  // namespace
}  // namespace ipin
