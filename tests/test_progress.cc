// Phase-span coverage: one span per batch phase feeds the span tree, the
// trace histograms, the pool profiles, the run ledger and the heartbeat
// reporter. Cases: unit aggregation by path, one record agreeing across
// every output, heartbeat monotonicity under a multi-threaded workload,
// heartbeats naming the innermost phase, reporter lifecycle, and pool
// tagging. The substantive tests compile out together with the reporter
// under IPIN_OBS_DISABLED; the PhaseSpan stub's no-op contract is asserted
// instead so the suite still runs in that configuration.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/json.h"
#include "ipin/common/logging.h"
#include "ipin/common/thread_pool.h"
#include "ipin/obs/ledger.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/progress.h"
#include "ipin/obs/trace.h"

namespace ipin::obs {
namespace {

namespace fs = std::filesystem;

class GlobalThreadsGuard {
 public:
  explicit GlobalThreadsGuard(size_t n) : prev_(GlobalThreads()) {
    SetGlobalThreads(n);
  }
  ~GlobalThreadsGuard() { SetGlobalThreads(prev_); }

 private:
  size_t prev_;
};

class ProgressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::kError);
    out_path_ = ::testing::TempDir() + "/ipin_progress_" +
                std::to_string(reinterpret_cast<uintptr_t>(this)) + ".jsonl";
    fs::remove(out_path_);
    StopProgressReporting();  // in case a previous test leaked a reporter
    ResetSpanTreeForTest();
  }
  void TearDown() override {
    StopProgressReporting();
    ResetSpanTreeForTest();
    fs::remove(out_path_);
  }

  std::vector<std::string> HeartbeatLines() {
    std::vector<std::string> lines;
    std::ifstream in(out_path_);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines.push_back(line);
    }
    return lines;
  }

  std::string out_path_;
};

#ifndef IPIN_OBS_DISABLED

const SpanStats* FindSpan(const std::vector<SpanStats>& spans,
                          const std::string& path) {
  for (const SpanStats& s : spans) {
    if (s.path == path) return &s;
  }
  return nullptr;
}

TEST_F(ProgressTest, PhaseSpansAggregateByPath) {
  for (int i = 0; i < 3; ++i) {
    PhaseSpan phase("test.aggregate", 10);
    phase.Tick(4);
    phase.Tick(6);
  }
  {
    PhaseSpan other("test.other", 0);
    other.SetDone(7);
    other.SetDone(5);  // SetDone is absolute, last write wins
    // A busy interval, so the span's process CPU time cannot read zero.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(3);
    while (std::chrono::steady_clock::now() < until) {
    }

    const auto live = OpenPhaseSpans();
    const SpanStats* active = FindSpan(live, "test.other");
    ASSERT_NE(active, nullptr);
    EXPECT_TRUE(active->active);
    EXPECT_EQ(active->units_done, 5u);
    EXPECT_EQ(active->units_total, 0u);
  }

  const auto spans = SpanTreeSnapshot();
  const SpanStats* agg = FindSpan(spans, "test.aggregate");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->calls, 3u);
  EXPECT_EQ(agg->units_done, 30u);
  EXPECT_EQ(agg->units_total, 30u);
  EXPECT_FALSE(agg->active);
  const SpanStats* other = FindSpan(spans, "test.other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->calls, 1u);
  EXPECT_EQ(other->units_done, 5u);
  EXPECT_GT(other->cpu_ns, 0u);
  EXPECT_EQ(FindSpan(OpenPhaseSpans(), "test.other"), nullptr);
}

TEST_F(ProgressTest, OnePhaseRecordFeedsEveryOutput) {
  GlobalThreadsGuard threads(4);
  ResetPoolPhaseProfiles();
  Histogram* hist =
      MetricsRegistry::Global().GetHistogram("trace.test.one_record.us");
  const uint64_t hist_before = hist->Count();
  const std::string ledger_dir =
      ::testing::TempDir() + "/ipin_progress_ledger_" +
      std::to_string(reinterpret_cast<uintptr_t>(this));
  fs::remove_all(ledger_dir);
  RunLedger& ledger = RunLedger::Global();
  ledger.Begin({ledger_dir, "test_progress", "one_record", ""});

  constexpr size_t kItems = 256;
  {
    PhaseSpan phase("test.one_record", kItems);
    ParallelFor(size_t{0}, kItems, size_t{16}, [&](size_t lo, size_t hi) {
      TraceSpan chunk("test.one_record.chunk");
      phase.Tick(hi - lo);
    });
  }
  const std::string ledger_path = ledger.Finish(0);
  ASSERT_FALSE(ledger_path.empty());

  // The span tree: one call, every unit.
  const std::vector<SpanStats> spans = SpanTreeSnapshot();
  const SpanStats* phase = FindSpan(spans, "test.one_record");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->calls, 1u);
  EXPECT_EQ(phase->units_done, kItems);
  EXPECT_EQ(phase->units_total, kItems);
  // The nested chunk spans: children on the calling thread, roots on the
  // workers (nesting is per thread).
  uint64_t chunk_calls = 0;
  for (const SpanStats& s : spans) {
    if (s.name == "test.one_record.chunk") chunk_calls += s.calls;
  }

  // The histogram saw the same one call.
  EXPECT_EQ(hist->Count() - hist_before, 1u);

  // The pool profile under the span's name ran one task per chunk span,
  // inside the span's wall time.
  const PoolPhaseProfile* profile = nullptr;
  const std::vector<PoolPhaseProfile> profiles = PoolPhaseProfiles();
  for (const PoolPhaseProfile& p : profiles) {
    if (p.name == "test.one_record") profile = &p;
  }
  ASSERT_NE(profile, nullptr);
  EXPECT_GT(profile->tasks, 1u);
  EXPECT_EQ(profile->tasks, chunk_calls);
  EXPECT_LE(profile->wall_us, phase->total_ns / 1000u + 1);  // us rounding

  // The ledger's activity frame carries the same record.
  const LedgerLoadResult loaded = LoadRunLedger(ledger_path);
  ASSERT_EQ(loaded.status, LedgerLoadStatus::kOk);
  const JsonValue* phases = loaded.doc.Find("phases");
  ASSERT_NE(phases, nullptr);
  const JsonValue* entry = nullptr;
  for (const JsonValue& p : phases->array_items()) {
    if (p.FindString("name", "") == "test.one_record") entry = &p;
  }
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->FindNumber("instances", 0.0), 1.0);
  EXPECT_EQ(entry->FindNumber("units_done", 0.0),
            static_cast<double>(kItems));
  EXPECT_EQ(entry->FindNumber("units_total", 0.0),
            static_cast<double>(kItems));
  EXPECT_EQ(entry->FindNumber("wall_us", 0.0),
            static_cast<double>(phase->total_ns / 1000u));
  EXPECT_EQ(entry->FindNumber("cpu_us", 0.0),
            static_cast<double>(phase->cpu_ns / 1000u));
  const JsonValue* pool = loaded.doc.Find("pool");
  ASSERT_NE(pool, nullptr);
  const JsonValue* pool_entry = nullptr;
  for (const JsonValue& p : pool->Find("phases")->array_items()) {
    if (p.FindString("name", "") == "test.one_record") pool_entry = &p;
  }
  ASSERT_NE(pool_entry, nullptr);
  EXPECT_EQ(pool_entry->FindNumber("tasks", 0.0),
            static_cast<double>(chunk_calls));

  fs::remove_all(ledger_dir);
  ResetPoolPhaseProfiles();
}

TEST_F(ProgressTest, HeartbeatsAreMonotoneUnderThreadedTicking) {
  GlobalThreadsGuard threads(4);
  ProgressOptions options;
  options.interval_ms = 5;
  options.out_path = out_path_;
  ASSERT_TRUE(StartProgressReporting(options));

  const uint64_t before = ProgressHeartbeatsEmitted();
  {
    PhaseSpan phase("test.threaded", 4000);
    ParallelFor(size_t{0}, size_t{4000}, size_t{64},
                [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        phase.Tick();
        if (i % 512 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
    // Give the reporter a few cadence intervals with the phase live.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  StopProgressReporting();
  EXPECT_GT(ProgressHeartbeatsEmitted(), before);

  const std::vector<std::string> lines = HeartbeatLines();
  ASSERT_GE(lines.size(), 2u);  // cadence beats + the final beat on stop
  uint64_t prev_seq = 0;
  double prev_elapsed = -1.0;
  uint64_t prev_done = 0;
  for (const std::string& line : lines) {
    const auto doc = JsonValue::Parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_EQ(doc->FindString("schema", ""), "ipin.heartbeat.v1");
    const uint64_t seq = static_cast<uint64_t>(doc->FindNumber("seq", 0.0));
    const double elapsed = doc->FindNumber("elapsed_ms", -1.0);
    EXPECT_GT(seq, prev_seq);  // strictly increasing
    EXPECT_GE(elapsed, prev_elapsed);
    prev_seq = seq;
    prev_elapsed = elapsed;
    if (doc->FindString("phase", "") == "test.threaded") {
      const uint64_t done =
          static_cast<uint64_t>(doc->FindNumber("units_done", 0.0));
      EXPECT_GE(done, prev_done);  // never goes backwards
      EXPECT_LE(done, 4000u);     // never overshoots the ticked total
      prev_done = done;
      EXPECT_EQ(doc->FindNumber("units_total", 0.0), 4000.0);
    }
    EXPECT_GE(doc->FindNumber("rss_bytes", -1.0), 0.0);
  }

  // The ring kept for the ledger saw the same stream.
  EXPECT_FALSE(RecentHeartbeatLines().empty());
}

// The first heartbeat emitted after the call, parsed; nullopt after 5 s.
std::optional<JsonValue> NextHeartbeat() {
  const double seen = static_cast<double>(ProgressHeartbeatsEmitted());
  for (int attempt = 0; attempt < 5000; ++attempt) {
    for (const std::string& line : RecentHeartbeatLines()) {
      auto doc = JsonValue::Parse(line);
      if (doc.has_value() && doc->FindNumber("seq", 0.0) > seen) return doc;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return std::nullopt;
}

TEST_F(ProgressTest, HeartbeatsNameTheInnermostPhaseSpan) {
  ProgressOptions options;
  options.interval_ms = 2;
  ASSERT_TRUE(StartProgressReporting(options));
  {
    PhaseSpan outer("test.hb_outer", 3);
    outer.Tick();
    {
      TraceSpan plain("test.hb_plain");  // no units: never named
      {
        PhaseSpan inner("test.hb_inner", 5);
        inner.Tick(2);
        const auto beat = NextHeartbeat();
        ASSERT_TRUE(beat.has_value());
        EXPECT_EQ(beat->FindString("phase", ""), "test.hb_inner");
        EXPECT_EQ(beat->FindNumber("units_done", 0.0), 2.0);
        EXPECT_EQ(beat->FindNumber("units_total", 0.0), 5.0);
      }
      const auto beat = NextHeartbeat();
      ASSERT_TRUE(beat.has_value());
      EXPECT_EQ(beat->FindString("phase", ""), "test.hb_outer");
      EXPECT_EQ(beat->FindNumber("units_done", 0.0), 1.0);
      EXPECT_EQ(beat->FindNumber("units_total", 0.0), 3.0);
    }
  }
  const auto beat = NextHeartbeat();
  ASSERT_TRUE(beat.has_value());
  EXPECT_EQ(beat->FindString("phase", ""), "idle");
  StopProgressReporting();
}

TEST_F(ProgressTest, ReporterLifecycle) {
  ProgressOptions options;
  options.interval_ms = 50;
  options.out_path = out_path_;
  ASSERT_TRUE(StartProgressReporting(options));
  EXPECT_FALSE(StartProgressReporting(options));  // already running
  StopProgressReporting();
  StopProgressReporting();  // idempotent
  // The final beat on stop guarantees at least one line even for a short
  // run that never reached the cadence interval.
  EXPECT_GE(HeartbeatLines().size(), 1u);

  ProgressOptions bad;
  bad.out_path = ::testing::TempDir() + "/no/such/dir/hb.jsonl";
  EXPECT_FALSE(StartProgressReporting(bad));
  StopProgressReporting();
}

TEST_F(ProgressTest, SpanTagsPoolSections) {
  GlobalThreadsGuard threads(2);
  ResetPoolPhaseProfiles();
  const char* const untagged = CurrentPoolPhase();
  {
    PhaseSpan phase("test.pooltag", 64);
    std::atomic<uint64_t> sink{0};
    ParallelFor(size_t{0}, size_t{64}, size_t{8}, [&](size_t lo, size_t hi) {
      uint64_t local = 0;
      for (size_t i = lo; i < hi; ++i) local += i * i;
      sink.fetch_add(local, std::memory_order_relaxed);
      phase.Tick(hi - lo);
    });
    EXPECT_GT(sink.load(), 0u);
    {
      TraceSpan nested("test.pooltag.nested");
      EXPECT_STREQ(CurrentPoolPhase(), "test.pooltag.nested");
    }
    EXPECT_STREQ(CurrentPoolPhase(), "test.pooltag");  // restored on close
  }
  EXPECT_EQ(CurrentPoolPhase(), untagged);
  bool found = false;
  for (const PoolPhaseProfile& profile : PoolPhaseProfiles()) {
    if (profile.name == "test.pooltag") {
      found = true;
      EXPECT_GT(profile.tasks, 0u);
      EXPECT_GE(profile.busy_us, 0u);
      EXPECT_GE(profile.max_task_us, 0u);
    }
  }
  EXPECT_TRUE(found);
  ResetPoolPhaseProfiles();
}

#else  // IPIN_OBS_DISABLED

TEST_F(ProgressTest, DisabledModeIsInert) {
  {
    PhaseSpan phase("test.noop", 10);
    phase.Tick(3);
    phase.SetDone(5);
    EXPECT_TRUE(OpenPhaseSpans().empty());
    EXPECT_EQ(CurrentPoolPhase(), nullptr);
  }
  EXPECT_TRUE(SpanTreeSnapshot().empty());
  ProgressOptions options;
  options.out_path = out_path_;
  EXPECT_FALSE(StartProgressReporting(options));
  StopProgressReporting();
  EXPECT_EQ(ProgressHeartbeatsEmitted(), 0u);
  EXPECT_TRUE(RecentHeartbeatLines().empty());
  EXPECT_FALSE(fs::exists(out_path_));
}

#endif  // IPIN_OBS_DISABLED

}  // namespace
}  // namespace ipin::obs
