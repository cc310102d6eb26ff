#include "ipin/obs/trace_events.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/json.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace.h"

namespace ipin::obs {
namespace {

// The recorder is process-global; each test runs its own Start/Stop session
// and resets the buffers afterwards. Tests run serially within the binary,
// so sessions never overlap.

class TraceEventsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    StopTraceRecording();  // harmless when already stopped
    ResetTraceEventsForTest();
  }

  // Records via real spans so the TraceSpan -> recorder hook is exercised.
  // Direct TraceSpan objects (not the macros) so the counts hold under
  // -DIPIN_OBS_DISABLED too, matching the test_trace_spans idiom.
  static void RecordSomeSpans() {
    TraceSpan outer("test.outer");
    for (int i = 0; i < 3; ++i) {
      TraceSpan inner("test.inner");
      RecordInstantEvent("test.tick");
    }
  }

  static std::string WriteTraceToTempFile(const char* name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    EXPECT_TRUE(WriteChromeTrace(path));
    std::ifstream in(path);
    std::stringstream contents;
    contents << in.rdbuf();
    std::remove(path.c_str());
    return contents.str();
  }
};

TEST_F(TraceEventsTest, OffByDefaultAndNoEventsRecorded) {
  EXPECT_FALSE(IsTraceRecording());
  RecordSomeSpans();
  EXPECT_EQ(GetTraceEventStats().recorded_events, 0u);
}

TEST_F(TraceEventsTest, StartStopLifecycle) {
  TraceRecorderOptions options;
  options.counter_sample_period_ms = 0;  // no sampler thread in unit tests
  ASSERT_TRUE(StartTraceRecording(options));
  EXPECT_TRUE(IsTraceRecording());
  EXPECT_FALSE(StartTraceRecording(options));  // second start refused
  StopTraceRecording();
  EXPECT_FALSE(IsTraceRecording());
}

TEST_F(TraceEventsTest, WritesValidJsonWithMatchedBeginEnd) {
  TraceRecorderOptions options;
  options.counter_sample_period_ms = 0;
  ASSERT_TRUE(StartTraceRecording(options));
  RecordSomeSpans();
  RecordCounterEvent("test.counter", 42.0);
  StopTraceRecording();

  const std::string text = WriteTraceToTempFile("trace.json");
  const auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.has_value()) << "not valid JSON:\n" << text;
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Begin/end events must pair up per (tid, name), properly nested.
  size_t begins = 0, ends = 0, instants = 0, counters = 0;
  std::vector<std::string> stack;
  for (const JsonValue& e : events->array_items()) {
    const std::string phase = e.FindString("ph", "");
    const std::string name = e.FindString("name", "");
    ASSERT_NE(e.Find("ts"), nullptr);
    if (phase == "B") {
      ++begins;
      stack.push_back(name);
    } else if (phase == "E") {
      ++ends;
      ASSERT_FALSE(stack.empty()) << "E without matching B";
      EXPECT_EQ(stack.back(), name);
      stack.pop_back();
    } else if (phase == "i") {
      ++instants;
    } else if (phase == "C") {
      ++counters;
      ASSERT_NE(e.Find("args"), nullptr);
    }
  }
  EXPECT_TRUE(stack.empty()) << "unclosed span in output";
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(begins, 4u);  // 1 outer + 3 inner
  EXPECT_EQ(instants, 3u);
  EXPECT_EQ(counters, 1u);
}

TEST_F(TraceEventsTest, TimestampsAreMonotonePerThread) {
  TraceRecorderOptions options;
  options.counter_sample_period_ms = 0;
  ASSERT_TRUE(StartTraceRecording(options));
  RecordSomeSpans();
  StopTraceRecording();

  const std::string text = WriteTraceToTempFile("trace_mono.json");
  const auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.has_value());
  double last_ts = -1.0;
  for (const JsonValue& e : doc->Find("traceEvents")->array_items()) {
    const double ts = e.FindNumber("ts", -1.0);
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
}

TEST_F(TraceEventsTest, RingWrapKeepsNewestAndStillBalances) {
  TraceRecorderOptions options;
  options.counter_sample_period_ms = 0;
  options.events_per_thread = 64;  // force wrap-around
  ASSERT_TRUE(StartTraceRecording(options));
  for (int i = 0; i < 500; ++i) {
    TraceSpan span("test.wrapped");
  }
  StopTraceRecording();

  const TraceEventStats stats = GetTraceEventStats();
  EXPECT_EQ(stats.recorded_events, 64u);
  EXPECT_EQ(stats.dropped_events, 1000u - 64u);  // 500 B + 500 E emitted

  const std::string text = WriteTraceToTempFile("trace_wrap.json");
  const auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  size_t begins = 0, ends = 0;
  int depth = 0;
  for (const JsonValue& e : doc->Find("traceEvents")->array_items()) {
    const std::string phase = e.FindString("ph", "");
    if (phase == "B") {
      ++begins;
      ++depth;
    } else if (phase == "E") {
      ++ends;
      --depth;
    }
    ASSERT_GE(depth, 0) << "unbalanced E after wrap";
  }
  EXPECT_EQ(begins, ends);
  EXPECT_GT(begins, 0u);
}

TEST_F(TraceEventsTest, OpenSpanGetsSyntheticEnd) {
  TraceRecorderOptions options;
  options.counter_sample_period_ms = 0;
  ASSERT_TRUE(StartTraceRecording(options));
  RecordBeginEvent("test.never_closed");
  RecordInstantEvent("test.inside");
  StopTraceRecording();

  const std::string text = WriteTraceToTempFile("trace_open.json");
  const auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  size_t begins = 0, ends = 0;
  for (const JsonValue& e : doc->Find("traceEvents")->array_items()) {
    const std::string phase = e.FindString("ph", "");
    begins += phase == "B";
    ends += phase == "E";
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u);  // synthetic close
}

TEST_F(TraceEventsTest, MultipleThreadsGetDistinctTids) {
  TraceRecorderOptions options;
  options.counter_sample_period_ms = 0;
  ASSERT_TRUE(StartTraceRecording(options));
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        TraceSpan span("test.worker");
      }
    });
  }
  for (auto& w : workers) w.join();
  StopTraceRecording();

  EXPECT_GE(GetTraceEventStats().threads, 4u);

  const std::string text = WriteTraceToTempFile("trace_mt.json");
  const auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  std::vector<double> tids;
  size_t events = 0;
  for (const JsonValue& e : doc->Find("traceEvents")->array_items()) {
    ++events;
    const double tid = e.FindNumber("tid", -1.0);
    ASSERT_GE(tid, 0.0);
    bool seen = false;
    for (const double t : tids) seen = seen || t == tid;
    if (!seen) tids.push_back(tid);
  }
  EXPECT_EQ(events, 4u * 100u);  // 4 threads x (50 B + 50 E)
  EXPECT_GE(tids.size(), 4u);
}

TEST_F(TraceEventsTest, CounterSamplerEmitsCounterTracks) {
  TraceRecorderOptions options;
  options.counter_sample_period_ms = 5;
  // Bump the counter before the session so even the sampler's first pass
  // sees the final value (samples record deterministically as 7).
  MetricsRegistry::Global().GetCounter("test.sampler.work_items")->Add(7);
  ASSERT_TRUE(StartTraceRecording(options));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  StopTraceRecording();

  const std::string text = WriteTraceToTempFile("trace_sampler.json");
  const auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  bool found = false;
  for (const JsonValue& e : doc->Find("traceEvents")->array_items()) {
    if (e.FindString("ph", "") != "C") continue;
    if (e.FindString("name", "") == "test.sampler.work_items") {
      found = true;
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_DOUBLE_EQ(args->FindNumber("value", -1.0), 7.0);
    }
  }
  EXPECT_TRUE(found) << "sampler did not record the counter track:\n" << text;
}

TEST_F(TraceEventsTest, SecondSessionDiscardsFirstSessionsEvents) {
  TraceRecorderOptions options;
  options.counter_sample_period_ms = 0;
  ASSERT_TRUE(StartTraceRecording(options));
  RecordSomeSpans();
  StopTraceRecording();
  EXPECT_GT(GetTraceEventStats().recorded_events, 0u);

  ASSERT_TRUE(StartTraceRecording(options));
  RecordInstantEvent("test.second_session");
  StopTraceRecording();

  const std::string text = WriteTraceToTempFile("trace_second.json");
  const auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  size_t events = 0;
  for (const JsonValue& e : doc->Find("traceEvents")->array_items()) {
    ++events;
    EXPECT_EQ(e.FindString("name", ""), "test.second_session");
  }
  EXPECT_EQ(events, 1u);
}

// An async stage is recorded from the caller's own stamps: its b/e pair
// spans exactly end - begin, on the lane of its id. A stage that began
// before the session is skipped, and none is recorded while not recording.
TEST_F(TraceEventsTest, AsyncStageSpansTheCallersStamps) {
  using std::chrono::microseconds;
  const auto before = std::chrono::steady_clock::now();
  RecordAsyncStage("test.idle", 1, before, before + microseconds(1));
  TraceRecorderOptions options;
  options.counter_sample_period_ms = 0;
  ASSERT_TRUE(StartTraceRecording(options));
  const auto begin = std::chrono::steady_clock::now();
  RecordAsyncStage("test.stage", 0xc0ffee, begin, begin + microseconds(250));
  RecordAsyncStage("test.early", 2, before, begin);
  StopTraceRecording();

  const std::string text = WriteTraceToTempFile("trace_async.json");
  const auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  const auto& events = doc->Find("traceEvents")->array_items();
  ASSERT_EQ(events.size(), 2u) << text;
  EXPECT_EQ(events[0].FindString("ph", ""), "b");
  EXPECT_EQ(events[1].FindString("ph", ""), "e");
  for (const JsonValue& e : events) {
    EXPECT_EQ(e.FindString("name", ""), "test.stage");
    EXPECT_EQ(e.FindString("cat", ""), "request");
    EXPECT_EQ(e.FindString("id", ""), "0xc0ffee");
  }
  EXPECT_NEAR(events[1].FindNumber("ts", 0) - events[0].FindNumber("ts", 0),
              250.0, 1e-3);
}

}  // namespace
}  // namespace ipin::obs
