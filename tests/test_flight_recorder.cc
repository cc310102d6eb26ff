#include "ipin/serve/flight_recorder.h"

#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/json.h"

namespace ipin::serve {
namespace {

// A request parsed a second ago whose stamps make its stages admission 5,
// queue 10, eval total_us - 20 and write 5 microseconds.
RequestRecord MakeRecord(int64_t id, int64_t total_us) {
  using std::chrono::microseconds;
  RequestRecord record;
  record.trace_id = static_cast<uint64_t>(id) * 0x1111;
  record.id = id;
  record.mode = QueryMode::kAuto;
  record.status = StatusCode::kOk;
  record.num_seeds = 3;
  record.epoch = 1;
  record.parsed = Clock::now() - std::chrono::seconds(1);
  record.admitted = record.parsed + microseconds(5);
  record.entered = record.parsed + microseconds(15);
  record.evaluated = record.parsed + microseconds(total_us - 5);
  record.written = record.parsed + microseconds(total_us);
  return record;
}

TEST(FlightRecorderTest, RecentRingKeepsNewestInOrder) {
  FlightRecorder recorder(/*recent_capacity=*/4, /*slow_capacity=*/4,
                          /*slow_threshold_us=*/1000000);
  for (int64_t i = 1; i <= 7; ++i) recorder.Record(MakeRecord(i, 100));

  const FlightRecorder::Contents contents = recorder.Snapshot();
  EXPECT_EQ(contents.recorded, 7u);
  EXPECT_EQ(contents.slow_recorded, 0u);
  ASSERT_EQ(contents.recent.size(), 4u);
  // Oldest -> newest after the ring wrapped: 4, 5, 6, 7.
  for (size_t i = 0; i < contents.recent.size(); ++i) {
    EXPECT_EQ(contents.recent[i].id, static_cast<int64_t>(i + 4));
  }
  EXPECT_TRUE(contents.slow.empty());
}

TEST(FlightRecorderTest, UnwrappedRingPreservesInsertionOrder) {
  FlightRecorder recorder(8, 8, 1000000);
  for (int64_t i = 1; i <= 3; ++i) recorder.Record(MakeRecord(i, 100));
  const auto recent = recorder.Snapshot().recent;
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].id, 1);
  EXPECT_EQ(recent[2].id, 3);
}

TEST(FlightRecorderTest, SlowRequestsLandInBothRings) {
  FlightRecorder recorder(16, 2, /*slow_threshold_us=*/500);
  recorder.Record(MakeRecord(1, 100));   // fast
  recorder.Record(MakeRecord(2, 501));   // slow
  recorder.Record(MakeRecord(3, 9000));  // slow
  recorder.Record(MakeRecord(4, 500));   // exactly at threshold: not slow
  recorder.Record(MakeRecord(5, 700));   // slow; evicts id 2

  const FlightRecorder::Contents contents = recorder.Snapshot();
  EXPECT_EQ(contents.recorded, 5u);
  EXPECT_EQ(contents.slow_recorded, 3u);
  EXPECT_EQ(contents.recent.size(), 5u);
  const auto& slow = contents.slow;
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].id, 3);
  EXPECT_EQ(slow[1].id, 5);
}

TEST(FlightRecorderTest, ZeroCapacityRingsStillCount) {
  FlightRecorder recorder(0, 0, 10);
  recorder.Record(MakeRecord(1, 100));
  const FlightRecorder::Contents contents = recorder.Snapshot();
  EXPECT_EQ(contents.recorded, 1u);
  EXPECT_EQ(contents.slow_recorded, 1u);
  EXPECT_TRUE(contents.recent.empty());
  EXPECT_TRUE(contents.slow.empty());
}

TEST(FlightRecorderTest, DumpJsonMatchesSchema) {
  FlightRecorder recorder(8, 8, /*slow_threshold_us=*/500);
  recorder.Record(MakeRecord(7, 100));
  RequestRecord slow = MakeRecord(8, 2337);
  slow.status = StatusCode::kDeadlineExceeded;
  slow.degraded = true;
  recorder.Record(slow);

  const std::string dump = recorder.DumpJson();
  const auto doc = JsonValue::Parse(dump);
  ASSERT_TRUE(doc.has_value()) << dump;
  EXPECT_EQ(doc->FindString("schema", ""), "ipin.debug.v1");
  EXPECT_EQ(doc->FindNumber("slow_threshold_us", -1), 500.0);
  EXPECT_EQ(doc->FindNumber("recorded", -1), 2.0);
  EXPECT_EQ(doc->FindNumber("slow_recorded", -1), 1.0);

  const JsonValue* recent = doc->Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_TRUE(recent->is_array());
  ASSERT_EQ(recent->array_items().size(), 2u);
  const JsonValue& fast = recent->array_items()[0];
  EXPECT_EQ(fast.FindNumber("id", -1), 7.0);
  EXPECT_EQ(fast.FindString("mode", ""), "auto");
  EXPECT_EQ(fast.FindString("status", ""), "OK");
  EXPECT_EQ(fast.FindNumber("seeds", -1), 3.0);
  EXPECT_EQ(fast.FindNumber("total_us", -1), 100.0);
  EXPECT_GE(fast.FindNumber("age_us", -1), 0.0);

  const JsonValue* slow_arr = doc->Find("slow");
  ASSERT_NE(slow_arr, nullptr);
  ASSERT_TRUE(slow_arr->is_array());
  ASSERT_EQ(slow_arr->array_items().size(), 1u);
  const JsonValue& record = slow_arr->array_items()[0];
  EXPECT_EQ(record.FindNumber("id", -1), 8.0);
  EXPECT_EQ(record.FindString("status", ""), "DEADLINE_EXCEEDED");
  const JsonValue* degraded = record.Find("degraded");
  ASSERT_NE(degraded, nullptr);
  EXPECT_TRUE(degraded->is_bool());
  EXPECT_TRUE(degraded->bool_value());
  // Per-stage timings all present: the whole point of the recorder.
  EXPECT_EQ(record.FindNumber("admission_us", -1), 5.0);
  EXPECT_EQ(record.FindNumber("queue_us", -1), 10.0);
  EXPECT_EQ(record.FindNumber("eval_us", -1), 2317.0);
  EXPECT_EQ(record.FindNumber("write_us", -1), 5.0);
  // trace_id is the hex form the wire protocol uses.
  EXPECT_EQ(record.FindString("trace_id", ""), TraceIdToHex(8 * 0x1111));
}

TEST(FlightRecorderTest, FiledRecordIsDumpedBeforeItCompletes) {
  FlightRecorder recorder(8, 8, /*slow_threshold_us=*/500);
  // Filed before the response write: stages so far, no write stage.
  RequestRecord record = MakeRecord(9, 2000);
  const Clock::time_point written = record.written;
  record.written = {};
  const uint64_t seq = recorder.File(record);

  auto doc = JsonValue::Parse(recorder.DumpJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->FindNumber("recorded", -1), 1.0);
  ASSERT_EQ(doc->Find("recent")->array_items().size(), 1u);
  const JsonValue& filed = doc->Find("recent")->array_items()[0];
  EXPECT_EQ(filed.FindNumber("id", -1), 9.0);
  EXPECT_EQ(filed.FindNumber("eval_us", -1), 1980.0);
  EXPECT_EQ(filed.FindNumber("write_us", -1), 0.0);
  EXPECT_EQ(filed.FindNumber("total_us", -1), 1995.0);
  // Slowness is decided at completion, not at filing.
  EXPECT_EQ(doc->FindNumber("slow_recorded", -1), 0.0);
  EXPECT_TRUE(doc->Find("slow")->array_items().empty());

  // Completed after the write: the same slot, now with write and total.
  record.written = written;
  recorder.Complete(seq, record);
  doc = JsonValue::Parse(recorder.DumpJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->FindNumber("recorded", -1), 1.0);
  ASSERT_EQ(doc->Find("recent")->array_items().size(), 1u);
  const JsonValue& completed = doc->Find("recent")->array_items()[0];
  EXPECT_EQ(completed.FindNumber("write_us", -1), 5.0);
  EXPECT_EQ(completed.FindNumber("total_us", -1), 2000.0);
  EXPECT_EQ(doc->FindNumber("slow_recorded", -1), 1.0);
  ASSERT_EQ(doc->Find("slow")->array_items().size(), 1u);
  EXPECT_EQ(doc->Find("slow")->array_items()[0].FindNumber("id", -1), 9.0);
}

TEST(FlightRecorderTest, StagesFloorBoundariesAndSkipTheUnreached) {
  using std::chrono::nanoseconds;
  RequestRecord record;
  record.parsed = Clock::now();
  // Shed: never entered the queue, never evaluated. The write stage starts
  // where admission ended.
  record.admitted = record.parsed + nanoseconds(1900);
  record.written = record.parsed + nanoseconds(4100);
  RequestRecord::Stages stages = record.stages();
  EXPECT_EQ(stages.admission_us, 1);
  EXPECT_EQ(stages.queue_us, 0);
  EXPECT_EQ(stages.eval_us, 0);
  EXPECT_EQ(stages.write_us, 3);
  EXPECT_EQ(stages.total_us, 4);
  EXPECT_EQ(record.last_stamp(), record.written);

  // Boundaries are floored since parsed, so stages of 0.6-1.3 µs each still
  // add up to the floored total.
  record.entered = record.parsed + nanoseconds(2500);
  record.evaluated = record.parsed + nanoseconds(3300);
  stages = record.stages();
  EXPECT_EQ(stages.admission_us, 1);
  EXPECT_EQ(stages.queue_us, 1);
  EXPECT_EQ(stages.eval_us, 1);
  EXPECT_EQ(stages.write_us, 1);
  EXPECT_EQ(stages.total_us, 4);

  // A router leg is one eval stage, from its start to its end.
  RequestRecord leg;
  leg.shard = 0;
  leg.parsed = record.parsed;
  leg.evaluated = leg.parsed + nanoseconds(250400);
  stages = leg.stages();
  EXPECT_EQ(stages.admission_us, 0);
  EXPECT_EQ(stages.eval_us, 250);
  EXPECT_EQ(stages.write_us, 0);
  EXPECT_EQ(stages.total_us, 250);
  EXPECT_EQ(leg.last_stamp(), leg.evaluated);
}

TEST(FlightRecorderTest, CompletingAnOverwrittenSlotLeavesItAlone) {
  FlightRecorder recorder(/*recent_capacity=*/2, 4, /*slow_threshold_us=*/500);
  const uint64_t seq = recorder.File(MakeRecord(1, 100));
  recorder.Record(MakeRecord(2, 100));
  recorder.Record(MakeRecord(3, 100));  // overwrites id 1's slot
  recorder.Complete(seq, MakeRecord(1, 900));
  const auto recent = recorder.Snapshot().recent;
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].id, 2);
  EXPECT_EQ(recent[1].id, 3);
  // Still classified: a slow request is kept even if its recent slot went.
  const auto slow = recorder.Snapshot().slow;
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].id, 1);
}

TEST(FlightRecorderTest, DumpOfEmptyRecorderIsValidJson) {
  FlightRecorder recorder(4, 4, 1000);
  const auto doc = JsonValue::Parse(recorder.DumpJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->FindNumber("recorded", -1), 0.0);
  ASSERT_NE(doc->Find("recent"), nullptr);
  EXPECT_TRUE(doc->Find("recent")->array_items().empty());
}

}  // namespace
}  // namespace ipin::serve
