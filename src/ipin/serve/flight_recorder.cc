#include "ipin/serve/flight_recorder.h"

#include <algorithm>

#include "ipin/common/string_util.h"

namespace ipin::serve {
namespace {

const char* ModeName(QueryMode mode) {
  switch (mode) {
    case QueryMode::kSketch:
      return "sketch";
    case QueryMode::kExact:
      return "exact";
    case QueryMode::kAuto:
      return "auto";
  }
  return "auto";
}

void AppendRecordJson(const RequestRecord& record,
                      std::chrono::steady_clock::time_point now,
                      std::string* out) {
  const int64_t age_us = ToMicros(now - record.completed);
  if (record.shard >= 0) {
    out->append(StrFormat("{\"shard\":%d,", record.shard));
  } else {
    out->append("{");
  }
  out->append(StrFormat(
      "\"trace_id\":\"%s\",\"id\":%lld,\"mode\":\"%s\",\"status\":\"%s\","
      "\"degraded\":%s,\"seeds\":%zu,\"epoch\":%llu,\"age_us\":%lld,"
      "\"admission_us\":%lld,\"queue_us\":%lld,\"eval_us\":%lld,"
      "\"write_us\":%lld,\"total_us\":%lld}",
      TraceIdToHex(record.trace_id).c_str(),
      static_cast<long long>(record.id), ModeName(record.mode),
      StatusCodeName(record.status), record.degraded ? "true" : "false",
      record.num_seeds, static_cast<unsigned long long>(record.epoch),
      static_cast<long long>(age_us),
      static_cast<long long>(record.admission_us),
      static_cast<long long>(record.queue_us),
      static_cast<long long>(record.eval_us),
      static_cast<long long>(record.write_us),
      static_cast<long long>(record.total_us)));
}

}  // namespace

void FlightRecorder::Ring::Push(const RequestRecord& record) {
  if (slots.size() < capacity) {
    slots.push_back(record);
  } else if (capacity > 0) {
    slots[next % capacity] = record;
  }
  ++next;
}

std::vector<RequestRecord> FlightRecorder::Ring::OldestFirst() const {
  std::vector<RequestRecord> out;
  out.reserve(slots.size());
  if (slots.size() < capacity) {
    out = slots;  // not yet wrapped: insertion order is age order
  } else {
    for (size_t i = 0; i < capacity; ++i) {
      out.push_back(slots[(next + i) % capacity]);
    }
  }
  return out;
}

FlightRecorder::FlightRecorder(size_t recent_capacity, size_t slow_capacity,
                               int64_t slow_threshold_us)
    : slow_threshold_us_(slow_threshold_us),
      recent_(recent_capacity),
      slow_(slow_capacity) {}

uint64_t FlightRecorder::File(RequestRecord record) {
  record.completed = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t seq = recent_.next;
  recent_.Push(record);
  return seq;
}

void FlightRecorder::Complete(uint64_t seq, RequestRecord record) {
  record.completed = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  // Push number `seq` is still in the ring unless `capacity` pushes
  // followed it.
  if (recent_.next - seq <= recent_.capacity) {
    recent_.slots[seq % recent_.capacity] = record;
  }
  if (record.total_us > slow_threshold_us_) slow_.Push(record);
}

std::string FlightRecorder::DumpJson() const {
  const auto now = std::chrono::steady_clock::now();
  std::vector<RequestRecord> recent;
  std::vector<RequestRecord> slow;
  uint64_t recorded;
  uint64_t slow_recorded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    recent = recent_.OldestFirst();
    slow = slow_.OldestFirst();
    recorded = recent_.next;
    slow_recorded = slow_.next;
  }
  std::string out = StrFormat(
      "{\"schema\":\"ipin.debug.v1\",\"slow_threshold_us\":%lld,"
      "\"recorded\":%llu,\"slow_recorded\":%llu,\"recent\":[",
      static_cast<long long>(slow_threshold_us_),
      static_cast<unsigned long long>(recorded),
      static_cast<unsigned long long>(slow_recorded));
  for (size_t i = 0; i < recent.size(); ++i) {
    if (i > 0) out += ',';
    AppendRecordJson(recent[i], now, &out);
  }
  out += "],\"slow\":[";
  for (size_t i = 0; i < slow.size(); ++i) {
    if (i > 0) out += ',';
    AppendRecordJson(slow[i], now, &out);
  }
  out += "]}";
  return out;
}

std::vector<RequestRecord> FlightRecorder::RecentSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recent_.OldestFirst();
}

std::vector<RequestRecord> FlightRecorder::SlowSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_.OldestFirst();
}

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recent_.next;
}

uint64_t FlightRecorder::slow_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_.next;
}

}  // namespace ipin::serve
