#include "ipin/serve/flight_recorder.h"

#include "ipin/common/string_util.h"

namespace ipin::serve {
namespace {

int64_t ToMicros(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

void AppendRecordJson(const RequestRecord& record, Clock::time_point now,
                      std::string* out) {
  const RequestRecord::Stages stages = record.stages();
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
      static_cast<long long>(record.id), QueryModeName(record.mode),
      StatusCodeName(record.status), record.degraded ? "true" : "false",
      record.num_seeds, static_cast<unsigned long long>(record.epoch),
      static_cast<long long>(ToMicros(now - record.last_stamp())),
      static_cast<long long>(stages.admission_us),
      static_cast<long long>(stages.queue_us),
      static_cast<long long>(stages.eval_us),
      static_cast<long long>(stages.write_us),
      static_cast<long long>(stages.total_us)));
}

}  // namespace

RequestRecord::Stages RequestRecord::stages() const {
  // Each stage steps from the last boundary reached, so they telescope.
  Stages out;
  int64_t at = 0;
  const auto stage = [&](Clock::time_point end) -> int64_t {
    if (!Reached(end)) return 0;
    const int64_t from = at;
    at = ToMicros(end - parsed);
    return at - from;
  };
  out.admission_us = stage(admitted);
  out.queue_us = stage(entered);
  out.eval_us = stage(evaluated);
  out.write_us = stage(written);
  out.total_us = at;
  return out;
}

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
  // The oldest is push number next - size; unwrapped, that is slot 0.
  for (size_t i = 0; i < slots.size(); ++i) {
    out.push_back(slots[(next - slots.size() + i) % capacity]);
  }
  return out;
}

FlightRecorder::FlightRecorder(size_t recent_capacity, size_t slow_capacity,
                               int64_t slow_threshold_us)
    : slow_threshold_us_(slow_threshold_us),
      recent_(recent_capacity),
      slow_(slow_capacity) {}

uint64_t FlightRecorder::File(const RequestRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t seq = recent_.next;
  recent_.Push(record);
  return seq;
}

void FlightRecorder::Complete(uint64_t seq, const RequestRecord& record) {
  const bool slow = record.stages().total_us > slow_threshold_us_;
  std::lock_guard<std::mutex> lock(mu_);
  // Push number `seq` is still in the ring unless `capacity` pushes
  // followed it.
  if (recent_.next - seq <= recent_.capacity) {
    recent_.slots[seq % recent_.capacity] = record;
  }
  if (slow) slow_.Push(record);
}

FlightRecorder::Contents FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {recent_.OldestFirst(), slow_.OldestFirst(), recent_.next,
          slow_.next};
}

std::string FlightRecorder::DumpJson() const {
  const auto now = Clock::now();
  const Contents contents = Snapshot();
  std::string out = StrFormat(
      "{\"schema\":\"ipin.debug.v1\",\"slow_threshold_us\":%lld,"
      "\"recorded\":%llu,\"slow_recorded\":%llu,\"recent\":[",
      static_cast<long long>(slow_threshold_us_),
      static_cast<unsigned long long>(contents.recorded),
      static_cast<unsigned long long>(contents.slow_recorded));
  const auto append = [&](const std::vector<RequestRecord>& ring) {
    for (size_t i = 0; i < ring.size(); ++i) {
      if (i > 0) out += ',';
      AppendRecordJson(ring[i], now, &out);
    }
  };
  append(contents.recent);
  out += "],\"slow\":[";
  append(contents.slow);
  out += "]}";
  return out;
}

}  // namespace ipin::serve
