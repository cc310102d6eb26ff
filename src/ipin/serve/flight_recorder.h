#ifndef IPIN_SERVE_FLIGHT_RECORDER_H_
#define IPIN_SERVE_FLIGHT_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ipin/serve/protocol.h"

// Slow-query flight recorder: a bounded in-memory ring of the last N
// completed requests plus every request that exceeded the slow-query
// threshold, each with per-stage wall-clock timings. The recorder answers
// the question "what did the slowest recent requests actually spend their
// time on" without logs, sampling profilers, or a restart: the "debug"
// protocol verb (and SIGUSR1 in ipin_oracled) dumps it as JSON.
//
// The recorder is deliberately cheap on the hot path — one mutex-guarded
// struct copy per completed request — and stays compiled in even under
// -DIPIN_OBS_DISABLED: the protocol's "debug" verb must answer with the
// same document shape in every build.
//
// Dump schema ("ipin.debug.v1"):
//
//   {"schema": "ipin.debug.v1",
//    "slow_threshold_us": 100000,
//    "recorded": 1234,            // requests seen since start
//    "slow_recorded": 7,          // of which exceeded the threshold
//    "recent": [ <record>, ... ], // oldest -> newest, bounded ring
//    "slow":   [ <record>, ... ]} // oldest -> newest, bounded ring
//
//   <record> = {"shard": 1,            // router shard legs only
//               "trace_id": "00c0ffee0badf00d", "id": 7,
//               "mode": "auto", "status": "OK", "degraded": false,
//               "seeds": 3, "epoch": 2, "age_us": 52341,
//               "admission_us": 12, "queue_us": 480, "eval_us": 1790,
//               "write_us": 55, "total_us": 2337}
//
// age_us is the time between the request's completion and the dump, so a
// reader can line records up against log timestamps. A served query is
// filed before its response is written (write_us 0, total_us so far) and
// completed after, so a client that reads the recorder once its answer
// arrives finds it.

namespace ipin::serve {

/// A stage duration in the microseconds every RequestRecord field uses.
inline int64_t ToMicros(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

/// One completed request, as the flight recorder saw it.
struct RequestRecord {
  uint64_t trace_id = 0;
  int64_t id = 0;
  QueryMode mode = QueryMode::kAuto;
  StatusCode status = StatusCode::kOk;
  bool degraded = false;
  size_t num_seeds = 0;
  uint64_t epoch = 0;
  /// Router only: the shard a leg record went to (-1 = not a shard leg;
  /// such records omit "shard" from the dump). The router records one leg
  /// record per shard RPC plus one overall record per request, all under
  /// the request's trace_id, so a dump shows which leg made a request slow.
  int shard = -1;
  /// Per-stage timings. The clock starts once the request line is parsed:
  /// the socket read and the parse are not recorded, which is time the
  /// client sees and no stage accounts for. admission covers the drain
  /// check and deadline set-up, queue the wait at the admission gate for
  /// an evaluation slot, eval the oracle evaluation, write the response
  /// serialization + socket write. total runs from the parsed request to
  /// the written response and can exceed the sum (scheduling gaps between
  /// stages).
  int64_t admission_us = 0;
  int64_t queue_us = 0;
  int64_t eval_us = 0;
  int64_t write_us = 0;
  int64_t total_us = 0;
  /// When the request completed (set by File() and again by Complete()).
  std::chrono::steady_clock::time_point completed{};
};

class FlightRecorder {
 public:
  /// Keeps the last `recent_capacity` requests and, separately, the last
  /// `slow_capacity` requests whose total_us exceeded `slow_threshold_us`.
  FlightRecorder(size_t recent_capacity, size_t slow_capacity,
                 int64_t slow_threshold_us);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one completed request: File, then Complete.
  void Record(const RequestRecord& record) { Complete(File(record), record); }

  /// Files a request into the recent ring before its response is written
  /// and returns its sequence number. Not yet classified as slow.
  uint64_t File(RequestRecord record);
  /// Replaces the filed record `seq` with `record` (the same request, with
  /// its write and total times), unless the ring has overwritten it since,
  /// and adds it to the slow ring if total_us exceeds the threshold.
  void Complete(uint64_t seq, RequestRecord record);

  /// Renders the "ipin.debug.v1" document described above.
  std::string DumpJson() const;

  /// Snapshots for tests, oldest -> newest.
  std::vector<RequestRecord> RecentSnapshot() const;
  std::vector<RequestRecord> SlowSnapshot() const;

  /// Requests seen / requests over the threshold since construction.
  uint64_t recorded() const;
  uint64_t slow_recorded() const;

  int64_t slow_threshold_us() const { return slow_threshold_us_; }

 private:
  // Fixed-capacity ring: write cursor wraps once size reaches capacity.
  struct Ring {
    explicit Ring(size_t capacity) : capacity(capacity) {}
    void Push(const RequestRecord& record);
    std::vector<RequestRecord> OldestFirst() const;
    const size_t capacity;
    std::vector<RequestRecord> slots;
    uint64_t next = 0;  // absolute count of pushes, the recorded() counts
  };

  const int64_t slow_threshold_us_;
  mutable std::mutex mu_;
  Ring recent_;
  Ring slow_;
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_FLIGHT_RECORDER_H_
