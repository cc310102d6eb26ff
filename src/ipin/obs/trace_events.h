#ifndef IPIN_OBS_TRACE_EVENTS_H_
#define IPIN_OBS_TRACE_EVENTS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

// Opt-in trace-EVENT recording: where obs/trace.h aggregates spans into a
// (path -> calls/total time) tree, this layer records the individual
// begin/end/instant events into per-thread ring buffers and exports them as
// a Chrome/Perfetto trace_event JSON file — the flame-graph view of one run
// (open with https://ui.perfetto.dev or chrome://tracing).
//
// Cost model: recording is OFF by default; every IPIN_TRACE_SPAN then pays
// one relaxed atomic load and a predictable branch on top of its existing
// work. While recording, each event is a bounds check plus a struct store
// into a thread-local ring buffer — no locks, no allocation on the hot path
// (buffers allocate once, on each thread's first event). When a ring fills
// it wraps, keeping the newest events and counting the overwritten ones.
//
// A background sampler thread (optional, on by default while recording)
// periodically snapshots the metrics registry and records changed counters
// and gauges as Chrome counter ("C") events, plus the process RSS — so the
// exported trace carries metric tracks alongside the span flame graph.

namespace ipin::obs {

struct TraceRecorderOptions {
  /// Events retained per thread; older events are overwritten when a
  /// thread's ring fills. ~48 bytes per slot.
  size_t events_per_thread = 1 << 16;
  /// Period of the metric-counter/RSS sampler thread; 0 disables it.
  int counter_sample_period_ms = 10;
};

namespace internal {
extern std::atomic<bool> g_trace_recording;
}  // namespace internal

/// True while a recording session is active. One relaxed load; this is the
/// only cost tracing adds to span hot paths when recording is off.
inline bool IsTraceRecording() {
  return internal::g_trace_recording.load(std::memory_order_relaxed);
}

/// Starts a recording session. Returns false (and changes nothing) if one
/// is already active. Thread-safe.
bool StartTraceRecording(const TraceRecorderOptions& options = {});

/// Stops the active session (joins the sampler thread). Recorded events
/// stay buffered for WriteChromeTrace until the next StartTraceRecording.
/// No-op when not recording.
void StopTraceRecording();

/// Records an instant event ("i" phase). `name` must outlive the recording
/// session (string literals in practice). No-op when not recording.
void RecordInstantEvent(const char* name);

/// Records one sample of a counter track ("C" phase). Same lifetime rule
/// for `name`. No-op when not recording.
void RecordCounterEvent(const char* name, double value);

/// Records one finished stage of an async ("b"/"e") lane at the caller's
/// own stamps `begin` and `end`. Chrome/Perfetto draws async events of one
/// category and id as one lane whichever thread recorded them: the serving
/// layer's one lane per request trace id. A stage still running when
/// recording stops has no lane; one begun before the session is skipped.
/// Same lifetime rule for `name`. No-op when not recording.
void RecordAsyncStage(const char* name, uint64_t id,
                      std::chrono::steady_clock::time_point begin,
                      std::chrono::steady_clock::time_point end);

// Hooks for TraceSpan (trace.cc); callers use IPIN_TRACE_SPAN as before.
void RecordBeginEvent(const char* name);
void RecordEndEvent(const char* name);

/// Writes every buffered event as a Chrome trace_event JSON document
/// ({"traceEvents": [...]}, timestamps in microseconds). Begin/end events
/// are balanced per thread: ends with no matching begin (begun before the
/// session, or whose begin was overwritten by ring wrap-around) are
/// dropped, and spans still open at the end of the buffer get a synthetic
/// end so viewers render them. Returns false and logs on I/O failure.
/// Call after StopTraceRecording.
bool WriteChromeTrace(const std::string& path);

/// Counts for tests and the CLI summary line.
struct TraceEventStats {
  size_t recorded_events = 0;  // currently buffered (post-wrap)
  size_t dropped_events = 0;   // overwritten by ring wrap-around
  size_t threads = 0;          // threads that recorded at least one event
};
TraceEventStats GetTraceEventStats();

/// Discards all buffered events and per-thread buffers. Test-only: callers
/// must guarantee no recording session is active and no thread is mid-event.
void ResetTraceEventsForTest();

}  // namespace ipin::obs

#ifdef IPIN_OBS_DISABLED
#define IPIN_TRACE_INSTANT(name) \
  do {                           \
  } while (0)
#else
/// Records an instant event when a recording session is active.
#define IPIN_TRACE_INSTANT(name)                         \
  do {                                                   \
    if (::ipin::obs::IsTraceRecording()) {               \
      ::ipin::obs::RecordInstantEvent(name);             \
    }                                                    \
  } while (0)
#endif  // IPIN_OBS_DISABLED

#endif  // IPIN_OBS_TRACE_EVENTS_H_
