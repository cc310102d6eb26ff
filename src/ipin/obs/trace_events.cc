#include "ipin/obs/trace_events.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/metrics.h"

namespace ipin::obs {

namespace internal {
std::atomic<bool> g_trace_recording{false};
}  // namespace internal

namespace {

enum class Phase : char {
  kBegin = 'B',
  kEnd = 'E',
  kInstant = 'i',
  kCounter = 'C',
  kAsyncBegin = 'b',
  kAsyncEnd = 'e',
};

struct TraceEvent {
  const char* name = nullptr;  // must outlive the session
  double value = 0.0;          // counter events only
  uint64_t ts_ns = 0;          // nanoseconds since the session clock origin
  uint64_t id = 0;             // async events only: the lane id
  Phase phase = Phase::kInstant;
};

/// One thread's ring buffer. Owned by the global registry; the owning
/// thread writes without synchronization while recording is on (the
/// exporter only reads after StopTraceRecording).
struct ThreadEventBuffer {
  explicit ThreadEventBuffer(uint32_t tid_in, size_t capacity)
      : tid(tid_in), events(capacity) {}

  void Push(const TraceEvent& event) {
    events[next % events.size()] = event;
    ++next;
  }

  size_t Size() const { return std::min(next, events.size()); }
  size_t Dropped() const {
    return next > events.size() ? next - events.size() : 0;
  }

  /// Buffered events, oldest first (unwinds the ring).
  void CollectInOrder(std::vector<TraceEvent>* out) const {
    const size_t count = Size();
    const size_t start = next - count;  // absolute index of the oldest
    for (size_t i = 0; i < count; ++i) {
      out->push_back(events[(start + i) % events.size()]);
    }
  }

  const uint32_t tid;
  std::vector<TraceEvent> events;
  size_t next = 0;  // absolute write index; next % capacity is the slot
};

// Buffer registry. Starting a session bumps the generation; threads holding
// a buffer from an older generation re-register, and the old buffers move
// to a retired list instead of being freed — a thread preempted around a
// session boundary may still complete one store into its stale buffer, so
// retired buffers must stay valid (they are dropped only by
// ResetTraceEventsForTest, under its no-concurrent-recording contract).
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadEventBuffer>>* CurrentBuffersLocked() {
  static auto* const buffers =
      new std::vector<std::unique_ptr<ThreadEventBuffer>>();
  return buffers;
}
std::vector<std::unique_ptr<ThreadEventBuffer>>* RetiredBuffersLocked() {
  static auto* const buffers =
      new std::vector<std::unique_ptr<ThreadEventBuffer>>();
  return buffers;
}

std::atomic<uint64_t> g_session_generation{0};

// Session configuration, fixed while recording is on.
size_t g_events_per_thread = 1 << 16;

// Clock origin shared by all threads in a session.
std::chrono::steady_clock::time_point g_clock_origin;

uint64_t NsSinceOrigin(std::chrono::steady_clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_clock_origin)
          .count());
}

thread_local ThreadEventBuffer* t_buffer = nullptr;
thread_local uint64_t t_buffer_generation = 0;

ThreadEventBuffer* GetThreadBuffer() {
  const uint64_t generation =
      g_session_generation.load(std::memory_order_acquire);
  if (t_buffer == nullptr || t_buffer_generation != generation) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    auto* buffers = CurrentBuffersLocked();
    const uint32_t tid = static_cast<uint32_t>(buffers->size() + 1);
    buffers->push_back(
        std::make_unique<ThreadEventBuffer>(tid, g_events_per_thread));
    t_buffer = buffers->back().get();
    t_buffer_generation = generation;
  }
  return t_buffer;
}

void Record(Phase phase, const char* name, double value, uint64_t id = 0,
            std::chrono::steady_clock::time_point at =
                std::chrono::steady_clock::now()) {
  TraceEvent event;
  event.name = name;
  event.value = value;
  event.ts_ns = NsSinceOrigin(at);
  event.id = id;
  event.phase = phase;
  GetThreadBuffer()->Push(event);
}

/// Background thread: snapshots the metrics registry every period and
/// records changed counters/gauges as counter-track events, plus the
/// process RSS. Metric names are std::strings in the snapshot, so they are
/// interned once into a leaked pool to satisfy the const char* lifetime
/// rule.
class CounterSampler {
 public:
  void Start(int period_ms) {
    stop_ = false;
    thread_ = std::thread([this, period_ms] { Loop(period_ms); });
  }

  void Stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Loop(int period_ms) {
    std::map<std::string, double> last;
    while (true) {
      SampleOnce(&last);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                   [this] { return stop_; });
      if (stop_) {
        lock.unlock();
        SampleOnce(&last);  // final sample so tracks reach the trace end
        return;
      }
    }
  }

  void SampleOnce(std::map<std::string, double>* last) {
    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    for (const auto& [name, value] : snapshot.counters) {
      // The span tree already carries trace.* aggregates; re-plotting every
      // span path as a counter track would drown the view.
      if (StartsWith(name, "trace.")) continue;
      MaybeRecord(name, static_cast<double>(value), last);
    }
    for (const auto& [name, value] : snapshot.gauges) {
      MaybeRecord(name, value, last);
    }
    const size_t rss = CurrentRssBytes();
    if (rss > 0) {
      MaybeRecord("mem.process.rss_bytes", static_cast<double>(rss), last);
    }
  }

  void MaybeRecord(const std::string& name, double value,
                   std::map<std::string, double>* last) {
    auto [it, inserted] = last->emplace(name, value);
    if (!inserted) {
      if (it->second == value) return;  // unchanged: skip the sample
      it->second = value;
    }
    // Bypasses the IsTraceRecording gate: the final Stop()-time sample runs
    // after the flag clears and must still land in the buffers.
    Record(Phase::kCounter, Intern(name), value);
  }

  const char* Intern(const std::string& name) {
    // Leaked pool: names must outlive the buffers, which outlive sessions.
    static auto* const pool = new std::set<std::string>();
    return pool->insert(name).first->c_str();
  }

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

CounterSampler g_sampler;
bool g_sampler_running = false;  // touched only under g_buffers_mu / by Stop

void AppendEventJson(const TraceEvent& event, uint32_t tid,
                     std::string* out) {
  // ts is microseconds (Chrome's unit), with ns precision kept as decimals.
  out->append(StrFormat("{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":1,"
                        "\"tid\":%u,\"ts\":%.3f",
                        event.name, static_cast<char>(event.phase), tid,
                        static_cast<double>(event.ts_ns) / 1000.0));
  switch (event.phase) {
    case Phase::kCounter:
      out->append(StrFormat(",\"args\":{\"value\":%.10g}", event.value));
      break;
    case Phase::kInstant:
      out->append(",\"s\":\"t\"");  // thread-scoped instant
      break;
    case Phase::kAsyncBegin:
    case Phase::kAsyncEnd:
      // cat+id+name identify the async track; Chrome renders all events
      // sharing an id as one lane.
      out->append(StrFormat(",\"cat\":\"request\",\"id\":\"0x%llx\"",
                            static_cast<unsigned long long>(event.id)));
      break;
    default:
      break;
  }
  out->append("},\n");
}

}  // namespace

bool StartTraceRecording(const TraceRecorderOptions& options) {
  bool start_sampler = false;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    if (internal::g_trace_recording.load(std::memory_order_relaxed)) {
      return false;
    }
    // Previous session's buffers retire (see the registry comment); the new
    // session starts empty at its own capacity.
    auto* current = CurrentBuffersLocked();
    auto* retired = RetiredBuffersLocked();
    for (auto& buffer : *current) retired->push_back(std::move(buffer));
    current->clear();
    g_events_per_thread = std::max<size_t>(options.events_per_thread, 16);
    g_clock_origin = std::chrono::steady_clock::now();
    g_session_generation.fetch_add(1, std::memory_order_release);
    internal::g_trace_recording.store(true, std::memory_order_release);
    start_sampler = options.counter_sample_period_ms > 0;
    if (start_sampler) {
      g_sampler_running = true;
    }
  }
  if (start_sampler) {
    g_sampler.Start(options.counter_sample_period_ms);
  }
  return true;
}

void StopTraceRecording() {
  bool join_sampler = false;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    if (!internal::g_trace_recording.load(std::memory_order_relaxed)) return;
    internal::g_trace_recording.store(false, std::memory_order_release);
    join_sampler = g_sampler_running;
    g_sampler_running = false;
  }
  // Join outside the lock: the sampler's final pass records events, which
  // may need to register a buffer.
  if (join_sampler) {
    g_sampler.Stop();
  }
}

void RecordInstantEvent(const char* name) {
  if (!IsTraceRecording()) return;
  Record(Phase::kInstant, name, 0.0);
}

void RecordCounterEvent(const char* name, double value) {
  if (!IsTraceRecording()) return;
  Record(Phase::kCounter, name, value);
}

void RecordAsyncStage(const char* name, uint64_t id,
                      std::chrono::steady_clock::time_point begin,
                      std::chrono::steady_clock::time_point end) {
  if (!IsTraceRecording() || begin < g_clock_origin) return;
  Record(Phase::kAsyncBegin, name, 0.0, id, begin);
  Record(Phase::kAsyncEnd, name, 0.0, id, end);
}

void RecordBeginEvent(const char* name) { Record(Phase::kBegin, name, 0.0); }

void RecordEndEvent(const char* name) { Record(Phase::kEnd, name, 0.0); }

bool WriteChromeTrace(const std::string& path) {
  // Snapshot the current session's buffers. Call after StopTraceRecording:
  // threads still recording would race the copy.
  std::vector<std::vector<TraceEvent>> per_thread;
  std::vector<uint32_t> tids;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    for (const auto& buffer : *CurrentBuffersLocked()) {
      per_thread.emplace_back();
      buffer->CollectInOrder(&per_thread.back());
      tids.push_back(buffer->tid);
    }
  }

  std::string out;
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  uint64_t last_ts_ns = 0;
  for (const auto& events : per_thread) {
    if (!events.empty()) {
      last_ts_ns = std::max(last_ts_ns, events.back().ts_ns);
    }
  }
  for (size_t b = 0; b < per_thread.size(); ++b) {
    const std::vector<TraceEvent>& events = per_thread[b];
    const uint32_t tid = tids[b];
    // Balance begin/end within the thread. Spans are RAII so each thread's
    // B/E sequence is well nested; after ring wrap-around we hold a suffix
    // of it, in which a stack pass matches exactly the pairs that survived
    // and identifies ends whose begin was overwritten (dropped below).
    std::vector<const TraceEvent*> open;
    for (const TraceEvent& event : events) {
      if (event.phase == Phase::kBegin) {
        open.push_back(&event);
        AppendEventJson(event, tid, &out);
      } else if (event.phase == Phase::kEnd) {
        if (open.empty()) continue;  // begin lost to wrap-around: drop
        open.pop_back();
        AppendEventJson(event, tid, &out);
      } else {
        AppendEventJson(event, tid, &out);
      }
    }
    // Close spans still open at the buffer end (innermost first) so viewers
    // render them instead of discarding the whole thread track.
    for (size_t i = open.size(); i > 0; --i) {
      TraceEvent synthetic = *open[i - 1];
      synthetic.phase = Phase::kEnd;
      synthetic.ts_ns = std::max(last_ts_ns, synthetic.ts_ns);
      AppendEventJson(synthetic, tid, &out);
    }
  }
  // Replace the trailing ",\n" (if any event was written) to close the array.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out.append("]}\n");

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    LogError("cannot open trace file: " + path + ": " + std::strerror(errno));
    return false;
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != out.size() || !close_ok) {
    LogError("short write on trace file: " + path);
    return false;
  }
  return true;
}

TraceEventStats GetTraceEventStats() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  TraceEventStats stats;
  for (const auto& buffer : *CurrentBuffersLocked()) {
    if (buffer->next == 0) continue;
    ++stats.threads;
    stats.recorded_events += buffer->Size();
    stats.dropped_events += buffer->Dropped();
  }
  return stats;
}

void ResetTraceEventsForTest() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  CurrentBuffersLocked()->clear();
  RetiredBuffersLocked()->clear();
  // Invalidate every thread's cached pointer (they re-check the generation).
  g_session_generation.fetch_add(1, std::memory_order_release);
  t_buffer = nullptr;
}

}  // namespace ipin::obs
