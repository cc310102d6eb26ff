#include "ipin/obs/progress.h"

#ifndef IPIN_OBS_DISABLED

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "ipin/common/string_util.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/trace.h"

namespace ipin::obs {
namespace {

constexpr size_t kRecentLines = 64;

uint64_t NowSteadyMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t NowUnixMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

struct EngineState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::string> recent;  // last kRecentLines heartbeat lines
  uint64_t heartbeats = 0;
  // Reporter thread state.
  std::thread reporter;
  bool reporter_running = false;
  bool stop = false;
  std::FILE* out = nullptr;
  ProgressOptions options;
  uint64_t report_start_us = 0;
};

EngineState& Engine() {
  static auto* engine = new EngineState;
  return *engine;
}

// Composes and emits one heartbeat line. Caller holds Engine().mu.
void EmitHeartbeat(EngineState* e) {
  ++e->heartbeats;
  const char* phase = "idle";
  uint64_t done = 0;
  uint64_t total = 0;
  double rate = 0.0;
  double eta_s = -1.0;
  const std::vector<SpanStats> open = OpenPhaseSpans();
  if (!open.empty()) {
    const SpanStats& s = open.back();  // innermost
    phase = s.name.c_str();
    done = s.units_done;
    total = s.units_total;
    const double phase_seconds = s.TotalSeconds();
    if (phase_seconds > 0.0) rate = static_cast<double>(done) / phase_seconds;
    if (rate > 0.0 && total > done) {
      eta_s = static_cast<double>(total - done) / rate;
    }
  }
  std::string line = StrFormat(
      "{\"schema\":\"ipin.heartbeat.v1\",\"seq\":%llu,\"unix_ms\":%llu,"
      "\"elapsed_ms\":%llu,\"phase\":\"%s\",\"units_done\":%llu,"
      "\"units_total\":%llu,\"rate_per_s\":%.6g,\"rss_bytes\":%llu",
      static_cast<unsigned long long>(e->heartbeats),
      static_cast<unsigned long long>(NowUnixMillis()),
      static_cast<unsigned long long>(
          (NowSteadyMicros() - e->report_start_us) / 1000u),
      phase, static_cast<unsigned long long>(done),
      static_cast<unsigned long long>(total), rate,
      static_cast<unsigned long long>(CurrentRssBytes()));
  if (eta_s >= 0.0) line += StrFormat(",\"eta_s\":%.6g", eta_s);
  line += "}";

  if (e->out != nullptr) {
    std::fprintf(e->out, "%s\n", line.c_str());
    std::fflush(e->out);
  }
  if (e->options.stderr_ticker) {
    if (total > 0) {
      std::fprintf(stderr, "[ipin][progress] %s %llu/%llu (%.3g/s%s)\n",
                   phase, static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total), rate,
                   eta_s >= 0.0 ? StrFormat(", eta %.0fs", eta_s).c_str()
                                : "");
    } else {
      std::fprintf(stderr, "[ipin][progress] %s %llu units (%.3g/s)\n",
                   phase, static_cast<unsigned long long>(done), rate);
    }
  }
  e->recent.push_back(std::move(line));
  while (e->recent.size() > kRecentLines) e->recent.pop_front();
}

void ReporterMain() {
  EngineState& e = Engine();
  std::unique_lock<std::mutex> lock(e.mu);
  const auto interval =
      std::chrono::milliseconds(std::max<uint64_t>(1, e.options.interval_ms));
  while (!e.stop) {
    if (e.cv.wait_for(lock, interval, [&e] { return e.stop; })) break;
    EmitHeartbeat(&e);
  }
  EmitHeartbeat(&e);  // final line: every reported run emits at least one
  if (e.out != nullptr) {
    std::fclose(e.out);
    e.out = nullptr;
  }
}

}  // namespace

bool StartProgressReporting(const ProgressOptions& options) {
  EngineState& e = Engine();
  std::lock_guard<std::mutex> lock(e.mu);
  if (e.reporter_running) return false;
  std::FILE* out = nullptr;
  if (!options.out_path.empty()) {
    out = std::fopen(options.out_path.c_str(), "wb");
    if (out == nullptr) return false;
  }
  e.out = out;
  e.options = options;
  e.stop = false;
  e.report_start_us = NowSteadyMicros();
  e.reporter = std::thread(ReporterMain);
  e.reporter_running = true;
  return true;
}

void StopProgressReporting() {
  EngineState& e = Engine();
  std::thread reporter;
  {
    std::lock_guard<std::mutex> lock(e.mu);
    if (!e.reporter_running) return;
    e.stop = true;
    reporter = std::move(e.reporter);
    e.reporter_running = false;
  }
  e.cv.notify_all();
  reporter.join();
}

uint64_t ProgressHeartbeatsEmitted() {
  EngineState& e = Engine();
  std::lock_guard<std::mutex> lock(e.mu);
  return e.heartbeats;
}

std::vector<std::string> RecentHeartbeatLines() {
  EngineState& e = Engine();
  std::lock_guard<std::mutex> lock(e.mu);
  return {e.recent.begin(), e.recent.end()};
}

}  // namespace ipin::obs

#endif  // IPIN_OBS_DISABLED
