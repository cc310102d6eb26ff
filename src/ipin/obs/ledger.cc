#include "ipin/obs/ledger.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <utility>

#ifdef __unix__
#include <unistd.h>
#endif

#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"
#include "ipin/common/thread_pool.h"
#include "ipin/obs/export.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/progress.h"
#include "ipin/obs/trace.h"

namespace ipin::obs {
namespace {

namespace fs = std::filesystem;

// Input files are fingerprinted by size plus the CRC of their first MiB:
// enough to tell "same dataset?" across runs without rescanning gigabytes.
constexpr size_t kFingerprintBytes = 1 << 20;

uint64_t NowUnixMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint64_t NowSteadyMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct LedgerInput {
  std::string path;
  uint64_t bytes = 0;
  uint32_t crc32c = 0;
};

struct LedgerEvent {
  uint64_t t_ms = 0;
  std::string kind;
  std::string detail;
};

void AppendU64(const char* key, uint64_t value, std::string* out) {
  out->append(StrFormat("\"%s\":%llu", key,
                        static_cast<unsigned long long>(value)));
}

}  // namespace

RunProvenance CollectRunProvenance() {
  RunProvenance p;
  if (const char* env = std::getenv("IPIN_GIT_SHA");
      env != nullptr && env[0] != '\0') {
    p.git_sha = env;
  } else {
#ifdef IPIN_GIT_SHA
    p.git_sha = IPIN_GIT_SHA;
#else
    p.git_sha = "unknown";
#endif
  }
#ifdef __unix__
  char host[256] = {0};
  if (gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    p.hostname = host;
  }
#endif
  if (p.hostname.empty()) p.hostname = "unknown";
#ifdef IPIN_BUILD_TYPE
  p.build_type = IPIN_BUILD_TYPE;
#else
  p.build_type = "unknown";
#endif
#ifdef IPIN_OBS_DISABLED
  p.obs_mode = "disabled";
#else
  p.obs_mode = "enabled";
#endif
  p.cpus = HardwareThreads();
  p.threads = GlobalThreads();
  return p;
}

struct RunLedger::Impl {
  mutable std::mutex mu;
  bool begun = false;
  RunLedgerOptions options;
  uint64_t start_unix_ms = 0;
  uint64_t start_steady_us = 0;
  uint64_t seq = 0;  // per-process run counter, disambiguates filenames
  std::vector<LedgerInput> inputs;
  std::vector<std::string> outputs;
  std::vector<LedgerEvent> events;
  size_t events_dropped = 0;
  std::set<std::string> event_kinds;  // survives the event cap

  std::string CoreFrame(const std::string& outcome, int exit_code,
                        double wall_seconds) const {
    const RunProvenance prov = CollectRunProvenance();
    std::string out = "{\"schema\":\"ipin.run.v1\",\"section\":\"core\"";
    out += ",\"tool\":";
    AppendJsonString(options.tool, &out);
    out += ",\"command\":";
    AppendJsonString(options.command, &out);
    out += ",\"args\":";
    AppendJsonString(options.args, &out);
    out += ",";
    AppendU64("start_unix_ms", start_unix_ms, &out);
    out += ",\"wall_seconds\":";
    AppendJsonDouble(wall_seconds, &out);
    out += ",\"outcome\":";
    AppendJsonString(outcome, &out);
    out += StrFormat(",\"exit_code\":%d", exit_code);
    out += ",\"provenance\":{\"git_sha\":";
    AppendJsonString(prov.git_sha, &out);
    out += ",\"hostname\":";
    AppendJsonString(prov.hostname, &out);
    out += ",\"build_type\":";
    AppendJsonString(prov.build_type, &out);
    out += ",\"obs\":";
    AppendJsonString(prov.obs_mode, &out);
    out += ",";
    AppendU64("cpus", prov.cpus, &out);
    out += ",";
    AppendU64("threads", prov.threads, &out);
    out += "},\"inputs\":[";
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (i > 0) out += ",";
      out += "{\"path\":";
      AppendJsonString(inputs[i].path, &out);
      out += ",";
      AppendU64("bytes", inputs[i].bytes, &out);
      out += ",";
      AppendU64("crc32c", inputs[i].crc32c, &out);
      out += "}";
    }
    out += "],\"outputs\":[";
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (i > 0) out += ",";
      AppendJsonString(outputs[i], &out);
    }
    out += "],";
    AppendU64("peak_rss_bytes", PeakRssBytes(), &out);
    out += "}";
    return out;
  }

  std::string ActivityFrame() const {
    std::string out = "{\"section\":\"activity\",\"events\":[";
    for (size_t i = 0; i < events.size(); ++i) {
      if (i > 0) out += ",";
      out += "{";
      AppendU64("t_ms", events[i].t_ms, &out);
      out += ",\"kind\":";
      AppendJsonString(events[i].kind, &out);
      out += ",\"detail\":";
      AppendJsonString(events[i].detail, &out);
      out += "}";
    }
    out += "],";
    AppendU64("events_dropped", events_dropped, &out);
    out += ",\"phases\":[";
    std::vector<SpanStats> spans = SpanTreeSnapshot();
    for (SpanStats& open : OpenPhaseSpans()) spans.push_back(std::move(open));
    bool first = true;
    for (const SpanStats& p : spans) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":";
      AppendJsonString(p.path, &out);
      out += ",";
      AppendU64("instances", p.calls, &out);
      out += ",";
      AppendU64("units_done", p.units_done, &out);
      out += ",";
      AppendU64("units_total", p.units_total, &out);
      out += ",";
      AppendU64("wall_us", p.total_ns / 1000u, &out);
      out += ",";
      AppendU64("cpu_us", p.cpu_ns / 1000u, &out);
      out += StrFormat(",\"active\":%s}", p.active ? "true" : "false");
    }
    out += StrFormat("],\"pool\":{\"threads\":%llu,\"phases\":[",
                     static_cast<unsigned long long>(GlobalThreads()));
    first = true;
    for (const PoolPhaseProfile& p : PoolPhaseProfiles()) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":";
      AppendJsonString(p.name, &out);
      out += ",";
      AppendU64("tasks", p.tasks, &out);
      out += ",";
      AppendU64("busy_us", p.busy_us, &out);
      out += ",";
      AppendU64("max_task_us", p.max_task_us, &out);
      out += ",";
      AppendU64("wall_us", p.wall_us, &out);
      out += ",\"imbalance\":";
      AppendJsonDouble(p.ImbalanceRatio(), &out);
      out += ",\"utilization\":";
      AppendJsonDouble(p.Utilization(GlobalThreads()), &out);
      out += "}";
    }
    out += "]},\"heartbeats\":{";
    AppendU64("emitted", ProgressHeartbeatsEmitted(), &out);
    out += ",\"recent\":[";
    first = true;
    for (const std::string& line : RecentHeartbeatLines()) {
      if (!first) out += ",";
      first = false;
      out += line;  // each heartbeat line is itself a JSON object
    }
    out += "]}}";
    return out;
  }

  std::string MetricsFrame() const {
    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    std::string out = "{\"section\":\"metrics\",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snapshot.counters) {
      if (!first) out += ",";
      first = false;
      AppendJsonString(name, &out);
      out += StrFormat(":%llu", static_cast<unsigned long long>(value));
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : snapshot.gauges) {
      if (!first) out += ",";
      first = false;
      AppendJsonString(name, &out);
      out += ":";
      AppendJsonDouble(value, &out);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const HistogramSnapshot& h : snapshot.histograms) {
      if (!first) out += ",";
      first = false;
      AppendJsonString(h.name, &out);
      out += StrFormat(":{\"count\":%llu,\"mean\":",
                       static_cast<unsigned long long>(h.count));
      AppendJsonDouble(h.Mean(), &out);
      out += ",\"p95\":";
      AppendJsonDouble(h.P95(), &out);
      out += "}";
    }
    out += "}}";
    return out;
  }
};

RunLedger::RunLedger() : impl_(new Impl) {}

RunLedger& RunLedger::Global() {
  static auto* ledger = new RunLedger();
  return *ledger;
}

void RunLedger::Begin(RunLedgerOptions options) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->begun = true;
  impl_->options = std::move(options);
  impl_->start_unix_ms = NowUnixMillis();
  impl_->start_steady_us = NowSteadyMicros();
  ++impl_->seq;
  impl_->inputs.clear();
  impl_->outputs.clear();
  impl_->events.clear();
  impl_->events_dropped = 0;
  impl_->event_kinds.clear();
}

bool RunLedger::begun() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->begun;
}

void RunLedger::RecordInputFile(const std::string& path) {
  LedgerInput input;
  input.path = path;
  if (std::FILE* f = std::fopen(path.c_str(), "rb"); f != nullptr) {
    std::string head(kFingerprintBytes, '\0');
    const size_t read = std::fread(head.data(), 1, head.size(), f);
    input.crc32c = Crc32c(head.data(), read);
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    input.bytes = ec ? static_cast<uint64_t>(read)
                     : static_cast<uint64_t>(size);
    std::fclose(f);
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (!impl_->begun) return;
  impl_->inputs.push_back(std::move(input));
}

void RunLedger::RecordOutput(const std::string& path) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (!impl_->begun) return;
  impl_->outputs.push_back(path);
}

void RunLedger::RecordEvent(const std::string& kind,
                            const std::string& detail) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (!impl_->begun) return;
  impl_->event_kinds.insert(kind);
  if (impl_->events.size() >= kMaxEvents) {
    ++impl_->events_dropped;
    return;
  }
  LedgerEvent event;
  event.t_ms = (NowSteadyMicros() - impl_->start_steady_us) / 1000u;
  event.kind = kind;
  event.detail = detail;
  impl_->events.push_back(std::move(event));
}

bool RunLedger::SawEvent(const std::string& kind) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->event_kinds.count(kind) > 0;
}

double RunLedger::WallSeconds() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return static_cast<double>(NowSteadyMicros() - impl_->start_steady_us) /
         1e6;
}

std::vector<std::string> RunLedger::Outputs() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->outputs;
}

std::string RunLedger::Finish(int exit_code) {
  // Mirror the derived gauges into the registry before snapshotting it so
  // the metrics frame is as complete as a --metrics_out report.
  PublishPoolPhaseMetrics();
  PublishMemoryGauges();

  std::lock_guard<std::mutex> lock(impl_->mu);
  if (!impl_->begun) return "";
  impl_->begun = false;
  const double wall_seconds =
      static_cast<double>(NowSteadyMicros() - impl_->start_steady_us) / 1e6;
  const std::string outcome =
      exit_code != 0 ? "error"
      : impl_->event_kinds.count("checkpoint.resume") > 0 ? "resumed"
                                                          : "ok";
  if (impl_->options.dir.empty()) return "";

  std::error_code ec;
  fs::create_directories(impl_->options.dir, ec);
  if (ec) {
    LogWarning("ledger: cannot create directory " + impl_->options.dir +
               ": " + ec.message());
    return "";
  }
  const std::string path = StrFormat(
      "%s/run_%llu_%d_%03llu%s", impl_->options.dir.c_str(),
      static_cast<unsigned long long>(impl_->start_unix_ms),
#ifdef __unix__
      static_cast<int>(getpid()),
#else
      0,
#endif
      static_cast<unsigned long long>(impl_->seq), kLedgerFileSuffix);
  SafeFileWriter writer(path, kLedgerFileType, kLedgerVersion);
  writer.AppendFrame(impl_->CoreFrame(outcome, exit_code, wall_seconds));
  writer.AppendFrame(impl_->ActivityFrame());
  writer.AppendFrame(impl_->MetricsFrame());
  if (!writer.Commit()) {
    LogWarning("ledger: failed to write " + path);
    return "";
  }
  return path;
}

// ---- reader ---------------------------------------------------------------

LedgerLoadResult LoadRunLedger(const std::string& path) {
  LedgerLoadResult result;
  SafeFileReader reader;
  const SafeOpenStatus open = reader.Open(path, kLedgerFileType);
  if (open == SafeOpenStatus::kMissing) {
    result.status = LedgerLoadStatus::kMissing;
    return result;
  }
  if (open != SafeOpenStatus::kOk) {
    result.status = LedgerLoadStatus::kCorrupt;
    return result;
  }

  // Splice the surviving frames' members into one JSON object. Frames are
  // emitted by this file, so textual splicing is safe; a frame that fails
  // its CRC (or no longer parses) is dropped, not fatal.
  std::string merged = "{";
  bool any_member = false;
  std::string_view payload;
  for (;;) {
    const FrameStatus status = reader.ReadFrame(&payload);
    if (status == FrameStatus::kEndOfFile) break;
    ++result.frames_total;
    if (status != FrameStatus::kOk) {
      ++result.frames_dropped;
      if (status == FrameStatus::kTruncated || !reader.CanContinue()) break;
      continue;
    }
    const auto parsed = JsonValue::Parse(payload);
    if (!parsed.has_value() || !parsed->is_object()) {
      ++result.frames_dropped;
      continue;
    }
    const size_t open_brace = payload.find('{');
    const size_t close_brace = payload.rfind('}');
    const std::string_view inner =
        payload.substr(open_brace + 1, close_brace - open_brace - 1);
    // An empty object, whitespace inside or not, adds no member (and no
    // comma that would break the splice).
    if (inner.find_first_not_of(" \t\r\n") == std::string_view::npos) {
      continue;
    }
    if (any_member) merged += ",";
    any_member = true;
    merged += inner;
  }
  merged += "}";

  auto doc = JsonValue::Parse(merged);
  if (!doc.has_value() ||
      doc->FindString("schema", "") != "ipin.run.v1") {
    // The core frame (which carries the schema tag) did not survive.
    result.status = LedgerLoadStatus::kCorrupt;
    return result;
  }
  result.text = std::move(merged);
  result.doc = std::move(*doc);
  result.status = result.frames_dropped > 0 ? LedgerLoadStatus::kDegraded
                                            : LedgerLoadStatus::kOk;
  return result;
}

std::vector<std::string> ListRunLedgers(const std::string& dir) {
  std::vector<std::string> out;
  constexpr size_t kSuffixLen = sizeof(kLedgerFileSuffix) - 1;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > kSuffixLen &&
        name.substr(name.size() - kSuffixLen) == kLedgerFileSuffix) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ipin::obs
