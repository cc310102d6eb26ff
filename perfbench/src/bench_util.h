// Statistics, span tracer and host-noise probes of the repository
// benchmark. Header-only so the self-test links exactly what the benchmark
// runs; none of it calls into the library.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Statistics -------------------------------------------------------------

/// 1-based nearest rank of the p-th percentile (p in (0, 100]) among n
/// samples: ceil(p / 100 * n), clamped to [1, n].
inline size_t NearestRankIndex(size_t n, double p) {
  // The epsilon keeps ranks that are exact integers (p = 99, n = 1000) from
  // rounding up through floating-point noise.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it. Returns 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRankIndex(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// Samples strictly above the nearest rank of the p-th percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRankIndex(n, p);
}

/// A tail percentile is only reported when at least ten samples lie beyond
/// it; below that it is the largest few samples, not a tail.
inline bool TailSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= 10;
}

/// Latency histogram in fixed memory: 0.1 us buckets up to 20 ms, exact
/// values beyond. A serving run answers hundreds of thousands of requests;
/// a log of every one would make the process's peak RSS grow with its
/// throughput.
class LatencyHistogram {
 public:
  static constexpr double kBucketUs = 0.1;
  static constexpr size_t kBuckets = 200000;

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Record(double us) {
    const double bucket = us / kBucketUs;
    if (bucket < static_cast<double>(kBuckets)) {
      ++counts_[static_cast<size_t>(std::max(bucket, 0.0))];
    } else {
      overflow_.push_back(us);
    }
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    overflow_.insert(overflow_.end(), other.overflow_.begin(),
                     other.overflow_.end());
    count_ += other.count_;
  }

  size_t count() const { return count_; }

  /// Nearest-rank percentile in microseconds: the centre of the bucket that
  /// holds the rank, or the exact value past the last bucket. 0 when empty.
  double PercentileUs(double p) const {
    if (count_ == 0) return 0.0;
    size_t rank = NearestRankIndex(count_, p);
    for (size_t i = 0; i < kBuckets; ++i) {
      if (rank <= counts_[i]) {
        return (static_cast<double>(i) + 0.5) * kBucketUs;
      }
      rank -= counts_[i];
    }
    std::vector<double> rest = overflow_;
    std::sort(rest.begin(), rest.end());
    return rest[rank - 1];
  }

 private:
  std::vector<uint32_t> counts_;
  std::vector<double> overflow_;
  size_t count_ = 0;
};

// ---- Span tracer ------------------------------------------------------------

/// One timed interval around a call into a library layer.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the same tracer's spans, -1 = root
  uint64_t op = 0;  // the operation (or request) the span belongs to
};

/// Records nested spans for one thread. Spans stay in memory and are
/// summarized or written out when the run ends. A disabled tracer records
/// nothing and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int Begin(const char* name, uint64_t op) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.op = op;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void End(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  /// Adds a finished span (tests, or intervals measured elsewhere).
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
          uint64_t op) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, op});
    return static_cast<int>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), index_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<size_t>(span.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (const auto& [lo, hi] : intervals) {
      const int64_t from = std::max(lo, cursor);
      if (hi > from) {
        covered += hi - from;
        cursor = hi;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

/// Per-name aggregate of a traced run.
struct SpanSummary {
  size_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;
};

/// Folds the spans of several tracers (one per thread) by span name.
inline std::map<std::string, SpanSummary> Summarize(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanSummary> out;
  for (const Tracer* tracer : tracers) {
    const std::vector<int64_t> self = SelfTimesNs(tracer->spans());
    for (size_t i = 0; i < tracer->spans().size(); ++i) {
      const Span& span = tracer->spans()[i];
      SpanSummary& summary = out[span.name];
      const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      ++summary.calls;
      summary.total_ms += ms;
      summary.self_ms += static_cast<double>(self[i]) / 1e6;
      summary.durations_ms.push_back(ms);
    }
  }
  return out;
}

/// Writes every span as one JSON document (name, start, end, parent, op;
/// times in ns relative to the earliest span of its tracer).
inline bool WriteSpansJson(const std::vector<const Tracer*>& tracers,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"schema\": \"perfbench.spans.v1\", \"threads\": [";
  for (size_t t = 0; t < tracers.size(); ++t) {
    const auto& spans = tracers[t]->spans();
    const int64_t base = spans.empty() ? 0 : spans.front().start_ns;
    out << (t ? ",\n" : "\n") << "[";
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (i ? "," : "") << "{\"name\": \"" << s.name
          << "\", \"start_ns\": " << (s.start_ns - base)
          << ", \"end_ns\": " << (s.end_ns - base)
          << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}";
    }
    out << "]";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

/// Round-trip decomposition of one served request: what the client saw,
/// minus what the server accounted for, is time on the wire, in the
/// kernel and in the client library.
inline int64_t UnaccountedUs(int64_t round_trip_us, int64_t server_total_us) {
  return round_trip_us - server_total_us;
}

// ---- Host noise -------------------------------------------------------------

/// Aggregate CPU time counters from the first line of /proc/stat (jiffies).
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

inline CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return times;
  std::istringstream fields(line);
  std::string label;
  fields >> label;  // "cpu"
  uint64_t value = 0;
  for (int i = 0; fields >> value; ++i) {
    // user nice system idle iowait irq softirq steal guest guest_nice; guest
    // time is already included in user, so it is not added again.
    if (i < 8) times.total += value;
    if (i == 7) times.steal = value;
  }
  return times;
}

/// Steal share of all CPU time between two readings, in percent.
inline double StealPercent(const CpuTimes& before, const CpuTimes& after) {
  const uint64_t total = after.total - before.total;
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

/// CPU time of every thread of this process so far.
inline int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// Peak resident set size of this process (VmHWM), in MiB.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
