// bench_compare: the bench-history regression gate. Diffs two
// ipin.bench.v1 documents (tools/bench_history output) and exits nonzero
// when any shared metric regressed beyond the noise threshold.
//
// Usage:
//   bench_compare --baseline=old.json --current=new.json
//       [--threshold=0.10] [--stat=median] [--lower_is_better=true]
//
// Semantics:
//   * Comparison uses the chosen statistic (median by default — robust to
//     one noisy rep) of each metric present in BOTH files.
//   * With lower_is_better (the default; bench metrics are times/bytes), a
//     metric regresses when current > baseline * (1 + threshold).
//   * Metrics only in one file are listed by name with their side, never a
//     failure — benches gain and lose counters across commits, and a
//     retired bench left in a committed baseline shows up by name.
//   * Exit code: 0 = no regression, 1 = at least one regression,
//     2 = usage/parse error. Identical inputs always exit 0.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "ipin/common/flags.h"
#include "ipin/common/json.h"

namespace ipin {
namespace {

std::map<std::string, double> MetricsOf(const JsonValue& doc,
                                        const std::string& stat) {
  std::map<std::string, double> out;
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return out;
  for (const auto& [name, entry] : metrics->object_items()) {
    const JsonValue* value = entry.Find(stat);
    if (value != nullptr && value->is_number()) {
      out[name] = value->number_value();
    }
  }
  return out;
}

int Run(int argc, char** argv) {
  const FlagMap flags = FlagMap::Parse(argc, argv);
  const std::string baseline_path = flags.GetString("baseline", "");
  const std::string current_path = flags.GetString("current", "");
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_compare --baseline=FILE --current=FILE "
                 "[--threshold=0.10] [--stat=median] "
                 "[--lower_is_better=true]\n");
    return 2;
  }
  const double threshold = flags.GetDouble("threshold", 0.10);
  const std::string stat = flags.GetString("stat", "median");
  const bool lower_is_better = flags.GetBool("lower_is_better", true);

  // Distinguish a file that is absent from one that exists but does not
  // parse — both are exit 2 (input error), never the regression exit 1.
  for (const auto& path : {baseline_path, current_path}) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
      return 2;
    }
    std::fclose(f);
  }
  const auto baseline_doc = JsonValue::ParseFile(baseline_path);
  const auto current_doc = JsonValue::ParseFile(current_path);
  if (!baseline_doc.has_value() || !current_doc.has_value()) {
    std::fprintf(stderr, "bench_compare: cannot parse %s (not valid JSON)\n",
                 !baseline_doc.has_value() ? baseline_path.c_str()
                                           : current_path.c_str());
    return 2;
  }
  for (const auto* doc : {&*baseline_doc, &*current_doc}) {
    if (doc->FindString("schema", "") != "ipin.bench.v1") {
      std::fprintf(stderr, "bench_compare: input is not ipin.bench.v1\n");
      return 2;
    }
  }

  // Cross-environment comparisons are legitimate (that is the point of an
  // archived history) but noisier, so differing provenance warns rather
  // than fails.
  const JsonValue* base_prov = baseline_doc->Find("provenance");
  const JsonValue* cur_prov = current_doc->Find("provenance");
  if (base_prov != nullptr && cur_prov != nullptr) {
    for (const char* key : {"hostname", "build_type", "obs"}) {
      const std::string b = base_prov->FindString(key, "");
      const std::string c = cur_prov->FindString(key, "");
      if (b != c) {
        std::fprintf(stderr,
                     "bench_compare: warning: %s differs (baseline '%s', "
                     "current '%s'); deltas may reflect the environment\n",
                     key, b.c_str(), c.c_str());
      }
    }
    if (base_prov->FindNumber("threads", 0.0) !=
        cur_prov->FindNumber("threads", 0.0)) {
      std::fprintf(stderr,
                   "bench_compare: warning: thread counts differ (baseline "
                   "%.0f, current %.0f); timing deltas are not like-for-like\n",
                   base_prov->FindNumber("threads", 0.0),
                   cur_prov->FindNumber("threads", 0.0));
    }
  }

  const auto baseline = MetricsOf(*baseline_doc, stat);
  const auto current = MetricsOf(*current_doc, stat);

  std::printf("# bench_compare %s vs %s (stat=%s, threshold=%.0f%%)\n",
              baseline_path.c_str(), current_path.c_str(), stat.c_str(),
              threshold * 100.0);
  std::printf("%-48s %14s %14s %9s\n", "metric", "baseline", "current",
              "delta");

  size_t regressions = 0;
  size_t compared = 0;
  size_t only_one_side = 0;
  const auto note_one_side = [&only_one_side](const std::string& name,
                                              const char* side) {
    std::printf("%-48s only in %s\n", name.c_str(), side);
    ++only_one_side;
  };
  for (const auto& [name, base_value] : baseline) {
    const auto it = current.find(name);
    if (it == current.end()) {
      note_one_side(name, "baseline");
      continue;
    }
    ++compared;
    const double cur_value = it->second;
    double delta = 0.0;
    if (base_value != 0.0) {
      delta = (cur_value - base_value) / std::fabs(base_value);
    } else if (cur_value != 0.0) {
      delta = lower_is_better ? 1e9 : -1e9;  // from zero: treat as unbounded
    }
    const bool worse = lower_is_better ? delta > threshold : delta < -threshold;
    std::printf("%-48s %14.6g %14.6g %+8.1f%%%s\n", name.c_str(), base_value,
                cur_value, delta * 100.0, worse ? "  REGRESSION" : "");
    regressions += worse ? 1 : 0;
  }
  for (const auto& [name, value] : current) {
    (void)value;
    if (baseline.find(name) == baseline.end()) note_one_side(name, "current");
  }

  std::printf("# %zu compared, %zu regression(s), %zu metric(s) in only one "
              "file\n",
              compared, regressions, only_one_side);
  if (compared == 0) {
    std::fprintf(stderr, "bench_compare: no shared metrics to compare\n");
    return 2;
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
