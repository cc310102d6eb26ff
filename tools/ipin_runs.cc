// ipin_runs: inspect the run ledgers written by ipin_cli, the bench
// harnesses, and checkpointed builds (--ledger_dir / IPIN_LEDGER_DIR; see
// src/ipin/obs/ledger.h for the ipin.run.v1 format).
//
// Usage:
//   ipin_runs list <dir>                 one line per ledger, newest last
//   ipin_runs show <ledger>              full manifest: provenance, events,
//                                        phases, pool profiles, metrics
//   ipin_runs diff <A> <B> [--threshold=0.10] [--quiet]
//
// `diff` compares run B against baseline A: total wall seconds and the
// wall time of every phase (span path) present in both, plus pool
// utilization.
// Exit codes (mirroring bench_compare): 0 = within threshold, 1 = at least
// one timing regressed by more than --threshold (B slower than A), 2 =
// usage error or unusable ledger. Negative ratios are reported as
// speedups; only slowdowns can fail the gate.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "ipin/common/flags.h"
#include "ipin/common/json.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/ledger.h"

namespace ipin {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ipin_runs list <dir>\n"
               "       ipin_runs show <ledger.ipinrun>\n"
               "       ipin_runs diff <baseline.ipinrun> <candidate.ipinrun>"
               " [--threshold=0.10] [--quiet]\n");
  return 2;
}

const char* StatusName(obs::LedgerLoadStatus status) {
  switch (status) {
    case obs::LedgerLoadStatus::kOk:
      return "ok";
    case obs::LedgerLoadStatus::kDegraded:
      return "degraded";
    case obs::LedgerLoadStatus::kCorrupt:
      return "corrupt";
    case obs::LedgerLoadStatus::kMissing:
      return "missing";
  }
  return "?";
}

// Loads a ledger for reading, reporting unusable files on stderr.
bool LoadOrComplain(const std::string& path, obs::LedgerLoadResult* out) {
  *out = obs::LoadRunLedger(path);
  if (!out->usable()) {
    std::fprintf(stderr, "ipin_runs: ledger '%s' is %s\n", path.c_str(),
                 StatusName(out->status));
    return false;
  }
  if (out->status == obs::LedgerLoadStatus::kDegraded) {
    std::fprintf(stderr,
                 "ipin_runs: warning: ledger '%s' is degraded "
                 "(%zu of %zu frames dropped)\n",
                 path.c_str(), out->frames_dropped, out->frames_total);
  }
  return true;
}

// Width of a table's name column: the longest "name", and at least
// `min_width`, so long span paths keep the columns aligned.
int NameWidth(const std::vector<JsonValue>& items, size_t min_width) {
  size_t width = min_width;
  for (const JsonValue& item : items) {
    width = std::max(width, item.FindString("name", "?").size());
  }
  return static_cast<int>(width);
}

// span path -> wall_us from the activity section's phases.
std::map<std::string, double> PhaseWalls(const JsonValue& doc) {
  std::map<std::string, double> walls;
  const JsonValue* phases = doc.Find("phases");
  if (phases == nullptr || !phases->is_array()) return walls;
  for (const JsonValue& p : phases->array_items()) {
    const std::string name = p.FindString("name", "");
    if (!name.empty()) walls[name] += p.FindNumber("wall_us", 0.0);
  }
  return walls;
}

// Mean pool utilization across profiled parallel sections (0 when the run
// had none).
double MeanPoolUtilization(const JsonValue& doc) {
  const JsonValue* pool = doc.Find("pool");
  if (pool == nullptr) return 0.0;
  const JsonValue* phases = pool->Find("phases");
  if (phases == nullptr || !phases->is_array() ||
      phases->array_items().empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const JsonValue& p : phases->array_items()) {
    sum += p.FindNumber("utilization", 0.0);
  }
  return sum / static_cast<double>(phases->array_items().size());
}

int CmdList(const std::string& dir) {
  const std::vector<std::string> paths = obs::ListRunLedgers(dir);
  if (paths.empty()) {
    std::fprintf(stderr, "ipin_runs: no ledgers in '%s'\n", dir.c_str());
    return 2;
  }
  std::printf("%-44s %-10s %-12s %-8s %10s %10s\n", "ledger", "tool",
              "command", "outcome", "wall_s", "rss_mb");
  for (const std::string& path : paths) {
    const obs::LedgerLoadResult result = obs::LoadRunLedger(path);
    const size_t slash = path.find_last_of('/');
    const std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    if (!result.usable()) {
      std::printf("%-44s [%s]\n", name.c_str(), StatusName(result.status));
      continue;
    }
    std::printf("%-44s %-10s %-12s %-8s %10.2f %10.1f\n", name.c_str(),
                result.doc.FindString("tool", "?").c_str(),
                result.doc.FindString("command", "?").c_str(),
                result.doc.FindString("outcome", "?").c_str(),
                result.doc.FindNumber("wall_seconds", 0.0),
                result.doc.FindNumber("peak_rss_bytes", 0.0) /
                    (1024.0 * 1024.0));
  }
  return 0;
}

int CmdShow(const std::string& path) {
  obs::LedgerLoadResult result;
  if (!LoadOrComplain(path, &result)) return 2;
  const JsonValue& doc = result.doc;

  std::printf("ledger    %s (%s)\n", path.c_str(),
              StatusName(result.status));
  std::printf("tool      %s %s\n", doc.FindString("tool", "?").c_str(),
              doc.FindString("command", "").c_str());
  std::printf("args      %s\n", doc.FindString("args", "").c_str());
  std::printf("outcome   %s (exit %d)\n",
              doc.FindString("outcome", "?").c_str(),
              static_cast<int>(doc.FindNumber("exit_code", 0.0)));
  std::printf("wall      %.3fs   peak rss %.1f MB\n",
              doc.FindNumber("wall_seconds", 0.0),
              doc.FindNumber("peak_rss_bytes", 0.0) / (1024.0 * 1024.0));
  if (const JsonValue* prov = doc.Find("provenance"); prov != nullptr) {
    std::printf("build     git %s, %s, obs %s, host %s, %d cpus, %d threads\n",
                prov->FindString("git_sha", "?").c_str(),
                prov->FindString("build_type", "?").c_str(),
                prov->FindString("obs", "?").c_str(),
                prov->FindString("hostname", "?").c_str(),
                static_cast<int>(prov->FindNumber("cpus", 0.0)),
                static_cast<int>(prov->FindNumber("threads", 0.0)));
  }
  if (const JsonValue* inputs = doc.Find("inputs");
      inputs != nullptr && inputs->is_array()) {
    for (const JsonValue& in : inputs->array_items()) {
      std::printf("input     %s (%lld bytes, crc32c %08llx)\n",
                  in.FindString("path", "?").c_str(),
                  static_cast<long long>(in.FindNumber("bytes", 0.0)),
                  static_cast<unsigned long long>(
                      in.FindNumber("crc32c", 0.0)));
    }
  }
  if (const JsonValue* outputs = doc.Find("outputs");
      outputs != nullptr && outputs->is_array()) {
    for (const JsonValue& out : outputs->array_items()) {
      if (out.is_string()) {
        std::printf("output    %s\n", out.string_value().c_str());
      }
    }
  }

  if (const JsonValue* events = doc.Find("events");
      events != nullptr && events->is_array() &&
      !events->array_items().empty()) {
    std::printf("\n# events\n");
    for (const JsonValue& e : events->array_items()) {
      std::printf("%8.0fms  %-24s %s\n", e.FindNumber("t_ms", 0.0),
                  e.FindString("kind", "?").c_str(),
                  e.FindString("detail", "").c_str());
    }
    const double dropped = doc.FindNumber("events_dropped", 0.0);
    if (dropped > 0) std::printf("(%.0f events dropped)\n", dropped);
  }

  if (const JsonValue* phases = doc.Find("phases");
      phases != nullptr && phases->is_array() &&
      !phases->array_items().empty()) {
    std::printf("\n# phases\n");
    const int width = NameWidth(phases->array_items(), 28);
    std::printf("%-*s %10s %12s %12s %12s\n", width, "phase", "wall_ms",
                "cpu_ms", "units", "units/s");
    for (const JsonValue& p : phases->array_items()) {
      const double wall_us = p.FindNumber("wall_us", 0.0);
      const double units = p.FindNumber("units_done", 0.0);
      std::printf("%-*s %10.1f %12.1f %12.0f %12.0f\n", width,
                  p.FindString("name", "?").c_str(), wall_us / 1000.0,
                  p.FindNumber("cpu_us", 0.0) / 1000.0, units,
                  wall_us > 0 ? units / (wall_us / 1e6) : 0.0);
    }
  }

  if (const JsonValue* pool = doc.Find("pool"); pool != nullptr) {
    const JsonValue* phases = pool->Find("phases");
    if (phases != nullptr && phases->is_array() &&
        !phases->array_items().empty()) {
      std::printf("\n# pool (%d threads)\n",
                  static_cast<int>(pool->FindNumber("threads", 0.0)));
      const int width = NameWidth(phases->array_items(), 28);
      std::printf("%-*s %8s %10s %10s %10s %6s\n", width, "phase", "tasks",
                  "busy_ms", "wall_ms", "imbal", "util");
      for (const JsonValue& p : phases->array_items()) {
        std::printf("%-*s %8.0f %10.1f %10.1f %10.2f %6.2f\n", width,
                    p.FindString("name", "?").c_str(),
                    p.FindNumber("tasks", 0.0),
                    p.FindNumber("busy_us", 0.0) / 1000.0,
                    p.FindNumber("wall_us", 0.0) / 1000.0,
                    p.FindNumber("imbalance", 0.0),
                    p.FindNumber("utilization", 0.0));
      }
    }
  }

  if (const JsonValue* hb = doc.Find("heartbeats"); hb != nullptr) {
    const double emitted = hb->FindNumber("emitted", 0.0);
    if (emitted > 0) std::printf("\nheartbeats emitted: %.0f\n", emitted);
  }
  return 0;
}

struct DiffRow {
  std::string name;
  double base = 0.0;       // seconds
  double candidate = 0.0;  // seconds
};

int CmdDiff(const FlagMap& flags) {
  const std::string base_path = flags.positional()[1];
  const std::string cand_path = flags.positional()[2];
  const double threshold = flags.GetDouble("threshold", 0.10);
  const bool quiet = flags.GetBool("quiet", false);

  obs::LedgerLoadResult base, cand;
  if (!LoadOrComplain(base_path, &base) ||
      !LoadOrComplain(cand_path, &cand)) {
    return 2;
  }

  std::vector<DiffRow> rows;
  rows.push_back({"total.wall",
                  base.doc.FindNumber("wall_seconds", 0.0),
                  cand.doc.FindNumber("wall_seconds", 0.0)});
  const auto base_walls = PhaseWalls(base.doc);
  const auto cand_walls = PhaseWalls(cand.doc);
  size_t unshared = 0;
  for (const auto& [name, wall_us] : base_walls) {
    const auto it = cand_walls.find(name);
    if (it == cand_walls.end()) {
      ++unshared;
      continue;
    }
    rows.push_back({"phase." + name, wall_us / 1e6, it->second / 1e6});
  }
  for (const auto& [name, wall_us] : cand_walls) {
    if (base_walls.count(name) == 0) ++unshared;
  }

  size_t width = 36;
  for (const DiffRow& row : rows) width = std::max(width, row.name.size());
  if (!quiet) {
    std::printf("baseline:  %s (%s, threads %d)\n", base_path.c_str(),
                base.doc.FindString("outcome", "?").c_str(),
                static_cast<int>(base.doc.Find("provenance") != nullptr
                                     ? base.doc.Find("provenance")
                                           ->FindNumber("threads", 0.0)
                                     : 0.0));
    std::printf("candidate: %s (%s, threads %d)\n", cand_path.c_str(),
                cand.doc.FindString("outcome", "?").c_str(),
                static_cast<int>(cand.doc.Find("provenance") != nullptr
                                     ? cand.doc.Find("provenance")
                                           ->FindNumber("threads", 0.0)
                                     : 0.0));
    std::printf("%-*s %12s %12s %9s %9s\n", static_cast<int>(width),
                "timing", "base_s", "cand_s", "delta", "speedup");
  }

  int rc = 0;
  for (const DiffRow& row : rows) {
    const double delta =
        row.base > 0 ? (row.candidate - row.base) / row.base : 0.0;
    const double speedup = row.candidate > 0 ? row.base / row.candidate : 0.0;
    const bool regressed = row.base > 0 && delta > threshold;
    if (regressed) rc = 1;
    if (!quiet) {
      std::printf("%-*s %12.4f %12.4f %+8.1f%% %8.2fx%s\n",
                  static_cast<int>(width), row.name.c_str(), row.base,
                  row.candidate, delta * 100.0, speedup,
                  regressed ? "  REGRESSED" : "");
    }
  }
  if (!quiet) {
    std::printf("pool utilization: base %.2f, candidate %.2f\n",
                MeanPoolUtilization(base.doc),
                MeanPoolUtilization(cand.doc));
    if (unshared > 0) {
      std::printf("(%zu phases present in only one run, not compared)\n",
                  unshared);
    }
    std::printf(rc == 0 ? "OK: no timing regressed by more than %.0f%%\n"
                        : "FAIL: timings regressed by more than %.0f%%\n",
                threshold * 100.0);
  }
  return rc;
}

int Run(int argc, char** argv) {
  const FlagMap flags = FlagMap::Parse(argc, argv);
  const auto& pos = flags.positional();
  if (pos.empty()) return Usage();
  const std::string& cmd = pos[0];
  if (cmd == "list" && pos.size() == 2) return CmdList(pos[1]);
  if (cmd == "show" && pos.size() == 2) return CmdShow(pos[1]);
  if (cmd == "diff" && pos.size() == 3) return CmdDiff(flags);
  return Usage();
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
