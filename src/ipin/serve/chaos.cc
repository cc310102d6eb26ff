#include "ipin/serve/chaos.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/common/string_util.h"
#include "ipin/serve/port_file.h"
#include "ipin/serve/protocol.h"

namespace ipin::serve {
namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::optional<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Atomic overwrite (tmp + rename): a reloading router must never read a
/// half-written map.
bool WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".chaos.tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

/// Tally shared between the verifier thread and Run(); mutex-guarded (the
/// drill is measurement infrastructure, not a hot path).
struct VerifierTally {
  std::mutex mu;
  size_t total = 0;
  size_t ok = 0;
  size_t degraded = 0;
  size_t wrong = 0;
  size_t invariant_violations = 0;
  size_t failed = 0;
  std::vector<std::string> wrong_details;
};

bool SameTopk(const std::vector<std::pair<NodeId, double>>& a,
              const std::vector<std::pair<NodeId, double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].second != b[i].second) return false;
  }
  return true;
}

}  // namespace

const char* ChaosActionKindName(ChaosActionKind kind) {
  switch (kind) {
    case ChaosActionKind::kSpawnNewShards:
      return "spawn-new-shards";
    case ChaosActionKind::kInstallTransitionMap:
      return "install-transition-map";
    case ChaosActionKind::kKillPrimary:
      return "kill-primary";
    case ChaosActionKind::kCorruptMapReload:
      return "corrupt-map-reload";
    case ChaosActionKind::kRestartDaemon:
      return "restart-daemon";
    case ChaosActionKind::kFinalizeMap:
      return "finalize-map";
  }
  return "unknown";
}

std::string ChaosSchedule::ToJson() const {
  std::string out = "{\"schema\": \"ipin.chaos.v1\", \"scenario\": \"" +
                    JsonEscape(scenario) + "\", \"seed\": " +
                    std::to_string(seed) + ", \"actions\": [";
  for (size_t i = 0; i < actions.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("{\"at_ms\": %lld, \"kind\": \"%s\"",
                     static_cast<long long>(actions[i].at_ms),
                     ChaosActionKindName(actions[i].kind));
    if (!actions[i].target.empty()) {
      out += ", \"target\": \"" + JsonEscape(actions[i].target) + "\"";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::optional<ChaosSchedule> ChaosSchedule::Generate(
    const std::string& scenario, uint64_t seed,
    const ChaosScheduleOptions& options) {
  ChaosSchedule schedule;
  schedule.scenario = scenario;
  schedule.seed = seed;
  Rng rng(seed);
  const int64_t spacing = std::max<int64_t>(1, options.spacing_ms);
  const int64_t jitter_ms = static_cast<int64_t>(
      std::llround(static_cast<double>(spacing) *
                   std::clamp(options.jitter, 0.0, 0.9)));
  size_t step = 0;
  const auto push = [&](ChaosActionKind kind, const std::string& target) {
    ChaosAction action;
    action.kind = kind;
    action.target = target;
    int64_t at = spacing * static_cast<int64_t>(step + 1);
    if (jitter_ms > 0) {
      at += static_cast<int64_t>(rng.NextBounded(
                static_cast<uint64_t>(2 * jitter_ms + 1))) -
            jitter_ms;
    }
    action.at_ms = std::max<int64_t>(1, at);
    ++step;
    schedule.actions.push_back(std::move(action));
  };
  // The victim draw comes FIRST so tooling can pre-provision its replica
  // before computing any offsets.
  const size_t victim =
      rng.NextBounded(std::max<size_t>(1, options.num_old_shards));
  const std::string victim_name = StrFormat("old%zu", victim);
  if (scenario == "kill-primary-mid-reshard") {
    push(ChaosActionKind::kSpawnNewShards, "");
    push(ChaosActionKind::kInstallTransitionMap, "");
    push(ChaosActionKind::kKillPrimary, victim_name);
    push(ChaosActionKind::kCorruptMapReload, "");
    push(ChaosActionKind::kRestartDaemon, victim_name);
    push(ChaosActionKind::kFinalizeMap, "");
  } else if (scenario == "replica-failover") {
    push(ChaosActionKind::kKillPrimary, victim_name);
    push(ChaosActionKind::kRestartDaemon, victim_name);
  } else {
    return std::nullopt;
  }
  return schedule;
}

ChaosDrill::ChaosDrill(ChaosDrillOptions options)
    : options_(std::move(options)) {}

ChaosDrill::~ChaosDrill() {
  // Last-resort reaper: Run()'s Teardown already SIGTERMed the fleet; a
  // drill destroyed mid-failure must still not leak daemons.
  for (auto& [name, daemon] : daemons_) {
    if (daemon.alive && daemon.pid > 0) {
      ::kill(static_cast<pid_t>(daemon.pid), SIGKILL);
      ::waitpid(static_cast<pid_t>(daemon.pid), nullptr, 0);
      daemon.alive = false;
    }
  }
  if (ledger_fd_ >= 0) ::close(ledger_fd_);
}

void ChaosDrill::LedgerLine(const std::string& json_object) {
  if (ledger_fd_ < 0) return;
  const std::string line = json_object + "\n";
  // One line per write; JSONL readers tolerate a torn tail.
  (void)!::write(ledger_fd_, line.data(), line.size());
}

bool ChaosDrill::SpawnDaemon(const ChaosDaemonSpec& spec,
                             std::string* error) {
  if (!spec.port_file.empty()) std::remove(spec.port_file.c_str());
  const int log_fd = ::open(spec.log_file.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) {
    *error = "cannot open log file " + spec.log_file;
    return false;
  }
  std::vector<char*> argv;
  argv.reserve(spec.argv.size() + 1);
  for (const std::string& arg : spec.argv) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(log_fd);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(log_fd);
  Daemon& daemon = daemons_[spec.name];
  daemon.spec = spec;
  daemon.pid = pid;
  daemon.alive = true;
  LedgerLine(StrFormat(
      "{\"type\": \"spawn\", \"t_ms\": %lld, \"name\": \"%s\", \"pid\": "
      "%ld}",
      static_cast<long long>(SteadyNowMs() - start_ms_), spec.name.c_str(),
      static_cast<long>(pid)));
  return true;
}

bool ChaosDrill::WaitReady(const Daemon& daemon, int64_t deadline_ms,
                           std::string* error) {
  const int64_t give_up = SteadyNowMs() + deadline_ms;
  while (SteadyNowMs() < give_up) {
    const std::optional<PortFileInfo> info =
        ReadPortFile(daemon.spec.port_file);
    if (info.has_value() && info->pid == daemon.pid) return true;
    int status = 0;
    if (::waitpid(static_cast<pid_t>(daemon.pid), &status, WNOHANG) ==
        daemon.pid) {
      daemons_[daemon.spec.name].alive = false;
      *error = StrFormat("daemon %s (pid %ld) died before readiness",
                         daemon.spec.name.c_str(),
                         static_cast<long>(daemon.pid));
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  *error = "daemon " + daemon.spec.name + " not ready in time";
  return false;
}

bool ChaosDrill::InstallMap(const std::string& source_path,
                            bool expect_rollback, std::string* error) {
  const std::optional<std::string> bytes = ReadFileBytes(source_path);
  if (!bytes.has_value()) {
    *error = "cannot read map " + source_path;
    return false;
  }
  if (!WriteFileAtomic(options_.live_map_path, *bytes)) {
    *error = "cannot install map over " + options_.live_map_path;
    return false;
  }
  ClientOptions copts = options_.router;
  OracleClient client(copts);
  Request reload;
  reload.method = Method::kReload;
  std::string call_error;
  const std::optional<Response> response = client.Call(reload, &call_error);
  if (!response.has_value() || response->status != StatusCode::kOk) {
    *error = "map reload RPC failed: " + call_error;
    return false;
  }
  double rolled_back = 0.0;
  for (const auto& [key, value] : response->info) {
    if (key == "rolled_back") rolled_back = value;
  }
  if ((rolled_back != 0.0) != expect_rollback) {
    *error = StrFormat("reload rolled_back=%g, expected %d", rolled_back,
                       expect_rollback ? 1 : 0);
    return false;
  }
  return true;
}

bool ChaosDrill::ExecuteAction(const ChaosAction& action,
                               std::string* error) {
  switch (action.kind) {
    case ChaosActionKind::kSpawnNewShards: {
      for (const ChaosDaemonSpec& spec : options_.new_shards) {
        if (!SpawnDaemon(spec, error)) return false;
        if (!WaitReady(daemons_[spec.name], 15000, error)) return false;
      }
      return true;
    }
    case ChaosActionKind::kInstallTransitionMap:
      return InstallMap(options_.transition_map_path,
                        /*expect_rollback=*/false, error);
    case ChaosActionKind::kFinalizeMap:
      return InstallMap(options_.final_map_path, /*expect_rollback=*/false,
                        error);
    case ChaosActionKind::kCorruptMapReload: {
      const std::optional<std::string> good =
          ReadFileBytes(options_.live_map_path);
      if (!good.has_value()) {
        *error = "cannot read live map for corruption";
        return false;
      }
      if (!WriteFileAtomic(options_.live_map_path,
                           "{\"schema\": \"ipin.shardmap.v2\", "
                           "\"shards\": [")) {
        *error = "cannot corrupt live map";
        return false;
      }
      ClientOptions copts = options_.router;
      OracleClient client(copts);
      Request reload;
      reload.method = Method::kReload;
      std::string call_error;
      const std::optional<Response> response =
          client.Call(reload, &call_error);
      const bool rollback_seen =
          response.has_value() && response->status == StatusCode::kOk &&
          std::any_of(response->info.begin(), response->info.end(),
                      [](const std::pair<std::string, double>& kv) {
                        return kv.first == "rolled_back" && kv.second != 0.0;
                      });
      // Restore the good map regardless: a failed assertion must not leave
      // the fleet routing on a corrupt file for the rest of the drill.
      if (!WriteFileAtomic(options_.live_map_path, *good)) {
        *error = "cannot restore live map after corruption";
        return false;
      }
      if (!rollback_seen) {
        *error = "corrupt map reload did not roll back";
        return false;
      }
      return true;
    }
    case ChaosActionKind::kKillPrimary: {
      auto it = daemons_.find(action.target);
      if (it == daemons_.end() || !it->second.alive) {
        *error = "kill target " + action.target + " not running";
        return false;
      }
      ::kill(static_cast<pid_t>(it->second.pid), SIGKILL);
      ::waitpid(static_cast<pid_t>(it->second.pid), nullptr, 0);
      it->second.alive = false;
      return true;
    }
    case ChaosActionKind::kRestartDaemon: {
      auto it = daemons_.find(action.target);
      if (it == daemons_.end()) {
        *error = "restart target " + action.target + " unknown";
        return false;
      }
      if (it->second.alive) return true;  // nothing to do
      const ChaosDaemonSpec spec = it->second.spec;
      if (!SpawnDaemon(spec, error)) return false;
      return WaitReady(daemons_[spec.name], 15000, error);
    }
  }
  *error = "unknown action kind";
  return false;
}

void ChaosDrill::Teardown(ChaosDrillReport* report) {
  // SIGTERM everything, give the fleet one shared drain window, then
  // escalate. A daemon that ignores SIGTERM is a leak — the invariant the
  // smoke drills could only assert by hand.
  for (auto& [name, daemon] : daemons_) {
    if (daemon.alive) ::kill(static_cast<pid_t>(daemon.pid), SIGTERM);
  }
  const int64_t give_up = SteadyNowMs() + options_.drain_deadline_ms;
  for (auto& [name, daemon] : daemons_) {
    if (!daemon.alive) continue;
    bool reaped = false;
    while (SteadyNowMs() < give_up) {
      if (::waitpid(static_cast<pid_t>(daemon.pid), nullptr, WNOHANG) ==
          daemon.pid) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!reaped) {
      report->leaked_daemons.push_back(name);
      ::kill(static_cast<pid_t>(daemon.pid), SIGKILL);
      ::waitpid(static_cast<pid_t>(daemon.pid), nullptr, 0);
    }
    daemon.alive = false;
  }
}

ChaosDrillReport ChaosDrill::Run() {
  ChaosDrillReport report;
  start_ms_ = SteadyNowMs();
  ledger_fd_ = ::open(options_.ledger_path.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (ledger_fd_ < 0) {
    report.failure = "cannot open ledger " + options_.ledger_path;
    return report;
  }
  LedgerLine("{\"type\": \"schedule\", \"schedule\": " +
             options_.schedule.ToJson() + "}");

  std::string error;
  for (const ChaosDaemonSpec& spec : options_.initial_daemons) {
    if (!SpawnDaemon(spec, &error) ||
        !WaitReady(daemons_[spec.name], 15000, &error)) {
      report.failure = error;
      Teardown(&report);
      return report;
    }
  }

  // Verifier thread: seeded query stream against the router, every answer
  // cross-checked with the reference single-index daemon. Estimates and
  // topk lists compare with EXACT equality — the tier's exactness claim is
  // bit-identity, not tolerance.
  VerifierTally tally;
  std::atomic<bool> stop{false};
  std::thread verifier([this, &tally, &stop] {
    Rng rng(options_.schedule.seed ^ 0xda7a5eedc0ffee42ULL);
    ClientOptions router_opts = options_.router;
    router_opts.max_attempts = 2;
    OracleClient router(router_opts);
    OracleClient reference(options_.reference);
    size_t n = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ++n;
      Request request;
      request.deadline_ms = options_.query_deadline_ms;
      const bool topk = options_.verifier_topk_every > 0 &&
                        n % options_.verifier_topk_every == 0;
      if (topk) {
        request.method = Method::kTopk;
        request.k = 10;
      } else {
        request.method = Method::kQuery;
        request.mode = QueryMode::kSketch;
        const size_t num_seeds =
            1 + rng.NextBounded(std::max<size_t>(
                    1, options_.max_seeds_per_query));
        for (size_t i = 0; i < num_seeds; ++i) {
          request.seeds.push_back(static_cast<NodeId>(
              rng.NextBounded(std::max<size_t>(1, options_.num_nodes))));
        }
      }
      std::string call_error;
      const std::optional<Response> response =
          router.Call(request, &call_error);
      std::lock_guard<std::mutex> lock(tally.mu);
      ++tally.total;
      if (!response.has_value() ||
          response->status == StatusCode::kUnavailable ||
          response->status == StatusCode::kOverloaded ||
          response->status == StatusCode::kDeadlineExceeded ||
          response->status == StatusCode::kInternal) {
        ++tally.failed;
      } else if (response->status == StatusCode::kOk) {
        ++tally.ok;
        // Honest degradation: through the router (shards_total > 0) the
        // degraded bit must equal coverage < 1 exactly.
        if (response->shards_total > 0 &&
            response->degraded != (response->coverage < 1.0)) {
          ++tally.invariant_violations;
          tally.wrong_details.push_back(StrFormat(
              "degraded=%d but coverage=%.6f (query %zu)",
              response->degraded ? 1 : 0, response->coverage, n));
        }
        if (response->degraded) {
          ++tally.degraded;
        } else {
          // Full-coverage answers must be bit-identical to the reference.
          const std::optional<Response> truth =
              reference.Call(request, nullptr);
          if (truth.has_value() && truth->status == StatusCode::kOk) {
            const bool same =
                topk ? SameTopk(response->topk, truth->topk)
                     : response->estimate == truth->estimate;
            if (!same) {
              ++tally.wrong;
              tally.wrong_details.push_back(StrFormat(
                  "%s mismatch: router=%.17g reference=%.17g (query %zu)",
                  topk ? "topk" : "estimate",
                  topk ? 0.0 : response->estimate,
                  topk ? 0.0 : truth->estimate, n));
            }
          }
        }
      } else {
        // BAD_REQUEST on a well-formed drill query is a router bug.
        ++tally.invariant_violations;
        tally.wrong_details.push_back(
            StrFormat("unexpected status on query %zu", n));
      }
      if (options_.verifier_pause_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.verifier_pause_ms));
      }
    }
  });

  // Replay the schedule at its offsets.
  bool schedule_ok = true;
  for (const ChaosAction& action : options_.schedule.actions) {
    const int64_t target = start_ms_ + action.at_ms;
    while (SteadyNowMs() < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<int64_t>(20, std::max<int64_t>(1,
                                                  target - SteadyNowMs()))));
    }
    const int64_t actual = SteadyNowMs() - start_ms_;
    std::string action_error;
    const bool ok = ExecuteAction(action, &action_error);
    LedgerLine(StrFormat(
        "{\"type\": \"action\", \"kind\": \"%s\", \"target\": \"%s\", "
        "\"planned_ms\": %lld, \"actual_ms\": %lld, \"ok\": %s%s}",
        ChaosActionKindName(action.kind), JsonEscape(action.target).c_str(),
        static_cast<long long>(action.at_ms),
        static_cast<long long>(actual), ok ? "true" : "false",
        ok ? ""
           : (", \"error\": \"" + JsonEscape(action_error) + "\"").c_str()));
    if (!ok) {
      report.failure = StrFormat("action %s failed: %s",
                                 ChaosActionKindName(action.kind),
                                 action_error.c_str());
      schedule_ok = false;
      break;
    }
  }

  // Recovery: after the last action the fleet must converge back to exact
  // undegraded answers within the deadline.
  if (schedule_ok) {
    const int64_t recovery_start = SteadyNowMs();
    const int64_t give_up = recovery_start + options_.recovery_deadline_ms;
    ClientOptions router_opts = options_.router;
    router_opts.max_attempts = 2;
    OracleClient router(router_opts);
    OracleClient reference(options_.reference);
    Request probe;
    probe.method = Method::kQuery;
    probe.mode = QueryMode::kSketch;
    for (NodeId u = 0; u < 8 && u < static_cast<NodeId>(options_.num_nodes);
         ++u) {
      probe.seeds.push_back(u);
    }
    probe.deadline_ms = options_.query_deadline_ms;
    while (SteadyNowMs() < give_up) {
      const std::optional<Response> got = router.Call(probe, nullptr);
      if (got.has_value() && got->status == StatusCode::kOk &&
          !got->degraded) {
        const std::optional<Response> truth =
            reference.Call(probe, nullptr);
        if (truth.has_value() && truth->status == StatusCode::kOk &&
            got->estimate == truth->estimate) {
          report.recovered = true;
          report.recovery_ms = SteadyNowMs() - recovery_start;
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  stop.store(true, std::memory_order_release);
  verifier.join();

  {
    std::lock_guard<std::mutex> lock(tally.mu);
    report.queries_total = tally.total;
    report.queries_ok = tally.ok;
    report.queries_degraded = tally.degraded;
    report.wrong_answers = tally.wrong;
    report.invariant_violations = tally.invariant_violations;
    report.queries_failed = tally.failed;
    report.availability =
        tally.total == 0 ? 0.0
                         : static_cast<double>(tally.ok) /
                               static_cast<double>(tally.total);
    for (const std::string& detail : tally.wrong_details) {
      LedgerLine("{\"type\": \"wrong\", \"detail\": \"" +
                 JsonEscape(detail) + "\"}");
    }
  }

  Teardown(&report);

  if (report.failure.empty()) {
    if (report.wrong_answers > 0) {
      report.failure = "wrong answers observed";
    } else if (report.invariant_violations > 0) {
      report.failure = "degradation/coverage invariant violated";
    } else if (report.availability < options_.min_availability) {
      report.failure = StrFormat("availability %.4f below %.4f",
                                 report.availability,
                                 options_.min_availability);
    } else if (!report.recovered) {
      report.failure = "no exact answer within the recovery deadline";
    } else if (!report.leaked_daemons.empty()) {
      report.failure = "daemons leaked past SIGTERM teardown";
    }
  }
  report.passed = report.failure.empty();

  std::string leaked = "[";
  for (size_t i = 0; i < report.leaked_daemons.size(); ++i) {
    if (i > 0) leaked += ", ";
    leaked += '"';
    leaked += JsonEscape(report.leaked_daemons[i]);
    leaked += '"';
  }
  leaked += "]";
  LedgerLine(StrFormat(
      "{\"type\": \"report\", \"queries_total\": %zu, \"queries_ok\": %zu, "
      "\"queries_degraded\": %zu, \"wrong_answers\": %zu, "
      "\"invariant_violations\": %zu, \"queries_failed\": %zu, "
      "\"availability\": %.6f, \"recovered\": %s, \"recovery_ms\": %lld, "
      "\"leaked\": %s, \"passed\": %s, \"failure\": \"%s\"}",
      report.queries_total, report.queries_ok, report.queries_degraded,
      report.wrong_answers, report.invariant_violations,
      report.queries_failed, report.availability,
      report.recovered ? "true" : "false",
      static_cast<long long>(report.recovery_ms), leaked.c_str(),
      report.passed ? "true" : "false",
      JsonEscape(report.failure).c_str()));
  return report;
}

}  // namespace ipin::serve
