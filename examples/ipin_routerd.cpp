// ipin_routerd: the scatter-gather router of the sharded serving tier
// (DESIGN.md §11). Speaks the same newline-delimited JSON protocol as
// ipin_oracled, but answers each query by fanning it out to the per-shard
// backends named in an "ipin.shardmap.v1" map file, merging their rank
// partials into the exact global estimate, and degrading to a partial
// answer (degraded=true, shards_answered < shards_total) when shards are
// down instead of erroring.
//
// Usage:
//   ipin_routerd --map=shards.json --socket=/tmp/ipin-router.sock
//   ipin_routerd --map=shards.json --port=0        # ephemeral TCP port
//       [--workers=4] [--queue_capacity=64] [--max_connections=64]
//       [--default_deadline_ms=1000] [--retry_after_ms=50]
//       [--drain_deadline_ms=2000]
//       [--connect_timeout_ms=250] [--shard_deadline_margin_ms=20]
//       [--hedge_after_ms=0]                       # >0 enables hedging
//       [--suspect_after=1] [--down_after=3] [--probe_interval_ms=200]
//       [--slow_query_us=100000] [--flight_size=256] [--flight_slow_size=64]
//       [--stats_window_s=10]
//       [--ledger_dir=<dir>]                       # run manifest on exit
//       [--trace_out=trace.json] [--metrics_out=report.json]
//       [--log_level=<level>]
//
// Signals: SIGTERM/SIGINT drain and exit 0; SIGHUP re-reads the shard map
// (epoch-swapped; a corrupt map rolls back and the old epoch keeps
// routing); SIGUSR1 logs the flight-recorder dump (request records plus
// one record per shard leg) without interrupting service. Readiness: the
// line "ipin_routerd: routing ..." on stdout means the socket is
// accepting.

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "ipin/common/flags.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/export.h"
#include "ipin/obs/ledger.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/trace_events.h"
#include "ipin/serve/port_file.h"
#include "ipin/serve/router.h"
#include "ipin/serve/shard_map.h"

namespace ipin {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ipin_routerd --map=<shards.json> (--socket=<path> | "
               "--port=<n>)\n"
               "  [--workers=4] [--queue_capacity=64] [--max_connections=64]\n"
               "  [--default_deadline_ms=1000] [--retry_after_ms=50]\n"
               "  [--drain_deadline_ms=2000] [--connect_timeout_ms=250]\n"
               "  [--shard_deadline_margin_ms=20] [--hedge_after_ms=0]\n"
               "  [--suspect_after=1] [--down_after=3] "
               "[--probe_interval_ms=200]\n"
               "  [--slow_query_us=100000] [--flight_size=256]\n"
               "  [--flight_slow_size=64] [--stats_window_s=10]\n"
               "  [--ledger_dir=<dir>] [--trace_out=<json>]\n"
               "  [--metrics_out=<json>] [--log_level=<level>]\n"
               "  [--port_file=<path>]   publish pid+bound endpoint once serving\n");
  return 2;
}

// Signal-handler flags: the main thread polls them, so the handlers only
// need one async-signal-safe store each.
volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;
volatile std::sig_atomic_t g_reload = 0;

void HandleStopSignal(int) { g_stop = 1; }
void HandleDumpSignal(int) { g_dump = 1; }
void HandleReloadSignal(int) { g_reload = 1; }

std::string JoinArgs(int argc, char** argv) {
  std::string joined;
  for (int i = 1; i < argc; ++i) {
    if (!joined.empty()) joined += ' ';
    joined += argv[i];
  }
  return joined;
}

int Run(int argc, char** argv) {
  const FlagMap flags = FlagMap::Parse(argc, argv);

  const std::string log_level = flags.GetString("log_level", "");
  if (!log_level.empty()) {
    LogLevel level = GetLogLevel();
    if (!ParseLogLevel(log_level, &level)) {
      std::fprintf(stderr, "bad --log_level '%s'\n", log_level.c_str());
      return Usage();
    }
    SetLogLevel(level);
  }

  serve::RouterOptions options;
  std::string options_error;
  if (!serve::ParseFrontendFlags(flags, &options, &options_error)) {
    std::fprintf(stderr, "ipin_routerd: %s\n", options_error.c_str());
    return Usage();
  }
  const std::string map_path = flags.GetString("map");
  const std::string& socket_path = options.unix_socket_path;
  if (map_path.empty() || (socket_path.empty() == !flags.Has("port"))) {
    return Usage();
  }

  obs::RunLedger& ledger = obs::RunLedger::Global();
  ledger.Begin({flags.GetString("ledger_dir", ""), "ipin_routerd", "serve",
                JoinArgs(argc, argv)});
  ledger.RecordInputFile(map_path);

  serve::ShardMapManager map(map_path);
  if (map.Reload() != serve::ReloadStatus::kOk) {
    std::fprintf(stderr, "ipin_routerd: cannot load shard map '%s'\n",
                 map_path.c_str());
    ledger.Finish(2);
    return 2;
  }

  options.connect_timeout_ms = flags.GetInt("connect_timeout_ms", 250);
  options.shard_deadline_margin_ms =
      flags.GetInt("shard_deadline_margin_ms", 20);
  options.hedge_after_ms = flags.GetInt("hedge_after_ms", 0);
  options.health.suspect_after =
      static_cast<int>(flags.GetInt("suspect_after", 1));
  options.health.down_after = static_cast<int>(flags.GetInt("down_after", 3));
  options.health.probe_interval_ms = flags.GetInt("probe_interval_ms", 200);

  const std::string trace_out = flags.GetString("trace_out", "");
  if (!trace_out.empty()) obs::StartTraceRecording();

  serve::RouterServer server(&map, options);
  if (!server.Start()) {
    ledger.Finish(1);
    return 1;
  }

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGHUP, HandleReloadSignal);
  std::signal(SIGUSR1, HandleDumpSignal);
  std::signal(SIGPIPE, SIG_IGN);

  const size_t num_shards = map.Current()->num_shards();
  if (socket_path.empty()) {
    std::printf("ipin_routerd: routing %zu shards on 127.0.0.1:%d "
                "(map epoch %llu)\n",
                num_shards, server.bound_port(),
                static_cast<unsigned long long>(map.Epoch()));
  } else {
    std::printf("ipin_routerd: routing %zu shards on %s (map epoch %llu)\n",
                num_shards, socket_path.c_str(),
                static_cast<unsigned long long>(map.Epoch()));
  }
  std::fflush(stdout);

  // --port_file publishes the bound endpoint once routing (see
  // serve/port_file.h): with --port=0 scripts read the kernel-assigned
  // port from the file instead of hardcoding one.
  const std::string port_file = flags.GetString("port_file", "");
  if (!port_file.empty() &&
      !serve::WritePortFile(port_file, "ipin_routerd", server.bound_port(),
                            socket_path)) {
    std::fprintf(stderr, "ipin_routerd: cannot write port file '%s'\n",
                 port_file.c_str());
    server.Shutdown();
    ledger.Finish(1);
    return 1;
  }

  while (g_stop == 0) {
    if (g_reload != 0) {
      g_reload = 0;
      const serve::ReloadStatus status = map.Reload();
      ledger.RecordEvent("shardmap.reload",
                         status == serve::ReloadStatus::kRolledBack
                             ? "rolled_back"
                             : "ok");
      LogInfo(StrFormat("ipin_routerd: SIGHUP shard-map reload: %s (epoch "
                        "%llu)",
                        status == serve::ReloadStatus::kRolledBack
                            ? "rolled back"
                            : "ok",
                        static_cast<unsigned long long>(map.Epoch())));
    }
    if (g_dump != 0) {
      g_dump = 0;
      LogInfo("ipin_routerd: flight recorder dump: " + server.DebugDump());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  LogInfo("ipin_routerd: stop signal received, draining");
  server.Shutdown();

  if (!trace_out.empty()) {
    obs::StopTraceRecording();
    if (obs::WriteChromeTrace(trace_out)) {
      ledger.RecordOutput(trace_out);
      LogInfo("wrote chrome trace to " + trace_out);
    }
  }
  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty()) {
    obs::PublishMemoryGauges();
    if (obs::WriteMetricsReportFile(metrics_out)) {
      ledger.RecordOutput(metrics_out);
      LogInfo("wrote metrics report to " + metrics_out);
    }
  }
  ledger.Finish(0);
  std::printf("ipin_routerd: drained, exiting\n");
  return 0;
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
