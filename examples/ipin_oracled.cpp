// ipin_oracled: the influence-oracle daemon. Serves |sigma(S)| queries from
// a persisted vHLL index (built with `ipin_cli build-index`) over the
// newline-delimited JSON protocol of src/ipin/serve/protocol.h, with
// per-request deadlines, admission control, graceful degradation, and hot
// index reload (a background watcher and/or the "reload" request re-read the
// index file and swap it in atomically; corrupt files roll back).
//
// Usage:
//   ipin_oracled --index=index.bin --socket=/tmp/ipin.sock
//   ipin_oracled --index=index.bin --port=0            # ephemeral TCP port
//       [--graph=net.txt [--window-pct=10]]            # load exact map too
//       [--workers=4] [--queue_capacity=64] [--max_connections=64]
//       [--default_deadline_ms=1000] [--exact_budget_ms=50]
//       [--retry_after_ms=50] [--drain_deadline_ms=2000]
//       [--reload_check_ms=0]                          # >0: file watcher
//       [--slow_query_us=100000] [--flight_size=256] [--flight_slow_size=64]
//       [--audit_rate=0]                               # e.g. 0.01 = 1 in 100
//       [--stats_window_s=10]
//       [--trace_out=trace.json]                       # Chrome trace at exit
//       [--metrics_out=report.json] [--log_level=debug]
//
// On SIGTERM or SIGINT the daemon drains in-flight requests (bounded by
// --drain_deadline_ms) and exits 0. On SIGUSR1 it logs the slow-query
// flight recorder dump (the same "ipin.debug.v1" document the "debug"
// request verb returns) without interrupting service. Readiness: the line
// "ipin_oracled: serving ..." on stdout means the socket is accepting.

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "ipin/common/flags.h"
#include "ipin/common/logging.h"
#include "ipin/core/irs_exact.h"
#include "ipin/graph/graph_io.h"
#include "ipin/obs/export.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/trace_events.h"
#include "ipin/serve/index_manager.h"
#include "ipin/serve/port_file.h"
#include "ipin/serve/server.h"

namespace ipin {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ipin_oracled --index=<file> (--socket=<path> | "
               "--port=<n>)\n"
               "  [--graph=<edges> [--window-pct=10]]  load exact summaries\n"
               "  [--workers=4] [--queue_capacity=64] [--max_connections=64]\n"
               "  [--default_deadline_ms=1000] [--exact_budget_ms=50]\n"
               "  [--retry_after_ms=50] [--drain_deadline_ms=2000]\n"
               "  [--reload_check_ms=0] [--slow_query_us=100000]\n"
               "  [--flight_size=256] [--flight_slow_size=64] "
               "[--audit_rate=0]\n"
               "  [--stats_window_s=10] [--trace_out=<json>]\n"
               "  [--metrics_out=<json>] [--log_level=<level>]\n"
               "  [--port_file=<path>]   publish pid+bound endpoint once serving\n"
               "  [--shard_id=<i> --shard_count=<n>]   sharded deployment\n");
  return 2;
}

// Signal-handler flags: the main thread sleeps in a loop on them, so the
// handlers themselves only need one async-signal-safe store each.
volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;

void HandleStopSignal(int) { g_stop = 1; }
void HandleDumpSignal(int) { g_dump = 1; }

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

  serve::ServerOptions options;
  serve::ParseFrontendFlags(flags, &options);
  const std::string index_path = flags.GetString("index");
  const std::string& socket_path = options.unix_socket_path;
  if (index_path.empty() || (socket_path.empty() == !flags.Has("port"))) {
    return Usage();
  }

  serve::IndexManager index(index_path);
  if (index.Reload() != serve::ReloadStatus::kOk) {
    std::fprintf(stderr, "ipin_oracled: cannot load index '%s'\n",
                 index_path.c_str());
    return 2;
  }

  // Optional exact-summary map, built from the interaction log. Costs build
  // time and memory but lets "exact"/"auto" queries answer precisely while
  // the latency budget allows.
  const std::string graph_path = flags.GetString("graph");
  if (!graph_path.empty()) {
    const auto graph = LoadInteractionsFromFile(
        graph_path, EdgeListFormat::kSrcDstTime, ParseMode::kStrict);
    if (!graph.has_value()) return 2;
    const Duration window =
        graph->WindowFromPercent(flags.GetDouble("window-pct", 10.0));
    index.SetExact(
        std::make_shared<const IrsExact>(IrsExact::Compute(*graph, window)));
    LogInfo("ipin_oracled: exact summaries loaded from " + graph_path);
  }

  options.exact_budget_ms = flags.GetInt("exact_budget_ms", 50);
  options.audit_rate = flags.GetDouble("audit_rate", 0.0);
  // Sharded deployments (ipin_routerd + per-shard indexes from ipin_shard):
  // the identity is echoed by the stats verb so operators and the shard
  // drill can tell backends apart.
  options.shard_id = static_cast<int>(flags.GetInt("shard_id", -1));
  options.shard_count = static_cast<int>(flags.GetInt("shard_count", 0));

  // --trace_out records Chrome trace events for the whole serving session;
  // each request renders as one async lane keyed by its trace_id. The file
  // is written after the drain.
  const std::string trace_out = flags.GetString("trace_out", "");
  if (!trace_out.empty()) obs::StartTraceRecording();

  serve::OracleServer server(&index, options);
  if (!server.Start()) return 1;

  const int64_t reload_check_ms = flags.GetInt("reload_check_ms", 0);
  if (reload_check_ms > 0) index.StartWatcher(reload_check_ms);

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGUSR1, HandleDumpSignal);
  std::signal(SIGPIPE, SIG_IGN);

  if (socket_path.empty()) {
    std::printf("ipin_oracled: serving on 127.0.0.1:%d (epoch %llu)\n",
                server.bound_port(),
                static_cast<unsigned long long>(index.Epoch()));
  } else {
    std::printf("ipin_oracled: serving on %s (epoch %llu)\n",
                socket_path.c_str(),
                static_cast<unsigned long long>(index.Epoch()));
  }
  std::fflush(stdout);

  // --port_file publishes the bound endpoint once serving: with --port=0
  // (kernel-assigned port) scripts read the file instead of guessing a
  // fixed port that another test running in parallel may hold. Written
  // via rename so a reader never sees a half-written file.
  const std::string port_file = flags.GetString("port_file", "");
  if (!port_file.empty() &&
      !serve::WritePortFile(port_file, "ipin_oracled", server.bound_port(),
                            socket_path)) {
    std::fprintf(stderr, "ipin_oracled: cannot write port file '%s'\n",
                 port_file.c_str());
    server.Shutdown();
    return 1;
  }

  while (g_stop == 0) {
    if (g_dump != 0) {
      g_dump = 0;
      // One log line, service uninterrupted: the operator's kill -USR1
      // answer to "what are the slow queries doing".
      LogInfo("ipin_oracled: flight recorder dump: " + server.DebugDump());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  LogInfo("ipin_oracled: stop signal received, draining");
  index.StopWatcher();
  server.Shutdown();

  if (!trace_out.empty()) {
    obs::StopTraceRecording();
    if (obs::WriteChromeTrace(trace_out)) {
      LogInfo("wrote chrome trace to " + trace_out);
    }
  }
  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty()) {
    obs::PublishMemoryGauges();
    if (obs::WriteMetricsReportFile(metrics_out)) {
      LogInfo("wrote metrics report to " + metrics_out);
    }
  }
  std::printf("ipin_oracled: drained, exiting\n");
  return 0;
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
