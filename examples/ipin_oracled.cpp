// ipin_oracled: the influence-oracle daemon. Serves |sigma(S)| queries from
// a persisted vHLL index (built with `ipin_cli build-index`) over the
// newline-delimited JSON protocol of src/ipin/serve/protocol.h, with
// per-request deadlines, admission control, graceful degradation, and hot
// index reload (the "reload" request, SIGHUP and the --reload_check_ms poll
// re-read the index file and swap it in atomically; corrupt files roll
// back).
//
// Usage:
//   ipin_oracled --index=index.bin --socket=/tmp/ipin.sock
//   ipin_oracled --index=index.bin --port=0            # ephemeral TCP port
//       [--graph=net.txt [--window-pct=10]]            # load exact map too
//       [--workers=4] [--queue_capacity=64] [--max_connections=64]
//       [--default_deadline_ms=1000] [--exact_budget_ms=50]
//       [--retry_after_ms=50] [--drain_deadline_ms=2000]
//       [--reload_check_ms=0]                          # >0: poll the file
//       [--slow_query_us=100000] [--flight_size=256] [--flight_slow_size=64]
//       [--audit_rate=0]                               # e.g. 0.01 = 1 in 100
//       [--stats_window_s=10]
//       [--ledger_dir=<dir>]                           # run manifest on exit
//       [--trace_out=trace.json]                       # Chrome trace at exit
//       [--metrics_out=report.json] [--log_level=debug]
//
// Lifecycle (serve/daemon.h, shared with ipin_routerd): on SIGTERM or
// SIGINT the daemon drains in-flight requests (bounded by
// --drain_deadline_ms) and exits 0. On SIGHUP it reloads the index. On
// SIGUSR1 it logs the slow-query flight recorder dump (the same
// "ipin.debug.v1" document the "debug" request verb returns) without
// interrupting service. Readiness: the line "ipin_oracled: serving ..." on
// stdout means the socket is accepting.

#include <cstdio>
#include <memory>
#include <string>

#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/core/irs_exact.h"
#include "ipin/graph/graph_io.h"
#include "ipin/serve/daemon.h"
#include "ipin/serve/index_manager.h"
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
               "  [--stats_window_s=10] [--ledger_dir=<dir>]\n"
               "  [--trace_out=<json>] [--metrics_out=<json>]\n"
               "  [--log_level=<level>]\n"
               "  [--port_file=<path>]   publish pid+bound endpoint once serving\n"
               "  [--shard_id=<i> --shard_count=<n>]   sharded deployment\n");
  return 2;
}

int Run(int argc, char** argv) {
  serve::DaemonRunner runner(
      {"ipin_oracled", "index", "index", "index.reload", Usage}, argc, argv);
  serve::ServerOptions options;
  if (const int code = runner.Init(&options); code != 0) return code;
  const FlagMap& flags = runner.flags();

  serve::IndexManager index(runner.input_path());
  if (index.Reload() != serve::ReloadStatus::kOk) {
    std::fprintf(stderr, "ipin_oracled: cannot load index '%s'\n",
                 runner.input_path().c_str());
    return runner.Fail(2);
  }

  // Optional exact-summary map, built from the interaction log. Costs build
  // time and memory but lets "exact"/"auto" queries answer precisely while
  // the latency budget allows.
  const std::string graph_path = flags.GetString("graph");
  if (!graph_path.empty()) {
    const auto graph = LoadInteractionsFromFile(
        graph_path, EdgeListFormat::kSrcDstTime, ParseMode::kStrict);
    if (!graph.has_value()) return runner.Fail(2);
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

  serve::OracleServer server(&index, options);
  return runner.Serve(&server, [&index](const std::string& endpoint) {
    return StrFormat("serving on %s (epoch %llu)", endpoint.c_str(),
                     static_cast<unsigned long long>(index.Epoch()));
  });
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
