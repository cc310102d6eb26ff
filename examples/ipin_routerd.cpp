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
//       [--reload_check_ms=0]                      # >0: poll the map file
//       [--connect_timeout_ms=250] [--shard_deadline_margin_ms=20]
//       [--suspect_after=1] [--down_after=3] [--probe_interval_ms=200]
//       [--slow_query_us=100000] [--flight_size=256] [--flight_slow_size=64]
//       [--stats_window_s=10]
//       [--ledger_dir=<dir>]                       # run manifest on exit
//       [--trace_out=trace.json] [--metrics_out=report.json]
//       [--log_level=<level>]
//
// Lifecycle (serve/daemon.h, shared with ipin_oracled): SIGTERM/SIGINT
// drain and exit 0; SIGHUP re-reads the shard map (epoch-swapped; a
// corrupt map rolls back and the old epoch keeps routing); SIGUSR1 logs the
// flight-recorder dump (request records plus one record per shard leg)
// without interrupting service. Readiness: the line "ipin_routerd:
// routing ..." on stdout means the socket is accepting.

#include <cstdio>
#include <string>

#include "ipin/common/string_util.h"
#include "ipin/serve/daemon.h"
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
               "  [--drain_deadline_ms=2000] [--reload_check_ms=0]\n"
               "  [--connect_timeout_ms=250] [--shard_deadline_margin_ms=20]\n"
               "  [--suspect_after=1] [--down_after=3] [--probe_interval_ms=200]\n"
               "  [--slow_query_us=100000]\n"
               "  [--flight_size=256] [--flight_slow_size=64]\n"
               "  [--stats_window_s=10] [--ledger_dir=<dir>]\n"
               "  [--trace_out=<json>] [--metrics_out=<json>]\n"
               "  [--log_level=<level>]\n"
               "  [--port_file=<path>]   publish pid+bound endpoint once serving\n");
  return 2;
}

int Run(int argc, char** argv) {
  serve::DaemonRunner runner(
      {"ipin_routerd", "map", "shard-map", "shardmap.reload", Usage}, argc,
      argv);
  serve::RouterOptions options;
  if (const int code = runner.Init(&options); code != 0) return code;
  const FlagMap& flags = runner.flags();

  serve::ShardMapManager map(runner.input_path());
  if (map.Reload() != serve::ReloadStatus::kOk) {
    std::fprintf(stderr, "ipin_routerd: cannot load shard map '%s'\n",
                 runner.input_path().c_str());
    return runner.Fail(2);
  }

  options.connect_timeout_ms = flags.GetInt("connect_timeout_ms", 250);
  options.shard_deadline_margin_ms =
      flags.GetInt("shard_deadline_margin_ms", 20);
  options.health.suspect_after =
      static_cast<int>(flags.GetInt("suspect_after", 1));
  options.health.down_after = static_cast<int>(flags.GetInt("down_after", 3));
  options.health.probe_interval_ms = flags.GetInt("probe_interval_ms", 200);

  serve::RouterServer server(&map, options);
  return runner.Serve(&server, [&map](const std::string& endpoint) {
    return StrFormat("routing %zu shards on %s (map epoch %llu)",
                     map.Current()->num_shards(), endpoint.c_str(),
                     static_cast<unsigned long long>(map.Epoch()));
  });
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
