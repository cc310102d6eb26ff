// ipin_cli: command-line front end to the library — generate datasets,
// inspect them, build/persist influence indexes, answer oracle queries,
// select seed sets, and simulate cascades, all from the shell.
//
// Usage:
//   ipin_cli generate  --dataset=enron --scale=0.01 --out=net.txt
//   ipin_cli stats     net.txt
//   ipin_cli build-index --in=net.txt --window-pct=10 --out=index.bin
//       [--checkpoint_dir=ckpt --checkpoint_every=100000]
//   ipin_cli topk      --index=index.bin --k=10
//   ipin_cli query     --index=index.bin --seeds=1,2,3
//   ipin_cli simulate  --in=net.txt --seeds=1,2,3 --window-pct=10 --p=0.5
//   ipin_cli convert   --in=net.txt --dimacs=net.gr
//   ipin_cli report    --in=net.txt --window-pct=10 --format=prom
//
// Global flags (any command): --metrics_out=FILE writes the metrics
// registry + span tree as a JSON run report on exit; --trace_out=FILE
// records trace events during the command and writes a Chrome/Perfetto
// trace_event JSON file on exit (open with https://ui.perfetto.dev);
// --ledger_dir=DIR persists an ipin.run.v1 manifest (config, provenance,
// per-phase timings, outcome) on exit — inspect with tools/ipin_runs;
// --progress_out=FILE appends ipin.heartbeat.v1 JSON lines during the
// command at --heartbeat_ms cadence (default 1000); --progress adds a
// human ticker on stderr; --log_level=LEVEL (debug|info|warning|error)
// sets the logger threshold (overriding the IPIN_LOG_LEVEL environment
// variable); --threads=N sizes the global worker pool (0/absent =
// IPIN_THREADS env or hardware concurrency, 1 = exact sequential
// execution).

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ipin/common/flags.h"
#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/common/string_util.h"
#include "ipin/common/thread_pool.h"
#include "ipin/common/timer.h"
#include "ipin/core/checkpoint.h"
#include "ipin/core/influence_maximization.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_exact.h"
#include "ipin/core/oracle_io.h"
#include "ipin/core/tcic.h"
#include "ipin/datasets/registry.h"
#include "ipin/graph/graph_io.h"
#include "ipin/graph/static_graph.h"
#include "ipin/obs/export.h"
#include "ipin/obs/ledger.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/progress.h"
#include "ipin/obs/trace.h"
#include "ipin/obs/trace_events.h"

namespace ipin {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: ipin_cli <command> [flags]\n"
      "  generate    --dataset=<name> [--scale=0.01] --out=<file>\n"
      "  stats       <file>\n"
      "  build-index --in=<file> [--window-pct=10] [--precision=9] "
      "[--checkpoint_dir=<dir> --checkpoint_every=<edges>] --out=<index>\n"
      "  topk        --index=<index> [--k=10]\n"
      "  query       --index=<index> --seeds=a,b,c\n"
      "  simulate    --in=<file> --seeds=a,b,c [--window-pct=10] [--p=0.5] "
      "[--runs=50]\n"
      "  convert     --in=<file> --dimacs=<out>\n"
      "  report      --in=<file> [--window-pct=10] [--precision=9] "
      "[--queries=32] [--format=text|json|prom]\n"
      "global flags: --metrics_out=<json> --trace_out=<json> "
      "--log_level=<level> --lenient (salvage damaged edge lists)\n"
      "              --threads=<n> (0 = IPIN_THREADS env / hardware; "
      "1 = sequential)\n"
      "              --ledger_dir=<dir> (write an ipin.run.v1 manifest; "
      "see ipin_runs)\n"
      "              --progress_out=<jsonl> --heartbeat_ms=<ms> "
      "--progress (stderr ticker)\n");
  return 2;
}

// Exit code 2 marks an input problem the user can fix (missing or unreadable
// file, bad usage); exit 1 is reserved for operations that failed downstream.
constexpr int kExitBadInput = 2;

bool FileReadable(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// The sketch flags, checked here so a bad value is a usage error rather
// than an assertion inside the library: --window-pct must be >= 0 and
// --precision must lie in [4, 18] (beta = 2^precision cells).
bool SketchFlagsValid(const FlagMap& flags) {
  const double window_pct = flags.GetDouble("window-pct", 10.0);
  if (!(window_pct >= 0.0)) {
    std::fprintf(stderr, "--window-pct must be >= 0, got %g\n", window_pct);
    return false;
  }
  const int64_t precision = flags.GetInt("precision", 9);
  if (precision < 4 || precision > 18) {
    std::fprintf(stderr, "--precision must lie in [4, 18], got %lld\n",
                 static_cast<long long>(precision));
    return false;
  }
  return true;
}

std::vector<NodeId> ParseSeeds(const std::string& arg, size_t num_nodes) {
  std::vector<NodeId> seeds;
  for (const auto piece : SplitString(arg, ",")) {
    const auto id = ParseInt64(piece);
    if (!id || *id < 0 || static_cast<size_t>(*id) >= num_nodes) {
      std::fprintf(stderr, "bad seed id '%.*s'\n",
                   static_cast<int>(piece.size()), piece.data());
      return {};
    }
    seeds.push_back(static_cast<NodeId>(*id));
  }
  return seeds;
}

int CmdGenerate(const FlagMap& flags) {
  const std::string dataset = flags.GetString("dataset", "slashdot");
  const double scale = flags.GetDouble("scale", 0.01);
  const std::string out = flags.GetString("out");
  if (out.empty()) return Usage();
  if (!(scale > 0.0 && scale <= 1.0)) {
    std::fprintf(stderr, "--scale must lie in (0, 1], got %g\n", scale);
    return Usage();
  }
  const auto config = GetDatasetConfig(dataset, scale);
  if (!config.has_value()) {
    std::fprintf(stderr, "unknown dataset '%s' (known:", dataset.c_str());
    for (const auto& name : ListDatasetNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 1;
  }
  const InteractionGraph graph = GenerateInteractionNetwork(*config);
  if (!SaveInteractionsToFile(graph, out)) return 1;
  obs::RunLedger::Global().RecordOutput(out);
  std::printf("wrote %zu interactions / %zu nodes to %s\n",
              graph.num_interactions(), graph.num_nodes(), out.c_str());
  return 0;
}

// Loads the dataset argument, setting *rc on failure: missing/unreadable
// paths are a clear one-line stderr error with exit 2, parse failures
// (already logged with line and reason) exit 1.
std::optional<InteractionGraph> LoadGraphArg(const FlagMap& flags,
                                             const std::string& path,
                                             int* rc) {
  if (path.empty()) {
    *rc = Usage();
    return std::nullopt;
  }
  if (!FileReadable(path)) {
    std::fprintf(stderr, "ipin_cli: cannot open dataset '%s': %s\n",
                 path.c_str(), std::strerror(errno));
    *rc = kExitBadInput;
    return std::nullopt;
  }
  obs::RunLedger::Global().RecordInputFile(path);
  const ParseMode mode = flags.GetBool("lenient", false) ? ParseMode::kLenient
                                                         : ParseMode::kStrict;
  auto graph = LoadInteractionsFromFile(path, EdgeListFormat::kSrcDstTime, mode);
  if (!graph.has_value()) *rc = 1;
  return graph;
}

// Loads the index argument with the same exit-code contract; a degraded
// (partially corrupt) index is served with a stderr warning.
std::optional<IrsApprox> LoadIndexArg(const std::string& path, int* rc) {
  if (path.empty()) {
    *rc = Usage();
    return std::nullopt;
  }
  // Pre-check readability so a missing path yields exactly one stderr line
  // (the loader would log its own error first).
  if (!FileReadable(path)) {
    std::fprintf(stderr, "ipin_cli: cannot open index '%s': %s\n",
                 path.c_str(), std::strerror(errno));
    *rc = kExitBadInput;
    return std::nullopt;
  }
  obs::RunLedger::Global().RecordInputFile(path);
  IndexLoadResult result = LoadInfluenceIndexDetailed(path);
  if (result.status == IndexLoadStatus::kMissing) {
    std::fprintf(stderr, "ipin_cli: cannot open index '%s'\n", path.c_str());
    *rc = kExitBadInput;
    return std::nullopt;
  }
  if (!result.usable()) {
    std::fprintf(stderr,
                 "ipin_cli: index '%s' is %s and cannot be loaded\n",
                 path.c_str(),
                 result.status == IndexLoadStatus::kTruncated ? "truncated"
                                                              : "corrupt");
    *rc = 1;
    return std::nullopt;
  }
  if (result.status == IndexLoadStatus::kDegraded) {
    std::fprintf(stderr,
                 "ipin_cli: warning: index '%s' is degraded (%zu of %zu "
                 "sections dropped); estimates may be low\n",
                 path.c_str(), result.sections_dropped,
                 result.sections_total);
  }
  return std::move(result.index);
}

int CmdStats(const FlagMap& flags) {
  if (flags.positional().size() < 2) return Usage();
  int rc = 1;
  const auto graph = LoadGraphArg(flags, flags.positional()[1], &rc);
  if (!graph.has_value()) return rc;
  const auto stats = graph->ComputeStats();
  std::printf("nodes               %zu\n", stats.num_nodes);
  std::printf("interactions        %zu\n", stats.num_interactions);
  std::printf("distinct edges      %zu\n", stats.num_static_edges);
  std::printf("time span           %lld\n",
              static_cast<long long>(stats.time_span));
  std::printf("min/max timestamp   %lld / %lld\n",
              static_cast<long long>(stats.min_time),
              static_cast<long long>(stats.max_time));
  return 0;
}

int CmdBuildIndex(const FlagMap& flags) {
  if (!SketchFlagsValid(flags)) return Usage();
  int rc = 1;
  const auto graph = LoadGraphArg(flags, flags.GetString("in"), &rc);
  if (!graph.has_value()) return rc;
  const std::string out = flags.GetString("out");
  if (out.empty()) return Usage();
  const double window_pct = flags.GetDouble("window-pct", 10.0);
  IrsApproxOptions options;
  options.precision = static_cast<int>(flags.GetInt("precision", 9));

  // Optional crash-safe checkpointing: with both flags set, the scan saves
  // its state every N edges and a rerun after a crash resumes from the
  // newest valid checkpoint instead of starting over.
  CheckpointOptions ckpt;
  ckpt.dir = flags.GetString("checkpoint_dir", "");
  ckpt.every_edges =
      static_cast<size_t>(flags.GetInt("checkpoint_every", 0));
  CheckpointStats ckpt_stats;

  WallTimer timer;
  const Duration window = graph->WindowFromPercent(window_pct);
  const IrsApprox index =
      ckpt.enabled()
          ? ComputeIrsApproxCheckpointed(*graph, window, options, ckpt,
                                         &ckpt_stats)
          : IrsApprox::Compute(*graph, window, options);
  const double build_seconds = timer.ElapsedSeconds();
  if (ckpt.enabled()) {
    std::printf(
        "checkpointing: resumed %zu edges, wrote %zu checkpoints in %.2fs "
        "(%zu save failures, %zu invalid skipped)\n",
        ckpt_stats.resumed_edges, ckpt_stats.checkpoints_written,
        ckpt_stats.save_seconds, ckpt_stats.checkpoint_failures,
        ckpt_stats.invalid_checkpoints_skipped);
  }
  if (!SaveInfluenceIndex(index, out)) return 1;
  obs::RunLedger::Global().RecordOutput(out);
  std::printf(
      "built index in %.2fs (window %lld, beta %zu, build store %.1f MB) "
      "-> %s\n",
      build_seconds, static_cast<long long>(index.window()),
      static_cast<size_t>(1) << options.precision,
      index.MemoryUsageBytes() / (1024.0 * 1024.0), out.c_str());
  return 0;
}

int CmdTopk(const FlagMap& flags) {
  int rc = 1;
  const auto index = LoadIndexArg(flags.GetString("index"), &rc);
  if (!index.has_value()) return rc;
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  const SketchInfluenceOracle oracle(&*index);
  WallTimer timer;
  const SeedSelection selection = SelectSeedsCelf(oracle, k);
  std::printf("# top-%zu influencers (%.0f ms)\n", k, timer.ElapsedMillis());
  std::printf("# rank node gain\n");
  for (size_t i = 0; i < selection.seeds.size(); ++i) {
    std::printf("%zu %u %.1f\n", i + 1, selection.seeds[i],
                selection.gains[i]);
  }
  std::printf("# combined reach: %.1f\n", selection.total_coverage);
  return 0;
}

int CmdQuery(const FlagMap& flags) {
  int rc = 1;
  const auto index = LoadIndexArg(flags.GetString("index"), &rc);
  if (!index.has_value()) return rc;
  const auto seeds = ParseSeeds(flags.GetString("seeds"), index->num_nodes());
  if (seeds.empty()) return 1;
  WallTimer timer;
  const double estimate = index->EstimateUnionSize(seeds);
  std::printf("estimated influence of %zu seeds: %.1f nodes (%.3f ms)\n",
              seeds.size(), estimate, timer.ElapsedMillis());
  return 0;
}

int CmdSimulate(const FlagMap& flags) {
  if (!SketchFlagsValid(flags)) return Usage();
  int rc = 1;
  const auto graph = LoadGraphArg(flags, flags.GetString("in"), &rc);
  if (!graph.has_value()) return rc;
  const auto seeds = ParseSeeds(flags.GetString("seeds"), graph->num_nodes());
  if (seeds.empty()) return 1;
  TcicOptions options;
  options.window = graph->WindowFromPercent(flags.GetDouble("window-pct", 10));
  options.probability = flags.GetDouble("p", 0.5);
  const size_t runs = static_cast<size_t>(flags.GetInt("runs", 50));
  const double spread = AverageTcicSpread(*graph, seeds, options,
                                          runs, flags.GetInt("seed", 1));
  std::printf("TCIC spread over %zu runs (w=%lld, p=%.2f): %.1f nodes\n",
              runs, static_cast<long long>(options.window),
              options.probability, spread);
  return 0;
}

int CmdConvert(const FlagMap& flags) {
  int rc = 1;
  const auto graph = LoadGraphArg(flags, flags.GetString("in"), &rc);
  if (!graph.has_value()) return rc;
  const std::string dimacs = flags.GetString("dimacs");
  if (dimacs.empty()) return Usage();
  const StaticGraph flat = StaticGraph::FromInteractions(*graph);
  if (!SaveDimacs(flat, dimacs)) return 1;
  obs::RunLedger::Global().RecordOutput(dimacs);
  std::printf("wrote DIMACS graph (%zu nodes, %zu arcs) to %s\n",
              flat.num_nodes(), flat.num_edges(), dimacs.c_str());
  return 0;
}

// Builds both the exact and sketch IRS over one network, cross-checks them
// with random oracle queries, and prints a pipeline health summary. Pair
// with --metrics_out to capture the full instrumentation in JSON.
int CmdReport(const FlagMap& flags) {
  if (!SketchFlagsValid(flags)) return Usage();
  int rc = 1;
  const auto graph = LoadGraphArg(flags, flags.GetString("in"), &rc);
  if (!graph.has_value()) return rc;
  const double window_pct = flags.GetDouble("window-pct", 10.0);
  const Duration window = graph->WindowFromPercent(window_pct);
  IrsApproxOptions options;
  options.precision = static_cast<int>(flags.GetInt("precision", 9));
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("queries", 32));

  WallTimer exact_timer;
  const IrsExact exact = IrsExact::Compute(*graph, window);
  const double exact_seconds = exact_timer.ElapsedSeconds();
  WallTimer approx_timer;
  const IrsApprox approx = IrsApprox::Compute(*graph, window, options);
  const double approx_seconds = approx_timer.ElapsedSeconds();

  const ExactInfluenceOracle exact_oracle(&exact);
  const SketchInfluenceOracle sketch_oracle(&approx);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 7)));
  double error_sum = 0.0;
  size_t error_count = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<NodeId> seeds;
    for (size_t i = 0; i < 8; ++i) {
      seeds.push_back(static_cast<NodeId>(rng.NextBounded(graph->num_nodes())));
    }
    const double truth = exact_oracle.InfluenceOfSet(seeds);
    const double estimate = sketch_oracle.InfluenceOfSet(seeds);
    if (truth > 0) {
      error_sum += std::fabs(estimate - truth) / truth;
      ++error_count;
    }
  }

  std::printf("# pipeline report\n");
  std::printf("nodes / interactions   %zu / %zu\n", graph->num_nodes(),
              graph->num_interactions());
  std::printf("window                 %lld (%.3g%% of time span)\n",
              static_cast<long long>(window), window_pct);
  std::printf("exact IRS build        %.3fs (%zu entries, %.1f MB)\n",
              exact_seconds, exact.TotalSummaryEntries(),
              exact.MemoryUsageBytes() / (1024.0 * 1024.0));
  std::printf("sketch IRS build       %.3fs (beta %zu, %zu entries, %.1f MB)\n",
              approx_seconds, static_cast<size_t>(1) << options.precision,
              approx.TotalSketchEntries(),
              approx.MemoryUsageBytes() / (1024.0 * 1024.0));
  std::printf("oracle cross-check     %zu queries, mean relative error %.3f\n",
              num_queries,
              error_count > 0 ? error_sum / static_cast<double>(error_count)
                              : 0.0);

  // --format selects how the collected instrumentation is appended:
  // text (default, pretty one-per-line), json (ipin.metrics.v1 document),
  // prom (Prometheus exposition text, ready to push to a textfile
  // collector).
  const std::string format = flags.GetString("format", "text");
  obs::PublishMemoryGauges();
  PublishPoolPhaseMetrics();
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  if (format == "json") {
    std::printf("%s\n",
                obs::MetricsReportJson(snapshot, obs::SpanTreeSnapshot())
                    .c_str());
  } else if (format == "prom") {
    std::printf("%s", obs::MetricsPrometheusText(snapshot).c_str());
  } else if (format == "text") {
    std::printf("\n# metrics\n");
    obs::WriteMetricsText(snapshot, stdout);
  } else {
    std::fprintf(stderr, "bad --format '%s' (text|json|prom)\n",
                 format.c_str());
    return Usage();
  }
  return 0;
}

int Dispatch(const std::string& command, const FlagMap& flags) {
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "build-index") return CmdBuildIndex(flags);
  if (command == "topk") return CmdTopk(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "simulate") return CmdSimulate(flags);
  if (command == "convert") return CmdConvert(flags);
  if (command == "report") return CmdReport(flags);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return Usage();
}

int Run(int argc, char** argv) {
  const FlagMap flags = FlagMap::Parse(argc, argv);
  if (flags.positional().empty()) return Usage();

  const std::string log_level = flags.GetString("log_level", "");
  if (!log_level.empty()) {
    LogLevel level = GetLogLevel();
    if (!ParseLogLevel(log_level, &level)) {
      std::fprintf(stderr, "bad --log_level '%s'\n", log_level.c_str());
      return Usage();
    }
    SetLogLevel(level);
  }

  if (flags.Has("threads")) {
    const int64_t threads = flags.GetInt("threads", 0);
    SetGlobalThreads(threads <= 0 ? 0 : static_cast<size_t>(threads));
  }

  // The run ledger always records (events, wall time); it only writes a
  // manifest file when --ledger_dir (or IPIN_LEDGER_DIR) names a directory.
  obs::RunLedgerOptions ledger_options;
  ledger_options.dir = flags.GetString("ledger_dir", "");
  if (ledger_options.dir.empty()) {
    if (const char* env = std::getenv("IPIN_LEDGER_DIR");
        env != nullptr && env[0] != '\0') {
      ledger_options.dir = env;
    }
  }
  ledger_options.tool = "ipin_cli";
  ledger_options.command = flags.positional()[0];
  for (int i = 1; i < argc; ++i) {
    if (i > 1) ledger_options.args += " ";
    ledger_options.args += argv[i];
  }
  obs::RunLedger& ledger = obs::RunLedger::Global();
  ledger.Begin(ledger_options);

  const std::string trace_out = flags.GetString("trace_out", "");
  if (!trace_out.empty()) obs::StartTraceRecording();

  const std::string progress_out = flags.GetString("progress_out", "");
  const bool progress_ticker = flags.GetBool("progress", false);
  if (!progress_out.empty() || progress_ticker) {
    obs::ProgressOptions popts;
    popts.interval_ms =
        static_cast<uint64_t>(flags.GetInt("heartbeat_ms", 1000));
    popts.out_path = progress_out;
    popts.stderr_ticker = progress_ticker;
    const bool started = obs::StartProgressReporting(popts);
#ifndef IPIN_OBS_DISABLED
    if (!started && !progress_out.empty()) {
      std::fprintf(stderr, "ipin_cli: cannot open --progress_out '%s'\n",
                   progress_out.c_str());
      return kExitBadInput;
    }
#else
    // Progress engine compiled out: the flags stay accepted no-ops so
    // scripts work against both build modes.
    (void)started;
#endif
  }

  int rc = Dispatch(flags.positional()[0], flags);

  // Stop the reporter before the ledger snapshots heartbeat state, so the
  // final heartbeat is on disk and in the ledger's recent-lines ring.
  obs::StopProgressReporting();
  if (!progress_out.empty()) ledger.RecordOutput(progress_out);

  if (!trace_out.empty()) {
    obs::StopTraceRecording();
    if (obs::WriteChromeTrace(trace_out)) {
      LogInfo("wrote chrome trace to " + trace_out);
      ledger.RecordOutput(trace_out);
    } else if (rc == 0) {
      rc = 1;
    }
  }

  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty()) {
    obs::PublishMemoryGauges();
    PublishPoolPhaseMetrics();
    if (obs::WriteMetricsReportFile(metrics_out)) {
      LogInfo("wrote metrics report to " + metrics_out);
      ledger.RecordOutput(metrics_out);
    } else if (rc == 0) {
      rc = 1;
    }
  }

  const double wall_seconds = ledger.WallSeconds();
  std::string outputs;
  for (const std::string& out : ledger.Outputs()) outputs += " " + out;
  const std::string ledger_path = ledger.Finish(rc);
  if (!ledger_path.empty()) LogInfo("wrote run ledger to " + ledger_path);
  if (rc == 0) {
    // Success-only: error paths keep their single-line stderr contract.
    LogInfo(StrFormat("done in %.2fs (peak rss %.1f MB, threads %zu)%s%s",
                      wall_seconds,
                      obs::PeakRssBytes() / (1024.0 * 1024.0),
                      GlobalThreads(), outputs.empty() ? "" : " ->",
                      outputs.c_str()));
  }
  return rc;
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
