// Oracle-serving latency/throughput: closed-loop clients against an
// in-process OracleServer over a Unix socket, sweeping offered load
// (client concurrency) with admission control on (small bounded queue,
// overload is shed with a retry hint) and off (effectively unbounded
// queue). Reports client-side p50/p95/p99 latency and goodput per level.
//
// The paper's serving story (Section 4.1) is that |sigma(S)| queries are
// O(|S| * beta) and thus cheap enough to serve online; this harness checks
// the serving layer preserves that: tail latency stays bounded under
// overload when shedding is on, and collapses when it is off.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "ipin/common/random.h"
#include "ipin/common/string_util.h"
#include "ipin/core/irs_approx.h"
#include "ipin/eval/table.h"
#include "ipin/obs/metrics.h"
#include "ipin/serve/client.h"
#include "ipin/serve/index_manager.h"
#include "ipin/serve/server.h"

namespace ipin {
namespace {

struct LevelResult {
  size_t ok = 0;
  size_t shed = 0;
  size_t errors = 0;
  double elapsed_s = 0.0;
  std::vector<double> latencies_us;  // per successful request

  double Percentile(double p) {
    if (latencies_us.empty()) return 0.0;
    std::sort(latencies_us.begin(), latencies_us.end());
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(latencies_us.size() - 1));
    return latencies_us[idx];
  }
};

LevelResult RunLevel(const serve::ClientOptions& client_options,
                     const serve::Request& request, size_t concurrency,
                     size_t requests) {
  LevelResult result;
  std::mutex mu;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(concurrency);
  const auto start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < concurrency; ++t) {
    threads.emplace_back([&, t] {
      serve::ClientOptions options = client_options;
      options.jitter_seed = t + 1;
      serve::OracleClient client(options);
      size_t ok = 0, shed = 0, errors = 0;
      std::vector<double> latencies;
      while (next.fetch_add(1) < requests) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto response = client.Call(request);
        const auto t1 = std::chrono::steady_clock::now();
        if (!response.has_value()) {
          ++errors;
          continue;
        }
        if (response->status == serve::StatusCode::kOverloaded) {
          ++shed;
          continue;
        }
        if (response->status != serve::StatusCode::kOk) {
          ++errors;
          continue;
        }
        ++ok;
        const double us =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        latencies.push_back(us);
        IPIN_HISTOGRAM_RECORD("bench.serve.query_us",
                              static_cast<uint64_t>(us));
      }
      std::lock_guard<std::mutex> lock(mu);
      result.ok += ok;
      result.shed += shed;
      result.errors += errors;
      result.latencies_us.insert(result.latencies_us.end(), latencies.begin(),
                                 latencies.end());
    });
  }
  for (auto& thread : threads) thread.join();
  result.elapsed_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return result;
}

int Run(int argc, char** argv) {
  const FlagMap flags = FlagMap::Parse(argc, argv);
  SetupBenchObservability(flags, "oracle_serving");
  const double scale = flags.GetDouble("scale", 0.01);
  const int precision = static_cast<int>(flags.GetInt("precision", 9));
  const size_t requests = static_cast<size_t>(flags.GetInt("requests", 2000));
  const size_t num_seeds = static_cast<size_t>(flags.GetInt("seeds", 5));
  const int workers = static_cast<int>(flags.GetInt("workers", 2));
  PrintBanner("Oracle serving: closed-loop latency vs offered load", flags,
              scale);

  const std::vector<std::string> datasets = DatasetsFromFlags(flags);
  const InteractionGraph graph = LoadBenchDataset(
      datasets.empty() ? "slashdot" : datasets.front(), scale);
  IrsApproxOptions options;
  options.precision = precision;
  serve::IndexManager index("");
  auto built = std::make_shared<IrsApprox>(
      IrsApprox::Compute(graph, graph.WindowFromPercent(20.0), options));
  built->Seal();  // build -> serve handoff: pack for the query fast paths
  index.Install(std::move(built));

  Rng rng(4242);
  serve::Request request;
  request.method = serve::Method::kQuery;
  request.mode = serve::QueryMode::kSketch;
  request.deadline_ms = 10000;
  for (size_t i = 0; i < num_seeds; ++i) {
    request.seeds.push_back(
        static_cast<NodeId>(rng.NextBounded(graph.num_nodes())));
  }

  const std::vector<size_t> concurrency_levels = {1, 4, 16, 32};

  TablePrinter table(StrFormat(
      "Oracle serving — %d workers, %zu sketch queries per level, "
      "client-side latency (us)",
      workers, requests));
  table.SetHeader({"Shedding", "Clients", "p50", "p95", "p99", "goodput/s",
                   "shed", "errors"});

  for (const bool shedding : {true, false}) {
    const std::string socket_path =
        StrFormat("/tmp/ipin_bench_serving_%d_%d.sock",
                  static_cast<int>(getpid()), shedding ? 1 : 0);
    serve::ServerOptions server_options;
    server_options.unix_socket_path = socket_path;
    server_options.num_workers = workers;
    // Shedding on: a short queue bounds waiting time and rejects overflow.
    // Shedding off: a queue deep enough to hold every in-flight request, so
    // nothing is rejected and latency absorbs the whole backlog.
    server_options.queue_capacity = shedding ? static_cast<size_t>(2 * workers)
                                             : (requests + 1);
    server_options.default_deadline_ms = 10000;
    serve::OracleServer server(&index, server_options);
    if (!server.Start()) {
      std::fprintf(stderr, "cannot start server on %s\n", socket_path.c_str());
      return 1;
    }

    serve::ClientOptions client_options;
    client_options.unix_socket_path = socket_path;
    client_options.max_attempts = 1;  // measure raw responses, not retries

    for (const size_t concurrency : concurrency_levels) {
      LevelResult result =
          RunLevel(client_options, request, concurrency, requests);
      const double goodput =
          result.elapsed_s > 0
              ? static_cast<double>(result.ok) / result.elapsed_s
              : 0.0;
      table.AddRow({shedding ? "on" : "off", TablePrinter::Cell(concurrency),
                    TablePrinter::Cell(result.Percentile(0.50), 1),
                    TablePrinter::Cell(result.Percentile(0.95), 1),
                    TablePrinter::Cell(result.Percentile(0.99), 1),
                    TablePrinter::Cell(goodput, 0),
                    TablePrinter::Cell(result.shed),
                    TablePrinter::Cell(result.errors)});
      // One call site per name: the macro caches its histogram per site,
      // so a single site with a computed name would fold "off" into "on".
      if (shedding) {
        IPIN_HISTOGRAM_RECORD("bench.serve.shed_on.p99_us",
                              result.Percentile(0.99));
      } else {
        IPIN_HISTOGRAM_RECORD("bench.serve.shed_off.p99_us",
                              result.Percentile(0.99));
      }
    }
    server.Shutdown();
  }
  table.Print();
  std::printf(
      "\nExpected shape: with shedding on, p99 stays near the service time "
      "at every load level\n(excess demand is rejected with a retry hint); "
      "with shedding off, p99 grows with the\nbacklog as clients queue "
      "behind each other.\n");

  EmitRunReport(flags);
  return 0;
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
