// ipin_oracle_client: command-line client for ipin_oracled, built on the
// retrying serve::OracleClient. Two shapes:
//
//   Single request (default) — send one request, print the response fields:
//     ipin_oracle_client --socket=/tmp/ipin.sock --seeds=1,2,3 [--mode=auto]
//         [--deadline_ms=0]
//         [--method=query|topk|health|stats|reload|metrics|debug]
//         [--format=prom|json]           # metrics payload format
//         [--trace_id=<hex>]             # propagate trace context
//     Queries print "trace_id=<hex>" (the given one, or the one the client
//     generated) so the request can be found in the server's trace and
//     logs; metrics/debug print their payload document after the status
//     line.
//
//   Burst (--requests=N) — closed-loop load from --concurrency threads, each
//     with its own connection, then a one-line tally the smoke test parses,
//     with client-side latency percentiles over all completed calls:
//     ipin_oracle_client --socket=... --seeds=1,2 --requests=500
//         --concurrency=8 [--retry_overloaded]
//     => "burst: sent=500 ok=481 degraded=12 overloaded=19 deadline=0
//         unavailable=0 bad=0 transport_errors=0 retries=19
//         p50_us=812 p95_us=2210 p99_us=4105"
//
// --metrics_out=<json> writes the client-side metrics report (including the
// client.burst.latency_us histogram) on exit.
//
// Exit codes: 0 when the single request got status OK (or a burst got at
// least one OK), 1 on any other status, 2 on transport failure / bad usage.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ipin/common/flags.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/export.h"
#include "ipin/obs/metrics.h"
#include "ipin/serve/client.h"

namespace ipin {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ipin_oracle_client (--socket=<path> | --port=<n>) "
               "[--host=127.0.0.1]\n"
               "  [--method=query|topk|health|stats|reload|metrics|debug]\n"
               "  [--seeds=a,b,c] [--mode=sketch|exact|auto] [--k=10] "
               "[--deadline_ms=0]\n"
               "  [--format=prom|json] [--trace_id=<hex>]\n"
               "  [--requests=<n> --concurrency=<c>] [--retry_overloaded]\n"
               "  [--max_attempts=4] [--io_timeout_ms=2000] "
               "[--metrics_out=<json>]\n");
  return 2;
}

struct Tally {
  std::atomic<size_t> ok{0};
  std::atomic<size_t> degraded{0};
  std::atomic<size_t> overloaded{0};
  std::atomic<size_t> deadline{0};
  std::atomic<size_t> unavailable{0};
  std::atomic<size_t> bad{0};
  std::atomic<size_t> transport_errors{0};
  std::atomic<size_t> retries{0};

  void Count(const std::optional<serve::Response>& response) {
    if (!response.has_value()) {
      ++transport_errors;
      return;
    }
    switch (response->status) {
      case serve::StatusCode::kOk:
        ++ok;
        if (response->degraded) ++degraded;
        break;
      case serve::StatusCode::kOverloaded:
        ++overloaded;
        break;
      case serve::StatusCode::kDeadlineExceeded:
        ++deadline;
        break;
      case serve::StatusCode::kUnavailable:
        ++unavailable;
        break;
      default:
        ++bad;
        break;
    }
  }
};

std::optional<serve::Request> BuildRequest(const FlagMap& flags) {
  serve::Request request;
  const std::string method = flags.GetString("method", "query");
  if (method == "query") {
    request.method = serve::Method::kQuery;
  } else if (method == "health") {
    request.method = serve::Method::kHealth;
  } else if (method == "stats") {
    request.method = serve::Method::kStats;
  } else if (method == "reload") {
    request.method = serve::Method::kReload;
  } else if (method == "metrics") {
    request.method = serve::Method::kMetrics;
  } else if (method == "debug") {
    request.method = serve::Method::kDebug;
  } else if (method == "topk") {
    request.method = serve::Method::kTopk;
    request.k = flags.GetInt("k", 10);
    if (request.k < 1) {
      std::fprintf(stderr, "bad --k %lld\n",
                   static_cast<long long>(request.k));
      return std::nullopt;
    }
  } else {
    std::fprintf(stderr, "bad --method '%s'\n", method.c_str());
    return std::nullopt;
  }

  const std::string format = flags.GetString("format", "prom");
  if (format == "json") {
    request.format = serve::MetricsFormat::kJson;
  } else if (format != "prom") {
    std::fprintf(stderr, "bad --format '%s'\n", format.c_str());
    return std::nullopt;
  }

  const std::string trace_hex = flags.GetString("trace_id", "");
  if (!trace_hex.empty()) {
    const auto trace_id = serve::TraceIdFromHex(trace_hex);
    if (!trace_id.has_value()) {
      std::fprintf(stderr, "bad --trace_id '%s' (1-16 hex digits)\n",
                   trace_hex.c_str());
      return std::nullopt;
    }
    request.trace_id = *trace_id;
  }

  const std::string mode = flags.GetString("mode", "auto");
  if (mode == "sketch") {
    request.mode = serve::QueryMode::kSketch;
  } else if (mode == "exact") {
    request.mode = serve::QueryMode::kExact;
  } else if (mode == "auto") {
    request.mode = serve::QueryMode::kAuto;
  } else {
    std::fprintf(stderr, "bad --mode '%s'\n", mode.c_str());
    return std::nullopt;
  }

  request.deadline_ms = flags.GetInt("deadline_ms", 0);
  // Named string: SplitString returns views into it, and a temporary dies
  // before the loop body runs (pre-C++23 range-for dangling).
  const std::string seeds_flag = flags.GetString("seeds");
  for (const auto piece : SplitString(seeds_flag, ",")) {
    const auto id = ParseInt64(piece);
    if (!id || *id < 0) {
      std::fprintf(stderr, "bad seed id '%.*s'\n",
                   static_cast<int>(piece.size()), piece.data());
      return std::nullopt;
    }
    request.seeds.push_back(static_cast<NodeId>(*id));
  }
  if (request.method == serve::Method::kQuery && request.seeds.empty()) {
    std::fprintf(stderr, "query needs --seeds\n");
    return std::nullopt;
  }
  return request;
}

int RunSingle(const serve::ClientOptions& options,
              const serve::Request& request) {
  serve::OracleClient client(options);
  std::string error;
  const auto response = client.Call(request, &error);
  if (!response.has_value()) {
    std::fprintf(stderr, "ipin_oracle_client: %s\n", error.c_str());
    return 2;
  }
  std::printf("status=%s", StatusCodeName(response->status));
  if (request.method == serve::Method::kQuery &&
      response->status == serve::StatusCode::kOk) {
    std::printf(" estimate=%.1f degraded=%d", response->estimate,
                response->degraded ? 1 : 0);
  }
  if (request.method == serve::Method::kTopk &&
      response->status == serve::StatusCode::kOk) {
    std::printf(" degraded=%d topk=", response->degraded ? 1 : 0);
    for (size_t i = 0; i < response->topk.size(); ++i) {
      std::printf("%s%llu:%.1f", i == 0 ? "" : ",",
                  static_cast<unsigned long long>(response->topk[i].first),
                  response->topk[i].second);
    }
  }
  // Scatter-gather answers carry the partial-result accounting.
  if (response->shards_total > 0) {
    std::printf(" shards_answered=%lld shards_total=%lld coverage=%.3f",
                static_cast<long long>(response->shards_answered),
                static_cast<long long>(response->shards_total),
                response->coverage);
  }
  std::printf(" epoch=%llu",
              static_cast<unsigned long long>(response->epoch));
  if (response->retry_after_ms > 0) {
    std::printf(" retry_after_ms=%lld",
                static_cast<long long>(response->retry_after_ms));
  }
  if (!response->error.empty()) {
    std::printf(" error=\"%s\"", response->error.c_str());
  }
  for (const auto& [key, value] : response->info) {
    std::printf(" %s=%g", key.c_str(), value);
  }
  const uint64_t trace_id = response->trace_id != 0 ? response->trace_id
                                                    : client.last_trace_id();
  if (trace_id != 0) {
    std::printf(" trace_id=%s", serve::TraceIdToHex(trace_id).c_str());
  }
  std::printf("\n");
  // metrics/debug carry a whole document; print it after the status line.
  if (!response->payload.empty()) {
    std::fputs(response->payload.c_str(), stdout);
    if (response->payload.back() != '\n') std::fputc('\n', stdout);
  }
  return response->status == serve::StatusCode::kOk ? 0 : 1;
}

int RunBurst(const serve::ClientOptions& options,
             const serve::Request& request, size_t requests,
             size_t concurrency) {
  if (concurrency == 0) concurrency = 1;
  if (concurrency > requests) concurrency = requests;
  Tally tally;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(concurrency);
  // Client-observed call latency (including any retries/backoff inside
  // Call). Explicit registry use, not the IPIN_* macros, so the burst
  // percentiles work even in obs-disabled builds.
  obs::Histogram* const latency =
      obs::MetricsRegistry::Global().GetHistogram("client.burst.latency_us");
  for (size_t t = 0; t < concurrency; ++t) {
    threads.emplace_back([&, t]() {
      serve::ClientOptions per_thread = options;
      per_thread.jitter_seed = options.jitter_seed + t;
      serve::OracleClient client(per_thread);
      while (next.fetch_add(1) < requests) {
        const auto start = std::chrono::steady_clock::now();
        tally.Count(client.Call(request));
        latency->Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
      }
      tally.retries += client.retries();
    });
  }
  for (auto& thread : threads) thread.join();

  // Snapshot the histogram for the interpolated percentiles.
  obs::HistogramSnapshot snapshot;
  snapshot.count = latency->Count();
  snapshot.sum = latency->Sum();
  snapshot.min = latency->Min();
  snapshot.max = latency->Max();
  for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    snapshot.buckets[i] = latency->BucketCount(i);
  }
  std::printf(
      "burst: sent=%zu ok=%zu degraded=%zu overloaded=%zu deadline=%zu "
      "unavailable=%zu bad=%zu transport_errors=%zu retries=%zu "
      "p50_us=%.0f p95_us=%.0f p99_us=%.0f\n",
      requests, tally.ok.load(), tally.degraded.load(),
      tally.overloaded.load(), tally.deadline.load(),
      tally.unavailable.load(), tally.bad.load(),
      tally.transport_errors.load(), tally.retries.load(), snapshot.P50(),
      snapshot.P95(), snapshot.P99());
  return tally.ok.load() > 0 ? 0 : 1;
}

int Run(int argc, char** argv) {
  const FlagMap flags = FlagMap::Parse(argc, argv);

  serve::ClientOptions options;
  options.unix_socket_path = flags.GetString("socket");
  options.tcp_host = flags.GetString("host", "127.0.0.1");
  options.tcp_port =
      flags.Has("port") ? static_cast<int>(flags.GetInt("port", -1)) : -1;
  if (options.unix_socket_path.empty() == (options.tcp_port < 0)) {
    return Usage();
  }
  options.max_attempts = static_cast<int>(flags.GetInt("max_attempts", 4));
  options.io_timeout_ms = flags.GetInt("io_timeout_ms", 2000);
  options.retry_overloaded = flags.GetBool("retry_overloaded", false);

  const auto request = BuildRequest(flags);
  if (!request.has_value()) return Usage();

  const size_t requests =
      static_cast<size_t>(flags.GetInt("requests", 0));
  const int rc =
      requests > 0
          ? RunBurst(options, *request, requests,
                     static_cast<size_t>(flags.GetInt("concurrency", 4)))
          : RunSingle(options, *request);

  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty() && obs::WriteMetricsReportFile(metrics_out)) {
    std::fprintf(stderr, "ipin_oracle_client: wrote metrics report to %s\n",
                 metrics_out.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
