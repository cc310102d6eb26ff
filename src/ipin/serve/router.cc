#include "ipin/serve/router.h"

#include <algorithm>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/common/thread_pool.h"
#include "ipin/obs/metrics.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/kernels.h"

namespace ipin::serve {
namespace {

int64_t MillisUntil(Clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             deadline - Clock::now())
      .count();
}

}  // namespace

RouterServer::ShardFleet::ShardFleet(std::shared_ptr<const ShardMap> map,
                                     uint64_t epoch,
                                     const RouterOptions& options)
    : map(std::move(map)),
      epoch(epoch),
      options(options),
      health(this->map->num_shards(), options.health),
      pools(this->map->num_shards()) {
  for (auto& pool : pools) pool = std::make_unique<Pool>();
}

std::unique_ptr<OracleClient> RouterServer::ShardFleet::NewClient(
    size_t shard) const {
  const ShardEndpoint& ep = map->shard(shard).endpoint;
  ClientOptions client_options;
  client_options.unix_socket_path = ep.unix_socket_path;
  client_options.tcp_host = ep.tcp_host;
  client_options.tcp_port = ep.tcp_port;
  client_options.connect_timeout_ms = options.connect_timeout_ms;
  // The router owns the retry policy (the next request's fresh fan-out); a
  // leg client must fail fast, not add its own backoff loop.
  client_options.max_attempts = 1;
  return std::make_unique<OracleClient>(client_options);
}

std::unique_ptr<OracleClient> RouterServer::ShardFleet::Borrow(size_t shard) {
  {
    Pool& pool = *pools[shard];
    std::lock_guard<std::mutex> lock(pool.mu);
    if (!pool.idle.empty()) {
      auto client = std::move(pool.idle.back());
      pool.idle.pop_back();
      return client;
    }
  }
  return NewClient(shard);
}

void RouterServer::ShardFleet::Return(size_t shard,
                                      std::unique_ptr<OracleClient> client) {
  constexpr size_t kMaxIdlePerShard = 8;
  Pool& pool = *pools[shard];
  std::lock_guard<std::mutex> lock(pool.mu);
  if (pool.idle.size() < kMaxIdlePerShard) {
    pool.idle.push_back(std::move(client));
  }
}

RouterServer::RouterServer(ShardMapManager* map, RouterOptions options)
    : map_(map),
      options_(std::move(options)),
      frontend_(this, options_,
                FrontendRole{"route",
                             "request",
                             "route",
                             "serve.route",
                             "serve.latency.route_us",
                             {{"win_partial_per_s", "serve.requests.partial"},
                              {"win_leg_fail_per_s",
                               "serve.shard.legs.failed"}}},
                // The reload verb swaps the SHARD MAP. Captures only the
                // ShardMapManager, which outlives the router; a corrupt
                // file rolls back (the old epoch keeps routing).
                [map](bool force) {
                  const ReloadStatus status = map->Reload(force);
                  return ReloadResult{status, map->Epoch()};
                }) {}

RouterServer::~RouterServer() { Shutdown(); }

bool RouterServer::Start() {
  if (frontend_.running()) return true;
  if (!frontend_.Start()) return false;
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    probe_stop_ = false;
  }
  prober_ = std::thread([this] { ProbeLoop(); });
  return true;
}

void RouterServer::Shutdown() {
  frontend_.Shutdown();
  // A probe in flight is bounded by its I/O timeout.
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

std::shared_ptr<RouterServer::ShardFleet> RouterServer::Fleet() {
  const ShardMapSnapshot snapshot = map_->Snapshot();
  if (snapshot.map == nullptr || snapshot.map->num_shards() == 0) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(fleet_mu_);
  if (fleet_ == nullptr || fleet_->epoch != snapshot.epoch) {
    fleet_ = std::make_shared<ShardFleet>(snapshot.map, snapshot.epoch,
                                          options_);
    LogInfo(StrFormat("route: shard fleet rebuilt (%zu shards, epoch %llu)",
                      snapshot.map->num_shards(),
                      static_cast<unsigned long long>(snapshot.epoch)));
  }
  return fleet_;
}

std::vector<ShardState> RouterServer::ShardHealth() const {
  std::lock_guard<std::mutex> lock(fleet_mu_);
  if (fleet_ == nullptr) return {};
  return fleet_->health.Snapshot();
}

std::optional<Response> RouterServer::RunShardLeg(
    const std::shared_ptr<ShardFleet>& fleet, size_t shard,
    const Request& leg, Clock::time_point leg_deadline,
    FlightRecorder* flight) {
  // One flight record per leg, tagged with its shard, under the request's
  // trace id — the dump shows which leg made a request slow or partial. Its
  // two stamps, start and end, also feed serve.shard.leg_us and the lane.
  static obs::Histogram* const leg_us =
      obs::MetricsRegistry::Global().GetHistogram("serve.shard.leg_us");
  RequestRecord record{.trace_id = leg.trace_id, .id = leg.id, .mode = leg.mode,
                       .num_seeds = leg.seeds.size(),
                       .shard = static_cast<int>(shard),
                       .parsed = Clock::now()};
  IPIN_COUNTER_ADD("serve.shard.legs", 1);
  ShardHealthTracker& health = fleet->health;
  const auto record_leg = [&](StatusCode status, uint64_t epoch) {
    record.evaluated = Clock::now();
    record.status = status;
    record.epoch = epoch;
    CompleteRecord(flight, flight->File(record), record, "serve.shard.leg",
                   leg_us);
  };

  if (!health.AllowRequest(shard)) {
    // Circuit open: report the shard missing immediately instead of burning
    // the request's budget on a backend known to be down.
    IPIN_COUNTER_ADD("serve.shard.legs.skipped", 1);
    record_leg(StatusCode::kUnavailable, 0);
    return std::nullopt;
  }
  const int64_t remaining_ms = MillisUntil(leg_deadline);
  if (remaining_ms < 1) {
    // Never ran: says nothing about the shard's health.
    record_leg(StatusCode::kDeadlineExceeded, 0);
    return std::nullopt;
  }

  std::optional<Response> result;
  std::string error;
  if (IPIN_FAILPOINT("serve.shard.connect").fail) {
    error = "injected serve.shard.connect fault";
  } else {
    auto client = fleet->Borrow(shard);
    client->SetIoTimeout(remaining_ms);
    if (IPIN_FAILPOINT("serve.shard.rpc").fail) {
      error = "injected serve.shard.rpc fault";
      client->Disconnect();
    } else {
      result = client->Call(leg, &error);
    }
    if (result.has_value()) fleet->Return(shard, std::move(client));
  }
  // A usable partial is OK (merged) or BAD_REQUEST (propagated: the seed
  // range check is deterministic across shards). Everything else — no
  // response, OVERLOADED, UNAVAILABLE, DEADLINE_EXCEEDED, INTERNAL — counts
  // against the shard's health and the leg is reported missing.
  const bool usable = result.has_value() &&
                      (result->status == StatusCode::kOk ||
                       result->status == StatusCode::kBadRequest);
  if (usable) {
    health.OnSuccess(shard);
    IPIN_COUNTER_ADD("serve.shard.legs.ok", 1);
    record_leg(result->status, result->epoch);
    return result;
  }
  health.OnFailure(shard);
  IPIN_COUNTER_ADD("serve.shard.legs.failed", 1);
  if (!result.has_value()) {
    LogDebug(StrFormat("route: shard %zu leg failed trace_id=%s: %s", shard,
                       TraceIdToHex(leg.trace_id).c_str(), error.c_str()));
  }
  record_leg(result.has_value() ? result->status : StatusCode::kUnavailable,
             result.has_value() ? result->epoch : 0);
  return std::nullopt;
}

Response RouterServer::Evaluate(const Request& request,
                                Clock::time_point deadline) {
  Response response = ReplyTo(request, StatusCode::kOk);

  const std::shared_ptr<ShardFleet> fleet = Fleet();
  if (fleet == nullptr) {
    response.status = StatusCode::kUnavailable;
    response.error = "no shard map loaded";
    response.retry_after_ms = options_.retry_after_ms;
    return response;
  }
  response.epoch = fleet->epoch;

  // Fan-out plan: for a query, one leg per shard owning >= 1 seed (with its
  // disjoint seed subset, want_ranks=true, sketch mode); for topk, one leg
  // per shard (every shard may own top nodes).
  const bool topk = request.method == Method::kTopk;
  struct Leg {
    size_t shard = 0;
    /// Seeds this leg carries (coverage accounting).
    size_t num_seeds = 0;
    Request request;
  };
  std::vector<Leg> legs;
  // Each leg's deadline leaves the router margin to merge and answer; the
  // leg's wire deadline_ms tells the backend the same budget.
  const Clock::time_point leg_deadline = std::max(
      Clock::now() + std::chrono::milliseconds(1),
      deadline - std::chrono::milliseconds(options_.shard_deadline_margin_ms));
  const int64_t leg_deadline_ms = std::max<int64_t>(1,
                                                    MillisUntil(leg_deadline));
  const auto make_leg = [&](size_t shard) {
    Leg leg;
    leg.shard = shard;
    leg.request.method = topk ? Method::kTopk : Method::kQuery;
    if (topk) {
      leg.request.k = request.k;
    } else {
      leg.request.mode = QueryMode::kSketch;
      leg.request.want_ranks = true;
    }
    leg.request.deadline_ms = leg_deadline_ms;
    leg.request.trace_id = request.trace_id;
    leg.request.parent_span = request.trace_id;
    return leg;
  };
  if (topk) {
    for (size_t s = 0; s < fleet->map->num_shards(); ++s) {
      legs.push_back(make_leg(s));
    }
  } else {
    std::vector<std::vector<NodeId>> parts =
        fleet->map->PartitionSeeds(request.seeds);
    for (size_t s = 0; s < parts.size(); ++s) {
      if (parts[s].empty()) continue;
      Leg leg = make_leg(s);
      leg.num_seeds = parts[s].size();
      leg.request.seeds = std::move(parts[s]);
      legs.push_back(std::move(leg));
    }
  }
  if (legs.empty()) {
    // A query whose seed set is empty unions nothing — the single-process
    // answer is 0 with no shard involved.
    response.status = StatusCode::kOk;
    response.estimate = 0.0;
    IPIN_COUNTER_ADD("serve.requests.ok", 1);
    return response;
  }

  // Scatter. Legs run on the shared global pool and rendezvous through a
  // refcounted Gather; the evaluating reader waits until every leg
  // delivered or the request deadline passed. A straggler completing later
  // writes into the still-alive Gather and is ignored. Legs capture only
  // refcounted state (fleet, gather, flight) — never `this` — so a leg
  // stuck in a socket timeout cannot dangle across server shutdown.
  auto gather = std::make_shared<Gather>();
  gather->pending = legs.size();
  gather->results.resize(legs.size());
  const std::shared_ptr<FlightRecorder> flight = frontend_.flight();
  for (size_t i = 0; i < legs.size(); ++i) {
    GlobalPool().Submit([fleet, gather, flight, i, leg = legs[i].request,
                         shard = legs[i].shard, leg_deadline] {
      std::optional<Response> result =
          RunShardLeg(fleet, shard, leg, leg_deadline, flight.get());
      std::lock_guard<std::mutex> lock(gather->mu);
      gather->results[i] = std::move(result);
      --gather->pending;
      gather->cv.notify_all();
    });
  }

  // Gather.
  std::vector<std::optional<Response>> results;
  {
    std::unique_lock<std::mutex> lock(gather->mu);
    gather->cv.wait_until(lock, deadline,
                          [&] { return gather->pending == 0; });
    results = gather->results;
  }

  // Merge.
  size_t answered = 0;
  size_t covered_seeds = 0;
  std::vector<uint8_t> merged;
  std::vector<std::pair<NodeId, double>> candidates;
  for (size_t i = 0; i < legs.size(); ++i) {
    if (!results[i].has_value()) continue;
    const Response& partial = *results[i];
    if (partial.status == StatusCode::kBadRequest) {
      // Deterministic across shards (full node space everywhere): the
      // request itself is bad, not the fan-out.
      response.status = StatusCode::kBadRequest;
      response.error = partial.error;
      IPIN_COUNTER_ADD("serve.requests.bad", 1);
      return response;
    }
    if (topk) {
      candidates.insert(candidates.end(), partial.topk.begin(),
                        partial.topk.end());
    } else {
      if (partial.ranks.empty() ||
          (!merged.empty() && partial.ranks.size() != merged.size())) {
        // Protocol violation (a sketch answer always carries beta cells):
        // treat the leg as missing rather than poison the merge.
        LogWarning(StrFormat("route: shard %zu returned a malformed rank "
                             "vector; dropping its partial",
                             legs[i].shard));
        continue;
      }
      if (merged.empty()) {
        merged = partial.ranks;
      } else {
        kernels::CellwiseMaxU8(merged.data(), partial.ranks.data(),
                               merged.size());
      }
      covered_seeds += legs[i].num_seeds;
    }
    ++answered;
  }

  if (IPIN_FAILPOINT("serve.shard.merge").fail) {
    response.status = StatusCode::kInternal;
    response.error = "injected serve.shard.merge fault";
    return response;
  }

  response.shards_total = static_cast<int64_t>(legs.size());
  response.shards_answered = static_cast<int64_t>(answered);
  if (answered == 0) {
    // Nothing to stand an answer on. This is the ONLY path on which a
    // fanned-out request errors: any single answering shard yields a
    // partial instead.
    response.status = StatusCode::kUnavailable;
    response.error = "no shard answered";
    response.retry_after_ms = options_.retry_after_ms;
    return response;
  }

  response.status = StatusCode::kOk;
  const size_t covered = topk ? answered : covered_seeds;
  const size_t total = topk ? legs.size() : request.seeds.size();
  response.coverage =
      static_cast<double>(covered) / static_cast<double>(total);
  // Incomplete coverage is a degraded answer; so is a sketch-merged answer
  // where the client explicitly asked for exact evaluation (the router
  // always merges on the sketch path).
  response.degraded =
      response.coverage < 1.0 || (!topk && request.mode == QueryMode::kExact);
  if (topk) {
    // Ownership is disjoint, so the global top-k is the k best of the
    // shards' local top-k lists — same order (estimate desc, ties by node
    // id asc) as a single backend would produce.
    std::sort(candidates.begin(), candidates.end(),
              [](const std::pair<NodeId, double>& a,
                 const std::pair<NodeId, double>& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    const size_t k = static_cast<size_t>(std::max<int64_t>(1, request.k));
    if (candidates.size() > k) candidates.resize(k);
    response.topk = std::move(candidates);
  } else {
    // The exactness tentpole: cellwise max over disjoint partials, one
    // estimate at the end — bit-identical to the single-process answer
    // over the answered seeds (see shard_map.h). With shards missing it is
    // a conservative lower bound: absent seeds only lose rank mass.
    response.estimate = merged.empty() ? 0.0 : EstimateFromRanks(merged);
    if (request.want_ranks) response.ranks = std::move(merged);
  }
  IPIN_COUNTER_ADD("serve.requests.ok", 1);
  if (response.degraded) {
    IPIN_COUNTER_ADD("serve.requests.degraded", 1);
    IPIN_COUNTER_ADD("serve.requests.partial", 1);
    LogWarning(StrFormat(
        "route: partial answer trace_id=%s id=%lld shards=%lld/%lld "
        "coverage=%.3f",
        TraceIdToHex(request.trace_id).c_str(),
        static_cast<long long>(request.id),
        static_cast<long long>(response.shards_answered),
        static_cast<long long>(response.shards_total), response.coverage));
  }
  return response;
}

void RouterServer::ProbeLoop() {
  const int64_t interval_ms =
      std::max<int64_t>(1, options_.health.probe_interval_ms);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(probe_mu_);
      // Wake at twice the probe rate so a due probe is never late by more
      // than half an interval; ProbeDue rate-limits the sends.
      probe_cv_.wait_for(lock,
                         std::chrono::milliseconds(std::max<int64_t>(
                             1, interval_ms / 2)),
                         [this] { return probe_stop_; });
      if (probe_stop_) return;
    }
    std::shared_ptr<ShardFleet> fleet;
    {
      std::lock_guard<std::mutex> lock(fleet_mu_);
      fleet = fleet_;
    }
    if (fleet == nullptr) continue;
    for (size_t s = 0; s < fleet->map->num_shards(); ++s) {
      if (!fleet->health.ProbeDue(s)) continue;
      IPIN_COUNTER_ADD("serve.shard.probe", 1);
      Request probe;
      probe.method = Method::kHealth;
      auto client = fleet->NewClient(s);
      client->SetIoTimeout(std::max<int64_t>(10, interval_ms));
      std::string error;
      const std::optional<Response> result = client->Call(probe, &error);
      // Recovery requires a SERVING backend: a daemon that answers health
      // with UNAVAILABLE (no index yet) stays down rather than flapping
      // between probe-recovered and leg-failed.
      if (result.has_value() && result->status == StatusCode::kOk) {
        IPIN_COUNTER_ADD("serve.shard.probe.ok", 1);
        fleet->health.OnSuccess(s);
      } else {
        fleet->health.OnFailure(s);
      }
    }
  }
}

void RouterServer::AppendStats(StatsInfo* info) {
  const std::shared_ptr<const ShardMap> map = map_->Current();
  const std::vector<ShardState> health = ShardHealth();
  const auto count = [&health](ShardState state) {
    return static_cast<double>(std::count(health.begin(), health.end(), state));
  };
  info->emplace_back("map_epoch", static_cast<double>(map_->Epoch()));
  info->emplace_back("shards_total",
                     map ? static_cast<double>(map->num_shards()) : 0.0);
  info->emplace_back("shards_healthy", count(ShardState::kHealthy));
  info->emplace_back("shards_suspect", count(ShardState::kSuspect));
  info->emplace_back("shards_down", count(ShardState::kDown));
}

}  // namespace ipin::serve
