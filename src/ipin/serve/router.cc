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

// Per-shard endpoint count (primary + replicas) for the health tracker.
std::vector<size_t> EndpointCounts(const ShardMap& map) {
  std::vector<size_t> counts(map.num_shards());
  for (size_t i = 0; i < map.num_shards(); ++i) {
    counts[i] = map.shard(i).num_endpoints();
  }
  return counts;
}

}  // namespace

RouterServer::ShardFleet::ShardFleet(std::shared_ptr<const ShardMap> map,
                                     uint64_t epoch,
                                     const RouterOptions& options)
    : map(std::move(map)),
      epoch(epoch),
      options(options),
      health(EndpointCounts(*this->map), options.health) {
  const auto build_pools = [](const ShardMap& m) {
    std::vector<std::vector<std::unique_ptr<Pool>>> built(m.num_shards());
    for (size_t i = 0; i < m.num_shards(); ++i) {
      built[i].resize(m.shard(i).num_endpoints());
      for (auto& pool : built[i]) pool = std::make_unique<Pool>();
    }
    return built;
  };
  pools = build_pools(*this->map);
  if (this->map->InTransition()) {
    prev_health = std::make_unique<ShardHealthTracker>(
        EndpointCounts(*this->map->previous()), options.health);
    prev_pools = build_pools(*this->map->previous());
  }
}

std::unique_ptr<OracleClient> RouterServer::ShardFleet::NewClient(
    bool prev, size_t shard, size_t endpoint) const {
  const ShardEndpoint& ep = SideMap(prev).shard(shard).endpoint_at(endpoint);
  ClientOptions client_options;
  client_options.unix_socket_path = ep.unix_socket_path;
  client_options.tcp_host = ep.tcp_host;
  client_options.tcp_port = ep.tcp_port;
  client_options.connect_timeout_ms = options.connect_timeout_ms;
  // The router owns the retry policy (hedging + the next request's fresh
  // fan-out); a leg client must fail fast, not add its own backoff loop.
  client_options.max_attempts = 1;
  return std::make_unique<OracleClient>(client_options);
}

std::unique_ptr<OracleClient> RouterServer::ShardFleet::Borrow(
    bool prev, size_t shard, size_t endpoint) {
  auto& side = prev ? prev_pools : pools;
  if (endpoint < side[shard].size()) {
    Pool& pool = *side[shard][endpoint];
    std::lock_guard<std::mutex> lock(pool.mu);
    if (!pool.idle.empty()) {
      auto client = std::move(pool.idle.back());
      pool.idle.pop_back();
      return client;
    }
  }
  return NewClient(prev, shard, endpoint);
}

void RouterServer::ShardFleet::Return(bool prev, size_t shard, size_t endpoint,
                                      std::unique_ptr<OracleClient> client) {
  constexpr size_t kMaxIdlePerShard = 8;
  auto& side = prev ? prev_pools : pools;
  if (endpoint >= side[shard].size()) return;
  Pool& pool = *side[shard][endpoint];
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
    const std::shared_ptr<ShardFleet>& fleet, bool prev, size_t shard,
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
  if (prev) IPIN_COUNTER_ADD("serve.shard.legs.fallback", 1);
  ShardHealthTracker& health = fleet->SideHealth(prev);
  const auto record_leg = [&](StatusCode status, uint64_t epoch) {
    record.evaluated = Clock::now();
    record.status = status;
    record.epoch = epoch;
    CompleteRecord(flight, flight->File(record), record, "serve.shard.leg",
                   leg_us);
  };

  if (!health.AllowRequest(shard)) {
    // Circuit open on every endpoint: report the shard missing immediately
    // instead of burning the request's budget on backends known to be down.
    IPIN_COUNTER_ADD("serve.shard.legs.skipped", 1);
    record_leg(StatusCode::kUnavailable, 0);
    return std::nullopt;
  }
  // Replica failover: dial whatever endpoint the health tracker currently
  // designates (the primary, or a promoted replica while the primary's
  // circuit is open). All outcome bookkeeping is addressed to this endpoint
  // so a replica's failures never count against the primary.
  const size_t endpoint = health.ActiveEndpoint(shard);
  int64_t remaining_ms = MillisUntil(leg_deadline);
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
    auto client = fleet->Borrow(prev, shard, endpoint);
    const bool hedge = fleet->options.hedge_after_ms > 0 &&
                       fleet->options.hedge_after_ms < remaining_ms;
    client->SetIoTimeout(hedge ? fleet->options.hedge_after_ms
                               : remaining_ms);
    if (IPIN_FAILPOINT("serve.shard.rpc").fail) {
      error = "injected serve.shard.rpc fault";
      client->Disconnect();
    } else {
      result = client->Call(leg, &error);
    }
    if (result.has_value()) {
      fleet->Return(prev, shard, endpoint, std::move(client));
    } else if (hedge) {
      // Hedged retry: the first attempt straggled past hedge_after_ms (or
      // failed outright); re-send once on the next endpoint of the shard's
      // ordered list — the same one when it has only one — with whatever
      // budget is left. The leg's outcome still books to the active
      // endpoint, whose attempt straggled.
      IPIN_COUNTER_ADD("serve.shard.hedged", 1);
      remaining_ms = MillisUntil(leg_deadline);
      if (remaining_ms >= 1) {
        if (IPIN_FAILPOINT("serve.shard.rpc").fail) {
          error = "injected serve.shard.rpc fault";
        } else {
          const size_t next =
              (endpoint + 1) % fleet->SideMap(prev).shard(shard).num_endpoints();
          auto hedged = fleet->NewClient(prev, shard, next);
          hedged->SetIoTimeout(remaining_ms);
          result = hedged->Call(leg, &error);
        }
      }
    }
  }
  // A usable partial is OK (merged) or BAD_REQUEST (propagated: the seed
  // range check is deterministic across shards). Everything else — no
  // response, OVERLOADED, UNAVAILABLE, DEADLINE_EXCEEDED, INTERNAL — counts
  // against the endpoint's health and the leg is reported missing.
  const bool usable = result.has_value() &&
                      (result->status == StatusCode::kOk ||
                       result->status == StatusCode::kBadRequest);
  if (usable) {
    health.OnEndpointSuccess(shard, endpoint);
    IPIN_COUNTER_ADD("serve.shard.legs.ok", 1);
    record_leg(result->status, result->epoch);
    return result;
  }
  health.OnEndpointFailure(shard, endpoint);
  IPIN_COUNTER_ADD("serve.shard.legs.failed", 1);
  if (!result.has_value()) {
    LogDebug(StrFormat("route: shard %zu endpoint %zu leg failed "
                       "trace_id=%s: %s",
                       shard, endpoint, TraceIdToHex(leg.trace_id).c_str(),
                       error.c_str()));
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
  // per shard (every shard may own top nodes). During a transition, moved
  // seeds additionally ride a fallback leg to their previous-epoch owner
  // (double-dispatch: the merge is idempotent, so the overlap is free), and
  // topk fans out to the previous fleet as well.
  const bool topk = request.method == Method::kTopk;
  const bool in_transition = fleet->map->InTransition();
  struct Leg {
    size_t shard = 0;
    /// Targets the previous-epoch fleet (fallback leg of a double
    /// dispatch).
    bool prev = false;
    /// Positions in request.seeds this leg carries (coverage accounting —
    /// overlapping legs must not double-count a seed).
    std::vector<size_t> seed_idx;
    Request request;
  };
  std::vector<Leg> legs;
  const size_t total_seeds = request.seeds.size();
  // Each leg's deadline leaves the router margin to merge and answer; the
  // leg's wire deadline_ms tells the backend the same budget.
  const Clock::time_point leg_deadline = std::max(
      Clock::now() + std::chrono::milliseconds(1),
      deadline - std::chrono::milliseconds(options_.shard_deadline_margin_ms));
  const int64_t leg_deadline_ms = std::max<int64_t>(1,
                                                    MillisUntil(leg_deadline));
  const auto make_leg = [&](size_t shard, bool prev) {
    Leg leg;
    leg.shard = shard;
    leg.prev = prev;
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
  size_t num_new_legs = 0;  // topk: legs on the new epoch's fleet
  if (topk) {
    num_new_legs = fleet->map->num_shards();
    legs.reserve(num_new_legs +
                 (in_transition ? fleet->map->previous()->num_shards() : 0));
    for (size_t s = 0; s < num_new_legs; ++s) {
      legs.push_back(make_leg(s, /*prev=*/false));
    }
    if (in_transition) {
      for (size_t s = 0; s < fleet->map->previous()->num_shards(); ++s) {
        legs.push_back(make_leg(s, /*prev=*/true));
      }
    }
  } else {
    // Partition by the NEW map, remembering each seed's position; moved
    // seeds get a second, previous-epoch partition.
    std::vector<std::vector<size_t>> parts(fleet->map->num_shards());
    std::vector<std::vector<size_t>> prev_parts(
        in_transition ? fleet->map->previous()->num_shards() : 0);
    for (size_t i = 0; i < request.seeds.size(); ++i) {
      const NodeId seed = request.seeds[i];
      parts[fleet->map->OwnerOf(seed)].push_back(i);
      if (in_transition && fleet->map->OwnerMoved(seed)) {
        prev_parts[fleet->map->previous()->OwnerOf(seed)].push_back(i);
      }
    }
    const auto emit = [&](std::vector<std::vector<size_t>>& side_parts,
                          bool prev) {
      for (size_t s = 0; s < side_parts.size(); ++s) {
        if (side_parts[s].empty()) continue;
        Leg leg = make_leg(s, prev);
        leg.seed_idx = std::move(side_parts[s]);
        leg.request.seeds.reserve(leg.seed_idx.size());
        for (const size_t i : leg.seed_idx) {
          leg.request.seeds.push_back(request.seeds[i]);
        }
        legs.push_back(std::move(leg));
      }
    };
    emit(parts, /*prev=*/false);
    if (in_transition) emit(prev_parts, /*prev=*/true);
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
    GlobalPool().Submit([fleet, gather, flight, i,
                         leg = legs[i].request, shard = legs[i].shard,
                         prev = legs[i].prev, leg_deadline] {
      std::optional<Response> result =
          RunShardLeg(fleet, prev, shard, leg, leg_deadline, flight.get());
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

  // Merge. During a transition the same seed (query) or the same node
  // (topk) may arrive from both epochs; the cellwise max is idempotent and
  // both epochs computed the identical per-node sketch, so the overlap
  // merges away — per-seed coverage bits and a by-node dedupe keep the
  // accounting honest.
  size_t answered = 0;
  size_t answered_new = 0;   // topk: usable legs on the new fleet
  size_t answered_prev = 0;  // topk: usable legs on the previous fleet
  std::vector<bool> covered(total_seeds, false);
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
      for (const size_t idx : legs[i].seed_idx) covered[idx] = true;
    }
    ++answered;
    if (legs[i].prev) {
      ++answered_prev;
    } else {
      ++answered_new;
    }
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
  if (topk) {
    // Either epoch's fleet can produce the complete answer on its own, so
    // coverage is the better of the two fractions (no transition: all legs
    // are new-side and this is the usual answered/total).
    const size_t prev_legs = legs.size() - num_new_legs;
    const double new_frac =
        num_new_legs == 0 ? 0.0
                          : static_cast<double>(answered_new) /
                                static_cast<double>(num_new_legs);
    const double prev_frac =
        prev_legs == 0 ? 0.0
                       : static_cast<double>(answered_prev) /
                             static_cast<double>(prev_legs);
    response.coverage = std::max(new_frac, prev_frac);
  } else {
    size_t marked = 0;
    for (const bool c : covered) marked += c ? 1 : 0;
    response.coverage = total_seeds == 0
                            ? 1.0
                            : static_cast<double>(marked) /
                                  static_cast<double>(total_seeds);
  }
  // Incomplete coverage is a degraded answer (double-dispatch means a lost
  // leg is harmless when the seed's other-epoch owner answered); so is a
  // sketch-merged answer where the client explicitly asked for exact
  // evaluation (the router always merges on the sketch path).
  response.degraded =
      response.coverage < 1.0 || (!topk && request.mode == QueryMode::kExact);
  if (topk) {
    // Ownership is disjoint within an epoch, so the global top-k is the k
    // best of the shards' local top-k lists — same order (estimate desc,
    // ties by node id asc) as a single backend would produce. Across epochs
    // the same node may appear twice with the identical estimate (both
    // epochs answer from the same per-node sketch): dedupe by node id
    // before cutting to k.
    std::sort(candidates.begin(), candidates.end(),
              [](const std::pair<NodeId, double>& a,
                 const std::pair<NodeId, double>& b) {
                if (a.first != b.first) return a.first < b.first;
                return a.second > b.second;
              });
    candidates.erase(
        std::unique(candidates.begin(), candidates.end(),
                    [](const std::pair<NodeId, double>& a,
                       const std::pair<NodeId, double>& b) {
                      return a.first == b.first;
                    }),
        candidates.end());
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
      // than half an interval; ProbeDueEndpoint rate-limits the sends.
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
    // Probe both epochs during a transition — the previous fleet keeps
    // serving fallback legs until the map is finalized, so its endpoints
    // need recovery probes too.
    for (const bool prev : {false, true}) {
      if (prev && fleet->prev_health == nullptr) continue;
      ShardHealthTracker& health = fleet->SideHealth(prev);
      const ShardMap& map = fleet->SideMap(prev);
      for (size_t s = 0; s < map.num_shards(); ++s) {
        size_t endpoint = 0;
        if (!health.ProbeDueEndpoint(s, &endpoint)) continue;
        IPIN_COUNTER_ADD("serve.shard.probe", 1);
        Request probe;
        probe.method = Method::kHealth;
        auto client = fleet->NewClient(prev, s, endpoint);
        client->SetIoTimeout(std::max<int64_t>(10, interval_ms));
        std::string error;
        const std::optional<Response> result = client->Call(probe, &error);
        // Recovery requires a SERVING backend: a daemon that answers health
        // with UNAVAILABLE (no index yet) stays down rather than flapping
        // between probe-recovered and leg-failed.
        if (result.has_value() && result->status == StatusCode::kOk) {
          IPIN_COUNTER_ADD("serve.shard.probe.ok", 1);
          health.OnEndpointSuccess(s, endpoint);
        } else {
          health.OnEndpointFailure(s, endpoint);
        }
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

Response RouterServer::ReshardStatus(const Request& request) {
  // Live-reshard admin verb, answered inline: where the fleet stands in the
  // old->new transition, plus both sides' health.
  Response response = ReplyTo(request, StatusCode::kOk);
  const std::shared_ptr<ShardFleet> fleet = Fleet();
  const ShardMap* map = fleet ? fleet->map.get() : nullptr;
  const ShardMap* prev = map ? map->previous() : nullptr;
  size_t replicas = 0;
  for (size_t s = 0; map != nullptr && s < map->num_shards(); ++s) {
    replicas += map->shard(s).replicas.size();
  }
  const auto down = [](const ShardHealthTracker* health) {
    return health ? static_cast<double>(health->DownCount()) : 0.0;
  };
  response.epoch = fleet ? fleet->epoch : 0;
  response.info = {
      {"map_epoch", static_cast<double>(response.epoch)},
      {"in_transition", prev ? 1.0 : 0.0},
      {"shards", map ? static_cast<double>(map->num_shards()) : 0.0},
      {"prev_shards", prev ? static_cast<double>(prev->num_shards()) : 0.0},
      {"replicas_total", static_cast<double>(replicas)},
      {"shards_down", down(fleet ? &fleet->health : nullptr)},
      {"prev_shards_down", down(fleet ? fleet->prev_health.get() : nullptr)}};
  return response;
}

}  // namespace ipin::serve
