#ifndef IPIN_SERVE_ROUTER_H_
#define IPIN_SERVE_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ipin/serve/client.h"
#include "ipin/serve/frontend.h"
#include "ipin/serve/health.h"
#include "ipin/serve/shard_map.h"

// The scatter-gather router of the sharded serving tier (DESIGN.md §11): the
// handler ipin_routerd plugs into the shared serving frontend (frontend.h,
// which owns sockets, framing, admission, deadlines, reload, drain, and the
// robustness model). It answers each query by fanning it out to per-shard
// ipin_oracled backends and merging their partials.
//
//   * Exact merge. Shard legs are sent with want_ranks=true; each backend
//     returns the per-cell max-rank vector of its seed subset. Seeds
//     partition disjointly by shard-map ownership and cellwise max is
//     associative/commutative, so folding the shard vectors cellwise and
//     estimating once reproduces the single-process answer bit for bit (the
//     argument lives in shard_map.h). topk merges per-shard top-k lists the
//     same way: ownership is disjoint, so the global top-k is a subset of
//     the union of local top-k lists.
//   * Shard health. A per-shard circuit breaker (health.h) turns
//     consecutive leg failures into suspect then down; down shards are
//     skipped outright (their seeds are reported missing immediately
//     instead of burning the deadline) and recovered by a background prober
//     sending cheap health RPCs.
//   * Deadlines. Each leg gets the request's remaining budget minus
//     shard_deadline_margin_ms, so the router always has time left to
//     merge and answer.
//   * One ordered endpoint list per shard: the primary, then its replicas
//     (shard_map.h), each serving the same shard file. The health tracker
//     runs its state machine per endpoint and keeps an active endpoint per
//     shard: when the active endpoint's circuit opens the next live one is
//     PROMOTED (all subsequent legs dial it), a probe healing the primary
//     demotes it again, and the shard only reports down when every
//     endpoint is down. With hedge_after_ms > 0 a leg's first attempt is
//     capped at that much, and a straggler or failure is retried once on
//     the endpoint after the active one (the same one when the list has a
//     single entry) with the remaining budget — one slow endpoint no
//     longer sets the request's latency.
//   * Partial results. If at least one owning shard answers, the router
//     answers OK with degraded=true when any shard is missing, plus
//     shards_total / shards_answered and a conservative coverage bound
//     (fraction of requested seeds whose owner answered). Only when NO
//     shard answers does the client see UNAVAILABLE (with retry_after_ms).
//     BAD_REQUEST from a shard (seed out of range — deterministic, since
//     every shard keeps the full node space) is propagated as BAD_REQUEST.
//   * Resharding. The reload closure re-reads the shard map through
//     ShardMapManager (as does SIGHUP in ipin_routerd): epoch-swapped
//     pickup, rollback on a corrupt map. In-flight requests finish their
//     fan-out on the map (and client fleet) they started with. While the
//     map carries a transition block (a live reshard, see shard_map.h),
//     the router DOUBLE-DISPATCHES every seed whose owner differs between
//     the epochs: the seed rides its new owner's leg AND a fallback leg to
//     its old owner, concurrently. The merge is cellwise max — idempotent
//     — so the answer stays bit-identical to the single-index answer as
//     long as either owner is up; coverage counts a seed once ANY leg
//     carrying it answers. topk fans out to both epochs' fleets and
//     dedupes candidates by node id. The "reshard_status" verb reports
//     transition state and per-epoch down counts.
//
// Failpoint sites: serve.shard.connect (leg fails before dialing),
// serve.shard.rpc (each RPC attempt fails — error_prob(p) gives seeded
// random shard faults), serve.shard.merge (the merge step fails →
// INTERNAL), serve.shard.map (reload rollback, see shard_map.h).
//
// Observability (on top of the frontend's serve.* request metrics; stats
// adds win_partial_per_s and win_leg_fail_per_s): serve.shard.legs{,.ok,
// .failed,.skipped}, serve.shard.hedged, serve.shard.leg_us,
// serve.shard.probe{,.ok}, serve.shard.health.* and serve.shard.down_count
// (health.h), serve.shard.map.{ok,rollback}, serve.requests.partial, the
// serve.route lane and serve.latency.route_us. The client's trace_id
// rides every shard leg (parent_span = trace_id), so one id spans the
// router lane and each backend's lanes; the flight recorder keeps one
// record per leg (with its shard number) plus one per request.

namespace ipin::serve {

struct RouterOptions : FrontendOptions {
  /// Per-leg connect budget to a shard backend.
  int64_t connect_timeout_ms = 250;
  /// Carved off the request's remaining budget to form each leg's deadline,
  /// reserving time for the merge + response write.
  int64_t shard_deadline_margin_ms = 20;
  /// > 0: cap a leg's first attempt here and retry a straggler once on the
  /// shard's next endpoint with the remaining budget. 0 disables hedging.
  int64_t hedge_after_ms = 0;

  ShardHealthOptions health;
};

class RouterServer : private FrontendHandler {
 public:
  /// `map` must outlive the server (and should usually have a map installed
  /// before Start, though the router answers UNAVAILABLE until one is).
  RouterServer(ShardMapManager* map, RouterOptions options);
  ~RouterServer() override;

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  /// Binds, listens, and starts serving plus the shard prober.
  bool Start();

  /// Graceful drain (Frontend::Shutdown), then stops the prober.
  /// Idempotent.
  void Shutdown();

  bool running() const { return frontend_.running(); }
  int bound_port() const { return frontend_.bound_port(); }
  size_t queue_depth() const { return frontend_.queue_depth(); }

  std::string DebugDump() const { return frontend_.flight()->DumpJson(); }
  const FlightRecorder& flight_recorder() const { return *frontend_.flight(); }

  /// Health states of the current fleet's shards (empty before the first
  /// query/probe touched a fleet). Test/introspection hook.
  std::vector<ShardState> ShardHealth() const;

  const RouterOptions& options() const { return options_; }

 private:
  // One shard-map epoch's worth of backends: the map, its health tracker,
  // and a pool of reusable clients per shard endpoint. Legs hold the fleet
  // via shared_ptr, so a reshard builds a fresh fleet while in-flight
  // requests finish on the old one (health state starts clean after a
  // reshard — the prober re-discovers a down backend within one failure
  // round). When the map is in transition the fleet also carries the
  // PREVIOUS epoch's pools and health tracker (`prev` = true selects them)
  // so double-dispatch fallback legs can dial the old owners.
  struct ShardFleet {
    ShardFleet(std::shared_ptr<const ShardMap> map, uint64_t epoch,
               const RouterOptions& options);

    const ShardMap& SideMap(bool prev) const {
      return prev ? *map->previous() : *map;
    }
    ShardHealthTracker& SideHealth(bool prev) {
      return prev ? *prev_health : health;
    }

    std::unique_ptr<OracleClient> Borrow(bool prev, size_t shard,
                                         size_t endpoint);
    void Return(bool prev, size_t shard, size_t endpoint,
                std::unique_ptr<OracleClient> client);
    /// A fresh, unpooled client for the given index into the shard's
    /// ordered endpoint list (ShardInfo::endpoint_at).
    std::unique_ptr<OracleClient> NewClient(bool prev, size_t shard,
                                            size_t endpoint) const;

    const std::shared_ptr<const ShardMap> map;
    const uint64_t epoch;
    // By value: legs hold the fleet past a server shutdown, so the fleet
    // must not reference RouterServer members.
    const RouterOptions options;
    ShardHealthTracker health;
    /// Previous-epoch health; non-null iff map->InTransition().
    std::unique_ptr<ShardHealthTracker> prev_health;

    struct Pool {
      std::mutex mu;
      std::vector<std::unique_ptr<OracleClient>> idle;
    };
    /// pools[shard][endpoint]; prev_pools mirrors the previous map's shards.
    std::vector<std::vector<std::unique_ptr<Pool>>> pools;
    std::vector<std::vector<std::unique_ptr<Pool>>> prev_pools;
  };

  // Scatter-gather rendezvous: one slot per leg, workers wait on the cv
  // until every leg delivered or the deadline passed. Refcounted so a
  // straggler leg completing after the wait timed out writes into a live
  // object (its result is simply ignored).
  struct Gather {
    std::mutex mu;
    std::condition_variable cv;
    size_t pending = 0;
    std::vector<std::optional<Response>> results;  // one per leg
  };

  Response Evaluate(const Request& request,
                    Clock::time_point deadline) override;
  uint64_t Epoch() const override { return map_->Epoch(); }
  void AppendStats(StatsInfo* info) override;
  Response ReshardStatus(const Request& request) override;
  void ProbeLoop();

  /// The fleet for the current shard-map epoch, building one on first use
  /// or after a reshard. nullptr while no map is installed.
  std::shared_ptr<ShardFleet> Fleet();

  /// One shard RPC with health bookkeeping, replica failover, hedging,
  /// failpoints, and a leg flight record; returns the shard response or
  /// nullopt. `prev` targets the previous-epoch fleet (double-dispatch
  /// fallback legs during a transition). Static and fed only refcounted
  /// state: a leg stuck in a socket timeout may outlive the scatter wait
  /// (and even server shutdown) without dangling.
  static std::optional<Response> RunShardLeg(
      const std::shared_ptr<ShardFleet>& fleet, bool prev, size_t shard,
      const Request& leg, Clock::time_point leg_deadline,
      FlightRecorder* flight);

  ShardMapManager* const map_;
  const RouterOptions options_;

  mutable std::mutex fleet_mu_;
  std::shared_ptr<ShardFleet> fleet_;

  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  std::thread prober_;
  bool probe_stop_ = false;

  // Last: destroyed (and so shut down) before the state it calls into.
  Frontend frontend_;
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_ROUTER_H_
