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
#include "ipin/serve/daemon.h"
#include "ipin/serve/frontend.h"
#include "ipin/serve/health.h"
#include "ipin/serve/shard_map.h"

// The scatter-gather router of the sharded serving tier (DESIGN.md §11): the
// handler ipin_routerd plugs into the shared serving frontend (frontend.h,
// which owns sockets, framing, admission, deadlines, the reload thread,
// drain, and the robustness model) and the Service the shared daemon
// runner drives (daemon.h). It answers each query by fanning it out to
// per-shard ipin_oracled backends and merging their partials.
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
//   * Partial results. If at least one owning shard answers, the router
//     answers OK with degraded=true when any shard is missing, plus
//     shards_total / shards_answered and a conservative coverage bound
//     (fraction of requested seeds whose owner answered). Only when NO
//     shard answers does the client see UNAVAILABLE (with retry_after_ms).
//     BAD_REQUEST from a shard (seed out of range — deterministic, since
//     every shard keeps the full node space) is propagated as BAD_REQUEST.
//   * Map reload. The reload closure re-reads the shard map through
//     ShardMapManager, the oracle's holder with a shard-map loader, on the
//     frontend's reload thread (reload verb, SIGHUP, --reload_check_ms
//     poll): epoch-swapped pickup, rollback on a corrupt map. In-flight
//     requests finish their fan-out on the map (and client fleet) they
//     started with.
//
// Failpoint sites: serve.shard.connect (leg fails before dialing),
// serve.shard.rpc (each RPC attempt fails — error_prob(p) gives seeded
// random shard faults), serve.shard.merge (the merge step fails →
// INTERNAL), serve.shard.map (reload rollback, see shard_map.h).
//
// Observability (on top of the frontend's serve.* request metrics; stats
// adds win_partial_per_s and win_leg_fail_per_s): serve.shard.legs{,.ok,
// .failed,.skipped}, serve.shard.leg_us, serve.shard.probe{,.ok},
// serve.shard.health.* and serve.shard.down_count (health.h),
// serve.shard.map.{ok,rollback}, serve.requests.partial, the serve.route
// lane and serve.latency.route_us. The client's trace_id
// rides every shard leg (parent_span = trace_id), so one id spans the
// router lane and each backend's lanes; the flight recorder keeps one
// record per leg (with its shard number) plus one per request. A leg reads
// the clock twice, at its start and its end, and those two stamps are its
// flight record's eval_us, its serve.shard.leg_us sample and its
// serve.shard.leg lane stage (CompleteRecord, frontend.h).

namespace ipin::serve {

struct RouterOptions : FrontendOptions {
  /// Per-leg connect budget to a shard backend.
  int64_t connect_timeout_ms = 250;
  /// Carved off the request's remaining budget to form each leg's deadline,
  /// reserving time for the merge + response write.
  int64_t shard_deadline_margin_ms = 20;

  ShardHealthOptions health;
};

class RouterServer : public Service, private FrontendHandler {
 public:
  /// `map` must outlive the server (and should usually have a map installed
  /// before Start, though the router answers UNAVAILABLE until one is).
  RouterServer(ShardMapManager* map, RouterOptions options);
  ~RouterServer() override;

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  /// Binds, listens, and starts serving plus the shard prober.
  bool Start() override;

  /// Graceful drain (Frontend::Shutdown), then stops the prober.
  /// Idempotent.
  void Shutdown() override;
  Frontend& frontend() override { return frontend_; }

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
  // and a pool of reusable clients per shard. Legs hold the fleet via
  // shared_ptr, so a map reload builds a fresh fleet while in-flight
  // requests finish on the old one (health state starts clean after a
  // reload — the prober re-discovers a down backend within one failure
  // round).
  struct ShardFleet {
    ShardFleet(std::shared_ptr<const ShardMap> map, uint64_t epoch,
               const RouterOptions& options);

    std::unique_ptr<OracleClient> Borrow(size_t shard);
    void Return(size_t shard, std::unique_ptr<OracleClient> client);
    /// A fresh, unpooled client for `shard`'s endpoint.
    std::unique_ptr<OracleClient> NewClient(size_t shard) const;

    const std::shared_ptr<const ShardMap> map;
    const uint64_t epoch;
    // By value: legs hold the fleet past a server shutdown, so the fleet
    // must not reference RouterServer members.
    const RouterOptions options;
    ShardHealthTracker health;

    struct Pool {
      std::mutex mu;
      std::vector<std::unique_ptr<OracleClient>> idle;
    };
    std::vector<std::unique_ptr<Pool>> pools;  // one per shard
  };

  // Scatter-gather rendezvous: one slot per leg, the evaluating reader
  // waits on the cv until every leg delivered or the deadline passed.
  // Refcounted so a straggler leg completing after the wait timed out
  // writes into a live object (its result is simply ignored).
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
  void ProbeLoop();

  /// The fleet for the current shard-map epoch, building one on first use
  /// or after a map reload. nullptr while no map is installed.
  std::shared_ptr<ShardFleet> Fleet();

  /// One shard RPC with health bookkeeping, failpoints, and a completed leg
  /// record; returns the shard response or nullopt. Static and fed only
  /// refcounted state: a leg stuck in a socket timeout may outlive the
  /// scatter wait (and even server shutdown) without dangling.
  static std::optional<Response> RunShardLeg(
      const std::shared_ptr<ShardFleet>& fleet, size_t shard,
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
