#ifndef IPIN_SERVE_HEALTH_H_
#define IPIN_SERVE_HEALTH_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

// Per-shard health state machine of the scatter-gather router — the circuit
// breaker that keeps a dead or dying shard from burning every request's
// deadline budget (DESIGN.md §11):
//
//           consecutive failures >= suspect_after
//   HEALTHY ------------------------------------> SUSPECT
//           consecutive failures >= down_after
//   SUSPECT ------------------------------------> DOWN
//   any     --- one success ---------------------> HEALTHY
//
//   * HEALTHY / SUSPECT: requests flow. SUSPECT is the early-warning band —
//     the shard is failing but the circuit is still closed, so a transient
//     blip (one dropped connection) never costs availability.
//   * DOWN: the circuit is open. AllowRequest() refuses, so queries skip
//     the shard immediately (a partial answer now beats a full answer
//     after a guaranteed timeout) and the shard gets no recovery-fighting
//     load. Recovery is probe-based: the router's prober sends a cheap
//     health RPC every probe_interval_ms (ProbeDueEndpoint() rate-limits
//     it) and one success closes the circuit.
//
// Replica failover (shard maps may list R failover endpoints per shard):
// the state machine above runs PER ENDPOINT — endpoint 0 is the primary,
// 1..R the replicas — and each shard carries an `active` endpoint index
// that all regular legs dial:
//
//   * Promotion. When the active endpoint's circuit opens, the tracker
//     advances `active` to the next endpoint that is not down (wrapping).
//     All subsequent legs go to the promoted replica — unlike hedging,
//     which only re-sends one straggling leg to the next endpoint.
//   * Demotion. When a probe recovers the PRIMARY (endpoint 0) while a
//     replica is active, `active` returns to the primary. A replica
//     recovering while another endpoint serves does not steal traffic.
//   * The shard's circuit is open (AllowRequest false) only while EVERY
//     endpoint is down.
//
// Counters: serve.shard.health.{suspect,down,recovered} count per-endpoint
// transitions, serve.shard.health.{promoted,demoted} count active-endpoint
// switches; the serve.shard.down_count gauge tracks how many shards have
// ALL endpoints down. All methods are thread-safe (one mutex; transitions
// are rare and the per-leg check is two loads).

namespace ipin::serve {

enum class ShardState { kHealthy, kSuspect, kDown };

/// "healthy", "suspect", "down" (for logs and stats).
const char* ShardStateName(ShardState state);

struct ShardHealthOptions {
  /// Consecutive failures that turn a healthy shard suspect.
  int suspect_after = 1;
  /// Consecutive failures that open the circuit (must be >= suspect_after).
  int down_after = 3;
  /// Minimum spacing between recovery probes to a down endpoint.
  int64_t probe_interval_ms = 200;
};

class ShardHealthTracker {
 public:
  /// endpoints_per_shard[s] = 1 + number of replicas of shard s (clamped to
  /// >= 1). Endpoint 0 is the primary and starts active.
  ShardHealthTracker(const std::vector<size_t>& endpoints_per_shard,
                     ShardHealthOptions options);

  ShardHealthTracker(const ShardHealthTracker&) = delete;
  ShardHealthTracker& operator=(const ShardHealthTracker&) = delete;

  /// May a regular (non-probe) request go to `shard`? False exactly when
  /// every endpoint's circuit is open.
  bool AllowRequest(size_t shard) const;

  /// The endpoint index regular legs should dial (0 = primary).
  size_t ActiveEndpoint(size_t shard) const;
  size_t NumEndpoints(size_t shard) const;

  /// Is a recovery probe due for `shard`? True only when some endpoint is
  /// down, at most once per endpoint per probe_interval_ms (the call claims
  /// the slot and stores the endpoint to probe in *endpoint; the primary is
  /// probed first so demotion happens as soon as it heals).
  bool ProbeDueEndpoint(size_t shard, size_t* endpoint);

  /// Outcome of a request or probe leg against one endpoint of `shard`.
  void OnEndpointSuccess(size_t shard, size_t endpoint);
  void OnEndpointFailure(size_t shard, size_t endpoint);

  /// State of the active endpoint — the shard's effective state.
  ShardState state(size_t shard) const;
  ShardState endpoint_state(size_t shard, size_t endpoint) const;
  int consecutive_failures(size_t shard) const;
  std::vector<ShardState> Snapshot() const;
  /// Shards whose every endpoint is down.
  size_t DownCount() const;

  size_t num_shards() const { return shards_.size(); }
  const ShardHealthOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Endpoint {
    ShardState state = ShardState::kHealthy;
    int consecutive_failures = 0;
    Clock::time_point next_probe{};
  };
  struct Shard {
    std::vector<Endpoint> endpoints;
    size_t active = 0;
  };

  void HandleSuccessLocked(size_t shard, size_t endpoint);
  void HandleFailureLocked(size_t shard, size_t endpoint);
  void PublishDownCount() const;  // callers hold mu_
  static bool AllDown(const Shard& s);

  const ShardHealthOptions options_;
  mutable std::mutex mu_;
  std::vector<Shard> shards_;
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_HEALTH_H_
