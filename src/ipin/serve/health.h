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
//     health RPC every probe_interval_ms (ProbeDue() rate-limits it) and
//     one success closes the circuit.
//
// Counters: serve.shard.health.{suspect,down,recovered} count state
// changes; the serve.shard.down_count gauge tracks how many shards are
// down. All methods are thread-safe (one mutex; state changes are rare and
// the per-leg check is one load).

namespace ipin::serve {

enum class ShardState { kHealthy, kSuspect, kDown };

/// "healthy", "suspect", "down" (for logs and stats).
const char* ShardStateName(ShardState state);

struct ShardHealthOptions {
  /// Consecutive failures that turn a healthy shard suspect.
  int suspect_after = 1;
  /// Consecutive failures that open the circuit (must be >= suspect_after).
  int down_after = 3;
  /// Minimum spacing between recovery probes to a down shard.
  int64_t probe_interval_ms = 200;
};

class ShardHealthTracker {
 public:
  /// Tracks `num_shards` shards, all starting healthy.
  ShardHealthTracker(size_t num_shards, ShardHealthOptions options);

  ShardHealthTracker(const ShardHealthTracker&) = delete;
  ShardHealthTracker& operator=(const ShardHealthTracker&) = delete;

  /// May a regular (non-probe) request go to `shard`? False exactly when
  /// its circuit is open.
  bool AllowRequest(size_t shard) const;

  /// Is a recovery probe due for `shard`? True only when it is down, at
  /// most once per probe_interval_ms (the call claims the slot).
  bool ProbeDue(size_t shard);

  /// Outcome of a request or probe leg against `shard`.
  void OnSuccess(size_t shard);
  void OnFailure(size_t shard);

  ShardState state(size_t shard) const;
  int consecutive_failures(size_t shard) const;
  std::vector<ShardState> Snapshot() const;
  size_t DownCount() const;

  size_t num_shards() const { return shards_.size(); }
  const ShardHealthOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Shard {
    ShardState state = ShardState::kHealthy;
    int consecutive_failures = 0;
    Clock::time_point next_probe{};
  };

  size_t DownCountLocked() const;

  const ShardHealthOptions options_;
  mutable std::mutex mu_;
  std::vector<Shard> shards_;
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_HEALTH_H_
