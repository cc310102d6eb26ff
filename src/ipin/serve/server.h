#ifndef IPIN_SERVE_SERVER_H_
#define IPIN_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ipin/serve/frontend.h"
#include "ipin/serve/index_manager.h"

// The influence-oracle daemon core: the handler ipin_oracled plugs into the
// shared serving frontend (frontend.h, which owns sockets, framing,
// admission, deadlines, reload, drain, and the robustness model). What is
// specific to the oracle lives here:
//
//   * Evaluation. Queries snapshot the IndexManager epoch and run under a
//     QueryBudget bounded by the request deadline, so one oversized query
//     cannot hold a worker past it. topk ranks the sketched nodes.
//   * Graceful degradation. "exact"/"auto" queries run the exact oracle
//     under an exact-latency budget; when the budget trips, the exact map
//     is unloaded, or an eval fault is injected, the worker falls back to
//     the sketch estimate and sets degraded=true.
//   * Hot reload. The reload closure swaps the IndexManager epoch
//     atomically and rolls back on any validation failure (the old epoch
//     keeps serving).
//   * Accuracy audit. A deterministic 1-in-N sample of sketch-served
//     answers is re-evaluated exactly off the hot path (on the shared
//     global pool) when the exact map is loaded; signed relative error
//     lands in the serve.audit.rel_error_* histograms, so sketch drift is
//     visible in production without a benchmark run. Off under
//     -DIPIN_OBS_DISABLED.
//
// Failpoint sites: serve.eval (slow/failed exact evaluation, forcing
// degradation), serve.reload (see IndexManager), plus the frontend's.
//
// Observability (under serve.*): requests.{ok,degraded}, the serve.eval
// trace lane, latency.query_us, index.epoch, reload.{ok,rollback},
// audit.{sampled,completed,zero_truth}, audit.rel_error_{abs,over,under}_pm,
// plus the frontend's.

namespace ipin::serve {

struct ServerOptions : FrontendOptions {
  /// Budget for the exact evaluation attempt before degrading to sketch.
  int64_t exact_budget_ms = 50;
  /// Fraction of sketch-served answers re-evaluated exactly off the hot
  /// path (0 disables the audit; 0.01 = every ~100th answer). Requires the
  /// exact map to be loaded; no-op under -DIPIN_OBS_DISABLED.
  double audit_rate = 0.0;

  /// Identity of this daemon inside a sharded deployment (ipin_oracled
  /// --shard_id/--shard_count), echoed by the stats verb so operators and
  /// drills can tell shards apart. -1/0 = not a shard.
  int shard_id = -1;
  int shard_count = 0;
};

class OracleServer : private FrontendHandler {
 public:
  /// `index` must outlive the server.
  OracleServer(IndexManager* index, ServerOptions options);
  ~OracleServer() override;

  OracleServer(const OracleServer&) = delete;
  OracleServer& operator=(const OracleServer&) = delete;

  /// Binds, listens, and starts serving (Frontend::Start).
  bool Start() { return frontend_.Start(); }
  /// Graceful drain (Frontend::Shutdown). Idempotent.
  void Shutdown() { frontend_.Shutdown(); }

  bool running() const { return frontend_.running(); }
  int bound_port() const { return frontend_.bound_port(); }
  size_t queue_depth() const { return frontend_.queue_depth(); }

  /// The flight recorder's "ipin.debug.v1" dump (same document the "debug"
  /// verb returns) — for SIGUSR1 handlers and tests.
  std::string DebugDump() const { return frontend_.flight()->DumpJson(); }
  const FlightRecorder& flight_recorder() const { return *frontend_.flight(); }

  const ServerOptions& options() const { return options_; }

 private:
  Response Evaluate(const Request& request,
                    Clock::time_point deadline) override;
  uint64_t Epoch() const override { return index_->Epoch(); }
  void AppendStats(StatsInfo* info) override;
  Response ReshardStatus(const Request& request) override;
#ifndef IPIN_OBS_DISABLED
  /// Maybe re-evaluates a sketch-served answer exactly, off the hot path.
  void MaybeAudit(const IndexSnapshot& snapshot,
                  const std::vector<NodeId>& seeds, double estimate);
#endif

  IndexManager* const index_;
  const ServerOptions options_;
  /// Deterministic 1-in-audit_every_ sampling (0 = audit disabled).
  uint64_t audit_every_ = 0;
  std::atomic<uint64_t> audit_tick_{0};
  // Last: destroyed (and so shut down) before the state it calls into.
  Frontend frontend_;
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_SERVER_H_
