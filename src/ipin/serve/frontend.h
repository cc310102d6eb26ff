#ifndef IPIN_SERVE_FRONTEND_H_
#define IPIN_SERVE_FRONTEND_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ipin/common/thread_pool.h"
#include "ipin/obs/window.h"
#include "ipin/serve/flight_recorder.h"
#include "ipin/serve/index_manager.h"
#include "ipin/serve/protocol.h"
#include "ipin/serve/queue.h"

// The serving frontend shared by both daemons: ipin_oracled's OracleServer
// (server.h) and ipin_routerd's RouterServer (router.h) differ only in how
// they evaluate a query, so everything around that evaluation lives here
// once. It speaks the newline-delimited JSON protocol of protocol.h over a
// Unix-domain or localhost-TCP socket, with one reader thread per
// connection, a bounded queue, and a worker pool. Robustness model
// (DESIGN.md §9):
//
//   * Admission control. Parsed query requests go through a bounded queue
//     (BoundedQueue); when it is full the reader answers OVERLOADED with a
//     retry_after_ms hint instead of queueing — offered load beyond
//     capacity is shed at the door and the queue-depth gauge stays bounded.
//     Connections beyond max_connections are answered OVERLOADED
//     ("connection limit reached") and closed; a request line over 1 MiB
//     drops only its own connection.
//   * Deadlines. Every query carries a deadline (its own or the default)
//     fixed at admission. Workers re-check it at dequeue (an expired
//     request is answered DEADLINE_EXCEEDED without evaluation) and hand it
//     to the handler, which evaluates under it.
//   * Inline verbs. health, stats, metrics, debug and reshard_status are
//     answered on the reader thread, so liveness probes and dashboards keep
//     working precisely when the queue is full.
//   * Hot reload. "reload" requests are handed to a dedicated reload thread
//     that runs the handler's reload closure, so a slow or wedged reload
//     never occupies a query worker or a connection reader. The closure
//     captures only the index or shard-map manager, never the handler.
//   * Slow-consumer protection. Response writes carry a send timeout
//     (write_timeout_ms); a client that pipelines requests but never reads
//     its socket gets its connection marked broken and torn down instead
//     of wedging the reader or a worker in a blocking send forever.
//   * Graceful shutdown. Shutdown() stops accepting, rejects new requests,
//     answers everything already queued (evaluated if the drain deadline
//     allows, DEADLINE_EXCEEDED otherwise), flushes the responses, then
//     joins every thread. The write timeout and the drain deadline bound
//     every join except a reload wedged inside its loader, which is
//     detached (and logged) rather than waited on forever; it touches only
//     refcounted state and the manager, which outlives the daemon.
//
// Request observability (DESIGN.md §7): every query carries a 64-bit trace
// id — the client's, or one assigned at admission — that links its stages
// (serve.request / serve.queue / the handler's evaluation lane /
// serve.write) as Chrome-trace async events, tags slow-request log lines,
// and is echoed in the response. Every completed query (including shed and
// expired ones) lands in the flight recorder with per-stage timings; ones
// over slow_query_us also land in its slow ring and log a warning. A
// WindowedAggregator samples the metrics registry once a second for the
// stats verb's win_* fields, which ipin_top reads.
//
// Failpoint sites: serve.accept (drop fresh connections), serve.read
// (connection read errors).
//
// Metrics (under serve.*): requests.{accepted,shed,deadline_exceeded,bad},
// queue.depth, queue.wait_us, connections.active, write.timeouts,
// latency.{health,stats,metrics,debug,reload}_us, plus the handler's
// evaluation latency histogram.
//
// Under -DIPIN_OBS_DISABLED the trace events and windowed stats compile
// out; the flight recorder and the metrics/debug verbs keep answering so
// the wire protocol keeps its shape in every build.

namespace ipin {
class FlagMap;
}  // namespace ipin

namespace ipin::serve {

/// The settings both daemons share.
struct FrontendOptions {
  /// Exactly one of the two endpoints must be set: a Unix-domain socket
  /// path, or a TCP port on 127.0.0.1 (0 = pick an ephemeral port, see
  /// bound_port()).
  std::string unix_socket_path;
  int tcp_port = -1;

  int num_workers = 4;
  size_t queue_capacity = 64;
  size_t max_connections = 64;

  /// Deadline applied when a request does not carry its own.
  int64_t default_deadline_ms = 1000;
  /// Backoff hint attached to OVERLOADED / UNAVAILABLE responses.
  int64_t retry_after_ms = 50;
  /// During Shutdown(), queued requests older than this are answered
  /// DEADLINE_EXCEEDED instead of evaluated.
  int64_t drain_deadline_ms = 2000;
  /// Bound on writing one response to a connection; a peer that stops
  /// reading past this is treated as broken and its connection torn down.
  int64_t write_timeout_ms = 2000;

  /// Flight recorder: last N completed queries, last M slow ones, and the
  /// total-latency threshold (microseconds) that makes a query "slow".
  size_t flight_recorder_size = 256;
  size_t flight_slow_size = 64;
  int64_t slow_query_us = 100000;
  /// Trailing window (seconds) for the win_* fields of the stats verb.
  int64_t stats_window_s = 10;
};

/// Fills `options` from the daemons' shared flags: --socket, --port,
/// --workers, --queue_capacity, --max_connections, --default_deadline_ms,
/// --retry_after_ms, --drain_deadline_ms, --slow_query_us, --flight_size,
/// --flight_slow_size and --stats_window_s (absent flags keep the defaults
/// above; without --port, tcp_port stays -1).
void ParseFrontendFlags(const FlagMap& flags, FrontendOptions* options);

/// The names a daemon reports under. Fixed per daemon, not settable; every
/// string must be a literal (trace events keep the pointer).
struct FrontendRole {
  /// Log-line prefix: "serve" or "route".
  const char* log_prefix;
  /// What the slow-request log line calls a request ("query"/"request")
  /// and its evaluation stage ("eval"/"route").
  const char* request_noun;
  const char* eval_stage;
  /// Trace lane and latency histogram around each evaluation.
  const char* eval_lane;
  const char* latency_metric;
  /// Extra windowed rates for the stats verb: (field, counter) pairs.
  std::vector<std::pair<const char*, const char*>> window_rates;
};

/// The epoch a reload left serving, and whether it rolled back.
struct ReloadResult {
  ReloadStatus status = ReloadStatus::kOk;
  uint64_t epoch = 0;
};

/// Runs one reload on the frontend's reload thread. It must capture only
/// state that outlives the daemon (the IndexManager / ShardMapManager):
/// Shutdown may detach a wedged reload, which then finishes on its own.
using ReloadFn = std::function<ReloadResult()>;

/// What a daemon plugs into the frontend.
class FrontendHandler {
 public:
  using Clock = std::chrono::steady_clock;
  using StatsInfo = std::vector<std::pair<std::string, double>>;

  virtual ~FrontendHandler() = default;

  /// Evaluates one admitted query or topk request on a worker thread. The
  /// response must carry the request's id and trace id.
  virtual Response Evaluate(const Request& request,
                            Clock::time_point deadline) = 0;
  /// Epoch of what is being served (index or shard map); 0 while nothing
  /// is loaded, which makes the health verb answer UNAVAILABLE.
  virtual uint64_t Epoch() const = 0;
  /// Appends the daemon's own fields to a stats answer.
  virtual void AppendStats(StatsInfo* info) = 0;
  /// Answers the reshard_status verb inline.
  virtual Response ReshardStatus(const Request& request) = 0;
};

class Frontend {
 public:
  using Clock = std::chrono::steady_clock;

  /// `handler` must outlive the frontend; it is called only between
  /// Start() and the end of Shutdown().
  Frontend(FrontendHandler* handler, const FrontendOptions& options,
           FrontendRole role, ReloadFn reload);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Binds, listens, and spawns the acceptor, reload thread and workers.
  /// False (with a logged reason) on bind/listen failure.
  bool Start();

  /// Graceful drain as described above. Idempotent.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Port actually bound (TCP mode; useful with tcp_port = 0).
  int bound_port() const { return bound_port_; }
  /// Current queue depth (bounded by the queue capacity).
  size_t queue_depth() const { return queue_.Depth(); }

  /// Refcounted so work that may outlive the frontend (router shard legs)
  /// can keep recording into it.
  const std::shared_ptr<FlightRecorder>& flight() const { return flight_; }

 private:
  struct Connection;

  struct Task {
    Request request;
    Clock::time_point deadline;
    Clock::time_point enqueued;
    /// Time spent in parse + admission before the queue push.
    int64_t admission_us = 0;
    std::shared_ptr<Connection> conn;
  };

  // Reload requests run on a dedicated thread; the state it shares with
  // the frontend is refcounted so a wedged reload can be detached at
  // shutdown without dangling anything.
  struct ReloadState;

  bool Listen();
  void AcceptLoop();
  void ReadLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  void ReapFinishedReaders();
  void StopReloadThread();

  /// Answers the inline verbs, hands reloads to the reload thread, and
  /// admits queries into the queue.
  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     Request&& request);
  void HandleReload(const std::shared_ptr<Connection>& conn,
                    const Request& request);
  Response StatsResponse(const Request& request);

  /// Static (no `this`): also called from the reload thread, which may
  /// outlive the frontend if a wedged reload forces a detach.
  static void WriteResponse(const std::shared_ptr<Connection>& conn,
                            const Response& response,
                            int64_t write_timeout_ms);

  FrontendHandler* const handler_;
  const FrontendOptions options_;
  const FrontendRole role_;
  const ReloadFn reload_;
  /// The role's latency histogram; null under IPIN_OBS_DISABLED.
  obs::Histogram* latency_ = nullptr;

  int listen_fd_ = -1;
  int bound_port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  Clock::time_point drain_deadline_{};

  BoundedQueue<Task> queue_;
  std::thread acceptor_;
  // Workers run as num_workers long-lived WorkerLoop tasks on the shared
  // pool abstraction (common/thread_pool.h); Shutdown drains the queue
  // (WorkerLoop exits on the empty signal) and resets the pool, whose
  // destructor joins.
  std::unique_ptr<ThreadPool> worker_pool_;
  std::shared_ptr<ReloadState> reload_state_;
  std::thread reload_thread_;

  mutable std::mutex conns_mu_;
  struct ReaderSlot {
    std::thread thread;
    std::shared_ptr<Connection> conn;
  };
  std::vector<ReaderSlot> readers_;
  size_t active_connections_ = 0;

  std::shared_ptr<FlightRecorder> flight_;
  obs::WindowedAggregator window_;
  /// Assigned trace ids for requests that arrive without one.
  std::atomic<uint64_t> next_trace_id_{1};
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_FRONTEND_H_
