#ifndef IPIN_SERVE_FRONTEND_H_
#define IPIN_SERVE_FRONTEND_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ipin/obs/window.h"
#include "ipin/serve/flight_recorder.h"
#include "ipin/serve/index_manager.h"
#include "ipin/serve/protocol.h"

// The serving frontend shared by both daemons: ipin_oracled's OracleServer
// (server.h) and ipin_routerd's RouterServer (router.h) differ only in how
// they evaluate a query, so everything around that evaluation lives here
// once. It speaks the newline-delimited JSON protocol of protocol.h over a
// Unix-domain or localhost-TCP socket; each connection's reader thread
// parses, admits, evaluates and answers its requests. Robustness model
// (DESIGN.md §9):
//
//   * Admission control. A query passes an AdmissionGate on its reader:
//     at most num_workers evaluations run at once and at most
//     queue_capacity readers wait, in arrival order; beyond that it is
//     answered OVERLOADED with a retry_after_ms hint — load is shed at the
//     door and the queue-depth gauge stays bounded. Connections beyond
//     max_connections are answered OVERLOADED ("connection limit reached")
//     and closed; a request line over 1 MiB drops only its own connection.
//   * Deadlines. Every query carries a deadline (its own or the default)
//     fixed at admission. One that passes before the query's turn at the
//     gate is answered DEADLINE_EXCEEDED without evaluation; otherwise the
//     handler evaluates under it. The slot is released before the response
//     is written, so a slow consumer never holds an evaluation slot.
//   * Inline verbs. health, stats, metrics and debug skip the gate, so
//     probes and dashboards work when every slot is busy.
//   * Hot reload. One reload thread runs every runtime reload through the
//     handler's reload closure, which captures only the holder
//     (index_manager.h): "reload" requests, RequestReload() (the runner's
//     SIGHUP) and, with reload_check_ms > 0, a timed poll that reloads
//     only a changed file. No reload occupies a slot or a reader.
//   * Slow-consumer protection. Response writes carry a send timeout
//     (write_timeout_ms); a client that pipelines requests but never reads
//     its socket gets its connection marked broken and torn down instead
//     of wedging its reader in a blocking send forever.
//   * Graceful shutdown. Shutdown() stops accepting, rejects new requests
//     and half-closes every connection; readers at the gate still answer
//     (evaluated while the drain deadline allows, DEADLINE_EXCEEDED after)
//     before they are joined. The write timeout and the drain deadline
//     bound every join except a reload wedged inside its loader — whichever
//     path started it — which is detached (and logged) rather than waited
//     on forever; reload_detached() then reports it. It touches only
//     refcounted state and the holder its closure captured, so a daemon
//     whose reload was detached must end without destroying that holder
//     (the runner, daemon.h, exits with std::_Exit).
//
// Request observability (DESIGN.md §7): every query carries a 64-bit trace
// id — the client's, or one assigned at admission — echoed in the response
// and naming its RequestRecord (flight_recorder.h), which holds one clock
// stamp per stage boundary. The record is filed in the flight recorder
// before the response is written (shed and expired queries too); once it
// is written, CompleteRecord derives every output from the stamps: stage
// times, serve.queue.wait_us, the role's latency histogram and the async
// trace lanes. Over slow_query_us a query also logs a warning. A
// WindowedAggregator samples the metrics registry once a second for the
// stats verb's win_* fields, which ipin_top reads.
//
// Failpoint sites: serve.accept (drop fresh connections), serve.read
// (connection read errors).
//
// Metrics (under serve.*): requests.{accepted,shed,deadline_exceeded,bad},
// queue.depth (readers waiting at the gate), queue.wait_us,
// connections.active, write.timeouts, latency.{health,stats,metrics,debug,
// reload}_us, plus the handler's evaluation latency histogram.
//
// Under -DIPIN_OBS_DISABLED the histograms, lanes and windowed stats
// compile out; the flight recorder and the metrics/debug verbs keep
// answering so the wire protocol keeps its shape in every build.

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

  /// Evaluations that run at once, and requests that may wait for one.
  int num_workers = 4;
  size_t queue_capacity = 64;
  size_t max_connections = 64;

  /// Deadline applied when a request does not carry its own.
  int64_t default_deadline_ms = 1000;
  /// Backoff hint attached to OVERLOADED / UNAVAILABLE responses.
  int64_t retry_after_ms = 50;
  /// During Shutdown(), requests not admitted to an evaluation within this
  /// are answered DEADLINE_EXCEEDED instead of evaluated.
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
  /// > 0: the reload thread also polls the served file this often and
  /// reloads it when it changed.
  int64_t reload_check_ms = 0;
};

/// Longest stats window: each second of it reserves two registry snapshots.
constexpr int64_t kMaxStatsWindowS = 3600;
/// Longest reload poll interval (one day); longer would overflow the clock.
constexpr int64_t kMaxReloadCheckMs = 86'400'000;

/// Fills `options` from the daemons' shared flags: --socket, --port,
/// --workers, --queue_capacity, --max_connections, the three *_ms deadline
/// and hint flags, --slow_query_us, --flight_size, --flight_slow_size,
/// --stats_window_s and --reload_check_ms (absent flags keep the defaults;
/// without --port, tcp_port stays -1). False, with the reason in *error,
/// for a value its field cannot hold (a port outside [0, 65535], workers
/// past INT_MAX, a reload poll outside [0, kMaxReloadCheckMs]) or that
/// would hang every query (fewer than one worker or connection, a negative
/// capacity, deadline or retry hint, a stats window outside
/// [1, kMaxStatsWindowS]).
bool ParseFrontendFlags(const FlagMap& flags, FrontendOptions* options,
                        std::string* error);

/// The frontend's admission gate: at most `permits` holders; up to
/// `max_waiters` more wait, admitted in arrival order, and a caller beyond
/// that is refused. A waiter gives up at its deadline or, after Drain(),
/// the drain deadline. The waiter count is the serve.queue.depth gauge.
class AdmissionGate {
 public:
  using Clock = std::chrono::steady_clock;
  /// kAdmitted holds a permit (call Leave()); kRefused found the line
  /// full; kExpired saw its deadline or the drain deadline pass first.
  enum class Entry { kAdmitted, kRefused, kExpired };

  AdmissionGate(size_t permits, size_t max_waiters)
      : permits_(permits), max_waiters_(max_waiters) {}

  /// Takes a permit, waiting behind earlier callers if none is free.
  Entry Enter(Clock::time_point deadline);
  /// Returns a permit, handing it to the longest waiter.
  void Leave();
  /// Waiters keep being admitted until `drain_deadline`, then expire.
  void Drain(Clock::time_point drain_deadline);

  size_t waiting() const {
    std::lock_guard<std::mutex> lock(mu_);
    return line_.size();
  }
  size_t holders() const {
    std::lock_guard<std::mutex> lock(mu_);
    return holders_;
  }

 private:
  struct Waiter {
    std::condition_variable cv;
    bool admitted = false;
  };

  /// Passes a free permit to the longest waiter. Requires mu_.
  void HandOff();

  const size_t permits_;
  const size_t max_waiters_;
  mutable std::mutex mu_;
  size_t holders_ = 0;
  std::list<Waiter*> line_;
  Clock::time_point drain_deadline_ = Clock::time_point::max();
};

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

/// Runs one reload on the frontend's reload thread; `force` is false only
/// for the poll, which skips an unchanged file. It must capture only the
/// holder (the IndexManager / ShardMapManager): Shutdown may detach a
/// wedged reload, which then finishes on its own, so after
/// reload_detached() the holder must never be destroyed.
using ReloadFn = std::function<ReloadResult(bool force)>;
/// Told a queued reload's outcome on the reload thread — nullptr when the
/// frontend began draining first — under the same lifetime rule.
using ReloadDone = std::function<void(const ReloadResult* result)>;

/// What a daemon plugs into the frontend.
class FrontendHandler {
 public:
  using StatsInfo = std::vector<std::pair<std::string, double>>;

  virtual ~FrontendHandler() = default;

  /// Evaluates one admitted query or topk request on its connection's
  /// reader thread. The response must carry the request's id and trace id.
  virtual Response Evaluate(const Request& request,
                            Clock::time_point deadline) = 0;
  /// Epoch of what is being served (index or shard map); 0 while nothing
  /// is loaded, which makes the health verb answer UNAVAILABLE.
  virtual uint64_t Epoch() const = 0;
  /// Appends the daemon's own fields to a stats answer.
  virtual void AppendStats(StatsInfo* info) = 0;
};

/// Completes `record` (filed in `flight` as `seq`) and feeds each stage it
/// reached, from its own stamps, to serve.queue.wait_us, `eval_latency`
/// and, while recording, the async lanes serve.queue, `eval_lane`,
/// serve.write and serve.request. Returns the stage times the dump shows.
RequestRecord::Stages CompleteRecord(FlightRecorder* flight, uint64_t seq,
                                     const RequestRecord& record,
                                     const char* eval_lane,
                                     obs::Histogram* eval_latency);

class Frontend {
 public:
  /// `handler` must outlive the frontend; it is called only between
  /// Start() and the end of Shutdown().
  Frontend(FrontendHandler* handler, const FrontendOptions& options,
           FrontendRole role, ReloadFn reload);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Binds, listens, and spawns the acceptor and the reload thread. False
  /// (with a logged reason) on options ParseFrontendFlags would reject or
  /// a bind/listen failure.
  bool Start();

  /// Graceful drain as described above. Idempotent.
  void Shutdown();

  /// Queues a forced reload on the reload thread, as the reload verb does,
  /// and hands its outcome to `done`. False, dropping it, while stopped or
  /// draining or with the reload queue full.
  bool RequestReload(ReloadDone done);

  /// True once Shutdown() gave up waiting on a wedged reload and detached
  /// its thread, which may still be using the holder.
  bool reload_detached() const { return reload_detached_; }

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Port actually bound (TCP mode; useful with tcp_port = 0).
  int bound_port() const { return bound_port_; }
  /// Requests waiting at the admission gate (at most queue_capacity).
  size_t queue_depth() const { return gate_.waiting(); }

  /// Refcounted so work that may outlive the frontend (router shard legs)
  /// can keep recording into it.
  const std::shared_ptr<FlightRecorder>& flight() const { return flight_; }

 private:
  struct Connection;

  // Shared with the reload thread, refcounted so a wedged reload can be
  // detached at shutdown without dangling anything.
  struct ReloadState;

  bool Listen();
  void AcceptLoop();
  /// The reload thread's body. Static (no `this`): it may outlive the
  /// frontend if a wedged reload forces a detach.
  static void ReloadLoop(const std::shared_ptr<ReloadState>& state,
                         const ReloadFn& reload, int64_t check_ms);
  void ReadLoop(std::shared_ptr<Connection> conn);
  void ReapFinishedReaders();
  void StopReloadThread();

  /// Answers the inline verbs, hands reloads to the reload thread, and
  /// admits, evaluates and answers queries.
  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     Request&& request);
  /// Passes a query through the gate and evaluates it, unless it is
  /// rejected first; stamps the boundaries it reaches in `record`.
  Response AdmitAndEvaluate(const Request& request, RequestRecord* record);
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
  /// The role's latency histogram.
  obs::Histogram* const latency_;

  int listen_fd_ = -1;
  int bound_port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  Clock::time_point drain_deadline_{};

  AdmissionGate gate_;
  std::thread acceptor_;
  std::shared_ptr<ReloadState> reload_state_;
  std::thread reload_thread_;
  bool reload_detached_ = false;

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
