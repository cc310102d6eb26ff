#include "ipin/serve/frontend.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>

#include "ipin/common/failpoint.h"
#include "ipin/common/flags.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/export.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace_events.h"

namespace ipin::serve {
namespace {

// A protocol line longer than this is abuse, not a request.
constexpr size_t kMaxLineBytes = 1 << 20;

void SetSendTimeout(int fd, int64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// Bounded write: the socket carries SO_SNDTIMEO, so each send() blocks at
// most timeout_ms; the elapsed check on top bounds the WHOLE response even
// against a peer that drains one byte per timeout window. A peer that stops
// reading therefore costs at most ~2x timeout_ms of thread time, never a
// wedged reader/worker.
bool WriteAll(int fd, const std::string& data, int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO expired: the peer is not reading.
        IPIN_COUNTER_ADD("serve.write.timeouts", 1);
      }
      return false;
    }
    written += static_cast<size_t>(n);
    if (written < data.size() && std::chrono::steady_clock::now() >= deadline) {
      IPIN_COUNTER_ADD("serve.write.timeouts", 1);
      return false;
    }
  }
  return true;
}

}  // namespace

void ParseFrontendFlags(const FlagMap& flags, FrontendOptions* options) {
  options->unix_socket_path = flags.GetString("socket");
  options->tcp_port =
      flags.Has("port") ? static_cast<int>(flags.GetInt("port", 0)) : -1;
  options->num_workers = static_cast<int>(flags.GetInt("workers", 4));
  options->queue_capacity =
      static_cast<size_t>(flags.GetInt("queue_capacity", 64));
  options->max_connections =
      static_cast<size_t>(flags.GetInt("max_connections", 64));
  options->default_deadline_ms = flags.GetInt("default_deadline_ms", 1000);
  options->retry_after_ms = flags.GetInt("retry_after_ms", 50);
  options->drain_deadline_ms = flags.GetInt("drain_deadline_ms", 2000);
  options->slow_query_us = flags.GetInt("slow_query_us", 100000);
  options->flight_recorder_size =
      static_cast<size_t>(flags.GetInt("flight_size", 256));
  options->flight_slow_size =
      static_cast<size_t>(flags.GetInt("flight_slow_size", 64));
  options->stats_window_s = flags.GetInt("stats_window_s", 10);
}

struct Frontend::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  const int fd;
  std::mutex write_mu;             // responses are single lines, one writer at
                                   // a time keeps them uninterleaved
  std::string read_buffer;
  std::atomic<bool> broken{false};       // write side failed; stop responding
  std::atomic<bool> reader_done{false};  // reader thread exited (reapable)
};

// Shared with the reload thread via shared_ptr: Shutdown() may detach that
// thread if a reload is wedged inside the loader, so nothing it touches may
// live in the frontend object itself.
struct Frontend::ReloadState {
  std::mutex mu;
  std::condition_variable cv;
  struct Job {
    std::shared_ptr<Connection> conn;
    Request request;
  };
  std::deque<Job> jobs;
  bool stop = false;
  bool exited = false;
};

Frontend::Frontend(FrontendHandler* handler, const FrontendOptions& options,
                   FrontendRole role, ReloadFn reload)
    : handler_(handler),
      options_(options),
      role_(std::move(role)),
      reload_(std::move(reload)),
      queue_(options_.queue_capacity),
      flight_(std::make_shared<FlightRecorder>(options_.flight_recorder_size,
                                               options_.flight_slow_size,
                                               options_.slow_query_us)),
      window_(obs::WindowedAggregatorOptions{
          /*sample_period_ms=*/1000,
          /*num_buckets=*/std::max<size_t>(
              64, static_cast<size_t>(std::max<int64_t>(
                      0, options_.stats_window_s)) * 2)}) {
#ifndef IPIN_OBS_DISABLED
  latency_ = obs::MetricsRegistry::Global().GetHistogram(role_.latency_metric);
#endif
}

Frontend::~Frontend() { Shutdown(); }

bool Frontend::Listen() {
  const auto fail = [this](const std::string& what) {
    LogError(StrFormat("%s: %s", role_.log_prefix, what.c_str()));
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  };
  const auto sys_fail = [&fail](const std::string& call) {
    return fail(call + ": " + std::strerror(errno));
  };
  const std::string& path = options_.unix_socket_path;
  if (path.empty() == (options_.tcp_port < 0)) {
    return fail("set exactly one of unix_socket_path / tcp_port");
  }
  if (!path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      return fail("socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return sys_fail("socket()");
    ::unlink(path.c_str());  // stale socket from a crash
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return sys_fail("bind(" + path + ")");
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return sys_fail("socket()");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return sys_fail(StrFormat("bind(127.0.0.1:%d)", options_.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      bound_port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd_, 128) != 0) return sys_fail("listen()");
  return true;
}

bool Frontend::Start() {
  if (running_.load(std::memory_order_acquire)) return true;
  if (!Listen()) return false;

  running_.store(true, std::memory_order_release);
  draining_.store(false, std::memory_order_release);

#ifndef IPIN_OBS_DISABLED
  // One registry sample per second backs the stats verb's win_* fields and
  // ipin_top. Not started in obs-disabled builds: the macros record
  // nothing, so the ring would only ever hold empty snapshots.
  window_.Start();
#endif

  // Dedicated reload thread: a slow or wedged reload blocks only this
  // thread — never a connection reader or query worker — and Shutdown()
  // can abandon it (detach) if it outlasts the drain deadline. It captures
  // refcounted state and the handler's reload closure, never `this`.
  reload_state_ = std::make_shared<ReloadState>();
  reload_thread_ = std::thread([state = reload_state_, reload = reload_,
                                write_timeout = options_.write_timeout_ms] {
    for (;;) {
      ReloadState::Job job;
      bool draining;
      {
        std::unique_lock<std::mutex> lock(state->mu);
        state->cv.wait(lock,
                       [&] { return state->stop || !state->jobs.empty(); });
        if (state->jobs.empty()) break;  // stop requested, nothing pending
        job = std::move(state->jobs.front());
        state->jobs.pop_front();
        draining = state->stop;
      }
      Response response = ReplyTo(job.request, StatusCode::kOk);
      if (draining) {
        // Answer rather than reload: a fresh epoch is useless to a daemon
        // that is shutting down, and this keeps the drain bounded.
        response.status = StatusCode::kUnavailable;
        response.error = "server is draining";
      } else {
        IPIN_LATENCY_SCOPE("serve.latency.reload_us");
        const ReloadResult result = reload();
        response.epoch = result.epoch;
        response.info.emplace_back(
            "rolled_back",
            result.status == ReloadStatus::kRolledBack ? 1.0 : 0.0);
      }
      WriteResponse(job.conn, response, write_timeout);
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->exited = true;
    }
    state->cv.notify_all();
  });

  acceptor_ = std::thread([this] { AcceptLoop(); });
  worker_pool_ =
      std::make_unique<ThreadPool>(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    worker_pool_->Submit([this] { WorkerLoop(); });
  }
  LogInfo(StrFormat(
      "%s: listening on %s (%d workers, queue %zu)", role_.log_prefix,
      !options_.unix_socket_path.empty()
          ? options_.unix_socket_path.c_str()
          : StrFormat("127.0.0.1:%d", bound_port_).c_str(),
      options_.num_workers, options_.queue_capacity));
  return true;
}

void Frontend::AcceptLoop() {
  while (running_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) {
      ReapFinishedReaders();
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener closed (shutdown) or unrecoverable
    }
    if (IPIN_FAILPOINT("serve.accept").fail) {
      // Injected accept failure: the kernel handed us the connection but
      // the daemon "could not" take it — clients see a reset and retry.
      IPIN_COUNTER_ADD("serve.accept.failures", 1);
      ::close(fd);
      continue;
    }
    SetSendTimeout(fd, options_.write_timeout_ms);
    auto conn = std::make_shared<Connection>(fd);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (active_connections_ >= options_.max_connections) {
        Response reject;
        reject.status = StatusCode::kOverloaded;
        reject.retry_after_ms = options_.retry_after_ms;
        reject.error = "connection limit reached";
        IPIN_COUNTER_ADD("serve.requests.shed", 1);
        WriteResponse(conn, reject, options_.write_timeout_ms);
        continue;  // conn destructor closes fd
      }
      ++active_connections_;
      IPIN_GAUGE_SET("serve.connections.active", active_connections_);
      readers_.push_back(ReaderSlot{
          std::thread([this, conn] { ReadLoop(conn); }), conn});
    }
    ReapFinishedReaders();
  }
}

void Frontend::ReapFinishedReaders() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (size_t i = 0; i < readers_.size();) {
    if (readers_[i].conn->reader_done.load(std::memory_order_acquire)) {
      readers_[i].thread.join();
      readers_[i] = std::move(readers_.back());
      readers_.pop_back();
    } else {
      ++i;
    }
  }
}

void Frontend::ReadLoop(std::shared_ptr<Connection> conn) {
  std::string line;
  while (true) {
    // Buffered line read.
    size_t newline;
    while ((newline = conn->read_buffer.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n == 0) goto done;  // peer closed / drain shutdown(SHUT_RD)
      if (n < 0) {
        if (errno == EINTR) continue;
        goto done;
      }
      conn->read_buffer.append(chunk, static_cast<size_t>(n));
      if (conn->read_buffer.size() > kMaxLineBytes) {
        LogWarning(StrFormat(
            "%s: dropping connection with oversized request line",
            role_.log_prefix));
        goto done;
      }
    }
    line.assign(conn->read_buffer, 0, newline);
    conn->read_buffer.erase(0, newline + 1);

    if (IPIN_FAILPOINT("serve.read").fail) {
      // Injected read fault: the bytes arrived but the daemon treats the
      // connection as unreadable, as a torn TCP stream would look.
      IPIN_COUNTER_ADD("serve.read.failures", 1);
      goto done;
    }
    if (line.empty()) continue;

    std::string parse_error;
    int64_t id = 0;
    auto request = ParseRequest(line, &parse_error, &id);
    if (!request.has_value()) {
      Response bad;
      bad.id = id;
      bad.status = StatusCode::kBadRequest;
      bad.error = parse_error;
      IPIN_COUNTER_ADD("serve.requests.bad", 1);
      WriteResponse(conn, bad, options_.write_timeout_ms);
      continue;
    }
    HandleRequest(conn, std::move(*request));
    if (conn->broken.load(std::memory_order_acquire)) break;
  }
done:
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    --active_connections_;
    IPIN_GAUGE_SET("serve.connections.active", active_connections_);
  }
  conn->reader_done.store(true, std::memory_order_release);
}

void Frontend::HandleRequest(const std::shared_ptr<Connection>& conn,
                             Request&& request) {
  const Clock::time_point now = Clock::now();
  const int64_t write_timeout = options_.write_timeout_ms;
  switch (request.method) {
    case Method::kHealth: {
      // Answered inline so liveness probes work even with a full queue.
      IPIN_LATENCY_SCOPE("serve.latency.health_us");
      Response response = ReplyTo(request, StatusCode::kOk);
      response.epoch = handler_->Epoch();
      if (response.epoch == 0) response.status = StatusCode::kUnavailable;
      WriteResponse(conn, response, write_timeout);
      return;
    }
    case Method::kStats: {
      IPIN_LATENCY_SCOPE("serve.latency.stats_us");
      WriteResponse(conn, StatsResponse(request), write_timeout);
      return;
    }
    case Method::kMetrics: {
      // The scrape endpoint: answered inline (like health) so a dashboard
      // keeps seeing metrics precisely when the queue is full and they
      // matter most. The registry classes exist in every build, so this
      // answers (with an empty-ish registry) even under IPIN_OBS_DISABLED.
      IPIN_LATENCY_SCOPE("serve.latency.metrics_us");
      Response response = ReplyTo(request, StatusCode::kOk);
      response.epoch = handler_->Epoch();
      response.payload =
          request.format == MetricsFormat::kJson
              ? obs::GlobalMetricsReportJson()
              : obs::MetricsPrometheusText(
                    obs::MetricsRegistry::Global().Snapshot());
      WriteResponse(conn, response, write_timeout);
      return;
    }
    case Method::kDebug: {
      // Flight-recorder dump, inline for the same reason as metrics: the
      // slow queries it explains are exactly when workers are busy.
      IPIN_LATENCY_SCOPE("serve.latency.debug_us");
      Response response = ReplyTo(request, StatusCode::kOk);
      response.epoch = handler_->Epoch();
      response.payload = flight_->DumpJson();
      WriteResponse(conn, response, write_timeout);
      return;
    }
    case Method::kReload:
      HandleReload(conn, request);
      return;
    case Method::kReshardStatus:
      WriteResponse(conn, handler_->ReshardStatus(request), write_timeout);
      return;
    case Method::kQuery:
    case Method::kTopk:
      break;
  }

  // Admission control for queries. A query without a trace id gets one
  // here, so every path below (responses, spans, flight records, logs) can
  // refer to the request by it.
  if (request.trace_id == 0) {
    request.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t trace_id = request.trace_id;
  IPIN_TRACE_ASYNC_BEGIN("serve.request", trace_id);

  // TryPush takes the task by value, so the request is gone either way:
  // snapshot what the rejection paths need first.
  const int64_t id = request.id;
  const QueryMode mode = request.mode;
  const size_t num_seeds = request.seeds.size();
  StatusCode rejected = StatusCode::kUnavailable;
  if (!draining_.load(std::memory_order_acquire)) {
    const int64_t deadline_ms = request.deadline_ms > 0
                                    ? request.deadline_ms
                                    : options_.default_deadline_ms;
    Task task;
    task.deadline = now + std::chrono::milliseconds(deadline_ms);
    task.enqueued = now;
    task.conn = conn;
    task.admission_us = ToMicros(Clock::now() - now);
    task.request = std::move(request);
    if (queue_.TryPush(std::move(task))) {
      IPIN_TRACE_ASYNC_BEGIN("serve.queue", trace_id);
      IPIN_COUNTER_ADD("serve.requests.accepted", 1);
      IPIN_GAUGE_SET("serve.queue.depth", queue_.Depth());
      return;
    }
    // Load shedding: reject now with a backoff hint rather than queueing
    // beyond capacity.
    rejected = StatusCode::kOverloaded;
    IPIN_COUNTER_ADD("serve.requests.shed", 1);
  }
  Response response;
  response.id = id;
  response.trace_id = trace_id;
  response.status = rejected;
  response.retry_after_ms = options_.retry_after_ms;
  if (rejected == StatusCode::kUnavailable) {
    response.error = "server is draining";
  }
  WriteResponse(conn, response, write_timeout);

  // A rejected query still lands in the flight recorder, all admission.
  RequestRecord record;
  record.trace_id = trace_id;
  record.id = id;
  record.mode = mode;
  record.status = rejected;
  record.num_seeds = num_seeds;
  record.epoch = handler_->Epoch();
  record.total_us = ToMicros(Clock::now() - now);
  record.admission_us = record.total_us;
  flight_->Record(record);
  IPIN_TRACE_ASYNC_END("serve.request", trace_id);
}

void Frontend::HandleReload(const std::shared_ptr<Connection>& conn,
                            const Request& request) {
  // Handed to the dedicated reload thread (which also writes the response):
  // a slow or wedged reload never occupies a query worker or this reader,
  // and queries keep flowing from the old epoch while it runs.
  Response response = ReplyTo(request, StatusCode::kUnavailable);
  if (draining_.load(std::memory_order_acquire)) {
    response.error = "server is draining";
    WriteResponse(conn, response, options_.write_timeout_ms);
    return;
  }
  constexpr size_t kMaxPendingReloads = 4;
  {
    std::lock_guard<std::mutex> lock(reload_state_->mu);
    if (reload_state_->jobs.size() < kMaxPendingReloads) {
      reload_state_->jobs.push_back(ReloadState::Job{conn, request});
      reload_state_->cv.notify_one();
      return;
    }
  }
  response.status = StatusCode::kOverloaded;
  response.retry_after_ms = options_.retry_after_ms;
  IPIN_COUNTER_ADD("serve.requests.shed", 1);
  WriteResponse(conn, response, options_.write_timeout_ms);
}

void Frontend::WorkerLoop() {
  while (true) {
    auto task = queue_.Pop();
    if (!task.has_value()) return;  // drained and empty
    IPIN_GAUGE_SET("serve.queue.depth", queue_.Depth());
    const Clock::time_point now = Clock::now();
    const uint64_t trace_id = task->request.trace_id;
    const int64_t queue_us = ToMicros(now - task->enqueued);
    IPIN_HISTOGRAM_RECORD("serve.queue.wait_us", queue_us);
    IPIN_TRACE_ASYNC_END("serve.queue", trace_id);

    // During drain, requests older than the drain deadline are answered
    // immediately; the rest still get evaluated.
    const bool past_drain =
        draining_.load(std::memory_order_acquire) && now >= drain_deadline_;

    Response response;
    int64_t eval_us = 0;
    if (now >= task->deadline || past_drain) {
      // Early drop at dequeue: an expired request never occupies a worker
      // for evaluation.
      response = ReplyTo(task->request, StatusCode::kDeadlineExceeded);
      response.epoch = handler_->Epoch();
      IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
    } else {
      IPIN_TRACE_ASYNC_BEGIN(role_.eval_lane, trace_id);
      const Clock::time_point eval_start = Clock::now();
      response = handler_->Evaluate(task->request, task->deadline);
      eval_us = ToMicros(Clock::now() - eval_start);
      IPIN_TRACE_ASYNC_END(role_.eval_lane, trace_id);
      if (latency_ != nullptr) latency_->Record(static_cast<uint64_t>(eval_us));
    }
    IPIN_TRACE_ASYNC_BEGIN("serve.write", trace_id);
    const Clock::time_point write_start = Clock::now();
    WriteResponse(task->conn, response, options_.write_timeout_ms);
    const Clock::time_point done = Clock::now();
    IPIN_TRACE_ASYNC_END("serve.write", trace_id);
    IPIN_TRACE_ASYNC_END("serve.request", trace_id);

    RequestRecord record;
    record.trace_id = trace_id;
    record.id = task->request.id;
    record.mode = task->request.mode;
    record.status = response.status;
    record.degraded = response.degraded;
    record.num_seeds = task->request.seeds.size();
    record.epoch = response.epoch;
    record.admission_us = task->admission_us;
    record.queue_us = queue_us;
    record.eval_us = eval_us;
    record.write_us = ToMicros(done - write_start);
    record.total_us = ToMicros(done - task->enqueued);
    flight_->Record(record);
    if (record.total_us > options_.slow_query_us) {
      LogWarning(StrFormat(
          "%s: slow %s trace_id=%s id=%lld status=%s total_us=%lld "
          "(admission=%lld queue=%lld %s=%lld write=%lld)",
          role_.log_prefix, role_.request_noun,
          TraceIdToHex(trace_id).c_str(), static_cast<long long>(record.id),
          StatusCodeName(record.status),
          static_cast<long long>(record.total_us),
          static_cast<long long>(record.admission_us),
          static_cast<long long>(record.queue_us), role_.eval_stage,
          static_cast<long long>(record.eval_us),
          static_cast<long long>(record.write_us)));
    }
  }
}

Response Frontend::StatsResponse(const Request& request) {
  Response response = ReplyTo(request, StatusCode::kOk);
  response.epoch = handler_->Epoch();
  size_t active;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    active = active_connections_;
  }
  response.info = {
      {"queue_depth", static_cast<double>(queue_.Depth())},
      {"queue_capacity", static_cast<double>(options_.queue_capacity)},
      {"workers", static_cast<double>(options_.num_workers)},
      {"connections_active", static_cast<double>(active)},
  };
  handler_->AppendStats(&response.info);
  response.info.emplace_back(
      "draining", draining_.load(std::memory_order_acquire) ? 1.0 : 0.0);
#ifndef IPIN_OBS_DISABLED
  // Trailing-window view from the per-second sampler: rates per second and
  // evaluation-latency percentiles over the last stats_window_s seconds.
  // All 0 until the sampler has at least two samples.
  const double win_s = static_cast<double>(options_.stats_window_s);
  const obs::HistogramSnapshot latency =
      window_.WindowedHistogram(role_.latency_metric, win_s);
  const auto rate = [&](const char* field, const char* counter) {
    response.info.emplace_back(field, window_.Rate(counter, win_s));
  };
  response.info.emplace_back("win_s", win_s);
  rate("win_qps", "serve.requests.accepted");
  rate("win_ok_per_s", "serve.requests.ok");
  rate("win_shed_per_s", "serve.requests.shed");
  rate("win_degraded_per_s", "serve.requests.degraded");
  rate("win_deadline_per_s", "serve.requests.deadline_exceeded");
  for (const auto& [field, counter] : role_.window_rates) rate(field, counter);
  response.info.emplace_back("win_query_count",
                             static_cast<double>(latency.count));
  response.info.emplace_back("win_p50_us", latency.P50());
  response.info.emplace_back("win_p95_us", latency.P95());
  response.info.emplace_back("win_p99_us", latency.P99());
#endif
  return response;
}

void Frontend::WriteResponse(const std::shared_ptr<Connection>& conn,
                             const Response& response,
                             int64_t write_timeout_ms) {
  if (conn->broken.load(std::memory_order_acquire)) return;
  const std::string line = SerializeResponse(response);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->broken.load(std::memory_order_acquire)) return;
  if (!WriteAll(conn->fd, line, write_timeout_ms)) {
    conn->broken.store(true, std::memory_order_release);
    // Kick the connection's reader out of recv() so the connection is torn
    // down instead of continuing to feed a peer that cannot be answered.
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void Frontend::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  LogInfo(StrFormat("%s: draining", role_.log_prefix));
  drain_deadline_ =
      Clock::now() + std::chrono::milliseconds(options_.drain_deadline_ms);
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting connections.
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }

  // 2. Stop reading new requests: half-close every connection. Responses
  // for queued work still go out on the write side.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& slot : readers_) ::shutdown(slot.conn->fd, SHUT_RD);
  }

  // 3. Drain the queue: workers answer everything still in it (evaluating
  // while the drain deadline allows), then exit on the empty signal.
  queue_.Drain();
  worker_pool_.reset();  // ThreadPool dtor joins once every WorkerLoop exits

  // 4. Readers have seen EOF by now (and any reader stuck writing to a
  // non-consuming peer is released by the write timeout); join and release
  // the connections (closing each fd once its last in-flight response
  // holder is gone).
  std::vector<ReaderSlot> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers.swap(readers_);
  }
  for (auto& slot : readers) {
    if (slot.thread.joinable()) slot.thread.join();
  }

  // 5. Readers are gone, so no new reload jobs can arrive: stop the reload
  // thread, bounded by the drain deadline.
  StopReloadThread();
  window_.Stop();
  IPIN_GAUGE_SET("serve.queue.depth", 0);
  LogInfo(StrFormat("%s: drained, all workers stopped", role_.log_prefix));
}

void Frontend::StopReloadThread() {
  if (reload_state_ == nullptr) return;
  bool exited;
  {
    std::unique_lock<std::mutex> lock(reload_state_->mu);
    reload_state_->stop = true;
    reload_state_->cv.notify_all();
    // A healthy thread exits in microseconds; give a busy one until the
    // drain deadline (but at least a small grace period).
    const auto wait_until = std::max(
        drain_deadline_, Clock::now() + std::chrono::milliseconds(100));
    exited = reload_state_->cv.wait_until(
        lock, wait_until, [this] { return reload_state_->exited; });
  }
  if (exited) {
    if (reload_thread_.joinable()) reload_thread_.join();
  } else if (reload_thread_.joinable()) {
    // Wedged inside the loader (hung disk/NFS, delay failpoint): abandon it
    // rather than blocking shutdown forever. It only touches its
    // refcounted state, the manager its reload closure captured (which
    // outlives the daemon by contract), and refcounted connections.
    LogWarning(StrFormat(
        "%s: reload thread still busy past the drain deadline; detaching",
        role_.log_prefix));
    reload_thread_.detach();
  }
  reload_state_.reset();
}

}  // namespace ipin::serve
