#include "ipin/serve/frontend.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <limits>

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
// wedged reader.
bool WriteAll(int fd, const std::string& data, int64_t timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
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
    if (written < data.size() && Clock::now() >= deadline) {
      IPIN_COUNTER_ADD("serve.write.timeouts", 1);
      return false;
    }
  }
  return true;
}

// Why `options` would leave every query hanging, or "" if they serve.
std::string OptionsError(const FrontendOptions& options) {
  if (options.num_workers < 1) return "workers must be at least 1";
  if (options.max_connections < 1) return "max_connections must be at least 1";
  if (options.default_deadline_ms < 0 || options.drain_deadline_ms < 0 ||
      options.retry_after_ms < 0) {
    return "deadlines and retry_after_ms must not be negative";
  }
  if (options.stats_window_s < 1 || options.stats_window_s > kMaxStatsWindowS) {
    return StrFormat("stats_window_s must be between 1 and %lld",
                     static_cast<long long>(kMaxStatsWindowS));
  }
  return "";
}

}  // namespace

bool ParseFrontendFlags(const FlagMap& flags, FrontendOptions* options,
                        std::string* error) {
  // Every count and interval is range-checked before it is narrowed or
  // turned into a deadline: a negative count must not wrap into a huge
  // size_t, a huge one into a small int, nor a huge interval overflow the
  // clock. slow_query_us is only compared against, so any value works.
  error->clear();
  const auto get = [&](const char* name, int64_t def, int64_t min,
                       int64_t max = std::numeric_limits<int64_t>::max()) {
    const int64_t value = flags.GetInt(name, def);
    if (error->empty() && (value < min || value > max)) {
      *error = StrFormat("%s must be between %lld and %lld", name,
                         static_cast<long long>(min),
                         static_cast<long long>(max));
    }
    return value;
  };
  options->unix_socket_path = flags.GetString("socket");
  options->tcp_port =
      flags.Has("port") ? static_cast<int>(get("port", 0, 0, 65535)) : -1;
  options->num_workers = static_cast<int>(
      get("workers", 4, 1, std::numeric_limits<int>::max()));
  options->queue_capacity = static_cast<size_t>(get("queue_capacity", 64, 0));
  options->max_connections =
      static_cast<size_t>(get("max_connections", 64, 1));
  options->default_deadline_ms = get("default_deadline_ms", 1000, 0);
  options->retry_after_ms = get("retry_after_ms", 50, 0);
  options->drain_deadline_ms = get("drain_deadline_ms", 2000, 0);
  options->slow_query_us = flags.GetInt("slow_query_us", 100000);
  options->flight_recorder_size =
      static_cast<size_t>(get("flight_size", 256, 0));
  options->flight_slow_size =
      static_cast<size_t>(get("flight_slow_size", 64, 0));
  options->stats_window_s = get("stats_window_s", 10, 1, kMaxStatsWindowS);
  options->reload_check_ms = get("reload_check_ms", 0, 0, kMaxReloadCheckMs);
  return error->empty();
}

AdmissionGate::Entry AdmissionGate::Enter(Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  if (holders_ < permits_ && line_.empty()) {
    ++holders_;
  } else {
    if (line_.size() >= max_waiters_) return Entry::kRefused;
    Waiter me;
    const auto spot = line_.insert(line_.end(), &me);
    IPIN_GAUGE_SET("serve.queue.depth", line_.size());
    // HandOff passes the permit (and takes `me` off the line) under mu_;
    // Drain wakes every waiter to re-read the drain deadline.
    while (!me.admitted) {
      if (me.cv.wait_until(lock, std::min(deadline, drain_deadline_)) ==
              std::cv_status::timeout &&
          !me.admitted) {
        line_.erase(spot);
        IPIN_GAUGE_SET("serve.queue.depth", line_.size());
        return Entry::kExpired;
      }
    }
  }
  if (Clock::now() >= std::min(deadline, drain_deadline_)) {
    --holders_;
    HandOff();
    return Entry::kExpired;
  }
  return Entry::kAdmitted;
}

void AdmissionGate::Leave() {
  std::lock_guard<std::mutex> lock(mu_);
  --holders_;
  HandOff();
}

void AdmissionGate::HandOff() {
  if (holders_ >= permits_ || line_.empty()) return;
  Waiter* next = line_.front();
  line_.pop_front();
  ++holders_;
  next->admitted = true;
  next->cv.notify_one();  // under mu_: the waiter cannot unwind before this
  IPIN_GAUGE_SET("serve.queue.depth", line_.size());
}

void AdmissionGate::Drain(Clock::time_point drain_deadline) {
  std::lock_guard<std::mutex> lock(mu_);
  drain_deadline_ = drain_deadline;
  for (Waiter* waiter : line_) waiter->cv.notify_one();
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
  std::deque<ReloadDone> jobs;
  bool stop = false;
  bool exited = false;
};

Frontend::Frontend(FrontendHandler* handler, const FrontendOptions& options,
                   FrontendRole role, ReloadFn reload)
    : handler_(handler),
      options_(options),
      role_(std::move(role)),
      reload_(std::move(reload)),
      latency_(obs::MetricsRegistry::Global().GetHistogram(
          role_.latency_metric)),
      gate_(static_cast<size_t>(std::max(0, options_.num_workers)),
            options_.queue_capacity),
      flight_(std::make_shared<FlightRecorder>(options_.flight_recorder_size,
                                               options_.flight_slow_size,
                                               options_.slow_query_us)),
      window_(obs::WindowedAggregatorOptions{
          /*sample_period_ms=*/1000,
          // Clamped: a window Start() refuses must not exhaust memory here.
          /*num_buckets=*/static_cast<size_t>(std::clamp<int64_t>(
              options_.stats_window_s, 32, kMaxStatsWindowS)) * 2}) {}

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
  if (const std::string error = OptionsError(options_); !error.empty()) {
    LogError(StrFormat("%s: %s", role_.log_prefix, error.c_str()));
    return false;
  }
  if (!Listen()) return false;

  running_.store(true, std::memory_order_release);
  draining_.store(false, std::memory_order_release);

#ifndef IPIN_OBS_DISABLED
  // One registry sample per second backs the stats verb's win_* fields and
  // ipin_top. Not started in obs-disabled builds: the macros record
  // nothing, so the ring would only ever hold empty snapshots.
  window_.Start();
#endif

  // The reload thread: a slow or wedged reload blocks only this thread —
  // never a connection reader or an evaluation slot — and Shutdown() can
  // abandon it (detach) if it outlasts the drain deadline. It captures
  // refcounted state and the handler's reload closure, never `this`.
  reload_state_ = std::make_shared<ReloadState>();
  reload_thread_ = std::thread(&Frontend::ReloadLoop, reload_state_, reload_,
                               options_.reload_check_ms);

  acceptor_ = std::thread([this] { AcceptLoop(); });
  LogInfo(StrFormat(
      "%s: listening on %s (%d workers, queue %zu)", role_.log_prefix,
      !options_.unix_socket_path.empty()
          ? options_.unix_socket_path.c_str()
          : StrFormat("127.0.0.1:%d", bound_port_).c_str(),
      options_.num_workers, options_.queue_capacity));
  return true;
}

void Frontend::ReloadLoop(const std::shared_ptr<ReloadState>& state,
                          const ReloadFn& reload, int64_t check_ms) {
  const auto ready = [&] { return state->stop || !state->jobs.empty(); };
  auto next_poll = Clock::now() + std::chrono::milliseconds(check_ms);
  for (;;) {
    ReloadDone job;
    bool draining;
    {
      std::unique_lock<std::mutex> lock(state->mu);
      if (check_ms <= 0) {
        state->cv.wait(lock, ready);
      } else if (!state->cv.wait_until(lock, next_poll, ready)) {
        // The poll: a timed wait on this thread, so it queues behind (and
        // is detached with) every other reload.
        lock.unlock();
        (void)reload(/*force=*/false);
        next_poll = Clock::now() + std::chrono::milliseconds(check_ms);
        continue;
      }
      if (state->jobs.empty()) break;  // stop requested, nothing pending
      job = std::move(state->jobs.front());
      state->jobs.pop_front();
      draining = state->stop;
    }
    // While draining, answer rather than reload: a fresh epoch is useless
    // to a daemon that is shutting down, and this keeps the drain bounded.
    ReloadResult result;
    if (!draining) {
      IPIN_LATENCY_SCOPE("serve.latency.reload_us");
      result = reload(/*force=*/true);
    }
    job(draining ? nullptr : &result);
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->exited = true;
  }
  state->cv.notify_all();
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
  const int64_t write_timeout = options_.write_timeout_ms;
  switch (request.method) {
    case Method::kHealth: {
      // Answered inline so liveness probes work with every slot busy.
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
      // keeps seeing metrics precisely when every slot is busy and they
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
      // slow queries it explains are exactly when evaluations are busy.
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
    case Method::kQuery:
    case Method::kTopk:
      break;
  }

  // A query without a trace id gets one here, so every path below
  // (responses, lanes, flight records, logs) can refer to the request by it.
  if (request.trace_id == 0) {
    request.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  RequestRecord record{.trace_id = request.trace_id, .id = request.id,
                       .mode = request.mode,
                       .num_seeds = request.seeds.size(),
                       .parsed = Clock::now()};
  const Response response = AdmitAndEvaluate(request, &record);
  record.status = response.status;
  record.degraded = response.degraded;
  // Rejections carry no epoch on the wire; their records still do.
  record.epoch = response.epoch != 0 ? response.epoch : handler_->Epoch();

  // Filed before the write, so a client that reads the recorder as soon
  // as its answer arrives finds the record; completed after it.
  const uint64_t seq = flight_->File(record);
  WriteResponse(conn, response, write_timeout);
  record.written = Clock::now();
  const RequestRecord::Stages stages = CompleteRecord(
      flight_.get(), seq, record, role_.eval_lane, latency_);
  if (stages.total_us > options_.slow_query_us) {
    LogWarning(StrFormat(
        "%s: slow %s trace_id=%s id=%lld status=%s total_us=%lld "
        "(admission=%lld queue=%lld %s=%lld write=%lld)",
        role_.log_prefix, role_.request_noun,
        TraceIdToHex(record.trace_id).c_str(),
        static_cast<long long>(record.id), StatusCodeName(record.status),
        static_cast<long long>(stages.total_us),
        static_cast<long long>(stages.admission_us),
        static_cast<long long>(stages.queue_us), role_.eval_stage,
        static_cast<long long>(stages.eval_us),
        static_cast<long long>(stages.write_us)));
  }
}

Response Frontend::AdmitAndEvaluate(const Request& request,
                                    RequestRecord* record) {
  const Clock::time_point deadline =
      record->parsed +
      std::chrono::milliseconds(request.deadline_ms > 0
                                    ? request.deadline_ms
                                    : options_.default_deadline_ms);
  record->admitted = Clock::now();
  if (draining_.load(std::memory_order_acquire)) {
    Response response = ReplyTo(request, StatusCode::kUnavailable);
    response.retry_after_ms = options_.retry_after_ms;
    response.error = "server is draining";
    return response;
  }
  const AdmissionGate::Entry entry = gate_.Enter(deadline);
  if (entry == AdmissionGate::Entry::kRefused) {
    // Load shedding: reject now with a backoff hint rather than waiting
    // beyond capacity. The request never entered the queue.
    IPIN_COUNTER_ADD("serve.requests.shed", 1);
    Response response = ReplyTo(request, StatusCode::kOverloaded);
    response.retry_after_ms = options_.retry_after_ms;
    return response;
  }
  IPIN_COUNTER_ADD("serve.requests.accepted", 1);
  record->entered = Clock::now();
  if (entry == AdmissionGate::Entry::kExpired) {
    // Past its deadline (or the drain deadline) before its turn: answered
    // without occupying an evaluation slot.
    IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
    Response response = ReplyTo(request, StatusCode::kDeadlineExceeded);
    response.epoch = handler_->Epoch();
    return response;
  }
  Response response = handler_->Evaluate(request, deadline);
  gate_.Leave();  // before the write: a slow reader holds no slot
  record->evaluated = Clock::now();
  return response;
}

RequestRecord::Stages CompleteRecord(
    FlightRecorder* flight, uint64_t seq, const RequestRecord& record,
    [[maybe_unused]] const char* eval_lane,
    [[maybe_unused]] obs::Histogram* eval_latency) {
  flight->Complete(seq, record);
  const RequestRecord::Stages stages = record.stages();
#ifndef IPIN_OBS_DISABLED
  if (RequestRecord::Reached(record.entered)) {
    IPIN_HISTOGRAM_RECORD("serve.queue.wait_us", stages.queue_us);
  }
  if (RequestRecord::Reached(record.evaluated)) {
    eval_latency->Record(static_cast<uint64_t>(stages.eval_us));
  }
  if (!obs::IsTraceRecording()) return stages;
  // A lane per stage reached after admission, which only serve.request
  // covers; an unset stamp is the clock's epoch, so a leg starts at parsed.
  Clock::time_point begin = std::max(record.parsed, record.admitted);
  const auto lane = [&](const char* name, Clock::time_point end) {
    if (!RequestRecord::Reached(end)) return;
    obs::RecordAsyncStage(name, record.trace_id, begin, end);
    begin = end;
  };
  lane("serve.queue", record.entered);
  lane(eval_lane, record.evaluated);
  lane("serve.write", record.written);
  if (RequestRecord::Reached(record.written)) {
    obs::RecordAsyncStage("serve.request", record.trace_id, record.parsed,
                          record.written);
  }
#endif
  return stages;
}

void Frontend::HandleReload(const std::shared_ptr<Connection>& conn,
                            const Request& request) {
  // Handed to the dedicated reload thread (which also writes the response):
  // a slow or wedged reload never occupies an evaluation slot or this
  // reader, and queries keep flowing from the old epoch while it runs.
  const int64_t write_timeout = options_.write_timeout_ms;
  const bool queued = RequestReload(
      [conn, request, write_timeout](const ReloadResult* result) {
        Response response = ReplyTo(request, StatusCode::kUnavailable);
        if (result == nullptr) {
          response.error = "server is draining";
        } else {
          response.status = StatusCode::kOk;
          response.epoch = result->epoch;
          response.info.emplace_back(
              "rolled_back",
              result->status == ReloadStatus::kRolledBack ? 1.0 : 0.0);
        }
        WriteResponse(conn, response, write_timeout);
      });
  if (queued) return;
  Response response = ReplyTo(request, StatusCode::kUnavailable);
  if (draining_.load(std::memory_order_acquire)) {
    response.error = "server is draining";
  } else {
    response.status = StatusCode::kOverloaded;
    response.retry_after_ms = options_.retry_after_ms;
    IPIN_COUNTER_ADD("serve.requests.shed", 1);
  }
  WriteResponse(conn, response, write_timeout);
}

bool Frontend::RequestReload(ReloadDone done) {
  constexpr size_t kMaxPendingReloads = 4;
  if (!running() || draining_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(reload_state_->mu);
  if (reload_state_->jobs.size() >= kMaxPendingReloads) return false;
  reload_state_->jobs.push_back(std::move(done));
  reload_state_->cv.notify_one();
  return true;
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
      {"queue_depth", static_cast<double>(gate_.waiting())},
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
  gate_.Drain(drain_deadline_);

  // 1. Stop accepting connections.
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }

  // 2. Stop reading new requests: half-close every connection. Readers
  // admitted to or waiting at the gate still answer on the write side.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& slot : readers_) ::shutdown(slot.conn->fd, SHUT_RD);
  }

  // 3. Join the readers: each answers what it holds (evaluated while the
  // drain deadline allows, DEADLINE_EXCEEDED after), then sees EOF; one
  // stuck writing to a non-consuming peer is released by the write
  // timeout. Joining releases the connections (closing each fd once its
  // last in-flight response holder is gone).
  std::vector<ReaderSlot> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers.swap(readers_);
  }
  for (auto& slot : readers) {
    if (slot.thread.joinable()) slot.thread.join();
  }

  // 4. Readers are gone, so no new reload jobs can arrive: stop the reload
  // thread, bounded by the drain deadline.
  StopReloadThread();
  window_.Stop();
  LogInfo(StrFormat("%s: drained, all readers stopped", role_.log_prefix));
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
    // refcounted state, the holder its reload closure captured (which
    // must then never be destroyed: see reload_detached()), and
    // refcounted connections.
    LogWarning(StrFormat(
        "%s: reload thread still busy past the drain deadline; detaching",
        role_.log_prefix));
    reload_thread_.detach();
    reload_detached_ = true;
  }
  reload_state_.reset();
}

}  // namespace ipin::serve
