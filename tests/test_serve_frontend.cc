#include "ipin/serve/frontend.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/flags.h"
#include "ipin/common/json.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/core/irs_exact.h"
#include "ipin/core/oracle_io.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace_events.h"
#include "ipin/serve/client.h"
#include "ipin/serve/router.h"
#include "ipin/serve/server.h"
#include "ipin/serve/shard_map.h"

// The shared serving frontend, exercised through both daemons that use it:
// every case runs once against an OracleServer and once against a
// RouterServer fronting one shard backend, over real Unix sockets. The
// cases cover frontend paths no daemon-specific suite reaches: the
// connection cap, the request-line cap, the win_* stats keys ipin_top
// reads, draining in-flight requests, the admission gate's bound on
// concurrent evaluations, pipelined queries on one connection, and options
// that would leave every query hanging.

namespace ipin::serve {
namespace {

constexpr size_t kNumNodes = 40;
constexpr size_t kMaxLineBytes = 1 << 20;

enum class Daemon { kOracle, kRouter };

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  // Bound every read so a broken frontend fails the test instead of
  // hanging it.
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

// Sends as much of `data` as the peer takes; false once it stops taking.
bool SendAll(int fd, const std::string& data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    written += static_cast<size_t>(n);
  }
  return true;
}

// One newline-terminated line, or "" on EOF / error / timeout.
std::string ReadLine(int fd) {
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line += c;
  }
  return "";
}

double InfoValue(const Response& response, const std::string& key,
                 double missing = -1.0) {
  for (const auto& [name, value] : response.info) {
    if (name == key) return value;
  }
  return missing;
}

class FrontendFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::kError);
    const std::string tag = std::to_string(reinterpret_cast<uintptr_t>(this));
    socket_ = ::testing::TempDir() + "/ipin_fe_" + tag + ".sock";
    backend_socket_ = ::testing::TempDir() + "/ipin_fe_" + tag + "_b.sock";
    const InteractionGraph graph =
        GenerateUniformRandomNetwork(kNumNodes, 400, 1000, 3);
    IrsApproxOptions options;
    options.precision = 5;
    full_ = std::make_shared<const IrsApprox>(
        IrsApprox::Compute(graph, 200, options));
    index_ = std::make_unique<IndexManager>("");
    index_->Install(full_);
    index_->SetExact(
        std::make_shared<const IrsExact>(IrsExact::Compute(graph, 200)));
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Shutdown();
    if (oracle_ != nullptr) oracle_->Shutdown();
    if (backend_ != nullptr) backend_->Shutdown();
    failpoint::ClearAll();
    std::remove(socket_.c_str());
    std::remove(backend_socket_.c_str());
  }

  // Starts the daemon under test on socket_ with `frontend` as its shared
  // options. The router gets one backend serving the whole index, so its
  // answers equal the oracle's. With `served_file` set, the daemon's holder
  // loads its index or shard map from that file instead of in memory.
  void StartDaemon(Daemon daemon, FrontendOptions frontend,
                   const std::string& served_file = "") {
    frontend.unix_socket_path = socket_;
    if (daemon == Daemon::kOracle) {
      if (!served_file.empty()) {
        ASSERT_TRUE(SaveInfluenceIndex(*full_, served_file));
        index_ = std::make_unique<IndexManager>(served_file);
        ASSERT_EQ(index_->Reload(), ReloadStatus::kOk);
      }
      ServerOptions options;
      static_cast<FrontendOptions&>(options) = frontend;
      oracle_ = std::make_unique<OracleServer>(index_.get(), options);
      ASSERT_TRUE(oracle_->Start());
      return;
    }
    ServerOptions backend;
    backend.unix_socket_path = backend_socket_;
    backend.num_workers = 2;
    backend_ = std::make_unique<OracleServer>(index_.get(), backend);
    ASSERT_TRUE(backend_->Start());
    ShardInfo shard;
    shard.name = "shard0";
    shard.endpoint.unix_socket_path = backend_socket_;
    const auto map =
        std::make_shared<const ShardMap>(std::vector<ShardInfo>{shard});
    map_ = std::make_unique<ShardMapManager>(served_file);
    if (served_file.empty()) {
      map_->Install(map);
    } else {
      ASSERT_TRUE(WriteFileAtomic(served_file, map->ToJson() + "\n"));
      ASSERT_EQ(map_->Reload(), ReloadStatus::kOk);
    }
    RouterOptions options;
    static_cast<FrontendOptions&>(options) = frontend;
    router_ = std::make_unique<RouterServer>(map_.get(), options);
    ASSERT_TRUE(router_->Start());
  }

  void ShutdownDaemon() {
    if (oracle_ != nullptr) oracle_->Shutdown();
    if (router_ != nullptr) router_->Shutdown();
  }

  // The daemon under test, as the runner drives it.
  Service& UnderTest() {
    return oracle_ != nullptr ? static_cast<Service&>(*oracle_) : *router_;
  }

  OracleClient Client(int max_attempts = 1) const {
    ClientOptions options;
    options.unix_socket_path = socket_;
    options.max_attempts = max_attempts;
    options.backoff_initial_ms = 5;
    return OracleClient(options);
  }

  std::string socket_;
  std::string backend_socket_;
  std::shared_ptr<const IrsApprox> full_;
  std::unique_ptr<IndexManager> index_;
  std::unique_ptr<OracleServer> oracle_;
  std::unique_ptr<OracleServer> backend_;
  std::unique_ptr<ShardMapManager> map_;
  std::unique_ptr<RouterServer> router_;
};

class ServeFrontendTest : public FrontendFixture,
                          public ::testing::WithParamInterface<Daemon> {
 protected:
  void StartDaemon(FrontendOptions frontend = {},
                   const std::string& served_file = "") {
    FrontendFixture::StartDaemon(GetParam(), frontend, served_file);
  }
};

TEST_P(ServeFrontendTest, ConnectionCapAnswersOverloaded) {
  FrontendOptions options;
  options.max_connections = 1;
  StartDaemon(options);

  // The first connection takes the only slot (a reply proves its reader
  // is running).
  const int held = ConnectUnix(socket_);
  ASSERT_GE(held, 0);
  ASSERT_TRUE(SendAll(held, "{\"id\": 1, \"method\": \"health\"}\n"));
  const auto health = ParseResponse(ReadLine(held));
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, StatusCode::kOk);

  // The second is answered OVERLOADED and closed without being read.
  const int refused = ConnectUnix(socket_);
  ASSERT_GE(refused, 0);
  const auto reject = ParseResponse(ReadLine(refused));
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(reject->status, StatusCode::kOverloaded);
  EXPECT_EQ(reject->error, "connection limit reached");
  EXPECT_GT(reject->retry_after_ms, 0);
  EXPECT_EQ(ReadLine(refused), "");
  ::close(refused);

  // Releasing the slot lets a new connection in.
  ::close(held);
  OracleClient client = Client(/*max_attempts=*/20);
  const auto response = client.Query({1, 2}, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
}

TEST_P(ServeFrontendTest, OversizedLineDropsOnlyItsConnection) {
  StartDaemon();
  const int abuser = ConnectUnix(socket_);
  const int neighbour = ConnectUnix(socket_);
  ASSERT_GE(abuser, 0);
  ASSERT_GE(neighbour, 0);

  // Over 1 MiB without a newline: the frontend stops reading and closes.
  SendAll(abuser, std::string(kMaxLineBytes + 4096, 'x'));
  char byte;
  const ssize_t n = ::recv(abuser, &byte, 1, 0);
  EXPECT_TRUE(n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK))
      << "connection must be dropped, not left open";
  ::close(abuser);

  // The other connection keeps answering, with the right estimate.
  ASSERT_TRUE(SendAll(neighbour,
                      "{\"id\": 7, \"method\": \"query\", \"seeds\": [1, 2, "
                      "3], \"mode\": \"sketch\"}\n"));
  const auto response = ParseResponse(ReadLine(neighbour));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 7);
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_EQ(response->estimate,
            full_->EstimateUnionSize(std::vector<NodeId>{1, 2, 3}));
  ::close(neighbour);
}

TEST_P(ServeFrontendTest, StatsCarryTheCommonFieldsAndWindowedKeys) {
  StartDaemon();
  OracleClient client = Client();
  ASSERT_TRUE(client.Query({1, 2}, QueryMode::kSketch).has_value());

  Request stats;
  stats.method = Method::kStats;
  std::string error;
  const auto response = client.Call(stats, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->status, StatusCode::kOk);
  for (const char* key : {"queue_depth", "queue_capacity", "workers",
                          "connections_active", "draining"}) {
    EXPECT_GE(InfoValue(*response, key), 0.0) << key;
  }
  EXPECT_DOUBLE_EQ(InfoValue(*response, "connections_active"), 1.0);
#ifndef IPIN_OBS_DISABLED
  // The keys ipin_top reads, from both daemons.
  for (const char* key : {"win_s", "win_qps", "win_ok_per_s", "win_shed_per_s",
                          "win_degraded_per_s", "win_deadline_per_s",
                          "win_query_count", "win_p50_us", "win_p95_us",
                          "win_p99_us"}) {
    EXPECT_GE(InfoValue(*response, key), 0.0) << key;
  }
  const bool router = GetParam() == Daemon::kRouter;
  for (const char* key : {"win_partial_per_s", "win_leg_fail_per_s"}) {
    EXPECT_EQ(InfoValue(*response, key) >= 0.0, router) << key;
  }

  // The removed reshard_status verb is an unknown method to both daemons:
  // BAD_REQUEST, and not a stats call, so it stays out of stats latency. A
  // latency sample lands after its response is written, so each count is
  // read only after a health round trip on the same connection, which
  // that connection's reader serves after finishing the previous line.
  const obs::Histogram* stats_us =
      obs::MetricsRegistry::Global().GetHistogram("serve.latency.stats_us");
  const int fd = ConnectUnix(socket_);
  ASSERT_GE(fd, 0);
  const std::string health = R"({"id":1,"method":"health"})" "\n";
  ASSERT_TRUE(SendAll(fd, health));
  ASSERT_TRUE(ParseResponse(ReadLine(fd)).has_value());
  const uint64_t before = stats_us->Count();
  ASSERT_TRUE(SendAll(fd, R"({"id":2,"method":"reshard_status"})" "\n"));
  const auto reshard = ParseResponse(ReadLine(fd));
  ASSERT_TRUE(reshard.has_value());
  EXPECT_EQ(reshard->status, StatusCode::kBadRequest);
  ASSERT_TRUE(SendAll(fd, health));
  ASSERT_TRUE(ParseResponse(ReadLine(fd)).has_value());
  EXPECT_EQ(stats_us->Count(), before);
  ::close(fd);
#endif
}

TEST_P(ServeFrontendTest, ShutdownAnswersInFlightRequests) {
  FrontendOptions options;
  options.num_workers = 2;
  options.drain_deadline_ms = 5000;
  StartDaemon(options);
  // Slow every evaluation down — exact evaluation on the oracle, the shard
  // RPC on the router — so that with 2 workers the 4 requests are still
  // being evaluated or queued when the drain half-closes the connections.
  ASSERT_TRUE(failpoint::Set("serve.eval", "delay(150)"));
  ASSERT_TRUE(failpoint::Set("serve.shard.rpc", "delay(150)"));

  std::atomic<int> answered{0};
  std::atomic<int> dropped{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      OracleClient client = Client();
      const auto response =
          client.Query({1, 2}, QueryMode::kExact, /*deadline_ms=*/5000);
      if (response.has_value()) {
        ++answered;
      } else {
        ++dropped;
      }
    });
  }
  // Give the requests time to be admitted, then drain under them.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ShutdownDaemon();
  for (auto& t : clients) t.join();
  EXPECT_EQ(answered.load(), 4);
  EXPECT_EQ(dropped.load(), 0);
}

TEST_P(ServeFrontendTest, OneWorkerRunsOneEvaluationAtATime) {
  FrontendOptions options;
  options.num_workers = 1;
  StartDaemon(options);
  // Every evaluation takes at least 50 ms: the exact attempt on the oracle,
  // the shard RPC on the router.
  ASSERT_TRUE(failpoint::Set("serve.eval", "delay(50)"));
  ASSERT_TRUE(failpoint::Set("serve.shard.rpc", "delay(50)"));

  constexpr int kClients = 3;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      OracleClient client = Client();
      const auto response =
          client.Query({1, 2}, QueryMode::kExact, /*deadline_ms=*/5000);
      if (response.has_value() && response->status == StatusCode::kOk) ++ok;
    });
  }
  for (auto& t : clients) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(ok.load(), kClients);
  // No two of the three evaluations overlapped.
  EXPECT_GE(elapsed, std::chrono::milliseconds(50 * kClients));
}

TEST_P(ServeFrontendTest, PipelinedQueriesOnOneConnectionAllAnswered) {
  StartDaemon();
  const int fd = ConnectUnix(socket_);
  ASSERT_GE(fd, 0);
  constexpr int kQueries = 5;
  std::string burst;
  for (int i = 1; i <= kQueries; ++i) {
    Request request;
    request.id = 100 + i;
    request.seeds = {static_cast<NodeId>(i), static_cast<NodeId>(2 * i)};
    request.mode = QueryMode::kSketch;
    burst += SerializeRequest(request);
  }
  ASSERT_TRUE(SendAll(fd, burst));

  // Each id once, with its own seeds' estimate.
  std::set<int64_t> ids;
  for (int n = 0; n < kQueries; ++n) {
    const auto response = ParseResponse(ReadLine(fd));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk);
    const int64_t i = response->id - 100;
    ASSERT_GE(i, 1);
    ASSERT_LE(i, kQueries);
    EXPECT_EQ(response->estimate,
              full_->EstimateUnionSize(std::vector<NodeId>{
                  static_cast<NodeId>(i), static_cast<NodeId>(2 * i)}));
    ids.insert(response->id);
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kQueries));
  ::close(fd);
}

// Every runtime reload runs on the frontend's reload thread. With
// reload_check_ms set, a timed wait there polls the served file: replacing
// it advances the epoch the health verb reports, once, with no reload
// request. RequestReload (the runner's SIGHUP) queues a forced reload on
// the same thread and hands back its outcome.
TEST_P(ServeFrontendTest, WatcherPicksUpChangedFile) {
  const std::string served = socket_ + ".served";
  FrontendOptions frontend;
  frontend.reload_check_ms = 20;
  StartDaemon(frontend, served);
  OracleClient client = Client();
  Request health;
  health.method = Method::kHealth;
  const auto epoch = [&] {
    const auto response = client.Call(health);
    return response.has_value() ? response->epoch : 0;
  };
  ASSERT_EQ(epoch(), 1u);

  // Saved through a rename: a new inode, so a new stamp.
  if (GetParam() == Daemon::kOracle) {
    ASSERT_TRUE(SaveInfluenceIndex(*full_, served));
  } else {
    ASSERT_TRUE(WriteFileAtomic(served, map_->Current()->ToJson() + "\n"));
  }
  for (int i = 0; i < 200 && epoch() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(epoch(), 2u) << "one change, one reload";

  std::promise<ReloadResult> done;
  ASSERT_TRUE(UnderTest().frontend().RequestReload(
      [&done](const ReloadResult* result) { done.set_value(*result); }));
  std::future<ReloadResult> outcome = done.get_future();
  ASSERT_EQ(outcome.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  const ReloadResult result = outcome.get();
  EXPECT_EQ(result.status, ReloadStatus::kOk);
  EXPECT_EQ(result.epoch, 3u);
  EXPECT_EQ(epoch(), 3u);
  ShutdownDaemon();
  std::remove(served.c_str());
}

TEST_P(ServeFrontendTest, StartRefusesOptionsThatWouldHangEveryQuery) {
  const auto refused = [&](const FrontendOptions& frontend) {
    FrontendOptions options = frontend;
    options.unix_socket_path = socket_;
    if (GetParam() == Daemon::kOracle) {
      ServerOptions server;
      static_cast<FrontendOptions&>(server) = options;
      return !OracleServer(index_.get(), server).Start();
    }
    map_ = std::make_unique<ShardMapManager>("");
    RouterOptions router;
    static_cast<FrontendOptions&>(router) = options;
    return !RouterServer(map_.get(), router).Start();
  };
  FrontendOptions options;
  options.num_workers = 0;
  EXPECT_TRUE(refused(options)) << "no worker";
  options = {};
  options.max_connections = 0;
  EXPECT_TRUE(refused(options)) << "no connection";
  options = {};
  options.default_deadline_ms = -1;
  EXPECT_TRUE(refused(options)) << "negative deadline";
  options = {};
  options.drain_deadline_ms = -1;
  EXPECT_TRUE(refused(options)) << "negative drain deadline";
  options = {};
  options.retry_after_ms = -1;
  EXPECT_TRUE(refused(options)) << "negative retry hint";
  options = {};
  options.stats_window_s = 1000000000;
  EXPECT_TRUE(refused(options)) << "stats window past an hour";
  EXPECT_FALSE(refused(FrontendOptions{})) << "the defaults serve";
}

INSTANTIATE_TEST_SUITE_P(BothDaemons, ServeFrontendTest,
                         ::testing::Values(Daemon::kOracle, Daemon::kRouter),
                         [](const auto& info) {
                           return info.param == Daemon::kOracle ? "Oracle"
                                                                : "Router";
                         });

#ifndef IPIN_OBS_DISABLED
// One stage record per request feeds every output: a traced session of
// direct queries (one shed, one expired or timed out) and routed requests
// must show, for every trace id, dumped stages that sum exactly to
// total_us, a Chrome lane per reached stage within 1 µs of the record's
// stage, and histogram counts and sums equal to the records' stages.
TEST_F(FrontendFixture, OneStageRecordFeedsEveryOutput) {
  ServerOptions backend;
  backend.unix_socket_path = backend_socket_;
  backend.num_workers = 1;
  backend.queue_capacity = 1;
  backend.flight_recorder_size = 1024;
  backend_ = std::make_unique<OracleServer>(index_.get(), backend);
  ASSERT_TRUE(backend_->Start());
  ShardInfo shard;
  shard.name = "shard0";
  shard.endpoint.unix_socket_path = backend_socket_;
  map_ = std::make_unique<ShardMapManager>("");
  map_->Install(
      std::make_shared<const ShardMap>(std::vector<ShardInfo>{shard}));
  RouterOptions routed;
  routed.unix_socket_path = socket_;
  routed.flight_recorder_size = 1024;
  router_ = std::make_unique<RouterServer>(map_.get(), routed);
  ASSERT_TRUE(router_->Start());

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::vector<const obs::Histogram*> histograms = {
      registry.GetHistogram("serve.queue.wait_us"),
      registry.GetHistogram("serve.latency.query_us"),
      registry.GetHistogram("serve.latency.route_us"),
      registry.GetHistogram("serve.shard.leg_us")};
  std::vector<uint64_t> count_before;
  std::vector<uint64_t> sum_before;
  for (const obs::Histogram* h : histograms) {
    count_before.push_back(h->Count());
    sum_before.push_back(h->Sum());
  }
  obs::TraceRecorderOptions trace_options;
  trace_options.counter_sample_period_ms = 0;
  ASSERT_TRUE(obs::StartTraceRecording(trace_options));

  // Direct queries on the backend's one worker and one queue slot: A holds
  // the worker for 400 ms of delayed exact evaluation, B waits behind it
  // with a 150 ms deadline, C finds the queue full.
  const auto backend_client = [&] {
    ClientOptions options;
    options.unix_socket_path = backend_socket_;
    options.max_attempts = 1;
    return std::make_unique<OracleClient>(options);
  };
  ASSERT_TRUE(failpoint::Set("serve.eval", "delay(400)"));
  std::vector<StatusCode> statuses(3, StatusCode::kOk);
  std::thread a([&] {
    const auto response =
        backend_client()->Query({1, 2}, QueryMode::kExact, 5000);
    if (response.has_value()) statuses[0] = response->status;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread b([&] {
    const auto response = backend_client()->Query({3}, QueryMode::kExact, 150);
    if (response.has_value()) statuses[1] = response->status;
  });
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(2);
  while (backend_->queue_depth() == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto shed = backend_client()->Query({4}, QueryMode::kSketch);
  ASSERT_TRUE(shed.has_value());
  statuses[2] = shed->status;
  a.join();
  b.join();
  failpoint::ClearAll();
  EXPECT_EQ(statuses[1], StatusCode::kDeadlineExceeded);
  EXPECT_EQ(statuses[2], StatusCode::kOverloaded);

  // Routed requests: a record per request and per leg on the router, one
  // per leg on the backend.
  OracleClient client = Client();
  for (NodeId i = 0; i < 6; ++i) {
    const auto response = client.Query({i, i + 7}, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk);
  }
  Request topk;
  topk.method = Method::kTopk;
  topk.k = 3;
  const auto topk_response = client.Call(topk);
  ASSERT_TRUE(topk_response.has_value());
  EXPECT_EQ(topk_response->status, StatusCode::kOk);

  // Shutdown joins every reader, so every record is complete.
  router_->Shutdown();
  backend_->Shutdown();
  obs::StopTraceRecording();
  const std::string trace_path = ::testing::TempDir() + "/ipin_fe_lanes.json";
  ASSERT_TRUE(obs::WriteChromeTrace(trace_path));
  const auto trace = JsonValue::ParseFile(trace_path);
  std::remove(trace_path.c_str());
  ASSERT_TRUE(trace.has_value());

  // Lane stage durations by (trace id, lane): each "b" is followed by its
  // "e" in the recording thread's buffer.
  using LaneKey = std::pair<uint64_t, std::string>;
  std::map<LaneKey, std::vector<double>> lanes;
  const auto& events = trace->Find("traceEvents")->array_items();
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].FindString("ph", "") != "b") continue;
    ASSERT_LT(i + 1, events.size());
    const JsonValue& end = events[i + 1];
    const std::string name = events[i].FindString("name", "");
    const std::string id = events[i].FindString("id", "");
    ASSERT_EQ(end.FindString("ph", ""), "e");
    ASSERT_EQ(end.FindString("name", ""), name);
    ASSERT_EQ(end.FindString("id", ""), id);
    lanes[{std::stoull(id, nullptr, 16), name}].push_back(
        end.FindNumber("ts", 0) - events[i].FindNumber("ts", 0));
  }

  // What the records say the same lanes and histograms hold.
  std::map<LaneKey, std::vector<double>> expected;
  std::vector<uint64_t> counts(histograms.size(), 0);
  std::vector<uint64_t> sums(histograms.size(), 0);
  const auto add = [&](size_t h, int64_t us) {
    ++counts[h];
    sums[h] += static_cast<uint64_t>(us);
  };
  std::set<StatusCode> seen;
  for (const bool router : {false, true}) {
    const FlightRecorder& flight =
        router ? router_->flight_recorder() : backend_->flight_recorder();
    const FlightRecorder::Contents contents = flight.Snapshot();
    const std::vector<RequestRecord>& records = contents.recent;
    EXPECT_EQ(records.size(), contents.recorded);
    const auto dump = JsonValue::Parse(flight.DumpJson());
    ASSERT_TRUE(dump.has_value());
    const auto& dumped = dump->Find("recent")->array_items();
    ASSERT_EQ(dumped.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      const RequestRecord& r = records[i];
      const RequestRecord::Stages st = r.stages();
      const JsonValue& d = dumped[i];
      EXPECT_EQ(d.FindString("trace_id", ""), TraceIdToHex(r.trace_id));
      EXPECT_EQ(d.FindNumber("admission_us", -1) +
                    d.FindNumber("queue_us", -1) +
                    d.FindNumber("eval_us", -1) + d.FindNumber("write_us", -1),
                d.FindNumber("total_us", -2))
          << "record " << i << " of " << (router ? "router" : "backend");
      EXPECT_EQ(d.FindNumber("queue_us", -1), static_cast<double>(st.queue_us));
      EXPECT_EQ(d.FindNumber("eval_us", -1), static_cast<double>(st.eval_us));
      EXPECT_EQ(d.FindNumber("total_us", -1), static_cast<double>(st.total_us));
      seen.insert(r.status);
      const auto lane = [&](const char* name, int64_t us) {
        expected[{r.trace_id, name}].push_back(static_cast<double>(us));
      };
      if (r.shard >= 0) {
        lane("serve.shard.leg", st.eval_us);
        add(3, st.eval_us);
        continue;
      }
      ASSERT_TRUE(RequestRecord::Reached(r.written));
      lane("serve.request", st.total_us);
      lane("serve.write", st.write_us);
      if (RequestRecord::Reached(r.entered)) {
        lane("serve.queue", st.queue_us);
        add(0, st.queue_us);
      }
      if (RequestRecord::Reached(r.evaluated)) {
        lane(router ? "serve.route" : "serve.eval", st.eval_us);
        add(router ? 2 : 1, st.eval_us);
      }
    }
  }
  EXPECT_TRUE(seen.count(StatusCode::kOverloaded));
  EXPECT_TRUE(seen.count(StatusCode::kDeadlineExceeded));

  ASSERT_EQ(lanes.size(), expected.size());
  for (auto& [key, want] : expected) {
    std::vector<double>& got = lanes[key];
    ASSERT_EQ(got.size(), want.size()) << key.second << " " << key.first;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1.0) << key.second << " " << key.first;
    }
  }
  for (size_t h = 0; h < histograms.size(); ++h) {
    EXPECT_EQ(histograms[h]->Count() - count_before[h], counts[h]) << h;
    EXPECT_EQ(histograms[h]->Sum() - sum_before[h], sums[h]) << h;
  }
  EXPECT_GT(counts[0], 0u);
  EXPECT_GT(counts[3], 0u);
}
#endif  // IPIN_OBS_DISABLED

TEST(FrontendFlagsTest, RejectsValuesThatWouldHang) {
  const auto parse = [](std::vector<std::string> args, std::string* error) {
    args.insert(args.begin(), "daemon");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    FrontendOptions options;
    return ParseFrontendFlags(
        FlagMap::Parse(static_cast<int>(argv.size()), argv.data()), &options,
        error);
  };
  std::string error;
  EXPECT_TRUE(parse({"--socket=/tmp/x.sock"}, &error)) << error;
  EXPECT_TRUE(parse({"--socket=/tmp/x.sock", "--queue_capacity=0"}, &error))
      << error;
  for (const char* bad :
       {"--workers=0", "--workers=-2", "--max_connections=0",
        "--max_connections=-1", "--queue_capacity=-1",
        "--default_deadline_ms=-1", "--drain_deadline_ms=-5",
        "--retry_after_ms=-1", "--flight_size=-1", "--flight_slow_size=-1",
        "--stats_window_s=0", "--stats_window_s=-5",
        "--stats_window_s=1000000000", "--workers=4294967297",
        "--reload_check_ms=-1", "--reload_check_ms=10000000000000"}) {
    error.clear();
    EXPECT_FALSE(parse({"--socket=/tmp/x.sock", bad}, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // A port out of range must not wrap into another port (70000 would bind
  // 4464) or into the ephemeral port 0.
  for (const char* bad : {"--port=70000", "--port=65536"}) {
    error.clear();
    EXPECT_FALSE(parse({bad}, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

}  // namespace
}  // namespace ipin::serve
