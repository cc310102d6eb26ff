#include "ipin/serve/frontend.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/core/irs_exact.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/obs/metrics.h"
#include "ipin/serve/client.h"
#include "ipin/serve/router.h"
#include "ipin/serve/server.h"
#include "ipin/serve/shard_map.h"

// The shared serving frontend, exercised through both daemons that use it:
// every case runs once against an OracleServer and once against a
// RouterServer fronting one shard backend, over real Unix sockets. The
// cases cover frontend paths no daemon-specific suite reaches: the
// connection cap, the request-line cap, the win_* stats keys ipin_top
// reads, and draining in-flight requests. A last case drives the router's
// hedged retry onto a replica.

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
  // answers equal the oracle's.
  void StartDaemon(Daemon daemon, FrontendOptions frontend) {
    frontend.unix_socket_path = socket_;
    if (daemon == Daemon::kOracle) {
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
    map_ = std::make_unique<ShardMapManager>("");
    map_->Install(
        std::make_shared<const ShardMap>(std::vector<ShardInfo>{shard}));
    RouterOptions options;
    static_cast<FrontendOptions&>(options) = frontend;
    router_ = std::make_unique<RouterServer>(map_.get(), options);
    ASSERT_TRUE(router_->Start());
  }

  void ShutdownDaemon() {
    if (oracle_ != nullptr) oracle_->Shutdown();
    if (router_ != nullptr) router_->Shutdown();
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
  void StartDaemon(FrontendOptions frontend = {}) {
    FrontendFixture::StartDaemon(GetParam(), frontend);
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

  // reshard_status is not a stats call: it stays out of stats latency. A
  // latency sample lands after its response is written, so each count is
  // read only after a health round trip on the same connection, which
  // that connection's reader serves after finishing the previous verb.
  const obs::Histogram* stats_us =
      obs::MetricsRegistry::Global().GetHistogram("serve.latency.stats_us");
  Request health;
  health.method = Method::kHealth;
  ASSERT_TRUE(client.Call(health, &error).has_value()) << error;
  const uint64_t before = stats_us->Count();
  Request reshard;
  reshard.method = Method::kReshardStatus;
  const auto reshard_response = client.Call(reshard, &error);
  ASSERT_TRUE(reshard_response.has_value()) << error;
  EXPECT_EQ(reshard_response->status,
            router ? StatusCode::kOk : StatusCode::kBadRequest);
  ASSERT_TRUE(client.Call(health, &error).has_value()) << error;
  EXPECT_EQ(stats_us->Count(), before);
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

INSTANTIATE_TEST_SUITE_P(BothDaemons, ServeFrontendTest,
                         ::testing::Values(Daemon::kOracle, Daemon::kRouter),
                         [](const auto& info) {
                           return info.param == Daemon::kOracle ? "Oracle"
                                                                : "Router";
                         });

// Hedging: a primary that accepts connections but never replies, plus one
// real replica. With hedge_after_ms set, the leg's first attempt straggles
// and the retry goes to the next endpoint of the shard's list.
using RouterHedgingTest = FrontendFixture;

TEST_F(RouterHedgingTest, HedgedLegRetriesOnTheNextEndpoint) {
  const std::string blackhole = socket_ + ".primary";
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, blackhole.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(blackhole.c_str());
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 16), 0);  // never accept()ed: the kernel
                                         // queues connections, nobody reads

  ServerOptions replica;
  replica.unix_socket_path = backend_socket_;
  backend_ = std::make_unique<OracleServer>(index_.get(), replica);
  ASSERT_TRUE(backend_->Start());

  ShardInfo shard;
  shard.name = "shard0";
  shard.endpoint.unix_socket_path = blackhole;
  shard.replicas.resize(1);
  shard.replicas[0].unix_socket_path = backend_socket_;
  map_ = std::make_unique<ShardMapManager>("");
  map_->Install(
      std::make_shared<const ShardMap>(std::vector<ShardInfo>{shard}));
  RouterOptions options;
  options.unix_socket_path = socket_;
  options.hedge_after_ms = 20;
  router_ = std::make_unique<RouterServer>(map_.get(), options);
  ASSERT_TRUE(router_->Start());

#ifndef IPIN_OBS_DISABLED
  const obs::Counter* hedged =
      obs::MetricsRegistry::Global().GetCounter("serve.shard.hedged");
  const uint64_t hedged_before = hedged->Value();
#endif
  OracleClient client(Client());
  const std::vector<NodeId> seeds = {1, 2, 3};
  const auto response = client.Query(seeds, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_FALSE(response->degraded);
  // Bit for bit the single-process answer.
  EXPECT_EQ(response->estimate, full_->EstimateUnionSize(seeds));
#ifndef IPIN_OBS_DISABLED
  EXPECT_GT(hedged->Value(), hedged_before);
#endif

  router_->Shutdown();
  ::close(listener);
  ::unlink(blackhole.c_str());
}

}  // namespace
}  // namespace ipin::serve
