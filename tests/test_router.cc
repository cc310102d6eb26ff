#include "ipin/serve/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/core/irs_approx.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/serve/client.h"
#include "ipin/serve/server.h"
#include "ipin/serve/shard_map.h"
#include "ipin/sketch/estimators.h"

// End-to-end scatter-gather: N in-process OracleServers (each serving the
// shard slice ExtractShardIndex cut for it) behind one RouterServer, talked
// to over real Unix sockets with the real client. The acceptance criteria
// of the sharded serving tier live here: merge exactness against the
// single-process answer, partial-result degradation when shards die, probe
// recovery, map rollback, and seeded failpoint replay.

namespace ipin::serve {
namespace {

constexpr size_t kNumNodes = 60;

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::kError);
    tag_ = std::to_string(reinterpret_cast<uintptr_t>(this));
    const InteractionGraph graph =
        GenerateUniformRandomNetwork(kNumNodes, 600, 1000, 11);
    IrsApproxOptions options;
    options.precision = 5;
    full_ = std::make_shared<const IrsApprox>(
        IrsApprox::Compute(graph, 200, options));
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Shutdown();
    for (auto& server : shard_servers_) {
      if (server != nullptr) server->Shutdown();
    }
    failpoint::ClearAll();
    for (const auto& path : socket_paths_) std::remove(path.c_str());
    std::remove(router_socket_.c_str());
  }

  std::string ShardSocket(size_t i) const {
    return ::testing::TempDir() + "/ipin_rt_" + tag_ + "_s" +
           std::to_string(i) + ".sock";
  }

  // Builds the map, extracts the per-shard indexes, and starts one backend
  // per shard.
  void StartShards(size_t n) {
    std::vector<ShardInfo> infos(n);
    socket_paths_.clear();
    for (size_t i = 0; i < n; ++i) {
      infos[i].name = "shard" + std::to_string(i);
      infos[i].endpoint.unix_socket_path = ShardSocket(i);
      socket_paths_.push_back(infos[i].endpoint.unix_socket_path);
    }
    map_ = std::make_shared<const ShardMap>(infos);
    manager_ = std::make_unique<ShardMapManager>("");
    manager_->Install(map_);

    shard_indexes_.clear();
    shard_servers_.clear();
    for (size_t i = 0; i < n; ++i) {
      auto index = std::make_unique<IndexManager>("");
      index->Install(std::make_shared<const IrsApprox>(
          ExtractShardIndex(*full_, *map_, i)));
      shard_indexes_.push_back(std::move(index));
      shard_servers_.push_back(nullptr);
      StartShard(i);
    }
  }

  void StartShard(size_t i) {
    ServerOptions options;
    options.unix_socket_path = socket_paths_[i];
    options.num_workers = 2;
    options.shard_id = static_cast<int>(i);
    options.shard_count = static_cast<int>(shard_indexes_.size());
    shard_servers_[i] =
        std::make_unique<OracleServer>(shard_indexes_[i].get(), options);
    ASSERT_TRUE(shard_servers_[i]->Start());
  }

  void StopShard(size_t i) {
    shard_servers_[i]->Shutdown();
    shard_servers_[i].reset();
    std::remove(socket_paths_[i].c_str());
  }

  void StartRouter(RouterOptions options = {}) {
    router_socket_ = ::testing::TempDir() + "/ipin_rt_" + tag_ + ".sock";
    options.unix_socket_path = router_socket_;
    options.num_workers = 2;
    if (options.health.probe_interval_ms == 200) {
      options.health.probe_interval_ms = 30;  // fast recovery in tests
    }
    router_ = std::make_unique<RouterServer>(manager_.get(), options);
    ASSERT_TRUE(router_->Start());
  }

  OracleClient RouterClient(int max_attempts = 1) const {
    ClientOptions options;
    options.unix_socket_path = router_socket_;
    options.max_attempts = max_attempts;
    options.backoff_initial_ms = 5;
    return OracleClient(options);
  }

  // Spins until the router's health tracker reports `shard` in `state` (the
  // prober runs on its own clock), failing the test after ~3s.
  void WaitForShardState(size_t shard, ShardState state) {
    for (int spin = 0; spin < 300; ++spin) {
      const auto snapshot = router_->ShardHealth();
      if (shard < snapshot.size() && snapshot[shard] == state) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "shard " << shard << " never reached state "
           << ShardStateName(state);
  }

  std::string tag_;
  std::shared_ptr<const IrsApprox> full_;
  std::shared_ptr<const ShardMap> map_;
  std::unique_ptr<ShardMapManager> manager_;
  std::vector<std::string> socket_paths_;
  std::vector<std::unique_ptr<IndexManager>> shard_indexes_;
  std::vector<std::unique_ptr<OracleServer>> shard_servers_;
  std::string router_socket_;
  std::unique_ptr<RouterServer> router_;
};

// Acceptance criterion #1: with all shards healthy the routed answer is
// bit-identical to the single-process answer, for N in {2, 3, 5}.
TEST_F(RouterTest, MergedEstimateMatchesSingleProcessExactly) {
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {1, 2, 3}, {5, 10, 15, 20, 25, 30}, {59}, {7, 7}};
  for (const size_t num_shards : {2u, 3u, 5u}) {
    StartShards(num_shards);
    StartRouter();
    OracleClient client = RouterClient();
    for (const auto& seeds : seed_sets) {
      const auto response = client.Query(seeds, QueryMode::kSketch);
      ASSERT_TRUE(response.has_value())
          << num_shards << " shards, " << seeds.size() << " seeds";
      EXPECT_EQ(response->status, StatusCode::kOk);
      EXPECT_FALSE(response->degraded);
      EXPECT_EQ(response->shards_answered, response->shards_total);
      EXPECT_GT(response->shards_total, 0);
      EXPECT_DOUBLE_EQ(response->coverage, 1.0);
      EXPECT_DOUBLE_EQ(response->estimate, full_->EstimateUnionSize(seeds))
          << num_shards << " shards, " << seeds.size() << " seeds";
    }
    router_->Shutdown();
    router_.reset();
    for (size_t i = 0; i < num_shards; ++i) StopShard(i);
  }
}

TEST_F(RouterTest, WantRanksReturnsTheMergedUnionVector) {
  StartShards(3);
  StartRouter();
  OracleClient client = RouterClient();
  Request request;
  request.method = Method::kQuery;
  request.seeds = {1, 2, 3, 40, 50};
  request.mode = QueryMode::kSketch;
  request.want_ranks = true;
  std::string error;
  const auto response = client.Call(request, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->status, StatusCode::kOk);
  ASSERT_EQ(response->ranks.size(),
            size_t{1} << full_->options().precision);
  EXPECT_DOUBLE_EQ(EstimateFromRanks(response->ranks), response->estimate);
  EXPECT_DOUBLE_EQ(response->estimate,
                   full_->EstimateUnionSize(request.seeds));
}

TEST_F(RouterTest, TopkMergeMatchesSingleProcessOrder) {
  StartShards(3);
  StartRouter();

  // Ground truth straight off the full index: nodes with sketches, ranked
  // by estimate descending, ties by node id ascending.
  std::vector<std::pair<NodeId, double>> expected;
  const SketchArena& arena = *full_->arena();
  for (NodeId u = 0; u < full_->num_nodes(); ++u) {
    if (arena.has_node(u)) expected.emplace_back(u, arena.EstimateNode(u));
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  constexpr size_t kK = 7;
  ASSERT_GE(expected.size(), kK);
  expected.resize(kK);

  OracleClient client = RouterClient();
  Request request;
  request.method = Method::kTopk;
  request.k = kK;
  std::string error;
  const auto response = client.Call(request, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_FALSE(response->degraded);
  ASSERT_EQ(response->topk.size(), kK);
  for (size_t i = 0; i < kK; ++i) {
    EXPECT_EQ(response->topk[i].first, expected[i].first) << "rank " << i;
    EXPECT_DOUBLE_EQ(response->topk[i].second, expected[i].second)
        << "rank " << i;
  }
}

TEST_F(RouterTest, EmptySeedSetIsRejectedLikeASingleServer) {
  // The wire protocol rejects "query without seeds" at parse time; the
  // router presents the same contract as a single ipin_oracled.
  StartShards(2);
  StartRouter();
  OracleClient client = RouterClient();
  const auto response = client.Query({}, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kBadRequest);
}

TEST_F(RouterTest, OutOfRangeSeedPropagatesBadRequest) {
  StartShards(3);
  StartRouter();
  OracleClient client = RouterClient();
  const auto response =
      client.Query({static_cast<NodeId>(kNumNodes + 100)},
                   QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kBadRequest);
}

TEST_F(RouterTest, ExactModeIsServedBySketchMergeAndMarkedDegraded) {
  StartShards(2);
  StartRouter();
  OracleClient client = RouterClient();
  const std::vector<NodeId> seeds = {1, 2, 3};
  const auto response = client.Query(seeds, QueryMode::kExact);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  // The router always merges on the sketch path; an explicit exact ask is
  // answered but flagged.
  EXPECT_TRUE(response->degraded);
  EXPECT_DOUBLE_EQ(response->estimate, full_->EstimateUnionSize(seeds));
}

// Acceptance criterion #2: one shard down -> every answer that needed it is
// a degraded partial with shards_answered = N-1; the router never errors
// while at least one shard can answer.
TEST_F(RouterTest, DeadShardYieldsDegradedPartialsNeverErrors) {
  StartShards(3);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  StartRouter(options);
  StopShard(1);

  OracleClient client = RouterClient();
  // Seeds spanning every shard, so shard 1's subset is always missing.
  std::vector<NodeId> seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) seeds.push_back(u);
  const auto parts = map_->PartitionSeeds(seeds);
  ASSERT_FALSE(parts[1].empty()) << "test graph must give shard 1 seeds";

  for (int i = 0; i < 5; ++i) {
    const auto response = client.Query(seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk) << "iteration " << i;
    EXPECT_TRUE(response->degraded);
    EXPECT_EQ(response->shards_total, 3);
    EXPECT_EQ(response->shards_answered, 2);
    EXPECT_LT(response->coverage, 1.0);
    EXPECT_GT(response->coverage, 0.0);
    // Conservative bound: missing seeds only lose rank mass.
    EXPECT_LE(response->estimate, full_->EstimateUnionSize(seeds));
  }

  // Seeds owned entirely by live shards still answer exactly, undegraded.
  std::vector<NodeId> live_seeds;
  for (const NodeId u : parts[0]) live_seeds.push_back(u);
  ASSERT_FALSE(live_seeds.empty());
  const auto response = client.Query(live_seeds, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_FALSE(response->degraded);
  EXPECT_DOUBLE_EQ(response->estimate,
                   full_->EstimateUnionSize(live_seeds));
}

TEST_F(RouterTest, AllShardsDownAnswersUnavailableWithRetryHint) {
  StartShards(2);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  StartRouter(options);
  StopShard(0);
  StopShard(1);

  OracleClient client = RouterClient();
  const auto response = client.Query({1, 2, 3}, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kUnavailable);
  EXPECT_GT(response->retry_after_ms, 0);
}

// Acceptance criterion #3: the circuit opens after down_after consecutive
// failures and the prober closes it again once the backend is back.
TEST_F(RouterTest, CircuitOpensOnFailuresAndProbeRecovers) {
  StartShards(3);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  options.health.suspect_after = 1;
  options.health.down_after = 2;
  options.health.probe_interval_ms = 30;
  StartRouter(options);

  StopShard(2);
  OracleClient client = RouterClient();
  std::vector<NodeId> seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) seeds.push_back(u);
  // Each query fans a leg to shard 2 and fails it; two failures open the
  // circuit.
  for (int i = 0; i < 3; ++i) {
    const auto response = client.Query(seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk);
    EXPECT_TRUE(response->degraded);
  }
  WaitForShardState(2, ShardState::kDown);

  // With the circuit open the router answers fast partials (the dead leg is
  // skipped, not dialed); liveness is unaffected.
  const auto during = client.Query(seeds, QueryMode::kSketch);
  ASSERT_TRUE(during.has_value());
  EXPECT_EQ(during->status, StatusCode::kOk);
  EXPECT_TRUE(during->degraded);
  EXPECT_EQ(during->shards_answered, 2);

  // Restart the backend: the prober should close the circuit on its own,
  // with no query traffic needed.
  StartShard(2);
  WaitForShardState(2, ShardState::kHealthy);

  const auto after = client.Query(seeds, QueryMode::kSketch);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, StatusCode::kOk);
  EXPECT_FALSE(after->degraded);
  EXPECT_EQ(after->shards_answered, 3);
  EXPECT_DOUBLE_EQ(after->estimate, full_->EstimateUnionSize(seeds));
}

TEST_F(RouterTest, HealthVerbReflectsMapAndStatsCountShards) {
  StartShards(2);
  StartRouter();
  OracleClient client = RouterClient();

  Request health;
  health.method = Method::kHealth;
  std::string error;
  const auto health_response = client.Call(health, &error);
  ASSERT_TRUE(health_response.has_value()) << error;
  EXPECT_EQ(health_response->status, StatusCode::kOk);
  EXPECT_EQ(health_response->epoch, 1u);

  ASSERT_TRUE(client.Query({1, 2}).has_value());  // build the fleet
  Request stats;
  stats.method = Method::kStats;
  const auto stats_response = client.Call(stats, &error);
  ASSERT_TRUE(stats_response.has_value()) << error;
  EXPECT_EQ(stats_response->status, StatusCode::kOk);
  double shards_total = -1.0;
  double shards_healthy = -1.0;
  for (const auto& [name, value] : stats_response->info) {
    if (name == "shards_total") shards_total = value;
    if (name == "shards_healthy") shards_healthy = value;
  }
  EXPECT_DOUBLE_EQ(shards_total, 2.0);
  EXPECT_DOUBLE_EQ(shards_healthy, 2.0);
}

TEST_F(RouterTest, ShardMapReloadRollsBackOnCorruptFile) {
  // A file-backed manager this time, so the reload verb has a file to read.
  const std::string map_path =
      ::testing::TempDir() + "/ipin_rt_" + tag_ + "_map.json";
  StartShards(2);
  {
    std::ofstream out(map_path, std::ios::trunc);
    out << map_->ToJson() << '\n';
  }
  manager_ = std::make_unique<ShardMapManager>(map_path);
  ASSERT_EQ(manager_->Reload(), ReloadStatus::kOk);
  StartRouter();

  OracleClient client = RouterClient();
  const auto before = client.Query({1, 2, 3}, QueryMode::kSketch);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->status, StatusCode::kOk);

  {
    std::ofstream out(map_path, std::ios::trunc);
    out << "corrupt {{{" << '\n';
  }
  Request reload;
  reload.method = Method::kReload;
  std::string error;
  const auto reload_response = client.Call(reload, &error);
  ASSERT_TRUE(reload_response.has_value()) << error;
  EXPECT_EQ(reload_response->status, StatusCode::kOk);
  double rolled_back = -1.0;
  for (const auto& [name, value] : reload_response->info) {
    if (name == "rolled_back") rolled_back = value;
  }
  EXPECT_DOUBLE_EQ(rolled_back, 1.0);
  EXPECT_EQ(reload_response->epoch, 1u) << "old epoch keeps routing";

  // And the old map still answers exactly.
  const std::vector<NodeId> seeds = {1, 2, 3};
  const auto after = client.Query(seeds, QueryMode::kSketch);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, StatusCode::kOk);
  EXPECT_DOUBLE_EQ(after->estimate, full_->EstimateUnionSize(seeds));
  std::remove(map_path.c_str());
}

TEST_F(RouterTest, MergeFailpointAnswersInternal) {
  StartShards(2);
  StartRouter();
  OracleClient client = RouterClient();
  failpoint::Set("serve.shard.merge", "error");
  const auto response = client.Query({1, 2, 3}, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kInternal);
  failpoint::Clear("serve.shard.merge");
  const auto recovered = client.Query({1, 2, 3}, QueryMode::kSketch);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->status, StatusCode::kOk);
}

// The failpoint satellite: serve.shard.rpc=error_prob(p) under a fixed
// IPIN_FAILPOINT_SEED yields a deterministic fault schedule — re-arming with
// the same seed replays the exact same sequence of statuses.
TEST_F(RouterTest, RpcFailpointScheduleReplaysFromSeed) {
  StartShards(2);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  // The circuit must never open during the run: an open circuit skips legs
  // without drawing from the failpoint PRNG, which would couple the
  // schedule to probe timing.
  options.health.suspect_after = 1000000;
  options.health.down_after = 1000000;
  StartRouter(options);

  setenv("IPIN_FAILPOINT_SEED", "424242", 1);
  const auto run_once = [&] {
    // Re-arming resets the failpoint PRNG to the seeded start.
    failpoint::Set("serve.shard.rpc", "error_prob(0.5)");
    OracleClient client = RouterClient();
    // Single-seed queries: exactly one leg, hence exactly one PRNG draw per
    // query — the schedule maps 1:1 onto the status sequence.
    std::string statuses;
    for (int i = 0; i < 40; ++i) {
      const auto response =
          client.Query({static_cast<NodeId>(i % kNumNodes)},
                       QueryMode::kSketch);
      if (!response.has_value()) {
        statuses += '?';
      } else if (response->status == StatusCode::kOk) {
        statuses += response->degraded ? 'd' : 'o';
      } else {
        statuses += 'u';
      }
    }
    failpoint::Clear("serve.shard.rpc");
    return statuses;
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second) << "same seed must replay the same schedule";
  // The schedule injected faults and let successes through (p=0.5 over 40
  // draws makes an all-one-way run vanishingly unlikely).
  EXPECT_NE(first.find('u'), std::string::npos);
  EXPECT_NE(first.find('o'), std::string::npos);
  unsetenv("IPIN_FAILPOINT_SEED");
}

TEST_F(RouterTest, LegRecordsLandInFlightRecorderWithShardTag) {
  StartShards(2);
  StartRouter();
  OracleClient client = RouterClient();
  ASSERT_TRUE(client.Query({1, 2, 3, 40, 50}).has_value());

  // One overall record (shard=-1) plus one record per answering leg, all
  // sharing the request's trace id.
  const auto records = router_->flight_recorder().RecentSnapshot();
  ASSERT_FALSE(records.empty());
  bool saw_overall = false;
  bool saw_leg = false;
  for (const auto& record : records) {
    if (record.shard < 0) saw_overall = true;
    if (record.shard >= 0) {
      saw_leg = true;
      EXPECT_LT(record.shard, 2);
    }
  }
  EXPECT_TRUE(saw_overall);
  EXPECT_TRUE(saw_leg);
  EXPECT_NE(router_->DebugDump().find("\"shard\""), std::string::npos);
}

// --- Live resharding: double-dispatch, replica failover, fleet swaps ------

// The zero-downtime tentpole, in-process: growing the fleet with a
// transition block keeps every answer bit-identical to the single index
// even while the new shards' backends DO NOT EXIST YET — moved seeds fall
// back to their old owners.
TEST_F(RouterTest, DoubleDispatchKeepsAnswersExactDuringReshard) {
  StartShards(2);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  options.health.suspect_after = 1;
  options.health.down_after = 2;
  options.health.probe_interval_ms = 30;
  StartRouter(options);
  OracleClient client = RouterClient();

  std::vector<ShardInfo> grown_infos(3);
  for (size_t i = 0; i < 2; ++i) {
    grown_infos[i].name = "shard" + std::to_string(i);
    grown_infos[i].endpoint.unix_socket_path = socket_paths_[i];
  }
  grown_infos[2].name = "shard2";
  grown_infos[2].endpoint.unix_socket_path = ShardSocket(2);
  auto grown = std::make_shared<ShardMap>(grown_infos);
  grown->BeginTransition(map_);
  std::vector<NodeId> all_seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) all_seeds.push_back(u);
  ASSERT_FALSE(grown->PartitionSeeds(all_seeds)[2].empty())
      << "the grown map must move some seeds to shard2";
  manager_->Install(grown);

  // Every instant of the transition answers exactly, repeatedly (the
  // health tracker is meanwhile marking the absent shard2 down — neither
  // state may cost coverage).
  for (int i = 0; i < 5; ++i) {
    const auto response = client.Query(all_seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk) << "iteration " << i;
    EXPECT_FALSE(response->degraded) << "iteration " << i;
    EXPECT_DOUBLE_EQ(response->coverage, 1.0);
    EXPECT_DOUBLE_EQ(response->estimate,
                     full_->EstimateUnionSize(all_seeds));
  }

  // Topk merges across BOTH epochs' fleets and dedupes moved nodes.
  Request topk;
  topk.method = Method::kTopk;
  topk.k = 5;
  std::string error;
  const auto topk_response = client.Call(topk, &error);
  ASSERT_TRUE(topk_response.has_value()) << error;
  EXPECT_EQ(topk_response->status, StatusCode::kOk);
  EXPECT_FALSE(topk_response->degraded);
  ASSERT_EQ(topk_response->topk.size(), 5u);

  // The admin verb reports the transition.
  Request status;
  status.method = Method::kReshardStatus;
  const auto mid = client.Call(status, &error);
  ASSERT_TRUE(mid.has_value()) << error;
  double in_transition = -1.0, shards = -1.0, prev_shards = -1.0;
  for (const auto& [name, value] : mid->info) {
    if (name == "in_transition") in_transition = value;
    if (name == "shards") shards = value;
    if (name == "prev_shards") prev_shards = value;
  }
  EXPECT_DOUBLE_EQ(in_transition, 1.0);
  EXPECT_DOUBLE_EQ(shards, 3.0);
  EXPECT_DOUBLE_EQ(prev_shards, 2.0);

  // Materialize shard2, finalize the map: still exact, transition gone.
  socket_paths_.push_back(grown_infos[2].endpoint.unix_socket_path);
  auto index = std::make_unique<IndexManager>("");
  index->Install(std::make_shared<const IrsApprox>(
      ExtractShardIndex(*full_, *grown, 2)));
  shard_indexes_.push_back(std::move(index));
  shard_servers_.push_back(nullptr);
  StartShard(2);
  manager_->Install(std::make_shared<const ShardMap>(grown_infos));

  const auto after = client.Query(all_seeds, QueryMode::kSketch);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, StatusCode::kOk);
  EXPECT_FALSE(after->degraded);
  EXPECT_DOUBLE_EQ(after->estimate, full_->EstimateUnionSize(all_seeds));
  const auto done = client.Call(status, &error);
  ASSERT_TRUE(done.has_value()) << error;
  for (const auto& [name, value] : done->info) {
    if (name == "in_transition") {
      EXPECT_DOUBLE_EQ(value, 0.0);
    }
    if (name == "shards") {
      EXPECT_DOUBLE_EQ(value, 3.0);
    }
    if (name == "prev_shards") {
      EXPECT_DOUBLE_EQ(value, 0.0);
    }
  }
}

// Replica failover end to end: a replica backend keeps the shard's answers
// exact through the primary's death, and the primary takes traffic back
// once probes see it healthy.
TEST_F(RouterTest, ReplicaFailoverKeepsShardAnswersExact) {
  StartShards(2);
  std::vector<ShardInfo> infos(2);
  for (size_t i = 0; i < 2; ++i) {
    infos[i].name = "shard" + std::to_string(i);
    infos[i].endpoint.unix_socket_path = socket_paths_[i];
  }
  const std::string replica_socket = ShardSocket(9);
  infos[0].replicas.push_back(
      ShardEndpoint{.unix_socket_path = replica_socket});
  auto with_replica = std::make_shared<const ShardMap>(infos);
  manager_->Install(with_replica);

  // The replica serves the SAME shard-0 slice on its own socket.
  ServerOptions replica_options;
  replica_options.unix_socket_path = replica_socket;
  replica_options.num_workers = 2;
  OracleServer replica_server(shard_indexes_[0].get(), replica_options);
  ASSERT_TRUE(replica_server.Start());

  RouterOptions options;
  options.connect_timeout_ms = 100;
  options.health.suspect_after = 1;
  options.health.down_after = 2;
  options.health.probe_interval_ms = 30;
  StartRouter(options);
  OracleClient client = RouterClient();

  std::vector<NodeId> all_seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) all_seeds.push_back(u);
  const auto shard0_seeds = with_replica->PartitionSeeds(all_seeds)[0];
  ASSERT_FALSE(shard0_seeds.empty());
  const double truth = full_->EstimateUnionSize(shard0_seeds);

  const auto before = client.Query(shard0_seeds, QueryMode::kSketch);
  ASSERT_TRUE(before.has_value());
  ASSERT_DOUBLE_EQ(before->estimate, truth);

  // Kill the primary. Failover is promotion, not hedging: once the health
  // tracker moves the active endpoint, EVERY leg dials the replica, so
  // answers return to exact and stay there.
  StopShard(0);
  bool promoted = false;
  int unavailable = 0;
  for (int spin = 0; spin < 300; ++spin) {
    const auto response = client.Query(shard0_seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    // Until down_after consecutive failures open the primary's circuit the
    // shard0-only request has zero answering legs — UNAVAILABLE, by the
    // partial-result contract. Promotion must then end the outage; nothing
    // other than that brief window may surface.
    if (response->status == StatusCode::kUnavailable) {
      ++unavailable;
      EXPECT_FALSE(promoted) << "no outage after the replica took over";
    } else {
      ASSERT_EQ(response->status, StatusCode::kOk);
      if (!response->degraded && response->estimate == truth) {
        promoted = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(promoted) << "replica was never promoted";
  // The detection window is bounded by the circuit threshold: one failed
  // query per remaining allowed failure, not a lingering outage.
  EXPECT_LE(unavailable, options.health.down_after);

  // Restart the primary: probes demote the replica; exactness holds across
  // the switch-back.
  StartShard(0);
  for (int i = 0; i < 20; ++i) {
    const auto response = client.Query(shard0_seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk);
    if (!response->degraded) {
      EXPECT_DOUBLE_EQ(response->estimate, truth);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  replica_server.Shutdown();
  std::remove(replica_socket.c_str());
}

// Satellite: probe recovery racing a reshard install. A shard dies, the
// circuit opens, and WHILE it is down the map is swapped for a transition
// map (fleet replacement). The new fleet's prober must still recover the
// restarted shard, and the transition must hold coverage at 1 throughout.
TEST_F(RouterTest, ProbeRecoveryRacesReshardInstall) {
  StartShards(3);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  options.health.suspect_after = 1;
  options.health.down_after = 2;
  options.health.probe_interval_ms = 30;
  StartRouter(options);
  OracleClient client = RouterClient();

  std::vector<NodeId> all_seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) all_seeds.push_back(u);
  StopShard(1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Query(all_seeds, QueryMode::kSketch).has_value());
  }
  WaitForShardState(1, ShardState::kDown);

  // Mid-outage fleet replacement: grow 3 -> 4 with shard3 backendless.
  std::vector<ShardInfo> grown_infos(4);
  for (size_t i = 0; i < 3; ++i) {
    grown_infos[i].name = "shard" + std::to_string(i);
    grown_infos[i].endpoint.unix_socket_path = socket_paths_[i];
  }
  grown_infos[3].name = "shard3";
  grown_infos[3].endpoint.unix_socket_path = ShardSocket(3);
  auto grown = std::make_shared<ShardMap>(grown_infos);
  grown->BeginTransition(map_);
  manager_->Install(grown);

  // Restart the dead shard: the REPLACED fleet's probes (its health state
  // started fresh) must pick it up, and with the fallback legs covering
  // shard3 the answer converges back to exact.
  StartShard(1);
  bool recovered = false;
  for (int spin = 0; spin < 300; ++spin) {
    const auto response = client.Query(all_seeds, QueryMode::kSketch);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk);
    if (!response->degraded &&
        response->estimate == full_->EstimateUnionSize(all_seeds)) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered)
      << "reshard install while a shard was down broke probe recovery";
}

// Satellite: a fleet replacement resets the circuit breaker. A down shard
// whose backend is already back answers the FIRST query after the map swap
// — the new fleet must not inherit the open circuit and wait for a probe.
TEST_F(RouterTest, FleetReplacementResetsTheCircuitBreaker) {
  StartShards(2);
  RouterOptions options;
  options.connect_timeout_ms = 100;
  options.health.suspect_after = 1;
  options.health.down_after = 2;
  options.health.probe_interval_ms = 60000;  // probes can't help here
  StartRouter(options);
  OracleClient client = RouterClient();

  std::vector<NodeId> all_seeds;
  for (NodeId u = 0; u < kNumNodes; ++u) all_seeds.push_back(u);
  StopShard(1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Query(all_seeds, QueryMode::kSketch).has_value());
  }
  WaitForShardState(1, ShardState::kDown);
  StartShard(1);

  // With the probe interval effectively infinite, only the fleet swap can
  // close the circuit.
  manager_->Install(std::make_shared<const ShardMap>(*map_));
  const auto response = client.Query(all_seeds, QueryMode::kSketch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_FALSE(response->degraded);
  EXPECT_DOUBLE_EQ(response->estimate, full_->EstimateUnionSize(all_seeds));
}

}  // namespace
}  // namespace ipin::serve
