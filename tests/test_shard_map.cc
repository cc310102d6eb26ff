#include "ipin/serve/shard_map.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/core/irs_approx.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/obs/metrics.h"
#include "ipin/sketch/estimators.h"

namespace ipin::serve {
namespace {

std::vector<ShardInfo> MakeShards(size_t n) {
  std::vector<ShardInfo> shards(n);
  for (size_t i = 0; i < n; ++i) {
    shards[i].name = "shard" + std::to_string(i);
    shards[i].endpoint.unix_socket_path =
        "/tmp/ipin-shard" + std::to_string(i) + ".sock";
  }
  return shards;
}

#ifndef IPIN_OBS_DISABLED
// The rollback counter compiles out under IPIN_OBS_DISABLED; the rollback
// behaviour itself is asserted in every build.
uint64_t RollbackCount() {
  return obs::MetricsRegistry::Global()
      .GetCounter("serve.shard.map.rollback")
      ->Value();
}
#endif

TEST(ShardMapTest, OwnershipIsDeterministicAndCoversEveryNode) {
  const ShardMap a(MakeShards(3));
  const ShardMap b(MakeShards(3));
  ASSERT_EQ(a.num_shards(), 3u);
  std::vector<size_t> owned(3, 0);
  for (NodeId u = 0; u < 10000; ++u) {
    const size_t owner = a.OwnerOf(u);
    ASSERT_LT(owner, 3u);
    // Pure function of the map contents: an identically-built map agrees.
    EXPECT_EQ(owner, b.OwnerOf(u));
    ++owned[owner];
  }
  // Consistent hashing with 64 virtual points per shard balances within a
  // loose factor; mostly this guards against all nodes landing on one shard.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(owned[i], 1000u) << "shard " << i;
  }
}

TEST(ShardMapTest, ResizingMovesOnlyPartOfTheNodeSpace) {
  const ShardMap three(MakeShards(3));
  const ShardMap four(MakeShards(4));
  size_t moved = 0;
  const NodeId num_nodes = 10000;
  for (NodeId u = 0; u < num_nodes; ++u) {
    // Shards 0..2 keep their names in the 4-shard map, so any node that
    // changes owner moved because of shard3's ring points.
    if (three.OwnerOf(u) != four.OwnerOf(u)) ++moved;
  }
  EXPECT_GT(moved, 0u);
  // ~1/4 of the space should move to the new shard; well under half is the
  // robust assertion (a full rehash would move ~3/4).
  EXPECT_LT(moved, num_nodes / 2);
}

TEST(ShardMapTest, PartitionSeedsIsADisjointCoverPreservingDuplicates) {
  const ShardMap map(MakeShards(5));
  const std::vector<NodeId> seeds = {1, 7, 7, 23, 42, 99, 1000, 77};
  const auto parts = map.PartitionSeeds(seeds);
  ASSERT_EQ(parts.size(), 5u);
  size_t total = 0;
  for (size_t s = 0; s < parts.size(); ++s) {
    for (const NodeId u : parts[s]) {
      EXPECT_EQ(map.OwnerOf(u), s);
      ++total;
    }
  }
  EXPECT_EQ(total, seeds.size());
}

TEST(ShardMapTest, JsonRoundTripPreservesOwnership) {
  std::vector<ShardInfo> shards = MakeShards(3);
  shards[1].endpoint = ShardEndpoint{};
  shards[1].endpoint.tcp_port = 7101;
  shards[1].replicas.resize(1);
  shards[1].replicas[0].unix_socket_path = "/tmp/ipin-shard1b.sock";
  const ShardMap map(shards, 32);

  std::string error;
  const auto reparsed = ShardMap::Parse(map.ToJson(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->num_shards(), 3u);
  EXPECT_EQ(reparsed->virtual_points(), 32);
  EXPECT_EQ(reparsed->shard(1).endpoint.tcp_port, 7101);
  ASSERT_EQ(reparsed->shard(1).replicas.size(), 1u);
  EXPECT_EQ(reparsed->shard(1).replicas[0].unix_socket_path,
            "/tmp/ipin-shard1b.sock");
  EXPECT_EQ(reparsed->shard(1).num_endpoints(), 2u);
  EXPECT_TRUE(reparsed->shard(0).replicas.empty());
  for (NodeId u = 0; u < 5000; ++u) {
    ASSERT_EQ(map.OwnerOf(u), reparsed->OwnerOf(u)) << "node " << u;
  }
}

TEST(ShardMapTest, ParseRejectsMalformedMaps) {
  std::string error;
  EXPECT_FALSE(ShardMap::Parse("not json", &error).has_value());
  EXPECT_FALSE(ShardMap::Parse("{}", &error).has_value());
  EXPECT_FALSE(
      ShardMap::Parse(R"({"schema":"wrong.v1","shards":[]})", &error)
          .has_value());
  // Empty shard list.
  EXPECT_FALSE(
      ShardMap::Parse(R"({"schema":"ipin.shardmap.v1","shards":[]})", &error)
          .has_value());
  // Duplicate names.
  EXPECT_FALSE(ShardMap::Parse(
                   R"({"schema":"ipin.shardmap.v1","shards":[)"
                   R"({"name":"a","unix_socket":"/tmp/a.sock"},)"
                   R"({"name":"a","unix_socket":"/tmp/b.sock"}]})",
                   &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  // No endpoint.
  EXPECT_FALSE(ShardMap::Parse(R"({"schema":"ipin.shardmap.v1","shards":[)"
                               R"({"name":"a"}]})",
                               &error)
                   .has_value());
}

// --- v2: replicas, index-file bindings, and the transition block ---------

TEST(ShardMapV2Test, SchemaTagTracksTheFeatureSet) {
  // A plain map keeps the v1 tag so old routers can read it; any v2
  // feature upgrades the tag.
  EXPECT_NE(ShardMap(MakeShards(2)).ToJson().find("ipin.shardmap.v1"),
            std::string::npos);
  std::vector<ShardInfo> shards = MakeShards(2);
  shards[0].replicas.push_back(
      ShardEndpoint{.unix_socket_path = "/tmp/ipin-shard0r.sock"});
  EXPECT_NE(ShardMap(shards).ToJson().find("ipin.shardmap.v2"),
            std::string::npos);
}

TEST(ShardMapV2Test, RoundTripPreservesReplicasBindingsAndTransition) {
  std::vector<ShardInfo> shards = MakeShards(3);
  shards[0].replicas.push_back(
      ShardEndpoint{.unix_socket_path = "/tmp/ipin-shard0r.sock"});
  ShardEndpoint tcp_replica;
  tcp_replica.tcp_host = "10.0.0.9";
  tcp_replica.tcp_port = 7109;
  shards[0].replicas.push_back(tcp_replica);
  shards[1].index_file = "shard1.bin";
  shards[1].fingerprint = "crc32c:0badf00d";
  ShardMap map(shards);
  map.BeginTransition(
      std::make_shared<const ShardMap>(ShardMap(MakeShards(2))));

  std::string error;
  const auto reparsed = ShardMap::Parse(map.ToJson(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  ASSERT_EQ(reparsed->shard(0).replicas.size(), 2u);
  EXPECT_EQ(reparsed->shard(0).replicas[0].unix_socket_path,
            "/tmp/ipin-shard0r.sock");
  EXPECT_EQ(reparsed->shard(0).replicas[1].tcp_host, "10.0.0.9");
  EXPECT_EQ(reparsed->shard(0).replicas[1].tcp_port, 7109);
  EXPECT_EQ(reparsed->shard(1).index_file, "shard1.bin");
  EXPECT_EQ(reparsed->shard(1).fingerprint, "crc32c:0badf00d");
  ASSERT_TRUE(reparsed->InTransition());
  EXPECT_EQ(reparsed->previous()->num_shards(), 2u);
  // Serialization is stable: a second round trip is byte-identical.
  EXPECT_EQ(reparsed->ToJson(), map.ToJson());
  for (NodeId u = 0; u < 5000; ++u) {
    ASSERT_EQ(map.OwnerOf(u), reparsed->OwnerOf(u));
    ASSERT_EQ(map.OwnerMoved(u), reparsed->OwnerMoved(u));
  }
}

// The growth invariant the zero-downtime reshard rests on: when shards are
// only ADDED (old names keep their ring points), the nodes whose owner
// moved are exactly the nodes the new shards own — so an old daemon's
// (superset) piece can answer every old-owner fallback leg.
TEST(ShardMapV2Test, GrowthMovesExactlyTheNewShardsOwnership) {
  std::vector<ShardInfo> grown = MakeShards(4);
  for (size_t i = 4; i < 6; ++i) {
    ShardInfo info;
    info.name = "grown" + std::to_string(i);
    info.endpoint.unix_socket_path =
        "/tmp/ipin-grown" + std::to_string(i) + ".sock";
    grown.push_back(info);
  }
  ShardMap map(grown);
  map.BeginTransition(
      std::make_shared<const ShardMap>(ShardMap(MakeShards(4))));

  size_t moved = 0;
  for (NodeId u = 0; u < 20000; ++u) {
    const bool owned_by_new = map.OwnerOf(u) >= 4;
    EXPECT_EQ(map.OwnerMoved(u), owned_by_new) << "node " << u;
    if (owned_by_new) ++moved;
  }
  // ~2/6 of the space should move; anything between a sliver and half
  // passes, a full rehash (~5/6) cannot.
  EXPECT_GT(moved, 2000u);
  EXPECT_LT(moved, 10000u);
}

TEST(ShardMapV2Test, ClearTransitionEndsDoubleDispatch) {
  ShardMap map(MakeShards(3));
  map.BeginTransition(
      std::make_shared<const ShardMap>(ShardMap(MakeShards(2))));
  ASSERT_TRUE(map.InTransition());
  map.ClearTransition();
  EXPECT_FALSE(map.InTransition());
  EXPECT_EQ(map.previous(), nullptr);
  for (NodeId u = 0; u < 1000; ++u) {
    EXPECT_FALSE(map.OwnerMoved(u));
  }
  // And the serialized form is back to v1.
  EXPECT_NE(map.ToJson().find("ipin.shardmap.v1"), std::string::npos);
}

TEST(ShardMapV2Test, ParseRejectsNestedTransitionsAndBadReplicas) {
  ShardMap inner(MakeShards(2));
  inner.BeginTransition(
      std::make_shared<const ShardMap>(ShardMap(MakeShards(2))));
  ShardMap outer(MakeShards(3));
  outer.BeginTransition(std::make_shared<const ShardMap>(inner));
  std::string error;
  // BeginTransition cannot nest in-memory; splice the nested document in by
  // hand to attack the parser.
  const std::string nested = outer.ToJson();
  ASSERT_EQ(outer.previous()->InTransition(), false)
      << "BeginTransition must strip the nested transition";
  EXPECT_TRUE(ShardMap::Parse(nested, &error).has_value());

  // A hand-spliced nested block (which no tool emits) is rejected outright.
  EXPECT_FALSE(
      ShardMap::Parse(
          R"({"schema":"ipin.shardmap.v2","shards":[)"
          R"({"name":"a","unix_socket":"/tmp/a.sock"}],)"
          R"("transition":{"shards":[)"
          R"({"name":"b","unix_socket":"/tmp/b.sock"}],)"
          R"("transition":{"shards":[)"
          R"({"name":"c","unix_socket":"/tmp/c.sock"}]}}})",
          &error)
          .has_value());

  // A replica without a valid endpoint is rejected.
  EXPECT_FALSE(
      ShardMap::Parse(R"({"schema":"ipin.shardmap.v2","shards":[)"
                      R"({"name":"a","unix_socket":"/tmp/a.sock",)"
                      R"("replicas":[{}]}]})",
                      &error)
          .has_value());
  EXPECT_FALSE(error.empty());
}

// A unix-socket endpoint dials no host, and ToJson writes none, so its
// tcp_host is not part of it: each of these maps names one socket twice,
// and Parse rejects it with its duplicate error (were it accepted, its own
// ToJson would not re-parse).
void ExpectDuplicateSocketRejected(const std::string& json,
                                   const std::string& want_error) {
  std::string error;
  EXPECT_FALSE(ShardMap::Parse(json, &error).has_value());
  EXPECT_NE(error.find(want_error), std::string::npos) << error;
}

TEST(ShardMapV2Test, ReplicaOnThePrimarySocketIsADuplicate) {
  ExpectDuplicateSocketRejected(
      R"({"schema":"ipin.shardmap.v2","shards":[)"
      R"({"name":"a","unix_socket":"/tmp/a.sock","tcp_host":"x",)"
      R"("replicas":[{"unix_socket":"/tmp/a.sock"}]}]})",
      "replica duplicates the primary endpoint");
}

TEST(ShardMapV2Test, V1MirrorOnThePrimarySocketIsADuplicate) {
  ExpectDuplicateSocketRejected(
      R"({"schema":"ipin.shardmap.v1","shards":[)"
      R"({"name":"a","unix_socket":"/tmp/a.sock",)"
      R"("mirror_unix_socket":"/tmp/a.sock","mirror_tcp_host":"y"}]})",
      "replica duplicates the primary endpoint");
}

TEST(ShardMapV2Test, ReplicasOnOneSocketAreDuplicates) {
  ExpectDuplicateSocketRejected(
      R"({"schema":"ipin.shardmap.v2","shards":[)"
      R"({"name":"a","unix_socket":"/tmp/a.sock","replicas":[)"
      R"({"unix_socket":"/tmp/r.sock","tcp_host":"x"},)"
      R"({"unix_socket":"/tmp/r.sock","tcp_host":"y"}]}]})",
      "duplicate replica");
}

TEST(ShardMapV2Test, V1MirrorParsesAsTheNextReplica) {
  // A v1 map's mirror endpoint is one more entry of the ordered endpoint
  // list: replicas[0] when the shard lists none.
  std::string error;
  const auto map = ShardMap::Parse(
      R"({"schema":"ipin.shardmap.v1","shards":[)"
      R"({"name":"a","unix_socket":"/tmp/a.sock",)"
      R"("mirror_unix_socket":"/tmp/a-mirror.sock"},)"
      R"({"name":"b","tcp_port":7101,"mirror_tcp_port":7102}]})",
      &error);
  ASSERT_TRUE(map.has_value()) << error;
  ASSERT_EQ(map->shard(0).replicas.size(), 1u);
  EXPECT_EQ(map->shard(0).replicas[0].unix_socket_path, "/tmp/a-mirror.sock");
  EXPECT_EQ(&map->shard(0).endpoint_at(1), &map->shard(0).replicas[0]);
  ASSERT_EQ(map->shard(1).replicas.size(), 1u);
  EXPECT_EQ(map->shard(1).replicas[0].tcp_port, 7102);
  EXPECT_EQ(map->shard(1).replicas[0].tcp_host, "127.0.0.1");

  // Written back as a replica, under the v2 tag, and stable from there.
  const std::string json = map->ToJson();
  EXPECT_NE(json.find("ipin.shardmap.v2"), std::string::npos) << json;
  EXPECT_EQ(json.find("mirror_"), std::string::npos) << json;
  const auto reparsed = ShardMap::Parse(json, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->ToJson(), json);

  // A mirror follows the listed replicas and obeys the same checks.
  const auto appended = ShardMap::Parse(
      R"({"schema":"ipin.shardmap.v2","shards":[)"
      R"({"name":"a","unix_socket":"/tmp/a.sock",)"
      R"("replicas":[{"unix_socket":"/tmp/a-r.sock"}],)"
      R"("mirror_unix_socket":"/tmp/a-mirror.sock"}]})",
      &error);
  ASSERT_TRUE(appended.has_value()) << error;
  ASSERT_EQ(appended->shard(0).replicas.size(), 2u);
  EXPECT_EQ(appended->shard(0).replicas[1].unix_socket_path,
            "/tmp/a-mirror.sock");
  EXPECT_FALSE(ShardMap::Parse(R"({"schema":"ipin.shardmap.v1","shards":[)"
                               R"({"name":"a","unix_socket":"/tmp/a.sock",)"
                               R"("mirror_unix_socket":"/tmp/a.sock"}]})",
                               &error)
                   .has_value())
      << "a mirror duplicating the primary is rejected";
  std::string full = R"({"schema":"ipin.shardmap.v2","shards":[)"
                     R"({"name":"a","unix_socket":"/tmp/a.sock","replicas":[)";
  for (size_t r = 0; r < kMaxReplicas; ++r) {
    full += (r > 0 ? "," : "") + std::string(R"({"unix_socket":"/tmp/a)") +
            std::to_string(r) + R"(.sock"})";
  }
  full += R"(],"mirror_unix_socket":"/tmp/a-mirror.sock"}]})";
  EXPECT_FALSE(ShardMap::Parse(full, &error).has_value())
      << "a mirror past kMaxReplicas is rejected";
}

class ShardIndexTest : public ::testing::Test {
 protected:
  void SetUp() override { SetLogLevel(LogLevel::kError); }

  static IrsApprox BuildFull() {
    const InteractionGraph graph =
        GenerateUniformRandomNetwork(60, 600, 1000, 7);
    IrsApproxOptions options;
    options.precision = 5;
    return IrsApprox::Compute(graph, 200, options);
  }

  IrsApprox full_ = BuildFull();
};

TEST_F(ShardIndexTest, ExtractKeepsFullNodeSpaceAndOnlyOwnedSketches) {
  const ShardMap map(MakeShards(3));
  for (size_t s = 0; s < map.num_shards(); ++s) {
    const IrsApprox piece = ExtractShardIndex(full_, map, s);
    ASSERT_EQ(piece.num_nodes(), full_.num_nodes());
    for (NodeId u = 0; u < full_.num_nodes(); ++u) {
      if (map.OwnerOf(u) == s && full_.arena()->has_node(u)) {
        ASSERT_TRUE(piece.arena()->has_node(u)) << "owned node " << u;
        EXPECT_DOUBLE_EQ(piece.EstimateIrsSize(u), full_.EstimateIrsSize(u));
      } else {
        EXPECT_FALSE(piece.arena()->has_node(u)) << "unowned node " << u;
      }
    }
  }
}

// The exactness argument of the tentpole, at the library level: cellwise
// max over the per-shard union rank vectors reproduces the full index's
// union estimate bit for bit, for several shard counts.
TEST_F(ShardIndexTest, ShardedRankMergeMatchesFullUnionExactly) {
  const size_t beta = size_t{1} << full_.options().precision;
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {1, 2, 3}, {5, 10, 15, 20, 25, 30}, {59}, {7, 7, 7}};
  for (const size_t num_shards : {2u, 3u, 5u}) {
    const ShardMap map(MakeShards(num_shards));
    std::vector<IrsApprox> pieces;
    for (size_t s = 0; s < num_shards; ++s) {
      pieces.push_back(ExtractShardIndex(full_, map, s));
    }
    for (const auto& seeds : seed_sets) {
      std::vector<uint8_t> merged(beta, 0);
      const auto parts = map.PartitionSeeds(seeds);
      for (size_t s = 0; s < num_shards; ++s) {
        for (const NodeId u : parts[s]) {
          const SketchArena& arena = *pieces[s].arena();
          if (!arena.has_node(u)) continue;
          const auto ranks = arena.rank_row(u);
          for (size_t c = 0; c < beta; ++c) {
            if (ranks[c] > merged[c]) merged[c] = ranks[c];
          }
        }
      }
      EXPECT_DOUBLE_EQ(EstimateFromRanks(merged),
                       full_.EstimateUnionSize(seeds))
          << num_shards << " shards, " << seeds.size() << " seeds";
    }
  }
}

class ShardMapManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::kError);
    path_ = ::testing::TempDir() + "/ipin_shardmap_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".json";
  }
  void TearDown() override {
    failpoint::ClearAll();
    std::remove(path_.c_str());
  }

  void WriteMap(const std::string& content) const {
    std::ofstream out(path_, std::ios::trunc);
    out << content << '\n';
  }

  std::string path_;
};

TEST_F(ShardMapManagerTest, InstallAndReloadAdvanceEpoch) {
  ShardMapManager manager(path_);
  EXPECT_EQ(manager.Epoch(), 0u);
  EXPECT_EQ(manager.Current(), nullptr);

  WriteMap(ShardMap(MakeShards(2)).ToJson());
  EXPECT_EQ(manager.Reload(), ReloadStatus::kOk);
  EXPECT_EQ(manager.Epoch(), 1u);
  ASSERT_NE(manager.Current(), nullptr);
  EXPECT_EQ(manager.Current()->num_shards(), 2u);

  WriteMap(ShardMap(MakeShards(3)).ToJson());
  EXPECT_EQ(manager.Reload(), ReloadStatus::kOk);
  EXPECT_EQ(manager.Epoch(), 2u);
  EXPECT_EQ(manager.Current()->num_shards(), 3u);
}

TEST_F(ShardMapManagerTest, CorruptMapRollsBackAndKeepsServing) {
  ShardMapManager manager(path_);
  WriteMap(ShardMap(MakeShards(2)).ToJson());
  ASSERT_EQ(manager.Reload(), ReloadStatus::kOk);
  const auto before = manager.Current();

#ifndef IPIN_OBS_DISABLED
  const uint64_t rollbacks = RollbackCount();
#endif
  WriteMap("{\"schema\": \"ipin.shardmap.v1\", \"shards\": garbage");
  EXPECT_EQ(manager.Reload(), ReloadStatus::kRolledBack);
  EXPECT_EQ(manager.Epoch(), 1u);
  EXPECT_EQ(manager.Current(), before);
#ifndef IPIN_OBS_DISABLED
  EXPECT_EQ(RollbackCount(), rollbacks + 1);
#endif
}

// The robustness satellite: N consecutive corrupt reloads each roll back,
// each is counted, the old epoch keeps serving throughout, and a good map
// recovers on the first try afterwards.
TEST_F(ShardMapManagerTest, RepeatedCorruptReloadsKeepOldEpochThenRecover) {
  ShardMapManager manager(path_);
  WriteMap(ShardMap(MakeShards(2)).ToJson());
  ASSERT_EQ(manager.Reload(), ReloadStatus::kOk);
  const auto good = manager.Current();

#ifndef IPIN_OBS_DISABLED
  const uint64_t rollbacks = RollbackCount();
#endif
  constexpr int kAttempts = 5;
  for (int i = 0; i < kAttempts; ++i) {
    WriteMap("corrupt attempt " + std::to_string(i));
    EXPECT_EQ(manager.Reload(), ReloadStatus::kRolledBack);
    EXPECT_EQ(manager.Epoch(), 1u);
    EXPECT_EQ(manager.Current(), good);
#ifndef IPIN_OBS_DISABLED
    EXPECT_EQ(RollbackCount(), rollbacks + static_cast<uint64_t>(i) + 1);
#endif
  }

  WriteMap(ShardMap(MakeShards(4)).ToJson());
  EXPECT_EQ(manager.Reload(), ReloadStatus::kOk);
  EXPECT_EQ(manager.Epoch(), 2u);
  EXPECT_EQ(manager.Current()->num_shards(), 4u);
#ifndef IPIN_OBS_DISABLED
  EXPECT_EQ(RollbackCount(), rollbacks + kAttempts);
#endif
}

TEST_F(ShardMapManagerTest, FailpointForcesRollback) {
  ShardMapManager manager(path_);
  WriteMap(ShardMap(MakeShards(2)).ToJson());
  ASSERT_EQ(manager.Reload(), ReloadStatus::kOk);

  failpoint::Set("serve.shard.map", "error");
  WriteMap(ShardMap(MakeShards(3)).ToJson());
  EXPECT_EQ(manager.Reload(), ReloadStatus::kRolledBack);
  EXPECT_EQ(manager.Current()->num_shards(), 2u);

  failpoint::Clear("serve.shard.map");
  EXPECT_EQ(manager.Reload(), ReloadStatus::kOk);
  EXPECT_EQ(manager.Current()->num_shards(), 3u);
}

}  // namespace
}  // namespace ipin::serve
