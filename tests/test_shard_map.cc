#include "ipin/serve/shard_map.h"

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/logging.h"
#include "ipin/core/irs_approx.h"
#include "ipin/datasets/synthetic.h"
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
  const ShardMap map(shards, 32);

  std::string error;
  const auto reparsed = ShardMap::Parse(map.ToJson(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->num_shards(), 3u);
  EXPECT_EQ(reparsed->virtual_points(), 32);
  EXPECT_EQ(reparsed->shard(1).endpoint.tcp_port, 7101);
  EXPECT_EQ(reparsed->shard(0).endpoint.unix_socket_path,
            "/tmp/ipin-shard0.sock");
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

  // The fields of the removed failover and live-reshard tier, and a ring
  // over the cap: each is rejected, promptly, with an error that names it.
  // The over-cap map is 20,000 shards at 4,096 points: 82 M ring points,
  // which must not be built.
  const std::string shard = R"({"name":"a","unix_socket":"/tmp/a.sock",)";
  std::string over_cap =
      R"({"schema":"ipin.shardmap.v1","virtual_points":4096,"shards":[)";
  for (int i = 0; i < 20000; ++i) {
    if (i > 0) over_cap += ",";
    over_cap += R"({"name":"s)" + std::to_string(i) +
                R"(","unix_socket":"/tmp/s)" + std::to_string(i) +
                R"(.sock"})";
  }
  over_cap += "]}";
  const struct {
    std::string json;
    std::string want_error;
  } rows[] = {
      {R"({"schema":"ipin.shardmap.v2","shards":[)" + shard +
           R"("replicas":[{"unix_socket":"/tmp/r.sock"}]}]})",
       "\"replicas\""},
      {R"({"schema":"ipin.shardmap.v1","shards":[)" + shard +
           R"("mirror_unix_socket":"/tmp/m.sock"}]})",
       "\"mirror_unix_socket\""},
      {R"({"schema":"ipin.shardmap.v2","shards":[)" + shard +
           R"("index_file":"a.bin"}],"transition":{"shards":[)" + shard +
           R"("index_file":"a.bin"}]}})",
       "\"transition\""},
      {over_cap, "ring cap"},
  };
  for (const auto& row : rows) {
    error.clear();
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(ShardMap::Parse(row.json, &error).has_value())
        << row.want_error;
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1))
        << row.want_error;
    EXPECT_NE(error.find(row.want_error), std::string::npos) << error;
  }
}

// The constructor leaves a map over the ring cap empty, as it does an
// invalid shard list, instead of building the ring.
TEST(ShardMapTest, ConstructorLeavesAnOverCapMapEmpty) {
  SetLogLevel(LogLevel::kError);
  const size_t at_cap = kMaxRingPoints / 4096;
  EXPECT_EQ(ShardMap(MakeShards(at_cap + 1), 4096).num_shards(), 0u);
  EXPECT_EQ(ShardMap(MakeShards(at_cap), 4096).num_shards(), at_cap);
}

// --- v2 index-file bindings, and growth ---------------------------------

TEST(ShardMapV2Test, SchemaTagTracksTheFeatureSet) {
  // A plain map keeps the v1 tag; an index-file binding upgrades the tag.
  EXPECT_NE(ShardMap(MakeShards(2)).ToJson().find("ipin.shardmap.v1"),
            std::string::npos);
  std::vector<ShardInfo> shards = MakeShards(2);
  shards[0].index_file = "shard0.bin";
  EXPECT_NE(ShardMap(shards).ToJson().find("ipin.shardmap.v2"),
            std::string::npos);
}

TEST(ShardMapV2Test, RoundTripPreservesIndexBindings) {
  std::vector<ShardInfo> shards = MakeShards(3);
  shards[0].endpoint = ShardEndpoint{};
  shards[0].endpoint.tcp_host = "10.0.0.9";
  shards[0].endpoint.tcp_port = 7109;
  shards[1].index_file = "shard1.bin";
  shards[1].fingerprint = "crc32c:0badf00d";
  const ShardMap map(shards);

  std::string error;
  const auto reparsed = ShardMap::Parse(map.ToJson(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->shard(0).endpoint.tcp_host, "10.0.0.9");
  EXPECT_EQ(reparsed->shard(0).endpoint.tcp_port, 7109);
  EXPECT_EQ(reparsed->shard(1).index_file, "shard1.bin");
  EXPECT_EQ(reparsed->shard(1).fingerprint, "crc32c:0badf00d");
  // Serialization is stable: a second round trip is byte-identical.
  EXPECT_EQ(reparsed->ToJson(), map.ToJson());
  for (NodeId u = 0; u < 5000; ++u) {
    ASSERT_EQ(map.OwnerOf(u), reparsed->OwnerOf(u));
  }
}

// Consistent hashing's growth invariant: when shards are only ADDED (old
// names keep their ring points), the nodes whose owner changes between the
// two maps are exactly the nodes the new shards own.
TEST(ShardMapV2Test, GrowthMovesExactlyTheNewShardsOwnership) {
  std::vector<ShardInfo> grown = MakeShards(4);
  for (size_t i = 4; i < 6; ++i) {
    ShardInfo info;
    info.name = "grown" + std::to_string(i);
    info.endpoint.unix_socket_path =
        "/tmp/ipin-grown" + std::to_string(i) + ".sock";
    grown.push_back(info);
  }
  const ShardMap map(grown);
  const ShardMap previous(MakeShards(4));

  size_t moved = 0;
  for (NodeId u = 0; u < 20000; ++u) {
    const bool owned_by_new = map.OwnerOf(u) >= 4;
    const bool owner_moved = map.shard(map.OwnerOf(u)).name !=
                             previous.shard(previous.OwnerOf(u)).name;
    EXPECT_EQ(owner_moved, owned_by_new) << "node " << u;
    if (owned_by_new) ++moved;
  }
  // ~2/6 of the space should move; anything between a sliver and half
  // passes, a full rehash (~5/6) cannot.
  EXPECT_GT(moved, 2000u);
  EXPECT_LT(moved, 10000u);
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

}  // namespace
}  // namespace ipin::serve
