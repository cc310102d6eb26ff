#include "ipin/serve/health.h"

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/logging.h"

namespace ipin::serve {
namespace {

ShardHealthOptions FastProbeOptions(int suspect_after, int down_after,
                                    int64_t probe_interval_ms = 20) {
  ShardHealthOptions options;
  options.suspect_after = suspect_after;
  options.down_after = down_after;
  options.probe_interval_ms = probe_interval_ms;
  return options;
}

// `shards` shards with a primary endpoint each.
std::vector<size_t> PrimaryOnly(size_t shards) {
  return std::vector<size_t>(shards, 1);
}

class ShardHealthTest : public ::testing::Test {
 protected:
  void SetUp() override { SetLogLevel(LogLevel::kError); }
};

TEST_F(ShardHealthTest, StartsHealthyAndAllowsTraffic) {
  ShardHealthTracker tracker(PrimaryOnly(3), FastProbeOptions(1, 3));
  size_t endpoint = 0;
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(tracker.state(s), ShardState::kHealthy);
    EXPECT_TRUE(tracker.AllowRequest(s));
    EXPECT_FALSE(tracker.ProbeDueEndpoint(s, &endpoint))
        << "healthy shards are not probed";
  }
  EXPECT_EQ(tracker.DownCount(), 0u);
}

TEST_F(ShardHealthTest, FailuresEscalateHealthySuspectDown) {
  ShardHealthTracker tracker(PrimaryOnly(1), FastProbeOptions(2, 4));
  tracker.OnEndpointFailure(0, 0);
  EXPECT_EQ(tracker.state(0), ShardState::kHealthy);
  tracker.OnEndpointFailure(0, 0);
  // suspect_after=2 consecutive failures: suspect, but traffic still flows
  // (one flaky RPC must not black-hole a shard's seeds).
  EXPECT_EQ(tracker.state(0), ShardState::kSuspect);
  EXPECT_TRUE(tracker.AllowRequest(0));
  tracker.OnEndpointFailure(0, 0);
  EXPECT_EQ(tracker.state(0), ShardState::kSuspect);
  tracker.OnEndpointFailure(0, 0);
  // down_after=4: circuit opens.
  EXPECT_EQ(tracker.state(0), ShardState::kDown);
  EXPECT_FALSE(tracker.AllowRequest(0));
  EXPECT_EQ(tracker.consecutive_failures(0), 4);
  EXPECT_EQ(tracker.DownCount(), 1u);
}

TEST_F(ShardHealthTest, SuccessResetsFromSuspect) {
  ShardHealthTracker tracker(PrimaryOnly(1), FastProbeOptions(1, 3));
  tracker.OnEndpointFailure(0, 0);
  EXPECT_EQ(tracker.state(0), ShardState::kSuspect);
  tracker.OnEndpointSuccess(0, 0);
  EXPECT_EQ(tracker.state(0), ShardState::kHealthy);
  EXPECT_EQ(tracker.consecutive_failures(0), 0);
  // The streak restarts: it again takes down_after consecutive failures to
  // open the circuit.
  tracker.OnEndpointFailure(0, 0);
  tracker.OnEndpointFailure(0, 0);
  EXPECT_EQ(tracker.state(0), ShardState::kSuspect);
}

TEST_F(ShardHealthTest, DownShardIsProbedAndRecovers) {
  ShardHealthTracker tracker(PrimaryOnly(2),
                             FastProbeOptions(1, 2, /*probe_interval_ms=*/30));
  size_t endpoint = 0;
  tracker.OnEndpointFailure(1, 0);
  tracker.OnEndpointFailure(1, 0);
  ASSERT_EQ(tracker.state(1), ShardState::kDown);

  // The first probe slot is available immediately...
  EXPECT_TRUE(tracker.ProbeDueEndpoint(1, &endpoint));
  // ...and claimed: a second prober asking right away is rate-limited.
  EXPECT_FALSE(tracker.ProbeDueEndpoint(1, &endpoint));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(tracker.ProbeDueEndpoint(1, &endpoint));

  // A successful probe recovers the shard completely.
  tracker.OnEndpointSuccess(1, 0);
  EXPECT_EQ(tracker.state(1), ShardState::kHealthy);
  EXPECT_TRUE(tracker.AllowRequest(1));
  EXPECT_FALSE(tracker.ProbeDueEndpoint(1, &endpoint));
  EXPECT_EQ(tracker.DownCount(), 0u);
  // The untouched shard never left healthy.
  EXPECT_EQ(tracker.state(0), ShardState::kHealthy);
}

TEST_F(ShardHealthTest, FailedProbeKeepsShardDown) {
  ShardHealthTracker tracker(PrimaryOnly(1), FastProbeOptions(1, 1, 10));
  size_t endpoint = 0;
  tracker.OnEndpointFailure(0, 0);
  ASSERT_EQ(tracker.state(0), ShardState::kDown);
  ASSERT_TRUE(tracker.ProbeDueEndpoint(0, &endpoint));
  tracker.OnEndpointFailure(0, 0);  // the probe itself failed
  EXPECT_EQ(tracker.state(0), ShardState::kDown);
  EXPECT_FALSE(tracker.AllowRequest(0));
}

TEST_F(ShardHealthTest, SnapshotReportsPerShardStates) {
  ShardHealthTracker tracker(PrimaryOnly(3), FastProbeOptions(1, 2));
  tracker.OnEndpointFailure(1, 0);
  tracker.OnEndpointFailure(2, 0);
  tracker.OnEndpointFailure(2, 0);
  const auto snapshot = tracker.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0], ShardState::kHealthy);
  EXPECT_EQ(snapshot[1], ShardState::kSuspect);
  EXPECT_EQ(snapshot[2], ShardState::kDown);
  EXPECT_STREQ(ShardStateName(snapshot[0]), "healthy");
  EXPECT_STREQ(ShardStateName(snapshot[1]), "suspect");
  EXPECT_STREQ(ShardStateName(snapshot[2]), "down");
}

TEST_F(ShardHealthTest, OptionsAreClampedToSaneValues) {
  ShardHealthOptions bogus;
  bogus.suspect_after = 0;
  bogus.down_after = -5;
  bogus.probe_interval_ms = 0;
  ShardHealthTracker tracker(PrimaryOnly(1), bogus);
  EXPECT_GE(tracker.options().suspect_after, 1);
  EXPECT_GE(tracker.options().down_after, tracker.options().suspect_after);
  EXPECT_GE(tracker.options().probe_interval_ms, 1);
  // One failure must now take the shard down (both thresholds clamp to 1).
  tracker.OnEndpointFailure(0, 0);
  EXPECT_EQ(tracker.state(0), ShardState::kDown);
}

// --- Replica failover: the per-endpoint state machine ---------------------

TEST_F(ShardHealthTest, PrimaryDownPromotesTheFirstLiveReplica) {
  // Shard 0 has a primary + two replicas; shard 1 is primary-only.
  ShardHealthTracker tracker({3, 1}, FastProbeOptions(1, 2));
  EXPECT_EQ(tracker.NumEndpoints(0), 3u);
  EXPECT_EQ(tracker.ActiveEndpoint(0), 0u);

  tracker.OnEndpointFailure(0, 0);  // the primary
  tracker.OnEndpointFailure(0, 0);
  // The primary's circuit opened; traffic moves to replica 1 and the shard
  // as a whole keeps accepting requests.
  EXPECT_EQ(tracker.endpoint_state(0, 0), ShardState::kDown);
  EXPECT_EQ(tracker.ActiveEndpoint(0), 1u);
  EXPECT_TRUE(tracker.AllowRequest(0));
  EXPECT_EQ(tracker.state(0), ShardState::kHealthy) << "active endpoint";
  EXPECT_EQ(tracker.DownCount(), 0u);

  // The replica failing too moves traffic to replica 2...
  tracker.OnEndpointFailure(0, 1);
  tracker.OnEndpointFailure(0, 1);
  EXPECT_EQ(tracker.ActiveEndpoint(0), 2u);
  EXPECT_TRUE(tracker.AllowRequest(0));
  // ...and only when EVERY endpoint is down does the circuit open.
  tracker.OnEndpointFailure(0, 2);
  tracker.OnEndpointFailure(0, 2);
  EXPECT_FALSE(tracker.AllowRequest(0));
  EXPECT_EQ(tracker.DownCount(), 1u);
}

TEST_F(ShardHealthTest, PrimaryRecoveryDemotesTheReplica) {
  ShardHealthTracker tracker(std::vector<size_t>{2}, FastProbeOptions(1, 2, 10));
  tracker.OnEndpointFailure(0, 0);
  tracker.OnEndpointFailure(0, 0);
  ASSERT_EQ(tracker.ActiveEndpoint(0), 1u);

  // The prober offers the PRIMARY first so demotion happens the moment it
  // heals.
  size_t endpoint = 99;
  ASSERT_TRUE(tracker.ProbeDueEndpoint(0, &endpoint));
  EXPECT_EQ(endpoint, 0u);
  tracker.OnEndpointSuccess(0, 0);
  EXPECT_EQ(tracker.endpoint_state(0, 0), ShardState::kHealthy);
  EXPECT_EQ(tracker.ActiveEndpoint(0), 0u) << "traffic returns home";
}

TEST_F(ShardHealthTest, ReplicaRecoveryDoesNotStealTraffic) {
  ShardHealthTracker tracker(std::vector<size_t>{2}, FastProbeOptions(1, 1, 10));
  // Kill the replica while the primary serves: nothing should move.
  tracker.OnEndpointFailure(0, 1);
  ASSERT_EQ(tracker.endpoint_state(0, 1), ShardState::kDown);
  EXPECT_EQ(tracker.ActiveEndpoint(0), 0u);

  // The down replica is probe-eligible; its recovery restores its circuit
  // but the primary keeps the traffic.
  size_t endpoint = 99;
  ASSERT_TRUE(tracker.ProbeDueEndpoint(0, &endpoint));
  EXPECT_EQ(endpoint, 1u);
  tracker.OnEndpointSuccess(0, 1);
  EXPECT_EQ(tracker.endpoint_state(0, 1), ShardState::kHealthy);
  EXPECT_EQ(tracker.ActiveEndpoint(0), 0u);
}

TEST_F(ShardHealthTest, FailoverStateSurvivesProbeRateLimiting) {
  // With primary AND replica down, probe slots alternate per endpoint and
  // are individually rate-limited — the pattern the router's prober relies
  // on during a reshard (it probes both epochs' fleets on one clock).
  ShardHealthTracker tracker(std::vector<size_t>{2}, FastProbeOptions(1, 1, 30));
  tracker.OnEndpointFailure(0, 0);
  tracker.OnEndpointFailure(0, 1);
  ASSERT_FALSE(tracker.AllowRequest(0));

  size_t first = 99;
  size_t second = 99;
  size_t endpoint = 0;
  ASSERT_TRUE(tracker.ProbeDueEndpoint(0, &first));
  ASSERT_TRUE(tracker.ProbeDueEndpoint(0, &second));
  EXPECT_NE(first, second) << "both down endpoints get a probe slot";
  EXPECT_FALSE(tracker.ProbeDueEndpoint(0, &endpoint))
      << "then the interval gates";
  std::this_thread::sleep_for(std::chrono::milliseconds(45));
  EXPECT_TRUE(tracker.ProbeDueEndpoint(0, &endpoint));
}

}  // namespace
}  // namespace ipin::serve
