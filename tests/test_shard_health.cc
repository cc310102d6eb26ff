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

class ShardHealthTest : public ::testing::Test {
 protected:
  void SetUp() override { SetLogLevel(LogLevel::kError); }
};

TEST_F(ShardHealthTest, StartsHealthyAndAllowsTraffic) {
  ShardHealthTracker tracker(3, FastProbeOptions(1, 3));
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(tracker.state(s), ShardState::kHealthy);
    EXPECT_TRUE(tracker.AllowRequest(s));
    EXPECT_FALSE(tracker.ProbeDue(s))
        << "healthy shards are not probed";
  }
  EXPECT_EQ(tracker.DownCount(), 0u);
}

TEST_F(ShardHealthTest, FailuresEscalateHealthySuspectDown) {
  ShardHealthTracker tracker(1, FastProbeOptions(2, 4));
  tracker.OnFailure(0);
  EXPECT_EQ(tracker.state(0), ShardState::kHealthy);
  tracker.OnFailure(0);
  // suspect_after=2 consecutive failures: suspect, but traffic still flows
  // (one flaky RPC must not black-hole a shard's seeds).
  EXPECT_EQ(tracker.state(0), ShardState::kSuspect);
  EXPECT_TRUE(tracker.AllowRequest(0));
  tracker.OnFailure(0);
  EXPECT_EQ(tracker.state(0), ShardState::kSuspect);
  tracker.OnFailure(0);
  // down_after=4: circuit opens.
  EXPECT_EQ(tracker.state(0), ShardState::kDown);
  EXPECT_FALSE(tracker.AllowRequest(0));
  EXPECT_EQ(tracker.consecutive_failures(0), 4);
  EXPECT_EQ(tracker.DownCount(), 1u);
}

TEST_F(ShardHealthTest, SuccessResetsFromSuspect) {
  ShardHealthTracker tracker(1, FastProbeOptions(1, 3));
  tracker.OnFailure(0);
  EXPECT_EQ(tracker.state(0), ShardState::kSuspect);
  tracker.OnSuccess(0);
  EXPECT_EQ(tracker.state(0), ShardState::kHealthy);
  EXPECT_EQ(tracker.consecutive_failures(0), 0);
  // The streak restarts: it again takes down_after consecutive failures to
  // open the circuit.
  tracker.OnFailure(0);
  tracker.OnFailure(0);
  EXPECT_EQ(tracker.state(0), ShardState::kSuspect);
}

TEST_F(ShardHealthTest, DownShardIsProbedAndRecovers) {
  ShardHealthTracker tracker(2,
                             FastProbeOptions(1, 2, /*probe_interval_ms=*/30));
  tracker.OnFailure(1);
  tracker.OnFailure(1);
  ASSERT_EQ(tracker.state(1), ShardState::kDown);

  // The first probe slot is available immediately...
  EXPECT_TRUE(tracker.ProbeDue(1));
  // ...and claimed: a second prober asking right away is rate-limited.
  EXPECT_FALSE(tracker.ProbeDue(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(tracker.ProbeDue(1));

  // A successful probe recovers the shard completely.
  tracker.OnSuccess(1);
  EXPECT_EQ(tracker.state(1), ShardState::kHealthy);
  EXPECT_TRUE(tracker.AllowRequest(1));
  EXPECT_FALSE(tracker.ProbeDue(1));
  EXPECT_EQ(tracker.DownCount(), 0u);
  // The untouched shard never left healthy.
  EXPECT_EQ(tracker.state(0), ShardState::kHealthy);
}

TEST_F(ShardHealthTest, FailedProbeKeepsShardDown) {
  ShardHealthTracker tracker(1, FastProbeOptions(1, 1, 10));
  tracker.OnFailure(0);
  ASSERT_EQ(tracker.state(0), ShardState::kDown);
  ASSERT_TRUE(tracker.ProbeDue(0));
  tracker.OnFailure(0);  // the probe itself failed
  EXPECT_EQ(tracker.state(0), ShardState::kDown);
  EXPECT_FALSE(tracker.AllowRequest(0));
}

TEST_F(ShardHealthTest, SnapshotReportsPerShardStates) {
  ShardHealthTracker tracker(3, FastProbeOptions(1, 2));
  tracker.OnFailure(1);
  tracker.OnFailure(2);
  tracker.OnFailure(2);
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
  ShardHealthTracker tracker(1, bogus);
  EXPECT_GE(tracker.options().suspect_after, 1);
  EXPECT_GE(tracker.options().down_after, tracker.options().suspect_after);
  EXPECT_GE(tracker.options().probe_interval_ms, 1);
  // One failure must now take the shard down (both thresholds clamp to 1).
  tracker.OnFailure(0);
  EXPECT_EQ(tracker.state(0), ShardState::kDown);
}

}  // namespace
}  // namespace ipin::serve
