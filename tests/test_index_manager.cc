#include "ipin/serve/index_manager.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/core/oracle_io.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/obs/metrics.h"
#include "ipin/serve/shard_map.h"

// The epoch-swapped holder behind both daemons. The typed suite runs every
// holder case over both payloads — the oracle's index (IndexManager) and
// the router's shard map (ShardMapManager) — since the two differ only in
// their loader and names; the index-only cases follow it.

namespace ipin::serve {
namespace {

IrsApprox BuildSmallIndex(uint64_t seed = 3) {
  const InteractionGraph graph =
      GenerateUniformRandomNetwork(40, 400, 1000, seed);
  IrsApproxOptions options;
  options.precision = 5;
  return IrsApprox::Compute(graph, 200, options);
}

// Each payload: its manager, the names it reports under, distinct values
// by seed, a fingerprint that tells them apart, and how to write a value
// to the file and damage it there.
struct IndexPayload {
  using Manager = IndexManager;
  static constexpr const char* kFailpoint = "serve.reload";
  static constexpr const char* kRollbackCounter = "serve.reload.rollback";

  static std::shared_ptr<const IrsApprox> Make(uint64_t seed) {
    return std::make_shared<const IrsApprox>(BuildSmallIndex(seed));
  }
  // Node count, sketch entries and the estimate over every node: equal
  // for an index and its saved-and-reloaded copy, distinct across seeds.
  static std::string Fingerprint(const IrsApprox& index) {
    std::vector<NodeId> all(index.num_nodes());
    for (size_t u = 0; u < all.size(); ++u) all[u] = static_cast<NodeId>(u);
    return std::to_string(index.num_nodes()) + "/" +
           std::to_string(index.TotalSketchEntries()) + "/" +
           std::to_string(index.EstimateUnionSize(all));
  }
  static bool Write(const IrsApprox& index, const std::string& path) {
    return SaveInfluenceIndex(index, path);
  }
  // Flips bytes in the middle: the CRC frames catch it and the loader
  // reports damage instead of kOk.
  static void Corrupt(const std::string& path) {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    ASSERT_GT(size, 64);
    file.seekp(size / 2);
    const char junk[16] = {'\x5a', '\x5a', '\x5a', '\x5a'};
    file.write(junk, sizeof(junk));
  }
};

struct ShardMapPayload {
  using Manager = ShardMapManager;
  static constexpr const char* kFailpoint = "serve.shard.map";
  static constexpr const char* kRollbackCounter = "serve.shard.map.rollback";

  // seed + 1 shards, so values of different seeds differ.
  static std::shared_ptr<const ShardMap> Make(uint64_t seed) {
    std::vector<ShardInfo> shards(seed + 1);
    for (size_t i = 0; i < shards.size(); ++i) {
      shards[i].name = "shard" + std::to_string(i);
      shards[i].endpoint.unix_socket_path =
          "/tmp/ipin-shard" + std::to_string(i) + ".sock";
    }
    return std::make_shared<const ShardMap>(std::move(shards));
  }
  static std::string Fingerprint(const ShardMap& map) { return map.ToJson(); }
  static bool Write(const ShardMap& map, const std::string& path) {
    return WriteFileAtomic(path, map.ToJson() + "\n");
  }
  static void Corrupt(const std::string& path) {
    ASSERT_TRUE(WriteFileAtomic(
        path, "{\"schema\": \"ipin.shardmap.v1\", \"shards\": garbage\n"));
  }
};

template <typename Payload>
class EpochHolderTest : public ::testing::Test {
 protected:
  using Manager = typename Payload::Manager;

  void SetUp() override {
    path_ = ::testing::TempDir() + "/ipin_serve_holder_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    SetLogLevel(LogLevel::kError);
  }
  void TearDown() override {
    failpoint::ClearAll();
    std::remove(path_.c_str());
  }

  void WriteFile(uint64_t seed) const {
    ASSERT_TRUE(Payload::Write(*Payload::Make(seed), path_));
  }

  // The manager serves exactly what WriteFile(seed) wrote, not merely some
  // freshly allocated value.
  static void ExpectServes(const Manager& manager, uint64_t seed) {
    const auto current = manager.Current();
    ASSERT_NE(current, nullptr);
    EXPECT_EQ(Payload::Fingerprint(*current),
              Payload::Fingerprint(*Payload::Make(seed)));
  }

  // The rollback counter compiles out under IPIN_OBS_DISABLED; the
  // rollback behaviour itself is asserted in every build.
  static uint64_t Rollbacks() {
#ifndef IPIN_OBS_DISABLED
    return obs::MetricsRegistry::Global()
        .GetCounter(Payload::kRollbackCounter)
        ->Value();
#else
    return 0;
#endif
  }
  static uint64_t Counted(uint64_t n) {
#ifndef IPIN_OBS_DISABLED
    return n;
#else
    (void)n;
    return 0;
#endif
  }

  std::string path_;
};

using Payloads = ::testing::Types<IndexPayload, ShardMapPayload>;
class PayloadNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, IndexPayload> ? "Index" : "ShardMap";
  }
};
TYPED_TEST_SUITE(EpochHolderTest, Payloads, PayloadNames);

TYPED_TEST(EpochHolderTest, FingerprintsTellSeedsApart) {
  EXPECT_NE(TypeParam::Fingerprint(*TypeParam::Make(1)),
            TypeParam::Fingerprint(*TypeParam::Make(2)));
}

TYPED_TEST(EpochHolderTest, InstallAdvancesEpoch) {
  typename TestFixture::Manager manager("");
  EXPECT_EQ(manager.Epoch(), 0u);
  EXPECT_EQ(manager.Current(), nullptr);

  manager.Install(TypeParam::Make(1));
  EXPECT_EQ(manager.Epoch(), 1u);
  ASSERT_NE(manager.Current(), nullptr);

  const auto second = TypeParam::Make(2);
  manager.Install(second);
  EXPECT_EQ(manager.Epoch(), 2u);
  EXPECT_EQ(manager.Current(), second);
}

TYPED_TEST(EpochHolderTest, ReloadWithoutPathIsNoChange) {
  typename TestFixture::Manager manager("");
  EXPECT_EQ(manager.Reload(), ReloadStatus::kNoChange);
  EXPECT_EQ(manager.Epoch(), 0u);
}

TYPED_TEST(EpochHolderTest, ReloadLoadsValidFileAndAdvancesEpoch) {
  typename TestFixture::Manager manager(this->path_);
  this->WriteFile(1);
  EXPECT_EQ(manager.Reload(), ReloadStatus::kOk);
  EXPECT_EQ(manager.Epoch(), 1u);
  this->ExpectServes(manager, 1);

  this->WriteFile(2);
  EXPECT_EQ(manager.Reload(), ReloadStatus::kOk);
  EXPECT_EQ(manager.Epoch(), 2u);
  this->ExpectServes(manager, 2);
}

TYPED_TEST(EpochHolderTest, MissingFileRollsBack) {
  typename TestFixture::Manager manager(this->path_);  // never written
  EXPECT_EQ(manager.Reload(), ReloadStatus::kRolledBack);
  EXPECT_EQ(manager.Epoch(), 0u);
  EXPECT_EQ(manager.Current(), nullptr);
}

TYPED_TEST(EpochHolderTest, CorruptReloadKeepsOldValueServing) {
  typename TestFixture::Manager manager(this->path_);
  this->WriteFile(1);
  ASSERT_EQ(manager.Reload(), ReloadStatus::kOk);
  const auto before = manager.Current();

  const uint64_t rollbacks = this->Rollbacks();
  TypeParam::Corrupt(this->path_);
  EXPECT_EQ(manager.Reload(), ReloadStatus::kRolledBack);
  EXPECT_EQ(manager.Epoch(), 1u);            // epoch did not advance
  EXPECT_EQ(manager.Current(), before);      // same object serving
  EXPECT_EQ(this->Rollbacks(), rollbacks + this->Counted(1));
}

TYPED_TEST(EpochHolderTest, InjectedReloadFailureRollsBack) {
  typename TestFixture::Manager manager(this->path_);
  this->WriteFile(1);
  ASSERT_EQ(manager.Reload(), ReloadStatus::kOk);
  const auto before = manager.Current();

  ASSERT_TRUE(failpoint::Set(TypeParam::kFailpoint, "error"));
  this->WriteFile(2);
  EXPECT_EQ(manager.Reload(), ReloadStatus::kRolledBack);
  EXPECT_EQ(manager.Epoch(), 1u);
  EXPECT_EQ(manager.Current(), before);
  this->ExpectServes(manager, 1);

  failpoint::Clear(TypeParam::kFailpoint);
  EXPECT_EQ(manager.Reload(), ReloadStatus::kOk);
  EXPECT_EQ(manager.Epoch(), 2u);
  this->ExpectServes(manager, 2);
}

TYPED_TEST(EpochHolderTest, UnforcedReloadSkipsUnchangedFile) {
  typename TestFixture::Manager manager(this->path_);
  this->WriteFile(1);
  ASSERT_EQ(manager.Reload(/*force=*/false), ReloadStatus::kOk);
  EXPECT_EQ(manager.Reload(/*force=*/false), ReloadStatus::kNoChange);
  EXPECT_EQ(manager.Epoch(), 1u);
  EXPECT_EQ(manager.Reload(/*force=*/true), ReloadStatus::kOk);
  EXPECT_EQ(manager.Epoch(), 2u);
  // Each save renames a new file into place: a new stamp.
  this->WriteFile(1);
  EXPECT_EQ(manager.Reload(/*force=*/false), ReloadStatus::kOk);
  EXPECT_EQ(manager.Epoch(), 3u);
}

TYPED_TEST(EpochHolderTest, RejectedFileNotRetriedUntilItChanges) {
  this->WriteFile(1);
  TypeParam::Corrupt(this->path_);
  typename TestFixture::Manager manager(this->path_);
  EXPECT_EQ(manager.Reload(/*force=*/false), ReloadStatus::kRolledBack);
  // Same bad bytes: the stamp check stops the poll from re-reading a file
  // it already rejected.
  EXPECT_EQ(manager.Reload(/*force=*/false), ReloadStatus::kNoChange);
}

TYPED_TEST(EpochHolderTest, RepeatedCorruptReloadsKeepOldEpochThenRecover) {
  typename TestFixture::Manager manager(this->path_);
  this->WriteFile(1);
  ASSERT_EQ(manager.Reload(), ReloadStatus::kOk);
  const auto before = manager.Current();

  // A stuck-bad artifact: every reload attempt sees the same corrupt file.
  // N consecutive rollbacks must each be counted, and none of them may
  // unpin the good epoch-1 value.
  const uint64_t rollbacks = this->Rollbacks();
  TypeParam::Corrupt(this->path_);
  constexpr int kAttempts = 5;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    // Forced reloads bypass the stamp check, so every attempt reaches the
    // loader and must roll back.
    EXPECT_EQ(manager.Reload(), ReloadStatus::kRolledBack);
    EXPECT_EQ(manager.Epoch(), 1u);
    EXPECT_EQ(manager.Current(), before);
    EXPECT_EQ(this->Rollbacks(), rollbacks + this->Counted(attempt + 1));
  }

  // A good artifact lands: the very next reload recovers and swaps epochs.
  this->WriteFile(2);
  EXPECT_EQ(manager.Reload(), ReloadStatus::kOk);
  EXPECT_EQ(manager.Epoch(), 2u);
  this->ExpectServes(manager, 2);
  EXPECT_EQ(this->Rollbacks(), rollbacks + this->Counted(kAttempts));
}

// --- The index's own cases ------------------------------------------------

class IndexManagerTest : public EpochHolderTest<IndexPayload> {};

TEST_F(IndexManagerTest, ReloadLoadsVerifiedFile) {
  WriteFile(3);
  IndexManager manager(path_);
  EXPECT_EQ(manager.Reload(), ReloadStatus::kOk);
  ASSERT_NE(manager.Current(), nullptr);
  EXPECT_EQ(manager.Current()->num_nodes(), 40u);
}

TEST_F(IndexManagerTest, QueriesKeepFlowingDuringSlowReload) {
  WriteFile(3);
  IndexManager manager(path_);
  ASSERT_EQ(manager.Reload(), ReloadStatus::kOk);
  const auto serving = manager.Current();
  const std::vector<NodeId> seeds = {1, 2, 3};
  const double expected = serving->EstimateUnionSize(seeds);

  // A 200 ms reload in the background; queries must neither block on it nor
  // see a half-swapped index.
  ASSERT_TRUE(failpoint::Set("serve.reload", "delay(200)"));
  std::thread reloader([&manager] {
    EXPECT_EQ(manager.Reload(), ReloadStatus::kOk);
  });

  std::atomic<int> queries{0};
  for (int i = 0; i < 50; ++i) {
    const auto snapshot = manager.Current();
    ASSERT_NE(snapshot, nullptr);
    EXPECT_DOUBLE_EQ(snapshot->EstimateUnionSize(seeds), expected);
    ++queries;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reloader.join();
  EXPECT_EQ(queries.load(), 50);
  EXPECT_EQ(manager.Epoch(), 2u);
}

TEST_F(IndexManagerTest, ExactMapInstallAndUnload) {
  IndexManager manager("");
  EXPECT_EQ(manager.Exact(), nullptr);
  const InteractionGraph graph =
      GenerateUniformRandomNetwork(40, 400, 1000, 3);
  manager.SetExact(
      std::make_shared<const IrsExact>(IrsExact::Compute(graph, 200)));
  ASSERT_NE(manager.Exact(), nullptr);
  manager.UnloadExact();
  EXPECT_EQ(manager.Exact(), nullptr);
}

}  // namespace
}  // namespace ipin::serve
