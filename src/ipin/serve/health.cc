#include "ipin/serve/health.h"

#include <algorithm>

#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/metrics.h"

namespace ipin::serve {
namespace {

ShardHealthOptions ClampOptions(ShardHealthOptions options) {
  options.suspect_after = std::max(1, options.suspect_after);
  options.down_after = std::max(options.suspect_after, options.down_after);
  options.probe_interval_ms = std::max<int64_t>(1, options.probe_interval_ms);
  return options;
}

}  // namespace

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kSuspect:
      return "suspect";
    case ShardState::kDown:
      return "down";
  }
  return "down";
}

ShardHealthTracker::ShardHealthTracker(size_t num_shards,
                                       ShardHealthOptions options)
    : options_(ClampOptions(options)), shards_(num_shards) {}

bool ShardHealthTracker::AllowRequest(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[shard].state != ShardState::kDown;
}

bool ShardHealthTracker::ProbeDue(size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shards_[shard];
  const Clock::time_point now = Clock::now();
  if (s.state != ShardState::kDown || now < s.next_probe) return false;
  s.next_probe = now + std::chrono::milliseconds(options_.probe_interval_ms);
  return true;
}

void ShardHealthTracker::OnSuccess(size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shards_[shard];
  s.consecutive_failures = 0;
  if (s.state == ShardState::kHealthy) return;
  const bool was_down = s.state == ShardState::kDown;
  s.state = ShardState::kHealthy;
  if (was_down) {
    IPIN_COUNTER_ADD("serve.shard.health.recovered", 1);
    LogInfo(StrFormat("serve: shard %zu recovered (circuit closed)", shard));
    IPIN_GAUGE_SET("serve.shard.down_count",
                   static_cast<double>(DownCountLocked()));
  }
}

void ShardHealthTracker::OnFailure(size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shards_[shard];
  ++s.consecutive_failures;
  if (s.state == ShardState::kHealthy &&
      s.consecutive_failures >= options_.suspect_after) {
    s.state = ShardState::kSuspect;
    IPIN_COUNTER_ADD("serve.shard.health.suspect", 1);
    LogWarning(StrFormat("serve: shard %zu suspect (%d consecutive failures)",
                         shard, s.consecutive_failures));
  }
  if (s.state == ShardState::kSuspect &&
      s.consecutive_failures >= options_.down_after) {
    s.state = ShardState::kDown;
    // First probe is due immediately: a shard that just died during a
    // restart should come back as fast as the prober can notice.
    s.next_probe = Clock::now();
    IPIN_COUNTER_ADD("serve.shard.health.down", 1);
    LogWarning(StrFormat("serve: shard %zu down (circuit open after %d "
                         "consecutive failures)",
                         shard, s.consecutive_failures));
    IPIN_GAUGE_SET("serve.shard.down_count",
                   static_cast<double>(DownCountLocked()));
  }
}

size_t ShardHealthTracker::DownCountLocked() const {
  return static_cast<size_t>(
      std::count_if(shards_.begin(), shards_.end(), [](const Shard& s) {
        return s.state == ShardState::kDown;
      }));
}

ShardState ShardHealthTracker::state(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[shard].state;
}

int ShardHealthTracker::consecutive_failures(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[shard].consecutive_failures;
}

std::vector<ShardState> ShardHealthTracker::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShardState> states;
  states.reserve(shards_.size());
  for (const Shard& s : shards_) states.push_back(s.state);
  return states;
}

size_t ShardHealthTracker::DownCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DownCountLocked();
}

}  // namespace ipin::serve
