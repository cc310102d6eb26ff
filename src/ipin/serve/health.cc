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

ShardHealthTracker::ShardHealthTracker(
    const std::vector<size_t>& endpoints_per_shard, ShardHealthOptions options)
    : options_(ClampOptions(options)), shards_(endpoints_per_shard.size()) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].endpoints.resize(std::max<size_t>(1, endpoints_per_shard[i]));
  }
}

bool ShardHealthTracker::AllDown(const Shard& s) {
  for (const Endpoint& ep : s.endpoints) {
    if (ep.state != ShardState::kDown) return false;
  }
  return true;
}

bool ShardHealthTracker::AllowRequest(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Shard& s = shards_[shard];
  return s.endpoints[s.active].state != ShardState::kDown;
}

size_t ShardHealthTracker::ActiveEndpoint(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[shard].active;
}

size_t ShardHealthTracker::NumEndpoints(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[shard].endpoints.size();
}

bool ShardHealthTracker::ProbeDueEndpoint(size_t shard, size_t* endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shards_[shard];
  const Clock::time_point now = Clock::now();
  // Lowest index first: the primary's recovery is what demotes a promoted
  // replica, so it must never be starved behind replica probes.
  for (size_t e = 0; e < s.endpoints.size(); ++e) {
    Endpoint& ep = s.endpoints[e];
    if (ep.state != ShardState::kDown) continue;
    if (now < ep.next_probe) continue;
    ep.next_probe = now + std::chrono::milliseconds(options_.probe_interval_ms);
    *endpoint = e;
    return true;
  }
  return false;
}

void ShardHealthTracker::OnEndpointSuccess(size_t shard, size_t endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  HandleSuccessLocked(shard, endpoint);
}

void ShardHealthTracker::OnEndpointFailure(size_t shard, size_t endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  HandleFailureLocked(shard, endpoint);
}

void ShardHealthTracker::HandleSuccessLocked(size_t shard, size_t endpoint) {
  Shard& s = shards_[shard];
  if (endpoint >= s.endpoints.size()) return;
  Endpoint& ep = s.endpoints[endpoint];
  ep.consecutive_failures = 0;
  const bool was_down = ep.state == ShardState::kDown;
  if (ep.state != ShardState::kHealthy) {
    ep.state = ShardState::kHealthy;
    if (was_down) {
      IPIN_COUNTER_ADD("serve.shard.health.recovered", 1);
      LogInfo(StrFormat("serve: shard %zu endpoint %zu recovered "
                        "(circuit closed)",
                        shard, endpoint));
      PublishDownCount();
    }
  }
  // Demotion: the healed primary takes traffic back from a promoted
  // replica. A replica healing only becomes active when the current active
  // endpoint is itself down (the shard was dark).
  if (endpoint == 0 && s.active != 0) {
    IPIN_COUNTER_ADD("serve.shard.health.demoted", 1);
    LogInfo(StrFormat("serve: shard %zu primary healed; demoting replica %zu",
                      shard, s.active));
    s.active = 0;
  } else if (s.endpoints[s.active].state == ShardState::kDown) {
    IPIN_COUNTER_ADD("serve.shard.health.promoted", 1);
    LogInfo(StrFormat("serve: shard %zu promoting recovered endpoint %zu",
                      shard, endpoint));
    s.active = endpoint;
  }
}

void ShardHealthTracker::HandleFailureLocked(size_t shard, size_t endpoint) {
  Shard& s = shards_[shard];
  if (endpoint >= s.endpoints.size()) return;
  Endpoint& ep = s.endpoints[endpoint];
  ++ep.consecutive_failures;
  if (ep.state == ShardState::kHealthy &&
      ep.consecutive_failures >= options_.suspect_after) {
    ep.state = ShardState::kSuspect;
    IPIN_COUNTER_ADD("serve.shard.health.suspect", 1);
    LogWarning(StrFormat(
        "serve: shard %zu endpoint %zu suspect (%d consecutive failures)",
        shard, endpoint, ep.consecutive_failures));
  }
  if (ep.state == ShardState::kSuspect &&
      ep.consecutive_failures >= options_.down_after) {
    ep.state = ShardState::kDown;
    // First probe is due immediately: a shard that just died during a
    // restart should come back as fast as the prober can notice.
    ep.next_probe = Clock::now();
    IPIN_COUNTER_ADD("serve.shard.health.down", 1);
    LogWarning(StrFormat("serve: shard %zu endpoint %zu down (circuit open "
                         "after %d consecutive failures)",
                         shard, endpoint, ep.consecutive_failures));
    // Promotion: the active endpoint's circuit just opened — advance to the
    // first endpoint (wrapping) whose circuit is closed, if any.
    if (endpoint == s.active && s.endpoints.size() > 1) {
      for (size_t step = 1; step < s.endpoints.size(); ++step) {
        const size_t candidate = (s.active + step) % s.endpoints.size();
        if (s.endpoints[candidate].state != ShardState::kDown) {
          IPIN_COUNTER_ADD("serve.shard.health.promoted", 1);
          LogWarning(StrFormat(
              "serve: shard %zu promoting endpoint %zu (active %zu is down)",
              shard, candidate, s.active));
          s.active = candidate;
          break;
        }
      }
    }
    PublishDownCount();
  }
}

void ShardHealthTracker::PublishDownCount() const {
  size_t down = 0;
  for (const Shard& s : shards_) {
    if (AllDown(s)) ++down;
  }
  IPIN_GAUGE_SET("serve.shard.down_count", static_cast<double>(down));
}

ShardState ShardHealthTracker::state(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Shard& s = shards_[shard];
  return s.endpoints[s.active].state;
}

ShardState ShardHealthTracker::endpoint_state(size_t shard,
                                              size_t endpoint) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Shard& s = shards_[shard];
  if (endpoint >= s.endpoints.size()) return ShardState::kDown;
  return s.endpoints[endpoint].state;
}

int ShardHealthTracker::consecutive_failures(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Shard& s = shards_[shard];
  return s.endpoints[s.active].consecutive_failures;
}

std::vector<ShardState> ShardHealthTracker::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShardState> states;
  states.reserve(shards_.size());
  for (const Shard& s : shards_) {
    states.push_back(s.endpoints[s.active].state);
  }
  return states;
}

size_t ShardHealthTracker::DownCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t down = 0;
  for (const Shard& s : shards_) {
    if (AllDown(s)) ++down;
  }
  return down;
}

}  // namespace ipin::serve
