#include "ipin/graph/interaction_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ipin/common/check.h"
#include "ipin/common/memory.h"
#include "ipin/common/string_util.h"

namespace ipin {

InteractionGraph::InteractionGraph(size_t num_nodes,
                                   std::vector<Interaction> interactions)
    : num_nodes_(num_nodes), interactions_(std::move(interactions)) {
  for (const Interaction& e : interactions_) {
    const size_t needed = static_cast<size_t>(std::max(e.src, e.dst)) + 1;
    if (needed > num_nodes_) num_nodes_ = needed;
  }
  sorted_ = std::is_sorted(
      interactions_.begin(), interactions_.end(),
      [](const Interaction& a, const Interaction& b) { return a.time < b.time; });
}

void InteractionGraph::AddInteraction(NodeId src, NodeId dst, Timestamp time) {
  IPIN_CHECK_NE(src, kInvalidNode);
  IPIN_CHECK_NE(dst, kInvalidNode);
  if (sorted_ && !interactions_.empty() && time < interactions_.back().time) {
    sorted_ = false;
  }
  interactions_.push_back(Interaction{src, dst, time});
  const size_t needed = static_cast<size_t>(std::max(src, dst)) + 1;
  if (needed > num_nodes_) num_nodes_ = needed;
}

void InteractionGraph::SortByTime() {
  std::stable_sort(interactions_.begin(), interactions_.end(),
                   [](const Interaction& a, const Interaction& b) {
                     return a.time < b.time;
                   });
  sorted_ = true;
}

bool InteractionGraph::HasDistinctTimestamps() const {
  IPIN_CHECK(sorted_);
  for (size_t i = 1; i < interactions_.size(); ++i) {
    if (interactions_[i].time == interactions_[i - 1].time) return false;
  }
  return true;
}

void InteractionGraph::RankTimestamps() {
  IPIN_CHECK(sorted_);
  for (size_t i = 0; i < interactions_.size(); ++i) {
    interactions_[i].time = static_cast<Timestamp>(i);
  }
}

InteractionGraphStats InteractionGraph::ComputeStats() const {
  InteractionGraphStats stats;
  stats.num_nodes = num_nodes_;
  stats.num_interactions = interactions_.size();
  if (interactions_.empty()) return stats;

  Timestamp min_t = interactions_.front().time;
  Timestamp max_t = interactions_.front().time;
  for (const Interaction& e : interactions_) {
    min_t = std::min(min_t, e.time);
    max_t = std::max(max_t, e.time);
  }
  stats.min_time = min_t;
  stats.max_time = max_t;
  stats.time_span = max_t - min_t + 1;

  std::vector<uint64_t> pairs;
  pairs.reserve(interactions_.size());
  for (const Interaction& e : interactions_) {
    pairs.push_back((static_cast<uint64_t>(e.src) << 32) | e.dst);
  }
  std::sort(pairs.begin(), pairs.end());
  stats.num_static_edges =
      static_cast<size_t>(std::unique(pairs.begin(), pairs.end()) -
                          pairs.begin());
  return stats;
}

Duration InteractionGraph::WindowFromPercent(double percent) const {
  IPIN_CHECK_GE(percent, 0.0);
  if (interactions_.empty()) return 1;
  Timestamp min_t = interactions_.front().time;
  Timestamp max_t = interactions_.front().time;
  for (const Interaction& e : interactions_) {
    min_t = std::min(min_t, e.time);
    max_t = std::max(max_t, e.time);
  }
  // The span max_t - min_t + 1 reaches 2^64, past every i64: take the
  // difference unsigned, and cap a window beyond INT64_MAX at it.
  const double span =
      static_cast<double>(static_cast<uint64_t>(max_t) -
                          static_cast<uint64_t>(min_t)) +
      1.0;
  const double w = span * percent / 100.0;
  if (w >= 0x1p63) return std::numeric_limits<Duration>::max();
  return std::max<Duration>(static_cast<Duration>(std::llround(w)), 1);
}

size_t InteractionGraph::MemoryUsageBytes() const {
  return VectorBytes(interactions_);
}

std::string InteractionGraph::DebugString() const {
  return StrFormat("InteractionGraph(n=%zu, m=%zu, sorted=%d)", num_nodes_,
                   interactions_.size(), sorted_ ? 1 : 0);
}

}  // namespace ipin
