#include "ipin/graph/temporal_stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "ipin/common/check.h"

namespace ipin {

DistributionSummary SummarizeCounts(std::vector<double> counts) {
  DistributionSummary summary;
  if (counts.empty()) return summary;
  std::sort(counts.begin(), counts.end());
  const size_t n = counts.size();
  double total = 0.0;
  for (const double c : counts) total += c;
  summary.mean = total / static_cast<double>(n);
  summary.median = counts[n / 2];
  summary.p90 = counts[static_cast<size_t>(0.9 * (n - 1))];
  summary.p99 = counts[static_cast<size_t>(0.99 * (n - 1))];
  summary.max = counts.back();
  const size_t top = std::max<size_t>(1, n / 100);
  double top_mass = 0.0;
  for (size_t i = n - top; i < n; ++i) top_mass += counts[i];
  summary.top1_percent_share = total > 0.0 ? top_mass / total : 0.0;
  return summary;
}

TemporalStats ComputeTemporalStats(const InteractionGraph& graph,
                                   Duration reply_horizon) {
  IPIN_CHECK(graph.is_sorted());
  TemporalStats stats;
  stats.num_nodes = graph.num_nodes();
  stats.num_interactions = graph.num_interactions();
  if (graph.empty()) return stats;

  if (reply_horizon <= 0) reply_horizon = graph.WindowFromPercent(1.0);
  stats.reply_horizon = reply_horizon;

  const size_t n = graph.num_nodes();
  std::vector<double> out_count(n, 0.0);
  std::vector<double> in_count(n, 0.0);
  std::vector<std::unordered_set<NodeId>> out_neighbors(n);
  // For reciprocity: has v ever sent to u before time t?
  std::unordered_set<uint64_t> seen_edges;
  seen_edges.reserve(graph.num_interactions() * 2);
  // For reply detection: last time each node received anything.
  std::vector<Timestamp> last_received(n, kNoTimestamp);

  size_t reciprocated = 0;
  size_t replies = 0;
  for (const Interaction& e : graph.interactions()) {
    out_count[e.src] += 1.0;
    in_count[e.dst] += 1.0;
    out_neighbors[e.src].insert(e.dst);

    const uint64_t reverse_key =
        (static_cast<uint64_t>(e.dst) << 32) | e.src;
    if (seen_edges.count(reverse_key) > 0) ++reciprocated;
    seen_edges.insert((static_cast<uint64_t>(e.src) << 32) | e.dst);

    if (last_received[e.src] != kNoTimestamp &&
        e.time - last_received[e.src] <= reply_horizon) {
      ++replies;
    }
    last_received[e.dst] = e.time;
  }
  const double m = static_cast<double>(graph.num_interactions());
  stats.reciprocity = static_cast<double>(reciprocated) / m;
  stats.reply_fraction = static_cast<double>(replies) / m;

  stats.out_activity = SummarizeCounts(out_count);
  stats.in_activity = SummarizeCounts(in_count);
  std::vector<double> degrees(n, 0.0);
  for (size_t u = 0; u < n; ++u) {
    degrees[u] = static_cast<double>(out_neighbors[u].size());
  }
  stats.out_degree = SummarizeCounts(std::move(degrees));

  // Burstiness: coefficient of variation of consecutive inter-event times.
  if (graph.num_interactions() >= 3) {
    double sum = 0.0;
    double sum_sq = 0.0;
    size_t count = 0;
    for (size_t i = 1; i < graph.num_interactions(); ++i) {
      const double gap = static_cast<double>(graph.interaction(i).time -
                                             graph.interaction(i - 1).time);
      sum += gap;
      sum_sq += gap * gap;
      ++count;
    }
    const double mean = sum / static_cast<double>(count);
    const double var = sum_sq / static_cast<double>(count) - mean * mean;
    stats.burstiness_cv = mean > 0.0 ? std::sqrt(std::max(var, 0.0)) / mean
                                     : 0.0;
  }
  return stats;
}

}  // namespace ipin
