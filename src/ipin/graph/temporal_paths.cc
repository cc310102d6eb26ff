#include "ipin/graph/temporal_paths.h"

#include <utility>

#include "ipin/common/check.h"

namespace ipin {

EarliestArrivalResult EarliestArrival(const InteractionGraph& graph,
                                      NodeId source, Timestamp t_start,
                                      Timestamp t_end) {
  IPIN_CHECK(graph.is_sorted());
  IPIN_CHECK_LT(source, graph.num_nodes());
  EarliestArrivalResult result;
  result.arrival.assign(graph.num_nodes(), kNoTimestamp);
  result.arrival[source] = t_start;

  for (const Interaction& e : graph.interactions()) {
    if (e.time > t_end) break;  // sorted: nothing later qualifies
    if (e.time < t_start) continue;
    const Timestamp arr_u = result.arrival[e.src];
    if (arr_u == kNoTimestamp) continue;
    // The source may leave at its start time; transit requires a strictly
    // earlier arrival (strictly increasing path times).
    const bool usable = e.src == source ? e.time >= arr_u : e.time > arr_u;
    if (!usable) continue;
    if (result.arrival[e.dst] == kNoTimestamp) {
      result.arrival[e.dst] = e.time;  // first reach = earliest (sorted scan)
      if (e.dst != source) ++result.num_reachable;
    }
  }
  return result;
}

FastestPathResult FastestPaths(const InteractionGraph& graph, NodeId source) {
  IPIN_CHECK(graph.is_sorted());
  IPIN_CHECK_LT(source, graph.num_nodes());
  FastestPathResult result;
  result.duration.assign(graph.num_nodes(), -1);
  result.duration[source] = 0;  // empty path; self excluded from reachable

  // Pareto frontier per node: (start, arrival) pairs, ascending in both
  // (a kept pair has strictly larger start than every earlier-arrival pair).
  struct Frontier {
    std::vector<std::pair<Timestamp, Timestamp>> pairs;  // (start, arrival)
  };
  std::vector<Frontier> frontier(graph.num_nodes());

  for (const Interaction& e : graph.interactions()) {
    Timestamp best_start = kNoTimestamp;
    if (e.src == source) {
      best_start = e.time;  // a fresh path leaving the source now
    } else {
      // Latest start among paths that arrived strictly before e.time.
      const auto& pairs = frontier[e.src].pairs;
      for (size_t i = pairs.size(); i > 0; --i) {
        if (pairs[i - 1].second < e.time) {
          best_start = pairs[i - 1].first;
          break;
        }
      }
    }
    if (best_start == kNoTimestamp) continue;

    // Record the candidate (best_start, e.time) at the destination.
    std::vector<std::pair<Timestamp, Timestamp>>& pairs =
        frontier[e.dst].pairs;
    const bool dominated =
        !pairs.empty() && pairs.back().first >= best_start;
    if (!dominated) {
      pairs.emplace_back(best_start, e.time);
    }
    if (e.dst != source) {
      const Duration dur = e.time - best_start + 1;
      if (result.duration[e.dst] < 0 || dur < result.duration[e.dst]) {
        if (result.duration[e.dst] < 0) ++result.num_reachable;
        result.duration[e.dst] = dur;
      }
    }
  }
  return result;
}

}  // namespace ipin
