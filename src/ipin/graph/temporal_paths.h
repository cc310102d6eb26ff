#ifndef IPIN_GRAPH_TEMPORAL_PATHS_H_
#define IPIN_GRAPH_TEMPORAL_PATHS_H_

#include <cstddef>
#include <vector>

#include "ipin/graph/interaction_graph.h"
#include "ipin/graph/types.h"

// Single-source temporal path problems on interaction networks, after
// Wu et al., "Path Problems in Temporal Graphs" (PVLDB 2014) — the general
// framework the paper's information channels specialize ("a special case of
// temporal paths"). All algorithms are one-pass over the time-sorted
// interaction list; contacts are instantaneous and paths must use strictly
// increasing timestamps, matching Definition 1 of the paper.

namespace ipin {

/// Result of a single-source earliest-arrival computation: for each node,
/// the earliest time a time-respecting path from the source can reach it,
/// or kNoTimestamp if unreachable. The source itself gets `t_start`.
struct EarliestArrivalResult {
  std::vector<Timestamp> arrival;
  /// Number of nodes reachable (excluding the source).
  size_t num_reachable = 0;
};

/// Earliest arrival from `source` using only interactions with timestamps
/// in [t_start, t_end]. O(m) single forward scan.
EarliestArrivalResult EarliestArrival(const InteractionGraph& graph,
                                      NodeId source, Timestamp t_start,
                                      Timestamp t_end);

/// Result of a single-source fastest-path computation: for each node, the
/// minimum duration (t_last - t_first + 1) over all time-respecting paths
/// from the source, or -1 if unreachable. Note the direct correspondence to
/// the paper's IRS: fastest_duration(u, v) <= omega iff v is in
/// sigma_omega(u).
struct FastestPathResult {
  std::vector<Duration> duration;
  size_t num_reachable = 0;
};

/// Fastest (minimum-duration) paths from `source` over the whole network.
/// One forward scan keeping a Pareto frontier of (start, arrival) pairs per
/// node; expected cost O(m * frontier), frontier typically tiny.
FastestPathResult FastestPaths(const InteractionGraph& graph, NodeId source);

}  // namespace ipin

#endif  // IPIN_GRAPH_TEMPORAL_PATHS_H_
