#ifndef IPIN_GRAPH_TEMPORAL_STATS_H_
#define IPIN_GRAPH_TEMPORAL_STATS_H_

#include <cstddef>
#include <vector>

#include "ipin/graph/interaction_graph.h"
#include "ipin/graph/types.h"

// Descriptive statistics of interaction networks, used to characterize
// datasets (and to validate that the synthetic stand-ins behave like the
// paper's corpora families: heavy-tailed activity, reply chains, bursts).

namespace ipin {

/// Quantiles and tail shape of a count distribution.
struct DistributionSummary {
  double mean = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  /// Fraction of the total mass held by the top 1% of entries — a simple
  /// heavy-tail indicator (1% of senders produce X% of interactions).
  double top1_percent_share = 0.0;
};

/// Full temporal/topological profile of an interaction network.
struct TemporalStats {
  /// Out-interactions per node (activity).
  DistributionSummary out_activity;
  /// In-interactions per node (popularity).
  DistributionSummary in_activity;
  /// Distinct out-neighbours per node (static out-degree).
  DistributionSummary out_degree;
  /// Fraction of interactions (u, v, t) for which some (v, u, t') with
  /// t' < t exists — how often messages flow back along used edges.
  double reciprocity = 0.0;
  /// Fraction of interactions whose sender received some interaction within
  /// the preceding `reply_horizon` time units — the chain/forwarding signal
  /// that creates long information channels.
  double reply_fraction = 0.0;
  /// Horizon used for reply_fraction.
  Duration reply_horizon = 0;
  /// Coefficient of variation of inter-event times (1 = Poisson,
  /// > 1 = bursty).
  double burstiness_cv = 0.0;
  size_t num_nodes = 0;
  size_t num_interactions = 0;
};

/// Computes the full profile. `reply_horizon` defaults to 1% of the time
/// span when 0. O(m log m).
TemporalStats ComputeTemporalStats(const InteractionGraph& graph,
                                   Duration reply_horizon = 0);

/// Summarizes a vector of per-node counts.
DistributionSummary SummarizeCounts(std::vector<double> counts);

}  // namespace ipin

#endif  // IPIN_GRAPH_TEMPORAL_STATS_H_
