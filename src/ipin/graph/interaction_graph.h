#ifndef IPIN_GRAPH_INTERACTION_GRAPH_H_
#define IPIN_GRAPH_INTERACTION_GRAPH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "ipin/graph/types.h"

namespace ipin {

/// Summary statistics of an interaction network (the quantities of the
/// paper's Table 2).
struct InteractionGraphStats {
  size_t num_nodes = 0;
  size_t num_interactions = 0;
  Timestamp min_time = 0;
  Timestamp max_time = 0;
  /// max_time - min_time + 1 (0 for an empty network).
  Duration time_span = 0;
  /// Number of distinct (src, dst) pairs (edges of the flattened graph).
  size_t num_static_edges = 0;
};

/// An interaction network G(V, E): a set of nodes [0, num_nodes) plus a
/// multiset of timestamped directed interactions. This is the input to every
/// algorithm in the library.
///
/// Interactions are stored as a flat vector. Algorithms require the list to
/// be sorted ascending by time (`SortByTime`, checked by `is_sorted()`);
/// the one-pass IRS algorithms then iterate it in reverse.
class InteractionGraph {
 public:
  InteractionGraph() = default;

  /// Creates a network with `num_nodes` nodes and no interactions.
  explicit InteractionGraph(size_t num_nodes) : num_nodes_(num_nodes) {}

  /// Creates a network from a ready-made interaction list; grows the node
  /// count to cover every endpoint.
  InteractionGraph(size_t num_nodes, std::vector<Interaction> interactions);

  /// Appends one interaction; grows the node count to cover the endpoints.
  /// Invalidates sortedness if `time` is out of order.
  void AddInteraction(NodeId src, NodeId dst, Timestamp time);

  /// Sorts interactions ascending by (time, src, dst).
  void SortByTime();

  /// True if interactions are sorted ascending by time.
  bool is_sorted() const { return sorted_; }

  /// True if all timestamps are pairwise distinct (the paper's assumption;
  /// algorithms remain correct with ties, resolved by scan order).
  bool HasDistinctTimestamps() const;

  /// Perturbs tied timestamps into distinct ones by stable re-ranking:
  /// replaces each timestamp with its (0-based) rank in the sorted order.
  /// Preserves relative time order; afterwards timestamps are 0..m-1.
  void RankTimestamps();

  size_t num_nodes() const { return num_nodes_; }
  size_t num_interactions() const { return interactions_.size(); }
  bool empty() const { return interactions_.empty(); }

  const std::vector<Interaction>& interactions() const {
    return interactions_;
  }

  const Interaction& interaction(size_t i) const { return interactions_[i]; }

  /// Computes full summary statistics (O(m log m) for the distinct-edge
  /// count).
  InteractionGraphStats ComputeStats() const;

  /// Duration corresponding to `percent`% of the total time span, at least 1
  /// and at most INT64_MAX (a span may reach 2^64). This is how the paper
  /// expresses window lengths ("omega = 10%").
  Duration WindowFromPercent(double percent) const;

  /// Approximate heap footprint in bytes.
  size_t MemoryUsageBytes() const;

  /// Human-readable one-line description.
  std::string DebugString() const;

 private:
  size_t num_nodes_ = 0;
  std::vector<Interaction> interactions_;
  bool sorted_ = true;
};

}  // namespace ipin

#endif  // IPIN_GRAPH_INTERACTION_GRAPH_H_
