#ifndef IPIN_CORE_IRS_EXACT_H_
#define IPIN_CORE_IRS_EXACT_H_

#include <cstddef>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ipin/graph/interaction_graph.h"
#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"

namespace ipin {

/// Byte tally charged for every exact-IRS summary-map allocation (component
/// "irs_exact"); published as the mem.irs_exact.* gauges.
obs::MemoryTally& IrsExactMemTally();

/// phi(u) map type: reachable node -> earliest channel end time. Nodes and
/// buckets charge the "irs_exact" MemoryTally, so mem.irs_exact.bytes is a
/// measured (allocator-counted) footprint.
using IrsSummaryMap = std::unordered_map<
    NodeId, Timestamp, std::hash<NodeId>, std::equal_to<NodeId>,
    obs::TallyAllocator<std::pair<const NodeId, Timestamp>,
                        &IrsExactMemTally>>;

/// Exact influence-reachability-set computation (the paper's Algorithm 2).
///
/// Scans the interaction list once in reverse chronological order and
/// maintains, per node u, the IRS summary phi(u) = {(v, lambda(u, v))}: for
/// every node v reachable from u by an information channel of duration at
/// most `window`, the earliest end time of such a channel. By Lemma 1, an
/// interaction earlier than everything processed so far can only change the
/// summary of its own source, which makes the single reverse pass correct
/// (Theorem 1).
///
/// Complexity: O(m * n) time, O(n^2) space worst case (Lemma 3) — exact but
/// memory-hungry; see IrsApprox for the sketch-based variant.
class IrsExact {
 public:
  /// Runs the full reverse scan. `graph` must be sorted by time;
  /// `window` >= 1.
  static IrsExact Compute(const InteractionGraph& graph, Duration window);

  /// Creates an empty instance (all summaries empty) for `num_nodes` nodes;
  /// use ProcessInteraction to feed interactions in reverse time order.
  IrsExact(size_t num_nodes, Duration window);

  /// Processes one interaction; MUST be called in non-increasing time order
  /// (checked). This is the body of Algorithm 2's loop: Add + Merge.
  void ProcessInteraction(const Interaction& interaction);

  /// phi(u): reachable node -> earliest channel end time.
  const IrsSummaryMap& Summary(NodeId u) const { return summaries_[u]; }

  /// Every node's summary, indexed by node id.
  std::span<const IrsSummaryMap> summaries() const { return summaries_; }

  /// |sigma_omega(u)|.
  size_t IrsSize(NodeId u) const { return summaries_[u].size(); }

  /// sigma_omega(u) as a sorted node list.
  std::vector<NodeId> IrsSet(NodeId u) const;

  /// Exact cardinality of the union of the seeds' IRSs (the Influence
  /// Oracle of Section 4.1, exact flavour): ExactUnion with no deadline.
  size_t UnionSize(std::span<const NodeId> seeds) const;

  size_t num_nodes() const { return summaries_.size(); }
  Duration window() const { return window_; }

  /// Total number of (node, time) entries across all summaries.
  size_t TotalSummaryEntries() const;

  /// Approximate heap footprint in bytes.
  size_t MemoryUsageBytes() const;

 private:
  // What Algorithm 2's Add did to phi(u); reported to the metrics registry.
  enum class AddResult { kUnchanged, kInserted, kImproved };

  // Algorithm 2's Add: keep the smaller lambda for an existing target.
  AddResult Add(NodeId u, NodeId v, Timestamp t);

  Duration window_;
  Timestamp last_time_;
  bool saw_interaction_ = false;
  // Scan tallies: plain members so the per-edge path stays atomics-free;
  // Compute() rolls them up into the metrics registry once per build.
  size_t edges_scanned_ = 0;
  size_t summary_inserts_ = 0;
  size_t summary_updates_ = 0;
  size_t window_prunes_ = 0;
  std::vector<IrsSummaryMap> summaries_;
};

}  // namespace ipin

#endif  // IPIN_CORE_IRS_EXACT_H_
