#ifndef IPIN_CORE_SOURCE_SETS_H_
#define IPIN_CORE_SOURCE_SETS_H_

#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ipin/core/influence_oracle.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_exact.h"
#include "ipin/graph/interaction_graph.h"
#include "ipin/graph/types.h"
#include "ipin/sketch/vhll.h"

// Influence SOURCE sets: the exact dual of the paper's influence
// reachability sets. Where sigma_omega(u) asks "whom could u have
// influenced?", the source set tau_omega(v) asks "who could have influenced
// v?" — all nodes with an information channel of duration <= omega INTO v.
//
// The duality makes the forward direction streamable: processing
// interactions in arrival (ascending-time) order, an interaction later than
// everything seen can only change the summary of its *destination*
// (mirror image of the paper's Lemma 1). The summary stores, per source x,
// the LATEST start time of a channel x -> v (mirror of Definition 4's
// earliest end time); an entry of psi(u) with start s survives the merge
// across an edge at time t iff t - s + 1 <= omega.
//
// This addresses the limitation the paper points out ("It is not a
// streaming algorithm because it can not process interactions as they
// arrive"): source-set queries ARE maintainable online.

namespace ipin {

/// Exact streaming source-set computation (forward one-pass).
class SourceSetExact {
 public:
  /// Processes a whole time-sorted interaction list.
  static SourceSetExact Compute(const InteractionGraph& graph,
                                Duration window);

  /// Empty instance; feed interactions with ProcessInteraction in
  /// non-decreasing time order (checked) — i.e. as they arrive.
  SourceSetExact(size_t num_nodes, Duration window);

  /// Processes one interaction in arrival order.
  void ProcessInteraction(const Interaction& interaction);

  /// psi(v): influencing source -> latest start time of a channel into v.
  /// Same accounted map type as the exact IRS: source-set summaries charge
  /// the "irs_exact" tally too (they are the same structure, transposed).
  const IrsSummaryMap& Summary(NodeId v) const { return summaries_[v]; }

  /// |tau_omega(v)|.
  size_t SourceSetSize(NodeId v) const { return summaries_[v].size(); }

  /// tau_omega(v) as a sorted node list.
  std::vector<NodeId> SourceSet(NodeId v) const;

  /// Exact |union of tau_omega(v) for v in targets| ("how many distinct
  /// nodes could have influenced any of these targets?"): ExactUnion with
  /// no deadline.
  size_t UnionSize(std::span<const NodeId> targets) const;

  size_t num_nodes() const { return summaries_.size(); }
  Duration window() const { return window_; }

  /// Total (node, time) entries across all summaries.
  size_t TotalSummaryEntries() const;

  /// Approximate heap footprint in bytes.
  size_t MemoryUsageBytes() const;

 private:
  void Add(NodeId v, NodeId x, Timestamp start);

  Duration window_;
  Timestamp last_time_;
  bool saw_interaction_ = false;
  std::vector<IrsSummaryMap> summaries_;
};

/// Sketch-based streaming source sets. Internally reuses VersionedHll with
/// NEGATED timestamps: the vHLL keeps, per cell, undominated (rank, time)
/// pairs where earlier time wins; negating start times makes "later start
/// wins" — exactly the survival order of source entries.
class SourceSetApprox {
 public:
  SourceSetApprox(size_t num_nodes, Duration window,
                  const IrsApproxOptions& options);

  static SourceSetApprox Compute(const InteractionGraph& graph,
                                 Duration window,
                                 const IrsApproxOptions& options = {});

  /// Processes one interaction in arrival order. A Compute() result stays
  /// feedable: the class is a streaming structure, and its sketches change
  /// on every interaction, so it answers from them directly.
  void ProcessInteraction(const Interaction& interaction);

  /// Estimated |tau_omega(v)|.
  double EstimateSourceSetSize(NodeId v) const;

  /// Estimated |union of tau_omega(v)| over the targets: the estimate of
  /// FoldRankRows over the sketches' rows, with no deadline.
  double EstimateUnionSize(std::span<const NodeId> targets) const;

  /// Node v's sketch (null if v never received anything).
  const VersionedHll* Sketch(NodeId v) const { return sketches_[v].get(); }

  size_t num_nodes() const { return num_nodes_; }
  Duration window() const { return window_; }
  const IrsApproxOptions& options() const { return options_; }

  size_t NumAllocatedSketches() const;
  size_t TotalSketchEntries() const;
  size_t MemoryUsageBytes() const;

 private:
  VersionedHll* MutableSketch(NodeId v);

  Duration window_;
  IrsApproxOptions options_;
  size_t num_nodes_ = 0;
  Timestamp last_time_ = 0;
  bool saw_interaction_ = false;
  // Only nodes that receive own a sketch.
  std::vector<std::unique_ptr<VersionedHll>> sketches_;
};

/// FoldRankRows (influence_oracle.h) over the source-set sketches'
/// max-rank rows.
UnionRow FoldRankRows(const SourceSetApprox& sets,
                      std::span<const NodeId> targets,
                      const QueryBudget& budget);

/// Influence-oracle adapter over the sketch-based source sets: treats
/// tau_omega(v) as node v's "set". With the greedy maximizers this solves
/// the dual of influence maximization — SUSCEPTIBILITY maximization: pick k
/// monitor nodes so that the union of their potential-influencer sets is
/// largest (e.g. k inboxes to audit so that a leak from anyone is most
/// likely to be observable).
class SourceSetOracle : public InfluenceOracle {
 public:
  /// `sets` must outlive the oracle.
  explicit SourceSetOracle(const SourceSetApprox* sets);

  size_t num_nodes() const override;
  double InfluenceOf(NodeId v) const override;
  /// The estimate of FoldRankRows over the sets' rows.
  BudgetedValue InfluenceOfSetBudgeted(
      std::span<const NodeId> targets,
      const QueryBudget& budget) const override;
  std::unique_ptr<CoverageState> NewCoverage() const override;

 private:
  const SourceSetApprox* sets_;
};

}  // namespace ipin

#endif  // IPIN_CORE_SOURCE_SETS_H_
