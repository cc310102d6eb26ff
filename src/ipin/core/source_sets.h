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
#include "ipin/sketch/sketch_arena.h"
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
  /// nodes could have influenced any of these targets?").
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

  /// Processes one interaction in arrival order. Only valid while unsealed
  /// (the class stays a streaming structure unless the caller seals it).
  void ProcessInteraction(const Interaction& interaction);

  /// Copies the per-node sketches' rows into a read-only SketchArena and
  /// frees them (see IrsApprox::Seal). Compute() seals its result;
  /// hand-streamed instances stay unsealed — and feedable — until sealed
  /// explicitly.
  void Seal();
  bool sealed() const { return sealed_; }
  const SketchArena* arena() const { return arena_.get(); }

  /// Estimated |tau_omega(v)|.
  double EstimateSourceSetSize(NodeId v) const;

  /// Estimated |union of tau_omega(v)| over the targets.
  double EstimateUnionSize(std::span<const NodeId> targets) const;

  /// As above, reusing *scratch for the union rank vector (contents on
  /// entry are ignored).
  double EstimateUnionSize(std::span<const NodeId> targets,
                           std::vector<uint8_t>* scratch) const;

  /// View of node v's sketch (invalid if v never received anything).
  SketchView Sketch(NodeId v) const {
    if (sealed_) return SketchView(arena_.get(), v);
    return SketchView(sketches_[v].get());
  }

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
  // Dual-mode storage, same scheme as IrsApprox: build sketches until
  // Seal() copies their rows into arena_.
  std::vector<std::unique_ptr<VersionedHll>> sketches_;
  std::unique_ptr<SketchArena> arena_;
  bool sealed_ = false;
};

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
  double InfluenceOfSet(std::span<const NodeId> targets) const override;
  std::unique_ptr<CoverageState> NewCoverage() const override;

 private:
  const SourceSetApprox* sets_;
};

}  // namespace ipin

#endif  // IPIN_CORE_SOURCE_SETS_H_
