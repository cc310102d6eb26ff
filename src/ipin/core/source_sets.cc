#include "ipin/core/source_sets.h"

#include <algorithm>

#include "ipin/common/check.h"
#include "ipin/common/memory.h"
#include "ipin/sketch/estimators.h"

namespace ipin {

SourceSetExact::SourceSetExact(size_t num_nodes, Duration window)
    : window_(window), last_time_(0), summaries_(num_nodes) {
  IPIN_CHECK_GE(window, 1);
}

SourceSetExact SourceSetExact::Compute(const InteractionGraph& graph,
                                       Duration window) {
  IPIN_CHECK(graph.is_sorted());
  SourceSetExact sets(graph.num_nodes(), window);
  for (const Interaction& e : graph.interactions()) {
    sets.ProcessInteraction(e);
  }
  return sets;
}

void SourceSetExact::Add(NodeId v, NodeId x, Timestamp start) {
  if (v == x) return;  // mirror of IrsExact: no self-membership
  auto [it, inserted] = summaries_[v].emplace(x, start);
  if (!inserted && it->second < start) it->second = start;  // keep latest
}

void SourceSetExact::ProcessInteraction(const Interaction& interaction) {
  const auto [u, v, t] = interaction;
  IPIN_CHECK_LT(u, summaries_.size());
  IPIN_CHECK_LT(v, summaries_.size());
  if (saw_interaction_) {
    IPIN_CHECK_GE(t, last_time_);  // arrival (ascending) order required
  }
  last_time_ = t;
  saw_interaction_ = true;

  // The single-interaction channel u -> v starts at t.
  Add(v, u, t);

  // Channels x -> u with latest start s extend across this edge while the
  // total duration t - s + 1 stays within the window.
  if (u == v) return;
  for (const auto& [x, sx] : summaries_[u]) {
    if (t - sx < window_) Add(v, x, sx);
  }
}

std::vector<NodeId> SourceSetExact::SourceSet(NodeId v) const {
  std::vector<NodeId> nodes;
  nodes.reserve(summaries_[v].size());
  for (const auto& [x, s] : summaries_[v]) {
    (void)s;
    nodes.push_back(x);
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

size_t SourceSetExact::UnionSize(std::span<const NodeId> targets) const {
  return static_cast<size_t>(ExactUnion(summaries_, targets, {}).value);
}

size_t SourceSetExact::TotalSummaryEntries() const {
  size_t total = 0;
  for (const auto& summary : summaries_) total += summary.size();
  return total;
}

size_t SourceSetExact::MemoryUsageBytes() const {
  size_t bytes = summaries_.capacity() * sizeof(IrsSummaryMap);
  for (const auto& summary : summaries_) {
    bytes += HashMapBytes(summary.size(), summary.bucket_count(),
                          sizeof(NodeId) + sizeof(Timestamp));
  }
  return bytes;
}

SourceSetApprox::SourceSetApprox(size_t num_nodes, Duration window,
                                 const IrsApproxOptions& options)
    : window_(window),
      options_(options),
      num_nodes_(num_nodes),
      sketches_(num_nodes) {
  IPIN_CHECK_GE(window, 1);
}

SourceSetApprox SourceSetApprox::Compute(const InteractionGraph& graph,
                                         Duration window,
                                         const IrsApproxOptions& options) {
  IPIN_CHECK(graph.is_sorted());
  SourceSetApprox sets(graph.num_nodes(), window, options);
  for (const Interaction& e : graph.interactions()) {
    sets.ProcessInteraction(e);
  }
  return sets;
}

VersionedHll* SourceSetApprox::MutableSketch(NodeId v) {
  if (sketches_[v] == nullptr) {
    sketches_[v] =
        std::make_unique<VersionedHll>(options_.precision, options_.salt);
  }
  return sketches_[v].get();
}

void SourceSetApprox::ProcessInteraction(const Interaction& interaction) {
  const auto [u, v, t] = interaction;
  IPIN_CHECK_LT(u, sketches_.size());
  IPIN_CHECK_LT(v, sketches_.size());
  if (saw_interaction_) {
    IPIN_CHECK_GE(t, last_time_);  // arrival (ascending) order required
  }
  last_time_ = t;
  saw_interaction_ = true;

  VersionedHll* sketch_v = MutableSketch(v);
  // Timestamps are NEGATED so the vHLL's "earlier time dominates" rule
  // becomes "later start dominates" (see class comment).
  if (u != v) sketch_v->Add(static_cast<uint64_t>(u), -t);
  if (u == v) return;
  const VersionedHll* sketch_u = sketches_[u].get();
  if (sketch_u != nullptr) {
    // Keep entries with start s satisfying t - s < window, i.e. negated
    // time -s < -t + window.
    sketch_v->MergeWindow(*sketch_u, -t, window_);
  }
}

double SourceSetApprox::EstimateSourceSetSize(NodeId v) const {
  IPIN_CHECK_LT(v, num_nodes_);
  const VersionedHll* sketch = sketches_[v].get();
  return sketch == nullptr ? 0.0 : sketch->Estimate();
}

double SourceSetApprox::EstimateUnionSize(
    std::span<const NodeId> targets) const {
  return EstimateFromRanks(FoldRankRows(*this, targets, {}).ranks);
}

size_t SourceSetApprox::NumAllocatedSketches() const {
  size_t count = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) ++count;
  }
  return count;
}

size_t SourceSetApprox::TotalSketchEntries() const {
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumEntries();
  }
  return total;
}

size_t SourceSetApprox::MemoryUsageBytes() const {
  size_t bytes = sketches_.capacity() * sizeof(std::unique_ptr<VersionedHll>);
  for (const auto& s : sketches_) {
    if (s != nullptr) bytes += sizeof(VersionedHll) + s->MemoryUsageBytes();
  }
  return bytes;
}

UnionRow FoldRankRows(const SourceSetApprox& sets,
                      std::span<const NodeId> targets,
                      const QueryBudget& budget) {
  return FoldRankRows(targets, sets.num_nodes(),
                      size_t{1} << sets.options().precision,
                      [&sets](NodeId v) -> const uint8_t* {
                        const VersionedHll* sketch = sets.Sketch(v);
                        return sketch == nullptr ? nullptr
                                                 : sketch->max_ranks().data();
                      },
                      budget);
}

SourceSetOracle::SourceSetOracle(const SourceSetApprox* sets) : sets_(sets) {
  IPIN_CHECK(sets != nullptr);
}

size_t SourceSetOracle::num_nodes() const { return sets_->num_nodes(); }

double SourceSetOracle::InfluenceOf(NodeId v) const {
  return sets_->EstimateSourceSetSize(v);
}

BudgetedValue SourceSetOracle::InfluenceOfSetBudgeted(
    std::span<const NodeId> targets, const QueryBudget& budget) const {
  const UnionRow row = FoldRankRows(*sets_, targets, budget);
  return {EstimateFromRanks(row.ranks), row.exceeded};
}

std::unique_ptr<CoverageState> SourceSetOracle::NewCoverage() const {
  const SourceSetApprox* sets = sets_;
  return std::make_unique<RankRowCoverage>(
      size_t{1} << sets->options().precision,
      [sets](NodeId v) -> const uint8_t* {
        const VersionedHll* sketch = sets->Sketch(v);
        return sketch == nullptr ? nullptr : sketch->max_ranks().data();
      });
}

}  // namespace ipin
