#include "ipin/core/irs_exact.h"

#include <algorithm>

#include "ipin/common/check.h"
#include "ipin/common/memory.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace.h"

namespace ipin {

obs::MemoryTally& IrsExactMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("irs_exact");
  return tally;
}

IrsExact::IrsExact(size_t num_nodes, Duration window)
    : window_(window), last_time_(0), summaries_(num_nodes) {
  IPIN_CHECK_GE(window, 1);
}

IrsExact IrsExact::Compute(const InteractionGraph& graph, Duration window) {
  obs::PhaseSpan phase("irs.exact.compute", graph.num_interactions());
  IPIN_CHECK(graph.is_sorted());
  IrsExact irs(graph.num_nodes(), window);
  const auto& edges = graph.interactions();
  size_t since_tick = 0;
  for (size_t i = edges.size(); i > 0; --i) {
    irs.ProcessInteraction(edges[i - 1]);
    // Chunked ticks keep the per-edge path atomics-free.
    if (++since_tick == (size_t{64} << 10)) {
      phase.Tick(since_tick);
      since_tick = 0;
    }
  }
  phase.SetDone(edges.size());
  // Scan tallies (plain members, free to maintain) roll up into the
  // registry once per build, keeping the per-edge path atomics-free.
  IPIN_COUNTER_ADD("irs.exact.edges_scanned", irs.edges_scanned_);
  IPIN_COUNTER_ADD("irs.exact.summary_inserts", irs.summary_inserts_);
  IPIN_COUNTER_ADD("irs.exact.summary_updates", irs.summary_updates_);
  IPIN_COUNTER_ADD("irs.exact.window_prunes", irs.window_prunes_);
  IPIN_GAUGE_SET("irs.exact.summary_entries", irs.TotalSummaryEntries());
  return irs;
}

IrsExact::AddResult IrsExact::Add(NodeId u, NodeId v, Timestamp t) {
  // A node is not part of its own IRS: the paper's Example 2 drops the
  // temporal cycle e -> b -> e from phi(e), so Add filters self-entries
  // (they can arise from self-loop interactions or temporal cycles).
  if (u == v) return AddResult::kUnchanged;
  auto [it, inserted] = summaries_[u].emplace(v, t);
  if (inserted) return AddResult::kInserted;
  if (it->second > t) {
    it->second = t;
    return AddResult::kImproved;
  }
  return AddResult::kUnchanged;
}

void IrsExact::ProcessInteraction(const Interaction& interaction) {
  const auto [u, v, t] = interaction;
  IPIN_CHECK_LT(u, summaries_.size());
  IPIN_CHECK_LT(v, summaries_.size());
  if (saw_interaction_) {
    IPIN_CHECK_LE(t, last_time_);  // reverse chronological order required
  }
  last_time_ = t;
  saw_interaction_ = true;

  ++edges_scanned_;
  const auto tally = [this](AddResult result) {
    summary_inserts_ += result == AddResult::kInserted;
    summary_updates_ += result == AddResult::kImproved;
  };

  // Add: the single-interaction channel u -> v ends at t.
  tally(Add(u, v, t));

  // Merge: channels that start with (u, v, t) and continue along a channel
  // from v reaching x at time t_x are valid iff t_x - t < window
  // (duration t_x - t + 1 <= window). A self-loop would merge phi(u) into
  // itself — semantically a no-op (Add never worsens an entry), so skip it
  // rather than iterate a container being modified.
  if (u != v) {
    for (const auto& [x, tx] : summaries_[v]) {
      if (tx - t < window_) {
        tally(Add(u, x, tx));  // Add drops x == u (self-cycles)
      } else {
        ++window_prunes_;  // window prune: channel too old to extend
      }
    }
  }
}

std::vector<NodeId> IrsExact::IrsSet(NodeId u) const {
  std::vector<NodeId> nodes;
  nodes.reserve(summaries_[u].size());
  for (const auto& [v, t] : summaries_[u]) {
    (void)t;
    nodes.push_back(v);
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

size_t IrsExact::UnionSize(std::span<const NodeId> seeds) const {
  return static_cast<size_t>(ExactUnion(summaries_, seeds, {}).value);
}

size_t IrsExact::TotalSummaryEntries() const {
  size_t total = 0;
  for (const auto& summary : summaries_) total += summary.size();
  return total;
}

size_t IrsExact::MemoryUsageBytes() const {
  size_t bytes = summaries_.capacity() * sizeof(IrsSummaryMap);
  for (const auto& summary : summaries_) {
    bytes += HashMapBytes(summary.size(), summary.bucket_count(),
                          sizeof(NodeId) + sizeof(Timestamp));
  }
  return bytes;
}

}  // namespace ipin
