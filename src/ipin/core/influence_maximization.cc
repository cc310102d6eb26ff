#include "ipin/core/influence_maximization.h"

#include <algorithm>
#include <span>

#include "ipin/common/check.h"
#include "ipin/common/thread_pool.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace.h"

namespace ipin {
namespace {

// Nodes sorted descending by individual influence; ties by id for
// determinism.
std::vector<NodeId> NodesByInfluence(std::span<const double> influence) {
  std::vector<NodeId> order(influence.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<NodeId>(i);
  std::sort(order.begin(), order.end(), [&influence](NodeId a, NodeId b) {
    if (influence[a] != influence[b]) return influence[a] > influence[b];
    return a < b;
  });
  return order;
}

}  // namespace

SeedSelection SelectSeedsGreedy(const InfluenceOracle& oracle, size_t k) {
  obs::PhaseSpan phase("im.greedy.select", k);
  SeedSelection result;
  const size_t n = oracle.num_nodes();
  if (n == 0 || k == 0) return result;

  const std::vector<double> influence = oracle.InfluenceOfAll();
  const std::vector<NodeId> order = NodesByInfluence(influence);
  std::vector<char> selected(n, 0);
  auto coverage = oracle.NewCoverage();

  // Candidates are evaluated in parallel batches, then reduced strictly in
  // scan order, replaying Algorithm 4's sequential rules: the early-exit
  // bound is checked against the running best *before* consuming a gain,
  // and gain_evaluations counts only consumed gains. Seeds, gains, and
  // counts are therefore identical to the 1-thread scan; the only extra
  // work is the tail of the batch the bound cuts off (counted separately
  // as speculative evaluations).
  const size_t threads = GlobalThreads();
  const size_t batch_size = threads <= 1 ? 1 : std::max<size_t>(2 * threads, 16);
  std::vector<NodeId> batch;
  std::vector<double> batch_gains;
  batch.reserve(batch_size);

  size_t early_exits = 0;
  size_t speculative = 0;
  while (result.seeds.size() < k) {
    double best_gain = 0.0;
    NodeId best_node = kInvalidNode;
    size_t pos = 0;
    bool round_done = false;
    while (pos < n && !round_done) {
      batch.clear();
      while (pos < n && batch.size() < batch_size) {
        const NodeId u = order[pos++];
        if (!selected[u]) batch.push_back(u);
      }
      if (batch.empty()) break;
      // Submodularity: marginal gain <= individual influence. The order is
      // descending in influence, so once the best gain found beats the
      // next candidate's individual influence no later candidate can win.
      if (best_node != kInvalidNode && best_gain >= influence[batch[0]]) {
        ++early_exits;
        break;
      }
      batch_gains.assign(batch.size(), 0.0);
      ParallelFor(0, batch.size(), 1, [&](size_t lo, size_t hi) {
        for (size_t b = lo; b < hi; ++b) {
          batch_gains[b] = coverage->GainOf(batch[b]);
        }
      });
      for (size_t b = 0; b < batch.size(); ++b) {
        const NodeId u = batch[b];
        if (best_node != kInvalidNode && best_gain >= influence[u]) {
          ++early_exits;
          speculative += batch.size() - b;
          round_done = true;
          break;
        }
        ++result.gain_evaluations;
        if (batch_gains[b] > best_gain || best_node == kInvalidNode) {
          best_gain = batch_gains[b];
          best_node = u;
        }
      }
    }
    if (best_node == kInvalidNode) break;  // all nodes selected
    selected[best_node] = 1;
    coverage->Commit(best_node);
    result.seeds.push_back(best_node);
    result.gains.push_back(best_gain);
    phase.Tick();
  }
  result.total_coverage = coverage->Covered();
  IPIN_COUNTER_ADD("im.greedy.gain_evaluations", result.gain_evaluations);
  IPIN_COUNTER_ADD("im.greedy.speculative_evaluations", speculative);
  IPIN_COUNTER_ADD("im.greedy.early_exits", early_exits);
  IPIN_COUNTER_ADD("im.greedy.seeds_selected", result.seeds.size());
  return result;
}

SeedSelection SelectSeedsCelf(const InfluenceOracle& oracle, size_t k) {
  obs::PhaseSpan phase("im.celf.select", k);
  SeedSelection result;
  const size_t n = oracle.num_nodes();
  if (n == 0 || k == 0) return result;

  auto coverage = oracle.NewCoverage();

  // Individual influences, used both as initial gain upper bounds and as the
  // secondary tie-break key so CELF selects exactly the node Algorithm 4's
  // sorted scan would (gain desc, then individual influence desc, then id).
  // Evaluated in parallel; values (and hence the heap order) are
  // thread-count independent.
  const std::vector<double> influence = oracle.InfluenceOfAll();

  // Max-heap of (cached gain, individual influence, node, round the gain
  // was computed in). Each entry carries its own influence, so a comparison
  // reads no side array, and the queue is one reserved vector heapified in
  // linear time. The order is total (no two entries share a node), so the
  // pops, and with them every pick and count, do not depend on how the heap
  // was built.
  struct HeapEntry {
    double gain;
    double influence;
    NodeId node;
    size_t round;
  };
  const auto cmp = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    if (a.influence != b.influence) return a.influence < b.influence;
    return a.node > b.node;  // final tie-break: smaller id wins
  };
  std::vector<HeapEntry> heap;
  heap.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Initial upper bound: individual influence (gain against empty cover).
    heap.push_back(HeapEntry{influence[i], influence[i],
                             static_cast<NodeId>(i), 0});
  }
  std::make_heap(heap.begin(), heap.end(), cmp);

  size_t round = 1;
  size_t reinserts = 0;
  while (result.seeds.size() < k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    HeapEntry& top = heap.back();
    if (top.round != round) {
      // Stale: re-evaluate against the current cover and re-insert.
      top.gain = coverage->GainOf(top.node);
      ++result.gain_evaluations;
      ++reinserts;
      top.round = round;
      std::push_heap(heap.begin(), heap.end(), cmp);
      continue;
    }
    coverage->Commit(top.node);
    result.seeds.push_back(top.node);
    result.gains.push_back(top.gain);
    heap.pop_back();
    ++round;
    phase.Tick();
  }
  result.total_coverage = coverage->Covered();
  IPIN_COUNTER_ADD("im.celf.gain_evaluations", result.gain_evaluations);
  IPIN_COUNTER_ADD("im.celf.heap_reinserts", reinserts);
  IPIN_COUNTER_ADD("im.celf.seeds_selected", result.seeds.size());
  return result;
}

SeedSelection SelectSeedsExhaustive(const InfluenceOracle& oracle, size_t k) {
  const size_t n = oracle.num_nodes();
  IPIN_CHECK_LE(n, 25u);  // exponential search: tiny instances only
  SeedSelection best;
  if (n == 0 || k == 0) return best;
  k = std::min(k, n);

  std::vector<NodeId> subset(k);
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    for (size_t i = 0; i < k; ++i) subset[i] = static_cast<NodeId>(idx[i]);
    const double value = oracle.InfluenceOfSet(subset);
    ++best.gain_evaluations;
    if (value > best.total_coverage) {
      best.total_coverage = value;
      best.seeds = subset;
    }
    // Next combination.
    size_t i = k;
    while (i > 0 && idx[i - 1] == n - k + i - 1) --i;
    if (i == 0) break;
    ++idx[i - 1];
    for (size_t j = i; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
  return best;
}

}  // namespace ipin
