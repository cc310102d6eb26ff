#ifndef IPIN_CORE_INFLUENCE_ORACLE_H_
#define IPIN_CORE_INFLUENCE_ORACLE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_exact.h"
#include "ipin/graph/types.h"
#include "ipin/sketch/kernels.h"

namespace ipin {

/// Incremental set-union accumulator used by greedy influence maximization:
/// tracks the "covered" set (union of committed nodes' influence sets) and
/// answers marginal-gain queries against it.
class CoverageState {
 public:
  virtual ~CoverageState() = default;

  /// Current |covered| (exact count or sketch estimate).
  virtual double Covered() const = 0;

  /// |covered union sigma(u)| - |covered| without modifying state.
  /// Implementations must tolerate concurrent GainOf calls (the parallel
  /// greedy rounds evaluate candidate gains from several threads between
  /// Commits); Commit itself is never called concurrently with anything.
  virtual double GainOf(NodeId u) const = 0;

  /// Folds sigma(u) into the covered set.
  virtual void Commit(NodeId u) = 0;
};

/// Coverage over per-node max-rank rows (vHLL or source-set sketches): the
/// covered set is the cellwise max of the committed rows, kept with its
/// rank histogram. A gain copies the histogram, moves the counts of the
/// cells the candidate raises (kernels::KernelOps::coverage_delta) and
/// estimates from the result, so it costs the cells that change. The
/// histogram equals the merged row's exactly, so every gain is bit-identical
/// to estimating the merged row.
class RankRowCoverage : public CoverageState {
 public:
  /// Node u's row of `num_cells` ranks, or null when u has no sketch. Rows
  /// must outlive the coverage.
  using RowOf = std::function<const uint8_t*(NodeId)>;

  RankRowCoverage(size_t num_cells, RowOf row_of);

  double Covered() const override { return covered_; }
  double GainOf(NodeId u) const override;
  void Commit(NodeId u) override;

 private:
  RowOf row_of_;
  std::vector<uint8_t> ranks_;
  std::array<uint32_t, kernels::kRankBins> hist_;
  uint8_t top_ = 0;
  double covered_ = 0.0;
};

/// Wall-clock budget for one oracle query, used by the serving layer to
/// bound tail latency: evaluation checks the deadline periodically and
/// abandons the query instead of running to completion.
struct QueryBudget {
  /// Evaluation must not run past this instant.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Summary entries scanned between deadline checks (amortizes the clock
  /// read on the exact path, whose summaries can hold millions of entries).
  size_t check_every = 1024;

  bool Expired() const {
    return std::chrono::steady_clock::now() >= deadline;
  }
};

/// Result of a budgeted query. When `exceeded` is set the evaluation was
/// abandoned mid-way and `value` is a partial (under-)count — callers
/// degrade (e.g. fall back to a sketch estimate) rather than trust it.
struct BudgetedValue {
  double value = 0.0;
  bool exceeded = false;
};

/// The paper's Influence Oracle (Section 4.1): answers influence-spread
/// queries |union of sigma_omega(s)| for arbitrary seed sets, plus the
/// incremental interface greedy maximization needs.
class InfluenceOracle {
 public:
  virtual ~InfluenceOracle() = default;

  virtual size_t num_nodes() const = 0;

  /// |sigma(u)| (exact or estimated). Must be safe to call concurrently
  /// (every oracle here is read-only after construction) — InfluenceOfAll
  /// and the greedy candidate scans fan it out across the global pool.
  virtual double InfluenceOf(NodeId u) const = 0;

  /// {InfluenceOf(u) : u < num_nodes()}, evaluated in parallel on the
  /// global pool. Entry u is exactly InfluenceOf(u), so the result does not
  /// depend on the thread count.
  virtual std::vector<double> InfluenceOfAll() const;

  /// |union of sigma(s) for s in seeds|.
  virtual double InfluenceOfSet(std::span<const NodeId> seeds) const = 0;

  /// InfluenceOfSet under a wall-clock budget. The default runs the
  /// unbudgeted query (never reports exceeded); oracles whose evaluation
  /// can take long override it with periodic deadline checks.
  virtual BudgetedValue InfluenceOfSetBudgeted(
      std::span<const NodeId> seeds, const QueryBudget& budget) const {
    (void)budget;
    return {InfluenceOfSet(seeds), false};
  }

  /// Fresh, empty coverage accumulator.
  virtual std::unique_ptr<CoverageState> NewCoverage() const = 0;
};

/// Oracle over the exact IRS summaries. Union queries take time linear in
/// the summed set sizes.
class ExactInfluenceOracle : public InfluenceOracle {
 public:
  /// `irs` must outlive the oracle.
  explicit ExactInfluenceOracle(const IrsExact* irs);

  size_t num_nodes() const override;
  double InfluenceOf(NodeId u) const override;
  double InfluenceOfSet(std::span<const NodeId> seeds) const override;
  /// Exact union evaluation with deadline checks every
  /// `budget.check_every` summary entries; an expired budget abandons the
  /// scan (partial value, exceeded = true) so a worker never runs an
  /// oversized exact query to completion.
  BudgetedValue InfluenceOfSetBudgeted(
      std::span<const NodeId> seeds, const QueryBudget& budget) const override;
  std::unique_ptr<CoverageState> NewCoverage() const override;

 private:
  const IrsExact* irs_;
};

/// Oracle over the vHLL sketches. Union queries take O(|seeds| * beta)
/// regardless of the set sizes — the property Figure 4 measures.
class SketchInfluenceOracle : public InfluenceOracle {
 public:
  /// `irs` must outlive the oracle.
  explicit SketchInfluenceOracle(const IrsApprox* irs);

  size_t num_nodes() const override;
  double InfluenceOf(NodeId u) const override;
  double InfluenceOfSet(std::span<const NodeId> seeds) const override;
  /// Sketch unions are O(|seeds| * beta); the budget is checked once per
  /// seed, which is plenty at that granularity.
  BudgetedValue InfluenceOfSetBudgeted(
      std::span<const NodeId> seeds, const QueryBudget& budget) const override;
  std::unique_ptr<CoverageState> NewCoverage() const override;

 private:
  const IrsApprox* irs_;
};

/// Oracle over explicit per-node sets. Used for the Smart High Degree
/// baseline (sets = static out-neighbourhoods; the paper notes SHD is the
/// special case omega = 0) and as a tiny-instance testing oracle.
class SetCoverageOracle : public InfluenceOracle {
 public:
  /// One influence set per node; sets need not be sorted.
  explicit SetCoverageOracle(std::vector<std::vector<NodeId>> sets);

  size_t num_nodes() const override;
  double InfluenceOf(NodeId u) const override;
  double InfluenceOfSet(std::span<const NodeId> seeds) const override;
  std::unique_ptr<CoverageState> NewCoverage() const override;

  const std::vector<NodeId>& set(NodeId u) const { return sets_[u]; }

 private:
  std::vector<std::vector<NodeId>> sets_;
};

}  // namespace ipin

#endif  // IPIN_CORE_INFLUENCE_ORACLE_H_
