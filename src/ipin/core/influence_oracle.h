#ifndef IPIN_CORE_INFLUENCE_ORACLE_H_
#define IPIN_CORE_INFLUENCE_ORACLE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_exact.h"
#include "ipin/graph/types.h"

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

/// Wall-clock budget for one oracle query, used by the serving layer to
/// bound tail latency: evaluation checks the deadline periodically and
/// abandons the query instead of running to completion.
struct QueryBudget {
  /// Evaluation must not run past this instant; the default is no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// True once the deadline has passed. Reads no clock when there is no
  /// deadline.
  bool Expired() const {
    return deadline != std::chrono::steady_clock::time_point::max() &&
           std::chrono::steady_clock::now() >= deadline;
  }
};

/// Result of a budgeted query. When `exceeded` is set the evaluation was
/// abandoned mid-way and `value` is a partial (under-)count — callers
/// degrade (e.g. fall back to a sketch estimate) rather than trust it.
struct BudgetedValue {
  double value = 0.0;
  bool exceeded = false;
};

/// A sketch union: the cellwise max of the seeds' rank rows, whose
/// EstimateFromRanks is the union's size (exactly 0.0 for an all-zero row).
/// `ranks` lives in the calling thread's fold buffer until its next fold;
/// if `exceeded`, it holds the union of the seeds folded so far.
struct UnionRow {
  std::span<const uint8_t> ranks;
  bool exceeded = false;
};

/// The one sketch union (Section 4.1): folds the arena rank rows of `seeds`
/// into one row of the arena's num_cells() cells. A seed with no row adds
/// nothing; every seed must be below irs.num_nodes() (checked), and a seed
/// may repeat. Rows go to the kernel (kernels::KernelOps::cellwise_max_rows)
/// 64 at a time, so the fold makes no indirect call per seed. The deadline
/// is read on entry and after each block of 64 rows, and never when the
/// budget has none. The buffer only grows, so a thread allocates once.
UnionRow FoldRankRows(const IrsApprox& irs, std::span<const NodeId> seeds,
                      const QueryBudget& budget);

/// The one exact union: |union of the key sets rows[u] for u in seeds|, for
/// the exact IRS summaries. Every seed must be below rows.size() (checked).
/// The deadline is read on entry and after every 1024 entries scanned.
BudgetedValue ExactUnion(std::span<const IrsSummaryMap> rows,
                         std::span<const NodeId> seeds,
                         const QueryBudget& budget);

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

  /// |union of sigma(s) for s in seeds| under a wall-clock budget: the
  /// oracle's one union. Oracles whose evaluation can take long check the
  /// deadline periodically and report exceeded with a partial value.
  virtual BudgetedValue InfluenceOfSetBudgeted(
      std::span<const NodeId> seeds, const QueryBudget& budget) const = 0;

  /// |union of sigma(s) for s in seeds|: the budgeted union with no
  /// deadline.
  double InfluenceOfSet(std::span<const NodeId> seeds) const {
    return InfluenceOfSetBudgeted(seeds, {}).value;
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
  /// ExactUnion over the summaries: an expired budget abandons the scan, so
  /// a worker never runs an oversized exact query to completion.
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
  /// The estimate of FoldRankRows over the index's rows.
  BudgetedValue InfluenceOfSetBudgeted(
      std::span<const NodeId> seeds, const QueryBudget& budget) const override;
  /// As above, also copying the union row into *ranks when `ranks` is not
  /// null: the partial a router folds (cellwise max) into the global answer.
  BudgetedValue InfluenceOfSetBudgeted(std::span<const NodeId> seeds,
                                       const QueryBudget& budget,
                                       std::vector<uint8_t>* ranks) const;
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
  /// Exact over the explicit sets; the budget is not checked.
  BudgetedValue InfluenceOfSetBudgeted(
      std::span<const NodeId> seeds, const QueryBudget& budget) const override;
  std::unique_ptr<CoverageState> NewCoverage() const override;

  const std::vector<NodeId>& set(NodeId u) const { return sets_[u]; }

 private:
  std::vector<std::vector<NodeId>> sets_;
};

}  // namespace ipin

#endif  // IPIN_CORE_INFLUENCE_ORACLE_H_
