#include "ipin/core/influence_oracle.h"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "ipin/common/check.h"
#include "ipin/common/thread_pool.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/kernels.h"

namespace ipin {
namespace {

// Coverage over exact hash-set summaries.
class ExactCoverage : public CoverageState {
 public:
  explicit ExactCoverage(const IrsExact* irs) : irs_(irs) {}

  double Covered() const override {
    return static_cast<double>(covered_.size());
  }

  double GainOf(NodeId u) const override {
    size_t gain = 0;
    for (const auto& [v, t] : irs_->Summary(u)) {
      (void)t;
      if (covered_.find(v) == covered_.end()) ++gain;
    }
    return static_cast<double>(gain);
  }

  void Commit(NodeId u) override {
    for (const auto& [v, t] : irs_->Summary(u)) {
      (void)t;
      covered_.insert(v);
    }
  }

 private:
  const IrsExact* irs_;
  std::unordered_set<NodeId> covered_;
};

// Coverage over explicit sets.
class SetCoverage : public CoverageState {
 public:
  explicit SetCoverage(const SetCoverageOracle* oracle) : oracle_(oracle) {}

  double Covered() const override {
    return static_cast<double>(covered_.size());
  }

  double GainOf(NodeId u) const override {
    size_t gain = 0;
    for (const NodeId v : oracle_->set(u)) {
      if (covered_.find(v) == covered_.end()) ++gain;
    }
    return static_cast<double>(gain);
  }

  void Commit(NodeId u) override {
    for (const NodeId v : oracle_->set(u)) covered_.insert(v);
  }

 private:
  const SetCoverageOracle* oracle_;
  std::unordered_set<NodeId> covered_;
};

// Coverage over the arena's max-rank rows: the covered set is the cellwise
// max of the committed rows, kept with its rank histogram. A gain copies the
// histogram, moves the counts of the cells the candidate raises
// (kernels::KernelOps::coverage_delta) and estimates from the result, so it
// costs the cells that change. The histogram equals the merged row's
// exactly, so every gain is bit-identical to estimating the merged row.
class RankRowCoverage : public CoverageState {
 public:
  explicit RankRowCoverage(const SketchArena* arena)
      : arena_(arena), ranks_(arena->num_cells(), 0) {
    hist_.fill(0);
    hist_[0] = static_cast<uint32_t>(ranks_.size());
  }

  double Covered() const override { return covered_; }

  double GainOf(NodeId u) const override {
    if (!arena_->has_node(u)) return 0.0;
    // A stack copy, not a shared scratch: the parallel greedy calls GainOf
    // from several threads at once.
    std::array<uint32_t, kernels::kRankBins> hist = hist_;
    const size_t n = ranks_.size();
    const uint8_t raised = kernels::Dispatched().coverage_delta(
        ranks_.data(), arena_->rank_row(u).data(), n, hist.data());
    if (hist[0] == n) return 0.0;  // every cell still untouched
    const size_t bins = size_t{std::max(top_, raised)} + 1;
    const double with_u =
        kernels::EstimateFromHistogram(hist.data(), bins, n);
    return std::max(0.0, with_u - covered_);
  }

  void Commit(NodeId u) override {
    if (!arena_->has_node(u)) return;
    const kernels::KernelOps& ops = kernels::Dispatched();
    const size_t n = ranks_.size();
    ops.cellwise_max_u8(ranks_.data(), arena_->rank_row(u).data(), n);
    top_ = ops.rank_histogram(ranks_.data(), n, hist_.data());
    covered_ = hist_[0] == n ? 0.0
                             : kernels::EstimateFromHistogram(
                                   hist_.data(), size_t{top_} + 1, n);
  }

 private:
  const SketchArena* arena_;
  std::vector<uint8_t> ranks_;
  std::array<uint32_t, kernels::kRankBins> hist_;
  uint8_t top_ = 0;
  double covered_ = 0.0;
};

}  // namespace

UnionRow FoldRankRows(const IrsApprox& irs, std::span<const NodeId> seeds,
                      const QueryBudget& budget) {
  constexpr size_t kBlock = 64;
  const SketchArena& arena = *irs.arena();
  const size_t num_nodes = irs.num_nodes();
  const size_t num_cells = arena.num_cells();
  static thread_local std::vector<uint8_t> buffer;
  buffer.assign(num_cells, 0);
  const std::span<uint8_t> ranks(buffer);
  if (budget.Expired()) return {ranks, true};
  const kernels::KernelOps& ops = kernels::Dispatched();
  const uint8_t* rows[kBlock];
  size_t count = 0;
  for (const NodeId u : seeds) {
    IPIN_CHECK_LT(u, num_nodes);
    if (!arena.has_node(u)) continue;
    rows[count++] = arena.rank_row(u).data();
    if (count == kBlock) {
      ops.cellwise_max_rows(ranks.data(), rows, count, num_cells);
      count = 0;
      if (budget.Expired()) return {ranks, true};
    }
  }
  ops.cellwise_max_rows(ranks.data(), rows, count, num_cells);
  return {ranks, false};
}

BudgetedValue ExactUnion(std::span<const IrsSummaryMap> rows,
                         std::span<const NodeId> seeds,
                         const QueryBudget& budget) {
  std::unordered_set<NodeId> seen;
  const auto partial = [&seen] {
    return BudgetedValue{static_cast<double>(seen.size()), true};
  };
  if (budget.Expired()) return partial();
  size_t scanned = 0;
  for (const NodeId u : seeds) {
    IPIN_CHECK_LT(u, rows.size());
    for (const auto& [v, t] : rows[u]) {
      (void)t;
      seen.insert(v);
      if (++scanned % 1024 == 0 && budget.Expired()) return partial();
    }
  }
  return {static_cast<double>(seen.size()), false};
}

std::vector<double> InfluenceOracle::InfluenceOfAll() const {
  obs::PhaseSpan phase("oracle.influence_of_all", num_nodes());
  std::vector<double> influence(num_nodes());
  ParallelFor(0, influence.size(), 256, [&](size_t lo, size_t hi) {
    for (size_t u = lo; u < hi; ++u) {
      influence[u] = InfluenceOf(static_cast<NodeId>(u));
    }
    phase.Tick(hi - lo);
  });
  return influence;
}

ExactInfluenceOracle::ExactInfluenceOracle(const IrsExact* irs) : irs_(irs) {
  IPIN_CHECK(irs != nullptr);
}

size_t ExactInfluenceOracle::num_nodes() const { return irs_->num_nodes(); }

double ExactInfluenceOracle::InfluenceOf(NodeId u) const {
  return static_cast<double>(irs_->IrsSize(u));
}

BudgetedValue ExactInfluenceOracle::InfluenceOfSetBudgeted(
    std::span<const NodeId> seeds, const QueryBudget& budget) const {
  IPIN_LATENCY_SCOPE("oracle.exact.query_us");
  return ExactUnion(irs_->summaries(), seeds, budget);
}

std::unique_ptr<CoverageState> ExactInfluenceOracle::NewCoverage() const {
  return std::make_unique<ExactCoverage>(irs_);
}

SketchInfluenceOracle::SketchInfluenceOracle(const IrsApprox* irs)
    : irs_(irs) {
  IPIN_CHECK(irs != nullptr);
}

size_t SketchInfluenceOracle::num_nodes() const { return irs_->num_nodes(); }

double SketchInfluenceOracle::InfluenceOf(NodeId u) const {
  return irs_->EstimateIrsSize(u);
}

BudgetedValue SketchInfluenceOracle::InfluenceOfSetBudgeted(
    std::span<const NodeId> seeds, const QueryBudget& budget) const {
  return InfluenceOfSetBudgeted(seeds, budget, nullptr);
}

BudgetedValue SketchInfluenceOracle::InfluenceOfSetBudgeted(
    std::span<const NodeId> seeds, const QueryBudget& budget,
    std::vector<uint8_t>* ranks) const {
  IPIN_LATENCY_SCOPE("oracle.sketch.query_us");
  const UnionRow row = FoldRankRows(*irs_, seeds, budget);
  if (ranks != nullptr) ranks->assign(row.ranks.begin(), row.ranks.end());
  return {EstimateFromRanks(row.ranks), row.exceeded};
}

std::unique_ptr<CoverageState> SketchInfluenceOracle::NewCoverage() const {
  return std::make_unique<RankRowCoverage>(irs_->arena());
}

SetCoverageOracle::SetCoverageOracle(std::vector<std::vector<NodeId>> sets)
    : sets_(std::move(sets)) {}

size_t SetCoverageOracle::num_nodes() const { return sets_.size(); }

double SetCoverageOracle::InfluenceOf(NodeId u) const {
  return static_cast<double>(sets_[u].size());
}

BudgetedValue SetCoverageOracle::InfluenceOfSetBudgeted(
    std::span<const NodeId> seeds, const QueryBudget& budget) const {
  (void)budget;
  std::unordered_set<NodeId> seen;
  for (const NodeId u : seeds) {
    IPIN_CHECK_LT(u, sets_.size());
    seen.insert(sets_[u].begin(), sets_[u].end());
  }
  return {static_cast<double>(seen.size()), false};
}

std::unique_ptr<CoverageState> SetCoverageOracle::NewCoverage() const {
  return std::make_unique<SetCoverage>(this);
}

}  // namespace ipin
