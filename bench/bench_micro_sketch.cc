// Micro-benchmarks for the sketch data structures (google-benchmark):
// HLL/vHLL insertion, windowed merge, estimation, and the domination-pruning
// ablation called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "ipin/common/random.h"
#include "ipin/sketch/bottom_k.h"
#include "ipin/sketch/hll.h"
#include "ipin/sketch/kernels.h"
#include "ipin/sketch/vhll.h"

namespace ipin {
namespace {

void BM_HllAdd(benchmark::State& state) {
  HyperLogLog hll(static_cast<int>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) {
    hll.Add(rng.NextUint64());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HllAdd)->Arg(6)->Arg(9)->Arg(12);

void BM_HllEstimate(benchmark::State& state) {
  HyperLogLog hll(static_cast<int>(state.range(0)));
  Rng rng(2);
  for (int i = 0; i < 100000; ++i) hll.Add(rng.NextUint64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(hll.Estimate());
  }
}
BENCHMARK(BM_HllEstimate)->Arg(6)->Arg(9)->Arg(12);

void BM_VhllAddReverseTime(benchmark::State& state) {
  // The IRS access pattern: items arrive with decreasing timestamps.
  VersionedHll vhll(static_cast<int>(state.range(0)));
  Rng rng(3);
  Timestamp t = 1LL << 40;
  for (auto _ : state) {
    vhll.Add(rng.NextUint64(), t--);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VhllAddReverseTime)->Arg(6)->Arg(9)->Arg(12);

void BM_VhllMergeWindow(benchmark::State& state) {
  const int precision = static_cast<int>(state.range(0));
  VersionedHll source(precision);
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) {
    source.Add(rng.NextUint64(), static_cast<Timestamp>(rng.NextBounded(10000)));
  }
  VersionedHll target(precision);
  for (auto _ : state) {
    target.MergeWindow(source, 2000, 5000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VhllMergeWindow)->Arg(6)->Arg(9);

void BM_VhllEstimate(benchmark::State& state) {
  VersionedHll vhll(static_cast<int>(state.range(0)));
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    vhll.Add(rng.NextUint64(), static_cast<Timestamp>(rng.NextBounded(10000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vhll.Estimate());
  }
}
BENCHMARK(BM_VhllEstimate)->Arg(6)->Arg(9);

// Ablation: what domination pruning buys. The naive variant appends every
// (rank, time) pair; memory and per-bound scans degrade from O(log) to O(n)
// per cell.
void BM_AblationNaiveUnprunedCell(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    std::vector<std::pair<uint8_t, Timestamp>> cell;
    for (int i = 0; i < 4096; ++i) {
      cell.emplace_back(static_cast<uint8_t>(1 + rng.NextBounded(30)),
                        static_cast<Timestamp>(4096 - i));
    }
    uint8_t best = 0;
    for (const auto& [r, t] : cell) {
      if (t < 2048 && r > best) best = r;
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_AblationNaiveUnprunedCell);

void BM_AblationPrunedCell(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    VersionedHll vhll(4);
    for (int i = 0; i < 4096; ++i) {
      // Force everything into one cell by driving AddEntry directly.
      vhll.AddEntry(0, static_cast<uint8_t>(1 + rng.NextBounded(30)),
                    static_cast<Timestamp>(4096 - i));
    }
    uint8_t best = 0;
    for (const auto& e : vhll.cell(0)) {
      if (e.time >= 2048) break;
      best = e.rank;
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_AblationPrunedCell);

// --- SIMD kernel engine ---------------------------------------------------
// Scalar vs dispatched variants of the same workload, in the same binary on
// the same machine, so the speedup is a clean in-run ratio
// (scripts/check_kernel_speedup.py gates on it in CI). The scalar kernel is
// compiled with auto-vectorization disabled — it is the true portable
// baseline, not GCC quietly emitting the same SIMD.

constexpr size_t kUnionWidth = 16;  // sketches folded per union estimate

// Production-shaped rank rows: HLL ranks are geometric (half the cells hold
// rank 1), and the histogram build's store-forwarding behavior depends on
// the value distribution, so uniform filler would misstate the kernels.
std::vector<std::vector<uint8_t>> RandomRankRows(size_t beta, size_t rows) {
  Rng rng(9);
  std::vector<std::vector<uint8_t>> out(rows, std::vector<uint8_t>(beta));
  for (auto& row : out) {
    for (auto& r : row) {
      r = static_cast<uint8_t>(
          std::countr_zero(rng.NextUint64() | (uint64_t{1} << 62)) + 1);
    }
  }
  return out;
}

// One oracle union estimate: fold kUnionWidth max-rank rows into a scratch
// accumulator, then estimate — the exact inner loop of EstimateUnionSize.
void RunUnionEstimate(benchmark::State& state,
                      const kernels::KernelOps& ops) {
  const size_t beta = size_t{1} << static_cast<int>(state.range(0));
  const auto rows = RandomRankRows(beta, kUnionWidth);
  std::vector<uint8_t> scratch(beta);
  for (auto _ : state) {
    std::fill(scratch.begin(), scratch.end(), 0);
    for (const auto& row : rows) {
      ops.cellwise_max_u8(scratch.data(), row.data(), beta);
    }
    benchmark::DoNotOptimize(ops.estimate_from_ranks(scratch.data(), beta));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kUnionWidth * beta));
}

void BM_KernelUnionEstimateScalar(benchmark::State& state) {
  RunUnionEstimate(state,
                   *kernels::KernelsFor(kernels::SimdTarget::kScalar));
}
BENCHMARK(BM_KernelUnionEstimateScalar)->Arg(6)->Arg(9)->Arg(12);

void BM_KernelUnionEstimateDispatched(benchmark::State& state) {
  state.SetLabel(kernels::SimdTargetName(kernels::DispatchedTarget()));
  RunUnionEstimate(state, kernels::Dispatched());
}
BENCHMARK(BM_KernelUnionEstimateDispatched)->Arg(6)->Arg(9)->Arg(12);

void RunCellwiseMax(benchmark::State& state, const kernels::KernelOps& ops) {
  const size_t beta = size_t{1} << static_cast<int>(state.range(0));
  const auto rows = RandomRankRows(beta, 2);
  std::vector<uint8_t> dst(rows[0]);
  for (auto _ : state) {
    ops.cellwise_max_u8(dst.data(), rows[1].data(), beta);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(beta));
}

void BM_KernelCellwiseMaxScalar(benchmark::State& state) {
  RunCellwiseMax(state, *kernels::KernelsFor(kernels::SimdTarget::kScalar));
}
BENCHMARK(BM_KernelCellwiseMaxScalar)->Arg(9)->Arg(12);

void BM_KernelCellwiseMaxDispatched(benchmark::State& state) {
  state.SetLabel(kernels::SimdTargetName(kernels::DispatchedTarget()));
  RunCellwiseMax(state, kernels::Dispatched());
}
BENCHMARK(BM_KernelCellwiseMaxDispatched)->Arg(9)->Arg(12);

void RunEstimateFromRanks(benchmark::State& state,
                          const kernels::KernelOps& ops) {
  const size_t beta = size_t{1} << static_cast<int>(state.range(0));
  auto ranks = RandomRankRows(beta, 1)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.estimate_from_ranks(ranks.data(), beta));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(beta));
}

void BM_KernelEstimateFromRanksScalar(benchmark::State& state) {
  RunEstimateFromRanks(state,
                       *kernels::KernelsFor(kernels::SimdTarget::kScalar));
}
BENCHMARK(BM_KernelEstimateFromRanksScalar)->Arg(9)->Arg(12);

void BM_KernelEstimateFromRanksDispatched(benchmark::State& state) {
  state.SetLabel(kernels::SimdTargetName(kernels::DispatchedTarget()));
  RunEstimateFromRanks(state, kernels::Dispatched());
}
BENCHMARK(BM_KernelEstimateFromRanksDispatched)->Arg(9)->Arg(12);

// A campaign-median row: 24 set cells of 512 (half the campaign index's
// rows hold this few), geometric ranks at random cells.
void RunEstimateSparse(benchmark::State& state,
                       const kernels::KernelOps& ops) {
  const size_t beta = size_t{1} << static_cast<int>(state.range(0));
  const auto dense = RandomRankRows(beta, 1)[0];
  std::vector<uint8_t> ranks(beta, 0);
  Rng rng(10);
  for (size_t i = 0; i < 24; ++i) ranks[rng.NextBounded(beta)] = dense[i];
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.estimate_from_ranks(ranks.data(), beta));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(beta));
}

void BM_KernelEstimateSparseScalar(benchmark::State& state) {
  RunEstimateSparse(state, *kernels::KernelsFor(kernels::SimdTarget::kScalar));
}
BENCHMARK(BM_KernelEstimateSparseScalar)->Arg(9);

void BM_KernelEstimateSparseDispatched(benchmark::State& state) {
  state.SetLabel(kernels::SimdTargetName(kernels::DispatchedTarget()));
  RunEstimateSparse(state, kernels::Dispatched());
}
BENCHMARK(BM_KernelEstimateSparseDispatched)->Arg(9);

constexpr size_t kCoverRows = 25;  // CELF seeds folded into the cover
constexpr size_t kCandidates = 64;

// One CELF gain evaluation against a 25-row cover, as RankRowCoverage
// runs it: copy the cover's histogram, move the counts of the cells the
// candidate raises, estimate. Candidates come from the same generator.
void RunCoverageGain(benchmark::State& state, const kernels::KernelOps& ops) {
  const size_t beta = size_t{1} << static_cast<int>(state.range(0));
  const auto rows = RandomRankRows(beta, kCoverRows + kCandidates);
  std::vector<uint8_t> covered(beta, 0);
  for (size_t i = 0; i < kCoverRows; ++i) {
    ops.cellwise_max_u8(covered.data(), rows[i].data(), beta);
  }
  std::array<uint32_t, kernels::kRankBins> hist;
  const uint8_t top = ops.rank_histogram(covered.data(), beta, hist.data());
  const double covered_estimate =
      kernels::EstimateFromHistogram(hist.data(), size_t{top} + 1, beta);
  size_t next = 0;
  for (auto _ : state) {
    const auto& candidate = rows[kCoverRows + next];
    next = (next + 1) % kCandidates;
    std::array<uint32_t, kernels::kRankBins> scratch = hist;
    const uint8_t raised = ops.coverage_delta(covered.data(), candidate.data(),
                                              beta, scratch.data());
    const size_t bins = size_t{std::max(top, raised)} + 1;
    benchmark::DoNotOptimize(
        kernels::EstimateFromHistogram(scratch.data(), bins, beta) -
        covered_estimate);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(beta));
}

void BM_KernelCoverageGainScalar(benchmark::State& state) {
  RunCoverageGain(state, *kernels::KernelsFor(kernels::SimdTarget::kScalar));
}
BENCHMARK(BM_KernelCoverageGainScalar)->Arg(9);

void BM_KernelCoverageGainDispatched(benchmark::State& state) {
  state.SetLabel(kernels::SimdTargetName(kernels::DispatchedTarget()));
  RunCoverageGain(state, kernels::Dispatched());
}
BENCHMARK(BM_KernelCoverageGainDispatched)->Arg(9);

// The row check a load runs on every row it copies (RowIsValid): zero
// cells, rank sum and top rank of one production-shaped row.
void RunRowCheck(benchmark::State& state, const kernels::KernelOps& ops) {
  const size_t beta = size_t{1} << static_cast<int>(state.range(0));
  const auto ranks = RandomRankRows(beta, 1)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.row_stats(ranks.data(), beta));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(beta));
}

void BM_KernelRowCheckScalar(benchmark::State& state) {
  RunRowCheck(state, *kernels::KernelsFor(kernels::SimdTarget::kScalar));
}
BENCHMARK(BM_KernelRowCheckScalar)->Arg(9)->Arg(12);

void BM_KernelRowCheckDispatched(benchmark::State& state) {
  state.SetLabel(kernels::SimdTargetName(kernels::DispatchedTarget()));
  RunRowCheck(state, kernels::Dispatched());
}
BENCHMARK(BM_KernelRowCheckDispatched)->Arg(9)->Arg(12);

// The row unpack a load runs on every packed row of an index file: one
// production-shaped row, stored as 4-bit offsets from base 1 (geometric
// ranks, so some exceed 15 and wrap; the unpack's cost does not depend on
// the values), unpacked back to one byte per cell.
void RunUnpackRow(benchmark::State& state, const kernels::KernelOps& ops) {
  const size_t beta = size_t{1} << static_cast<int>(state.range(0));
  const auto ranks = RandomRankRows(beta, 1)[0];
  std::vector<uint8_t> nibbles(beta / 2);
  for (size_t j = 0; j < beta / 2; ++j) {
    nibbles[j] = static_cast<uint8_t>(((ranks[2 * j] - 1) & 0x0f) |
                                      (((ranks[2 * j + 1] - 1) & 0x0f) << 4));
  }
  std::vector<uint8_t> row(beta);
  for (auto _ : state) {
    ops.unpack_row(nibbles.data(), 1, beta, row.data());
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(beta));
}

void BM_KernelUnpackRowScalar(benchmark::State& state) {
  RunUnpackRow(state, *kernels::KernelsFor(kernels::SimdTarget::kScalar));
}
BENCHMARK(BM_KernelUnpackRowScalar)->Arg(9)->Arg(12);

void BM_KernelUnpackRowDispatched(benchmark::State& state) {
  state.SetLabel(kernels::SimdTargetName(kernels::DispatchedTarget()));
  RunUnpackRow(state, kernels::Dispatched());
}
BENCHMARK(BM_KernelUnpackRowDispatched)->Arg(9)->Arg(12);

void BM_BottomKAdd(benchmark::State& state) {
  BottomK sketch(static_cast<size_t>(state.range(0)));
  Rng rng(7);
  for (auto _ : state) {
    sketch.Add(rng.NextUint64());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BottomKAdd)->Arg(64)->Arg(256);

}  // namespace
}  // namespace ipin
