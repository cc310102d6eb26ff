#include "ipin/sketch/kernels.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/random.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/vhll.h"

namespace ipin {
namespace {

using kernels::kRankBins;
using kernels::KernelOps;
using kernels::KernelsFor;
using kernels::SimdTarget;
using kernels::SimdTargetName;

// Every target the current build/CPU can actually run. kScalar is always
// present; the others depend on the architecture and CPUID.
std::vector<SimdTarget> RunnableTargets() {
  std::vector<SimdTarget> targets;
  for (const SimdTarget t : {SimdTarget::kScalar, SimdTarget::kSse2,
                             SimdTarget::kAvx2, SimdTarget::kNeon}) {
    if (KernelsFor(t) != nullptr) targets.push_back(t);
  }
  return targets;
}

const KernelOps& Scalar() { return *KernelsFor(SimdTarget::kScalar); }

TEST(SketchKernelsTest, DispatchIsRunnableAndNamed) {
  const SimdTarget target = kernels::DispatchedTarget();
  EXPECT_NE(KernelsFor(target), nullptr);
  EXPECT_EQ(&kernels::Dispatched(), KernelsFor(target));
  EXPECT_STRNE(SimdTargetName(target), "unknown");
}

TEST(SketchKernelsTest, ScalarAlwaysRunnable) {
  EXPECT_NE(KernelsFor(SimdTarget::kScalar), nullptr);
}

// Randomized scalar-vs-target equivalence for the cellwise max, across all
// vHLL precisions and ragged tails that are not a multiple of any vector
// width (SSE2 16, AVX2 32/64 — the +1/+7 offsets below stress every tail
// path). Integer kernels must agree exactly.
TEST(SketchKernelsTest, CellwiseMaxMatchesScalarFuzz) {
  Rng rng(20260807);
  for (const SimdTarget target : RunnableTargets()) {
    const KernelOps& ops = *KernelsFor(target);
    for (int precision = 4; precision <= 18; ++precision) {
      const size_t beta = size_t{1} << precision;
      for (const size_t n :
           {beta, beta - 1, beta - 7, size_t{1}, size_t{3}, size_t{17}}) {
        std::vector<uint8_t> dst(n), src(n);
        for (size_t i = 0; i < n; ++i) {
          dst[i] = static_cast<uint8_t>(rng.NextBounded(256));
          src[i] = static_cast<uint8_t>(rng.NextBounded(256));
        }
        std::vector<uint8_t> want = dst;
        Scalar().cellwise_max_u8(want.data(), src.data(), n);
        std::vector<uint8_t> got = dst;
        ops.cellwise_max_u8(got.data(), src.data(), n);
        ASSERT_EQ(got, want) << SimdTargetName(target) << " precision "
                             << precision << " n " << n;
      }
    }
  }
}

// The block fold equals one scalar cellwise max per row, in order, for
// every target, block size (0 included) and ragged row length.
TEST(SketchKernelsTest, CellwiseMaxRowsMatchesScalarFuzz) {
  Rng rng(20261019);
  for (const SimdTarget target : RunnableTargets()) {
    const KernelOps& ops = *KernelsFor(target);
    for (const size_t n : {size_t{512}, size_t{16}, size_t{67}, size_t{1}}) {
      for (const size_t count : {size_t{0}, size_t{1}, size_t{5}, size_t{64}}) {
        std::vector<std::vector<uint8_t>> rows(count, std::vector<uint8_t>(n));
        std::vector<const uint8_t*> row_ptrs;
        for (auto& row : rows) {
          for (uint8_t& rank : row) {
            rank = static_cast<uint8_t>(rng.NextBounded(256));
          }
          row_ptrs.push_back(row.data());
        }
        std::vector<uint8_t> want(n);
        for (uint8_t& rank : want) {
          rank = static_cast<uint8_t>(rng.NextBounded(256));
        }
        std::vector<uint8_t> got = want;
        for (const auto& row : rows) {
          Scalar().cellwise_max_u8(want.data(), row.data(), n);
        }
        ops.cellwise_max_rows(got.data(), row_ptrs.data(), count, n);
        ASSERT_EQ(got, want) << SimdTargetName(target) << " n " << n
                             << " rows " << count;
      }
    }
  }
}

// The one floating-point kernel must be BITWISE identical across targets
// (fixed histogram summation order), for dense, sparse, and all-zero rank
// vectors at every precision.
TEST(SketchKernelsTest, EstimateFromRanksBitIdenticalFuzz) {
  Rng rng(777);
  for (int precision = 4; precision <= 18; ++precision) {
    const size_t beta = size_t{1} << precision;
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<uint8_t> ranks(beta, 0);
      if (variant == 1) {
        for (auto& r : ranks) r = static_cast<uint8_t>(rng.NextBounded(62));
      } else if (variant == 2) {
        // Sparse: a few cells set, including max-rank outliers.
        for (int i = 0; i < 5; ++i) {
          ranks[rng.NextBounded(beta)] =
              static_cast<uint8_t>(1 + rng.NextBounded(255));
        }
      }
      const double want =
          Scalar().estimate_from_ranks(ranks.data(), ranks.size());
      for (const SimdTarget target : RunnableTargets()) {
        const double got =
            KernelsFor(target)->estimate_from_ranks(ranks.data(), ranks.size());
        ASSERT_EQ(got, want) << SimdTargetName(target) << " precision "
                             << precision << " variant " << variant;
      }
      // And the public entry point routes through the same kernels.
      ASSERT_EQ(EstimateFromRanks(ranks), want) << precision;
    }
  }
}

using Histogram = std::array<uint32_t, kRankBins>;

// The row shapes the estimate and delta kernels meet: production-like
// geometric ranks, sparse rows (a few set cells, the campaign median), no
// set cell at all, and every rank value 1..255 (far past the 65 - p an
// arena row can hold, which only slows the lane-count histogram down).
enum class RowKind { kGeometric, kSparse, kZero, kFullRange };
constexpr RowKind kRowKinds[] = {RowKind::kGeometric, RowKind::kSparse,
                                 RowKind::kZero, RowKind::kFullRange};

std::vector<uint8_t> MakeRow(RowKind kind, size_t n, Rng* rng) {
  std::vector<uint8_t> row(n, 0);
  switch (kind) {
    case RowKind::kGeometric:
      for (auto& r : row) {
        r = static_cast<uint8_t>(
            std::countr_zero(rng->NextUint64() | (uint64_t{1} << 62)) + 1);
      }
      break;
    case RowKind::kSparse:
      for (size_t i = 0; i < std::min<size_t>(24, n); ++i) {
        row[rng->NextBounded(n)] =
            static_cast<uint8_t>(1 + rng->NextBounded(20));
      }
      break;
    case RowKind::kZero:
      break;
    case RowKind::kFullRange:
      for (auto& r : row) r = static_cast<uint8_t>(1 + rng->NextBounded(255));
      break;
  }
  return row;
}

// Cell counts from beta = 16 to 2^18 with ragged tails that are not a
// multiple of any vector width.
std::vector<size_t> FuzzSizes(int precision) {
  const size_t beta = size_t{1} << precision;
  return {beta, beta - 1, beta - 7, beta + 13};
}

Histogram ScalarHistogram(const std::vector<uint8_t>& ranks, uint8_t* top) {
  Histogram hist;
  *top = Scalar().rank_histogram(ranks.data(), ranks.size(), hist.data());
  return hist;
}

TEST(SketchKernelsTest, RankHistogramMatchesScalarFuzz) {
  Rng rng(4242);
  for (int precision = 4; precision <= 18; ++precision) {
    for (const size_t n : FuzzSizes(precision)) {
      for (const RowKind kind : kRowKinds) {
        const std::vector<uint8_t> ranks = MakeRow(kind, n, &rng);
        uint8_t want_top = 0;
        const Histogram want = ScalarHistogram(ranks, &want_top);
        EXPECT_EQ(want_top, *std::max_element(ranks.begin(), ranks.end()));
        for (const SimdTarget target : RunnableTargets()) {
          Histogram got;
          got.fill(0xdeadbeef);  // every bin must be written
          const uint8_t top =
              KernelsFor(target)->rank_histogram(ranks.data(), n, got.data());
          ASSERT_EQ(top, want_top) << SimdTargetName(target) << " n " << n;
          ASSERT_EQ(got, want) << SimdTargetName(target) << " n " << n
                               << " kind " << static_cast<int>(kind);
        }
      }
    }
  }
}

// 2^18 cells of one rank: every u8 lane counter sees 2^18 / width hits,
// far more than 255, so the flush cadence is what keeps the count right.
TEST(SketchKernelsTest, RankHistogramLaneCountersDoNotWrap) {
  const size_t n = size_t{1} << 18;
  for (const uint8_t rank : {uint8_t{1}, uint8_t{7}, uint8_t{255}}) {
    const std::vector<uint8_t> ranks(n, rank);
    for (const SimdTarget target : RunnableTargets()) {
      Histogram hist;
      const KernelOps& ops = *KernelsFor(target);
      ASSERT_EQ(ops.rank_histogram(ranks.data(), n, hist.data()), rank);
      for (size_t r = 0; r < kRankBins; ++r) {
        ASSERT_EQ(hist[r], r == rank ? n : 0u)
            << SimdTargetName(target) << " rank " << int{rank} << " bin " << r;
      }
      ASSERT_EQ(ops.estimate_from_ranks(ranks.data(), n),
                Scalar().estimate_from_ranks(ranks.data(), n))
          << SimdTargetName(target) << " rank " << int{rank};
    }
  }
}

// The coverage delta: moving the counts of the cells a candidate raises
// turns the covered row's histogram into the merged row's, and the gain
// path's estimate (EstimateFromHistogram over that histogram) equals
// estimate_from_ranks of the merged row, bit for bit. Covers are folds of
// 0, 1 and many rows.
TEST(SketchKernelsTest, CoverageDeltaMatchesMergedHistogramFuzz) {
  Rng rng(5150);
  for (int precision = 4; precision <= 18; ++precision) {
    for (const size_t n : FuzzSizes(precision)) {
      for (const size_t cover_rows : {size_t{0}, size_t{1}, size_t{6}}) {
        for (const RowKind kind : kRowKinds) {
          std::vector<uint8_t> covered(n, 0);
          for (size_t i = 0; i < cover_rows; ++i) {
            const RowKind cover_kind = kRowKinds[rng.NextBounded(4)];
            const std::vector<uint8_t> row = MakeRow(cover_kind, n, &rng);
            Scalar().cellwise_max_u8(covered.data(), row.data(), n);
          }
          const std::vector<uint8_t> candidate = MakeRow(kind, n, &rng);
          std::vector<uint8_t> merged = covered;
          Scalar().cellwise_max_u8(merged.data(), candidate.data(), n);
          uint8_t want_top = 0;
          const Histogram want = ScalarHistogram(merged, &want_top);
          const double want_estimate =
              Scalar().estimate_from_ranks(merged.data(), n);
          for (const SimdTarget target : RunnableTargets()) {
            SCOPED_TRACE(testing::Message()
                         << SimdTargetName(target) << " n " << n << " cover "
                         << cover_rows << " kind " << static_cast<int>(kind));
            const KernelOps& ops = *KernelsFor(target);
            Histogram hist;
            const uint8_t covered_top =
                ops.rank_histogram(covered.data(), n, hist.data());
            const uint8_t raised = ops.coverage_delta(
                covered.data(), candidate.data(), n, hist.data());
            const uint8_t top = std::max(covered_top, raised);
            ASSERT_EQ(hist, want);
            ASSERT_EQ(top, want_top);
            const double estimate =
                kernels::EstimateFromHistogram(hist.data(), size_t{top} + 1, n);
            ASSERT_EQ(estimate, want_estimate);
            ASSERT_EQ(ops.estimate_from_ranks(merged.data(), n),
                      want_estimate);
          }
        }
      }
    }
  }
}

// The row check's kernel: zero cells, rank sum and top rank equal a direct
// count and the scalar reference's on every runnable target, at precisions
// 4..18 with ragged sizes. Rows mix geometric ranks with the bytes the check
// turns on (0, MaxRank, MaxRank + 1, 255), or hold only those bytes, or
// are all 0 or all 255.
TEST(SketchKernelsTest, RowStatsMatchesScalarFuzz) {
  Rng rng(6161);
  for (int precision = 4; precision <= 18; ++precision) {
    const auto max_rank =
        static_cast<uint8_t>(VersionedHll::MaxRank(precision));
    const uint8_t edges[] = {0, max_rank, static_cast<uint8_t>(max_rank + 1),
                             255};
    for (const size_t n : FuzzSizes(precision)) {
      std::vector<std::vector<uint8_t>> rows;
      rows.push_back(MakeRow(RowKind::kGeometric, n, &rng));
      for (size_t i = 0; i < 8; ++i) {
        rows.back()[rng.NextBounded(n)] = edges[rng.NextBounded(4)];
      }
      rows.emplace_back(n);
      for (uint8_t& r : rows.back()) r = edges[rng.NextBounded(4)];
      rows.emplace_back(n, uint8_t{0});
      rows.emplace_back(n, uint8_t{255});
      for (const std::vector<uint8_t>& row : rows) {
        const kernels::RowStats want = Scalar().row_stats(row.data(), n);
        ASSERT_EQ(want.zeros,
                  static_cast<uint64_t>(std::count(row.begin(), row.end(), 0)));
        ASSERT_EQ(want.sum, std::accumulate(row.begin(), row.end(),
                                            uint64_t{0}));
        ASSERT_EQ(want.max, *std::max_element(row.begin(), row.end()));
        for (const SimdTarget target : RunnableTargets()) {
          const kernels::RowStats got =
              KernelsFor(target)->row_stats(row.data(), n);
          ASSERT_EQ(got.zeros, want.zeros) << SimdTargetName(target) << " n "
                                           << n;
          ASSERT_EQ(got.sum, want.sum) << SimdTargetName(target) << " n " << n;
          ASSERT_EQ(got.max, want.max) << SimdTargetName(target) << " n " << n;
        }
      }
    }
  }
}

// An all-zero row of beta = 2^18 cells: each u8 zero counter sees 2^18 /
// width hits, far more than 255, so only the flush keeps the count right.
// The all-255 row of the same size is the largest sum a row can have.
TEST(SketchKernelsTest, RowStatsLaneCountersDoNotWrap) {
  const size_t n = size_t{1} << 18;
  for (const uint8_t rank : {uint8_t{0}, uint8_t{255}}) {
    const std::vector<uint8_t> row(n, rank);
    const kernels::RowStats want{rank == 0 ? n : 0, uint64_t{rank} * n, rank};
    for (const SimdTarget target : RunnableTargets()) {
      EXPECT_EQ(KernelsFor(target)->row_stats(row.data(), n), want)
          << SimdTargetName(target) << " rank " << int{rank};
    }
  }
}

}  // namespace
}  // namespace ipin
