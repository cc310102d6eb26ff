#include "ipin/sketch/kernels.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/common/random.h"
#include "ipin/sketch/estimators.h"

namespace ipin {
namespace {

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

}  // namespace
}  // namespace ipin
