#ifndef IPIN_SKETCH_KERNELS_H_
#define IPIN_SKETCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "ipin/common/simd_target.h"

// Vectorized sketch kernels (DESIGN.md §12). The oracle's hot path reduces
// to three integer/table primitives over per-cell max-rank arrays:
//
//   cellwise_max_u8    - the union fast path (cellwise max of two rank rows)
//   estimate_from_ranks- rank histogram + precomputed 2^-r table
//   bounded_max_into   - windowed max-rank materialization over the arena's
//                        struct-of-arrays entry storage
//
// Each primitive has one implementation per SIMD target, selected once per
// process from CPUID (overridable with IPIN_SIMD=avx2|sse2|neon|scalar; see
// common/simd_target.h).
// Every target is bit-identical by construction: the max/compare kernels
// are pure integer ops, and the estimate fixes its floating-point summation
// order (ascending rank over the histogram, every term exact), so the same
// rank vector produces the same double on every target. The equivalence
// fuzz in tests/test_sketch_kernels.cc enforces this against the scalar
// reference for every runnable target.

namespace ipin::kernels {

using ::ipin::SimdTarget;
using ::ipin::SimdTargetName;

struct KernelOps {
  /// dst[i] = max(dst[i], src[i]) for i in [0, n). Unions are folds of this.
  void (*cellwise_max_u8)(uint8_t* dst, const uint8_t* src, size_t n);

  /// HyperLogLog estimate from one max rank per cell (rank 0 = untouched
  /// cell), with the standard linear-counting small-range correction.
  double (*estimate_from_ranks)(const uint8_t* ranks, size_t n);

  /// Windowed max-rank materialization over struct-of-arrays entry storage:
  /// cell c holds counts[c] entries, all cells' entries concatenated in
  /// `ranks`/`times` in cell order with times ascending and ranks strictly
  /// ascending within a cell (the vHLL invariant). Folds each cell's max
  /// rank among entries with time < bound into dst: dst[c] = max(dst[c], r).
  /// `total` is the sum of counts (bounds the entry arrays).
  void (*bounded_max_into)(const uint8_t* counts, const uint8_t* ranks,
                           const int64_t* times, size_t num_cells,
                           size_t total, int64_t bound, uint8_t* dst);
};

/// The kernel table for the dispatched target, ResolvedSimdTarget(). The
/// choice is logged and published as the sketch.kernel.* gauges.
const KernelOps& Dispatched();

/// The target Dispatched() resolved to.
SimdTarget DispatchedTarget();

/// Kernel table for an explicit target, or nullptr when this build/CPU
/// cannot run it. The fuzz tests iterate all runnable targets.
const KernelOps* KernelsFor(SimdTarget target);

/// Convenience wrappers over Dispatched().
inline void CellwiseMaxU8(uint8_t* dst, const uint8_t* src, size_t n) {
  Dispatched().cellwise_max_u8(dst, src, n);
}
inline double EstimateFromRanksDispatched(std::span<const uint8_t> ranks) {
  return Dispatched().estimate_from_ranks(ranks.data(), ranks.size());
}

}  // namespace ipin::kernels

#endif  // IPIN_SKETCH_KERNELS_H_
