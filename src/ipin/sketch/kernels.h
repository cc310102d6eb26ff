#ifndef IPIN_SKETCH_KERNELS_H_
#define IPIN_SKETCH_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "ipin/common/simd_target.h"

// Vectorized sketch kernels (DESIGN.md §12). The oracle's hot path reduces
// to integer primitives over per-cell max-rank rows, plus one shared
// floating-point epilogue:
//
//   cellwise_max_u8     - the union fast path (cellwise max of two rows)
//   cellwise_max_rows   - the same over a block of rows
//   rank_histogram      - exact count of cells per rank (0..255)
//   coverage_delta      - moves, within a histogram, the counts of the
//                         cells where a candidate row beats a covered row
//   row_stats           - zero cells, rank sum and top rank of a row: the
//                         row check every restored row passes
//   unpack_row          - a row stored as 4-bit offsets from a base rank
//                         back to one byte per cell: how a load decodes
//                         the index file's packed rows
//   EstimateFromHistogram - the one float step: histogram -> estimate
//
// Each integer primitive has one implementation per SIMD target, selected
// once per process from CPUID (overridable with
// IPIN_SIMD=avx2|sse2|neon|scalar; see common/simd_target.h). The integers
// every target produces must equal the scalar reference's exactly, and
// every estimate — estimate_from_ranks, the coverage gains — comes from
// the same EstimateFromHistogram, which fixes its summation order
// (ascending rank, every term exact). So the same rank row, or the same
// histogram, produces the same double on every target, by construction.
// The equivalence fuzz in tests/test_sketch_kernels.cc enforces this
// against the scalar reference for every runnable target.

namespace ipin::kernels {

using ::ipin::SimdTarget;
using ::ipin::SimdTargetName;

/// Bins of a rank histogram: one per uint8_t rank.
inline constexpr size_t kRankBins = 256;

/// What row_stats reports of a rank row.
struct RowStats {
  uint64_t zeros = 0;  // cells of rank 0
  uint64_t sum = 0;    // sum of the ranks
  uint8_t max = 0;     // highest rank (0 for an all-zero row)

  bool operator==(const RowStats&) const = default;
};

struct KernelOps {
  /// dst[i] = max(dst[i], src[i]) for i in [0, n). Unions are folds of this.
  void (*cellwise_max_u8)(uint8_t* dst, const uint8_t* src, size_t n);

  /// cellwise_max_u8 of dst with each of rows[0 .. count), in order: the
  /// sketch union's fold (core/influence_oracle.h), one call per block of
  /// rows.
  void (*cellwise_max_rows)(uint8_t* dst, const uint8_t* const* rows,
                            size_t count, size_t n);

  /// hist[r] = number of i in [0, n) with ranks[i] == r, for all kRankBins
  /// bins. Returns the highest rank present (0 for an all-zero row).
  uint8_t (*rank_histogram)(const uint8_t* ranks, size_t n, uint32_t* hist);

  /// HyperLogLog estimate from one max rank per cell (rank 0 = untouched
  /// cell): this target's rank histogram, then EstimateFromHistogram.
  double (*estimate_from_ranks)(const uint8_t* ranks, size_t n);

  /// For every i in [0, n) with candidate[i] > covered[i], moves one count
  /// of `hist` from bin covered[i] to bin candidate[i]. If `hist` is the
  /// histogram of `covered`, it becomes the histogram of the cellwise max.
  /// Returns the highest rank a moved cell reached (0 if none moved).
  uint8_t (*coverage_delta)(const uint8_t* covered, const uint8_t* candidate,
                            size_t n, uint32_t* hist);

  /// Zero cells, rank sum and highest rank of ranks[0 .. n), in one pass.
  RowStats (*row_stats)(const uint8_t* ranks, size_t n);

  /// ranks[i] = base + nibble i (mod 256) for i in [0, n), where nibble 2j
  /// is the low half of nibbles[j] and nibble 2j + 1 its high half. Reads
  /// (n + 1) / 2 bytes; for odd n the last byte's high half is ignored.
  void (*unpack_row)(const uint8_t* nibbles, uint8_t base, size_t n,
                     uint8_t* ranks);
};

/// The HyperLogLog estimate of n cells from their rank histogram, with the
/// standard linear-counting small-range correction. Every bin at or above
/// `bins` must be zero. Each term hist[r] * 2^-r is exact and the terms are
/// summed in ascending rank, so the double depends only on the histogram.
double EstimateFromHistogram(const uint32_t* hist, size_t bins, size_t n);

/// The kernel table for the dispatched target, ResolvedSimdTarget(). The
/// choice is logged and published as the sketch.kernel.* gauges.
const KernelOps& Dispatched();

/// The target Dispatched() resolved to.
SimdTarget DispatchedTarget();

/// Kernel table for an explicit target, or nullptr when this build/CPU
/// cannot run it. The fuzz tests iterate all runnable targets.
const KernelOps* KernelsFor(SimdTarget target);

/// Convenience wrapper over Dispatched().
inline void CellwiseMaxU8(uint8_t* dst, const uint8_t* src, size_t n) {
  Dispatched().cellwise_max_u8(dst, src, n);
}

}  // namespace ipin::kernels

#endif  // IPIN_SKETCH_KERNELS_H_
