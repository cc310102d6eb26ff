#include "ipin/sketch/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "ipin/common/check.h"
#include "ipin/common/logging.h"
#include "ipin/obs/metrics.h"
#include "ipin/sketch/estimators.h"

#if defined(__x86_64__) || defined(__i386__)
#define IPIN_KERNELS_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define IPIN_KERNELS_NEON 1
#include <arm_neon.h>
#endif

// The scalar implementations are the reference the fuzz tests compare
// against AND the baseline the benchmarks measure speedups against, so the
// compiler must not auto-vectorize them (-O3 would happily turn the byte
// max loop into the very AVX2 code we are comparing to).
#if defined(__GNUC__) && !defined(__clang__)
#define IPIN_NO_AUTOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define IPIN_NO_AUTOVEC
#endif

namespace ipin::kernels {
namespace {

// ---------------------------------------------------------------------------
// Shared estimate epilogue: a table of 2^-r, one entry per rank bin.
// ---------------------------------------------------------------------------

struct Pow2NegTable {
  double value[kRankBins];
  Pow2NegTable() {
    for (size_t r = 0; r < kRankBins; ++r) {
      value[r] = std::ldexp(1.0, -static_cast<int>(r));
    }
  }
};

const Pow2NegTable& Pow2Neg() {
  static const Pow2NegTable table;
  return table;
}

// Every target's estimate_from_ranks: the target's histogram of bins
// [0, top], then the shared epilogue. `hist` is left uninitialized on
// purpose: the epilogue reads only bins [0, top], and zeroing all 256 would
// cost a sparse row more than counting it.
template <uint8_t (*HistogramPrefix)(const uint8_t*, size_t, uint32_t*)>
double EstimateVia(const uint8_t* ranks, size_t n) {
  uint32_t hist[kRankBins];
  const uint8_t top = HistogramPrefix(ranks, n, hist);
  return EstimateFromHistogram(hist, size_t{top} + 1, n);
}

// Every target's cellwise_max_rows: its cellwise max, called directly once
// per row.
template <void (*CellwiseMax)(uint8_t*, const uint8_t*, size_t)>
void CellwiseMaxRowsVia(uint8_t* dst, const uint8_t* const* rows, size_t count,
                        size_t n) {
  for (size_t j = 0; j < count; ++j) CellwiseMax(dst, rows[j], n);
}

// Every target's rank_histogram: the prefix, then zeros above top.
template <uint8_t (*HistogramPrefix)(const uint8_t*, size_t, uint32_t*)>
uint8_t RankHistogramVia(const uint8_t* ranks, size_t n, uint32_t* hist) {
  const uint8_t top = HistogramPrefix(ranks, n, hist);
  std::fill(hist + size_t{top} + 1, hist + kRankBins, 0u);
  return top;
}

// ---------------------------------------------------------------------------
// Scalar reference kernels.
// ---------------------------------------------------------------------------

IPIN_NO_AUTOVEC
void CellwiseMaxU8Scalar(uint8_t* dst, const uint8_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t s = src[i];
    if (s > dst[i]) dst[i] = s;
  }
}

IPIN_NO_AUTOVEC
uint8_t RankHistogramScalar(const uint8_t* ranks, size_t n, uint32_t* hist) {
  std::fill(hist, hist + kRankBins, 0u);
  for (size_t i = 0; i < n; ++i) ++hist[ranks[i]];
  size_t top = kRankBins - 1;
  while (top > 0 && hist[top] == 0) --top;
  return static_cast<uint8_t>(top);
}

double EstimateFromRanksScalar(const uint8_t* ranks, size_t n) {
  uint32_t hist[kRankBins];
  RankHistogramScalar(ranks, n, hist);
  return EstimateFromHistogram(hist, kRankBins, n);
}

IPIN_NO_AUTOVEC
uint8_t CoverageDeltaScalar(const uint8_t* covered, const uint8_t* candidate,
                            size_t n, uint32_t* hist) {
  uint8_t top = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t c = candidate[i];
    if (c > covered[i]) {
      --hist[covered[i]];
      ++hist[c];
      if (c > top) top = c;
    }
  }
  return top;
}

IPIN_NO_AUTOVEC
RowStats RowStatsScalar(const uint8_t* ranks, size_t n) {
  RowStats stats;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t r = ranks[i];
    stats.zeros += r == 0;
    stats.sum += r;
    if (r > stats.max) stats.max = r;
  }
  return stats;
}

IPIN_NO_AUTOVEC
void UnpackRowScalar(const uint8_t* nibbles, uint8_t base, size_t n,
                     uint8_t* ranks) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t byte = nibbles[i / 2];
    const uint8_t nibble = i % 2 == 0 ? byte & 0x0f : byte >> 4;
    ranks[i] = static_cast<uint8_t>(base + nibble);
  }
}

constexpr KernelOps kScalarOps = {
    &CellwiseMaxU8Scalar,
    &CellwiseMaxRowsVia<CellwiseMaxU8Scalar>,
    &RankHistogramScalar,
    &EstimateFromRanksScalar,
    &CoverageDeltaScalar,
    &RowStatsScalar,
    &UnpackRowScalar,
};

// The NEON histogram, kept outside the NEON block so every build type-checks
// it. Rank data is geometric (half the cells hold rank 1), so a single
// histogram stalls on store-to-load forwarding between back-to-back
// increments of the same bin; eight interleaved sub-histograms fed from one
// u64 load break that chain. `bins` = max rank + 1, so zeroing and merging
// touch only the live prefix. Integer adds throughout: the merged histogram
// is exactly the scalar one.
[[maybe_unused]] void HistogramInterleaved(const uint8_t* ranks, size_t n,
                                           size_t bins, uint32_t* out) {
  uint32_t hist[8][kRankBins];
  for (auto& h : hist) std::memset(h, 0, bins * sizeof(uint32_t));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, ranks + i, sizeof(w));
    ++hist[0][w & 0xff];
    ++hist[1][(w >> 8) & 0xff];
    ++hist[2][(w >> 16) & 0xff];
    ++hist[3][(w >> 24) & 0xff];
    ++hist[4][(w >> 32) & 0xff];
    ++hist[5][(w >> 40) & 0xff];
    ++hist[6][(w >> 48) & 0xff];
    ++hist[7][(w >> 56) & 0xff];
  }
  for (; i < n; ++i) ++hist[0][ranks[i]];
  for (size_t r = 0; r < bins; ++r) {
    uint32_t total = hist[0][r];
    for (int h = 1; h < 8; ++h) total += hist[h][r];
    out[r] = total;
  }
}

// ---------------------------------------------------------------------------
// x86: lane-count rank histograms and movemask coverage deltas.
//
// The histogram finds top with a vector max-reduce, then for each rank
// r = 1..top subtracts cmpeq(cell, r) (0 or -1 per lane) into u8 lane
// counters. A lane gains at most one per vector, so the counters are
// flushed through sad_epu8 into u64 totals every kLaneBlock vectors, before
// any can wrap. hist[0] = n - sum of the others. The cost is top x n / width
// vector ops: sparse rows, whose top is small, pay little, and no rank
// value up to 255 is wrong, only slower.
//
// The delta compares max(covered, candidate) with covered; the movemask of
// the lanes that differ lists, bit by bit, the cells whose counts move.
//
// The row stats keep a running u8 max, add each vector's sad_epu8 (its
// byte sum, in u64 lanes) to the rank sum, and count zero cells in u8 lane
// counters flushed like the histogram's, every kLaneBlock vectors.
//
// The row unpack splits each vector of packed bytes into its low and high
// halves, interleaves them with unpacklo/hi_epi8 (cell 2j from byte j's
// low half, cell 2j + 1 from its high half), and adds the base.
// ---------------------------------------------------------------------------

#ifdef IPIN_KERNELS_X86

constexpr size_t kLaneBlock = 255;  // vectors per u8 lane-counter flush

uint8_t HorizontalMaxU8(__m128i m) {
  m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
  return static_cast<uint8_t>(_mm_cvtsi128_si32(m) & 0xff);
}

// Sum of the two u64 lanes of a sad_epu8 result. One flush sums at most
// 32 lane counters of at most 255 each, so the low 32 bits hold it.
uint32_t HorizontalSumU64(__m128i s) {
  s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(s));
}

// The scalar tail of a lane-count histogram: counts the cells past the
// vector part into bins 1..top, then derives bin 0 from n.
uint8_t FinishHistogram(const uint8_t* ranks, size_t vec_end, size_t n,
                        uint8_t top, uint32_t* hist) {
  for (size_t i = vec_end; i < n; ++i) ++hist[ranks[i]];
  size_t counted = 0;
  for (size_t r = 1; r <= top; ++r) counted += hist[r];
  hist[0] = static_cast<uint32_t>(n - counted);
  return top;
}

uint64_t SumU64Lanes(__m128i s) {
  uint64_t lanes[2];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes), s);
  return lanes[0] + lanes[1];
}

// Folds a vector part's accumulators into the scalar stats of its tail.
RowStats FinishRowStats(RowStats tail, __m128i top, __m128i sums,
                        __m128i zeros) {
  tail.zeros += SumU64Lanes(zeros);
  tail.sum += SumU64Lanes(sums);
  tail.max = std::max(tail.max, HorizontalMaxU8(top));
  return tail;
}

// Moves the counts of the cells set in `mask` (bit j = cell base + j).
inline void MoveCounts(uint32_t mask, const uint8_t* covered,
                       const uint8_t* candidate, size_t base, uint32_t* hist,
                       uint8_t* top) {
  while (mask != 0) {
    const size_t i = base + static_cast<size_t>(__builtin_ctz(mask));
    mask &= mask - 1;
    --hist[covered[i]];
    ++hist[candidate[i]];
    if (candidate[i] > *top) *top = candidate[i];
  }
}

// ---------------------------------------------------------------------------
// SSE2 (x86_64 baseline — always runnable there).
// ---------------------------------------------------------------------------

void CellwiseMaxU8Sse2(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_max_epu8(d, s));
  }
  for (; i < n; ++i) {
    if (src[i] > dst[i]) dst[i] = src[i];
  }
}

uint8_t HistogramPrefixSse2(const uint8_t* ranks, size_t n, uint32_t* hist) {
  const size_t vec_end = n - n % 16;
  __m128i m = _mm_setzero_si128();
  for (size_t i = 0; i < vec_end; i += 16) {
    m = _mm_max_epu8(
        m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(ranks + i)));
  }
  uint8_t top = HorizontalMaxU8(m);
  for (size_t i = vec_end; i < n; ++i) top = std::max(top, ranks[i]);
  std::fill(hist, hist + size_t{top} + 1, 0u);
  const __m128i zero = _mm_setzero_si128();
  for (size_t block = 0; block < vec_end; block += kLaneBlock * 16) {
    const size_t block_end = std::min(vec_end, block + kLaneBlock * 16);
    for (size_t r = 1; r <= top; ++r) {
      const __m128i needle = _mm_set1_epi8(static_cast<char>(r));
      __m128i lanes = zero;
      for (size_t i = block; i < block_end; i += 16) {
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(ranks + i));
        lanes = _mm_sub_epi8(lanes, _mm_cmpeq_epi8(v, needle));
      }
      hist[r] += HorizontalSumU64(_mm_sad_epu8(lanes, zero));
    }
  }
  return FinishHistogram(ranks, vec_end, n, top, hist);
}

uint8_t CoverageDeltaSse2(const uint8_t* covered, const uint8_t* candidate,
                          size_t n, uint32_t* hist) {
  uint8_t top = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(covered + i));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(candidate + i));
    const uint32_t same = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_max_epu8(c, d), c)));
    MoveCounts(~same & 0xffffu, covered, candidate, i, hist, &top);
  }
  return std::max(top, CoverageDeltaScalar(covered + i, candidate + i, n - i,
                                           hist));
}

RowStats RowStatsSse2(const uint8_t* ranks, size_t n) {
  const size_t vec_end = n - n % 16;
  const __m128i zero = _mm_setzero_si128();
  __m128i top = zero;
  __m128i sums = zero;
  __m128i zeros = zero;
  for (size_t block = 0; block < vec_end; block += kLaneBlock * 16) {
    const size_t block_end = std::min(vec_end, block + kLaneBlock * 16);
    __m128i lanes = zero;
    for (size_t i = block; i < block_end; i += 16) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ranks + i));
      top = _mm_max_epu8(top, v);
      sums = _mm_add_epi64(sums, _mm_sad_epu8(v, zero));
      lanes = _mm_sub_epi8(lanes, _mm_cmpeq_epi8(v, zero));
    }
    zeros = _mm_add_epi64(zeros, _mm_sad_epu8(lanes, zero));
  }
  return FinishRowStats(RowStatsScalar(ranks + vec_end, n - vec_end), top,
                        sums, zeros);
}

void UnpackRowSse2(const uint8_t* nibbles, uint8_t base, size_t n,
                   uint8_t* ranks) {
  const __m128i low = _mm_set1_epi8(0x0f);
  const __m128i add = _mm_set1_epi8(static_cast<char>(base));
  size_t i = 0;  // cells written: a multiple of 32, so i / 2 is exact
  for (; i + 32 <= n; i += 32) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(nibbles + i / 2));
    const __m128i lo = _mm_and_si128(v, low);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4), low);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ranks + i),
                     _mm_add_epi8(_mm_unpacklo_epi8(lo, hi), add));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ranks + i + 16),
                     _mm_add_epi8(_mm_unpackhi_epi8(lo, hi), add));
  }
  UnpackRowScalar(nibbles + i / 2, base, n - i, ranks + i);
}

constexpr KernelOps kSse2Ops = {
    &CellwiseMaxU8Sse2,
    &CellwiseMaxRowsVia<CellwiseMaxU8Sse2>,
    &RankHistogramVia<HistogramPrefixSse2>,
    &EstimateVia<HistogramPrefixSse2>,
    &CoverageDeltaSse2,
    &RowStatsSse2,
    &UnpackRowSse2,
};

// ---------------------------------------------------------------------------
// AVX2 (compiled with a target attribute, entered only after CPUID check).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void CellwiseMaxU8Avx2(uint8_t* dst,
                                                       const uint8_t* src,
                                                       size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    const __m256i s0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_max_epu8(d0, s0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_max_epu8(d1, s1));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_max_epu8(d, s));
  }
  for (; i + 16 <= n; i += 16) {
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_max_epu8(d, s));
  }
  for (; i < n; ++i) {
    if (src[i] > dst[i]) dst[i] = src[i];
  }
}

__attribute__((target("avx2"))) uint8_t HistogramPrefixAvx2(
    const uint8_t* ranks, size_t n, uint32_t* hist) {
  const size_t vec_end = n - n % 32;
  __m256i m = _mm256_setzero_si256();
  for (size_t i = 0; i < vec_end; i += 32) {
    m = _mm256_max_epu8(
        m, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ranks + i)));
  }
  uint8_t top = HorizontalMaxU8(_mm_max_epu8(_mm256_castsi256_si128(m),
                                             _mm256_extracti128_si256(m, 1)));
  for (size_t i = vec_end; i < n; ++i) top = std::max(top, ranks[i]);
  std::fill(hist, hist + size_t{top} + 1, 0u);
  const __m256i zero = _mm256_setzero_si256();
  for (size_t block = 0; block < vec_end; block += kLaneBlock * 32) {
    const size_t block_end = std::min(vec_end, block + kLaneBlock * 32);
    for (size_t r = 1; r <= top; ++r) {
      const __m256i needle = _mm256_set1_epi8(static_cast<char>(r));
      __m256i lanes = zero;
      for (size_t i = block; i < block_end; i += 32) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ranks + i));
        lanes = _mm256_sub_epi8(lanes, _mm256_cmpeq_epi8(v, needle));
      }
      const __m256i sums = _mm256_sad_epu8(lanes, zero);
      hist[r] += HorizontalSumU64(_mm_add_epi64(
          _mm256_castsi256_si128(sums), _mm256_extracti128_si256(sums, 1)));
    }
  }
  return FinishHistogram(ranks, vec_end, n, top, hist);
}

__attribute__((target("avx2"))) uint8_t CoverageDeltaAvx2(
    const uint8_t* covered, const uint8_t* candidate, size_t n,
    uint32_t* hist) {
  uint8_t top = 0;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(covered + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(candidate + i));
    const uint32_t same = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_max_epu8(c, d), c)));
    MoveCounts(~same, covered, candidate, i, hist, &top);
  }
  // GCC emits no vzeroupper here by itself; without one, the dirty upper
  // halves slow every SSE instruction that follows (the estimate epilogue
  // first) until some other AVX function clears them.
  _mm256_zeroupper();
  return std::max(top, CoverageDeltaScalar(covered + i, candidate + i, n - i,
                                           hist));
}

__attribute__((target("avx2"))) RowStats RowStatsAvx2(const uint8_t* ranks,
                                                      size_t n) {
  const size_t vec_end = n - n % 32;
  const __m256i zero = _mm256_setzero_si256();
  __m256i top = zero;
  __m256i sums = zero;
  __m256i zeros = zero;
  for (size_t block = 0; block < vec_end; block += kLaneBlock * 32) {
    const size_t block_end = std::min(vec_end, block + kLaneBlock * 32);
    __m256i lanes = zero;
    for (size_t i = block; i < block_end; i += 32) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ranks + i));
      top = _mm256_max_epu8(top, v);
      sums = _mm256_add_epi64(sums, _mm256_sad_epu8(v, zero));
      lanes = _mm256_sub_epi8(lanes, _mm256_cmpeq_epi8(v, zero));
    }
    zeros = _mm256_add_epi64(zeros, _mm256_sad_epu8(lanes, zero));
  }
  const __m128i top128 = _mm_max_epu8(_mm256_castsi256_si128(top),
                                      _mm256_extracti128_si256(top, 1));
  const __m128i sums128 = _mm_add_epi64(_mm256_castsi256_si128(sums),
                                        _mm256_extracti128_si256(sums, 1));
  const __m128i zeros128 = _mm_add_epi64(_mm256_castsi256_si128(zeros),
                                         _mm256_extracti128_si256(zeros, 1));
  _mm256_zeroupper();  // as in CoverageDeltaAvx2: SSE code follows
  return FinishRowStats(RowStatsScalar(ranks + vec_end, n - vec_end), top128,
                        sums128, zeros128);
}

// unpacklo/hi_epi8 interleave within each 128-bit lane: of 32 packed
// bytes, `a` holds cells 0-15 and 32-47, `b` cells 16-31 and 48-63, and
// one permute per output puts them back in order.
__attribute__((target("avx2"))) void UnpackRowAvx2(const uint8_t* nibbles,
                                                   uint8_t base, size_t n,
                                                   uint8_t* ranks) {
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i add = _mm256_set1_epi8(static_cast<char>(base));
  size_t i = 0;  // cells written: a multiple of 64, so i / 2 is exact
  for (; i + 64 <= n; i += 64) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(nibbles + i / 2));
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    const __m256i a = _mm256_unpacklo_epi8(lo, hi);
    const __m256i b = _mm256_unpackhi_epi8(lo, hi);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(ranks + i),
        _mm256_add_epi8(_mm256_permute2x128_si256(a, b, 0x20), add));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(ranks + i + 32),
        _mm256_add_epi8(_mm256_permute2x128_si256(a, b, 0x31), add));
  }
  _mm256_zeroupper();  // as in CoverageDeltaAvx2: SSE code follows
  UnpackRowSse2(nibbles + i / 2, base, n - i, ranks + i);
}

constexpr KernelOps kAvx2Ops = {
    &CellwiseMaxU8Avx2,
    &CellwiseMaxRowsVia<CellwiseMaxU8Avx2>,
    &RankHistogramVia<HistogramPrefixAvx2>,
    &EstimateVia<HistogramPrefixAvx2>,
    &CoverageDeltaAvx2,
    &RowStatsAvx2,
    &UnpackRowAvx2,
};

#endif  // IPIN_KERNELS_X86

// ---------------------------------------------------------------------------
// NEON (aarch64 baseline). The histogram is the interleaved one above; the
// coverage delta is the scalar reference. The row stats sum ranks pairwise
// into u16 lanes, which gain at most 2 x 255 a vector, so both they and the
// u8 zero counters are flushed every kNeonStatsBlock vectors. The row
// unpack splits 16 packed bytes into their halves and stores them
// interleaved with vst2q_u8.
// ---------------------------------------------------------------------------

#ifdef IPIN_KERNELS_NEON

void CellwiseMaxU8Neon(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, vmaxq_u8(vld1q_u8(dst + i), vld1q_u8(src + i)));
  }
  for (; i < n; ++i) {
    if (src[i] > dst[i]) dst[i] = src[i];
  }
}

uint8_t HistogramPrefixNeon(const uint8_t* ranks, size_t n, uint32_t* hist) {
  uint8x16_t m = vdupq_n_u8(0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    m = vmaxq_u8(m, vld1q_u8(ranks + i));
  }
  uint8_t top = vmaxvq_u8(m);
  for (; i < n; ++i) top = std::max(top, ranks[i]);
  HistogramInterleaved(ranks, n, size_t{top} + 1, hist);
  return top;
}

constexpr size_t kNeonStatsBlock = 128;  // vectors per u16 / u8 flush

RowStats RowStatsNeon(const uint8_t* ranks, size_t n) {
  const size_t vec_end = n - n % 16;
  const uint8x16_t zero = vdupq_n_u8(0);
  uint8x16_t top = zero;
  uint64_t sum = 0;
  uint64_t zeros = 0;
  for (size_t block = 0; block < vec_end; block += kNeonStatsBlock * 16) {
    const size_t block_end = std::min(vec_end, block + kNeonStatsBlock * 16);
    uint16x8_t sums = vdupq_n_u16(0);
    uint8x16_t lanes = zero;
    for (size_t i = block; i < block_end; i += 16) {
      const uint8x16_t v = vld1q_u8(ranks + i);
      top = vmaxq_u8(top, v);
      sums = vpadalq_u8(sums, v);
      lanes = vsubq_u8(lanes, vceqq_u8(v, zero));
    }
    sum += vaddlvq_u16(sums);
    zeros += vaddlvq_u8(lanes);
  }
  RowStats stats = RowStatsScalar(ranks + vec_end, n - vec_end);
  stats.zeros += zeros;
  stats.sum += sum;
  stats.max = std::max(stats.max, vmaxvq_u8(top));
  return stats;
}

void UnpackRowNeon(const uint8_t* nibbles, uint8_t base, size_t n,
                   uint8_t* ranks) {
  const uint8x16_t low = vdupq_n_u8(0x0f);
  const uint8x16_t add = vdupq_n_u8(base);
  size_t i = 0;  // cells written: a multiple of 32, so i / 2 is exact
  for (; i + 32 <= n; i += 32) {
    const uint8x16_t v = vld1q_u8(nibbles + i / 2);
    uint8x16x2_t cells;
    cells.val[0] = vaddq_u8(vandq_u8(v, low), add);
    cells.val[1] = vaddq_u8(vshrq_n_u8(v, 4), add);
    vst2q_u8(ranks + i, cells);
  }
  UnpackRowScalar(nibbles + i / 2, base, n - i, ranks + i);
}

constexpr KernelOps kNeonOps = {
    &CellwiseMaxU8Neon,
    &CellwiseMaxRowsVia<CellwiseMaxU8Neon>,
    &RankHistogramVia<HistogramPrefixNeon>,
    &EstimateVia<HistogramPrefixNeon>,
    &CoverageDeltaScalar,
    &RowStatsNeon,
    &UnpackRowNeon,
};

#endif  // IPIN_KERNELS_NEON

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

struct Dispatch {
  SimdTarget target;
  const KernelOps* ops;
};

Dispatch ResolveDispatch() {
  const SimdTarget target = ResolvedSimdTarget();
  const KernelOps* ops = KernelsFor(target);
  IPIN_CHECK(ops != nullptr);
  LogInfo(std::string("sketch kernels dispatched: ") + SimdTargetName(target));
  IPIN_GAUGE_SET("sketch.kernel.target", static_cast<int>(target));
  switch (target) {
    case SimdTarget::kScalar:
      IPIN_GAUGE_SET("sketch.kernel.scalar", 1);
      break;
    case SimdTarget::kSse2:
      IPIN_GAUGE_SET("sketch.kernel.sse2", 1);
      break;
    case SimdTarget::kAvx2:
      IPIN_GAUGE_SET("sketch.kernel.avx2", 1);
      break;
    case SimdTarget::kNeon:
      IPIN_GAUGE_SET("sketch.kernel.neon", 1);
      break;
  }
  return Dispatch{target, ops};
}

const Dispatch& GetDispatch() {
  static const Dispatch dispatch = ResolveDispatch();
  return dispatch;
}

}  // namespace

double EstimateFromHistogram(const uint32_t* hist, size_t bins, size_t n) {
  const Pow2NegTable& table = Pow2Neg();
  double inverse_sum = 0.0;
  for (size_t r = 0; r < bins; ++r) {
    if (hist[r] != 0) {
      inverse_sum += static_cast<double>(hist[r]) * table.value[r];
    }
  }
  const size_t zeros = hist[0];
  const double md = static_cast<double>(n);
  const double raw = HllAlpha(n) * md * md / inverse_sum;
  if (raw <= 2.5 * md && zeros > 0) {
    // Linear counting in the small-cardinality regime.
    return md * std::log(md / static_cast<double>(zeros));
  }
  return raw;
}

const KernelOps* KernelsFor(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return &kScalarOps;
    case SimdTarget::kSse2:
#ifdef IPIN_KERNELS_X86
      return &kSse2Ops;
#else
      return nullptr;
#endif
    case SimdTarget::kAvx2:
#ifdef IPIN_KERNELS_X86
      return SimdTargetRunnable(SimdTarget::kAvx2) ? &kAvx2Ops : nullptr;
#else
      return nullptr;
#endif
    case SimdTarget::kNeon:
#ifdef IPIN_KERNELS_NEON
      return &kNeonOps;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const KernelOps& Dispatched() { return *GetDispatch().ops; }

SimdTarget DispatchedTarget() { return GetDispatch().target; }

}  // namespace ipin::kernels
