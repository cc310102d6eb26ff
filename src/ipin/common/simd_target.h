#ifndef IPIN_COMMON_SIMD_TARGET_H_
#define IPIN_COMMON_SIMD_TARGET_H_

#include <string_view>

// The process-wide SIMD target (DESIGN.md §12, "Dispatch rules"): the best
// instruction set the build and CPU support, unless IPIN_SIMD names another
// runnable one. Every CPU-specific code path in the library — the sketch
// kernels (sketch/kernels.h) and the CRC32C of the persistence layer
// (common/safe_io.h) — follows this one choice, so IPIN_SIMD=scalar pins
// all of them to their portable reference code.

namespace ipin {

enum class SimdTarget {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Lower-case target name ("scalar", "sse2", "avx2", "neon").
const char* SimdTargetName(SimdTarget target);

/// Parses a target name, case-insensitively. False for unknown names.
bool ParseSimdTarget(std::string_view text, SimdTarget* out);

/// True if this build and CPU can run code for `target`.
bool SimdTargetRunnable(SimdTarget target);

/// The best runnable target: AVX2 when the CPU has it, else SSE2 (the
/// x86_64 floor); NEON on aarch64; scalar elsewhere.
SimdTarget DetectBestSimdTarget();

/// The process-wide target, resolved once on first use: IPIN_SIMD if it
/// names a runnable target, else DetectBestSimdTarget(). An unknown or
/// unrunnable IPIN_SIMD logs a warning and falls back to detection.
SimdTarget ResolvedSimdTarget();

/// True if the CPU has the SSE4.2 crc32 instruction (always false off
/// x86_64).
bool CpuHasSse42Crc32();

}  // namespace ipin

#endif  // IPIN_COMMON_SIMD_TARGET_H_
