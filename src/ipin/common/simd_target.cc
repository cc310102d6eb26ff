#include "ipin/common/simd_target.h"

#include <cstdlib>
#include <string>

#include "ipin/common/logging.h"

namespace ipin {

const char* SimdTargetName(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return "scalar";
    case SimdTarget::kSse2:
      return "sse2";
    case SimdTarget::kAvx2:
      return "avx2";
    case SimdTarget::kNeon:
      return "neon";
  }
  return "unknown";
}

bool ParseSimdTarget(std::string_view text, SimdTarget* out) {
  std::string lower;
  lower.reserve(text.size());
  for (const char ch : text) {
    lower.push_back(ch >= 'A' && ch <= 'Z' ? static_cast<char>(ch - 'A' + 'a')
                                           : ch);
  }
  if (lower == "scalar") {
    *out = SimdTarget::kScalar;
  } else if (lower == "sse2") {
    *out = SimdTarget::kSse2;
  } else if (lower == "avx2") {
    *out = SimdTarget::kAvx2;
  } else if (lower == "neon") {
    *out = SimdTarget::kNeon;
  } else {
    return false;
  }
  return true;
}

bool SimdTargetRunnable(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return true;
    case SimdTarget::kSse2:
#if defined(__x86_64__) || defined(__i386__)
      return true;
#else
      return false;
#endif
    case SimdTarget::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdTarget::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

SimdTarget DetectBestSimdTarget() {
  for (const SimdTarget target :
       {SimdTarget::kAvx2, SimdTarget::kNeon, SimdTarget::kSse2}) {
    if (SimdTargetRunnable(target)) return target;
  }
  return SimdTarget::kScalar;
}

namespace {

SimdTarget ResolveSimdTarget() {
  const SimdTarget best = DetectBestSimdTarget();
  const char* env = std::getenv("IPIN_SIMD");
  if (env == nullptr || *env == '\0') return best;
  SimdTarget requested;
  if (!ParseSimdTarget(env, &requested)) {
    LogWarning(std::string("IPIN_SIMD=") + env +
               " is not a known target (scalar|sse2|avx2|neon); using " +
               SimdTargetName(best));
    return best;
  }
  if (!SimdTargetRunnable(requested)) {
    LogWarning(std::string("IPIN_SIMD=") + env +
               " is not runnable on this build/CPU; using " +
               SimdTargetName(best));
    return best;
  }
  return requested;
}

}  // namespace

SimdTarget ResolvedSimdTarget() {
  static const SimdTarget target = ResolveSimdTarget();
  return target;
}

bool CpuHasSse42Crc32() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

}  // namespace ipin
