#include "ipin/common/memory.h"

#include <sys/mman.h>

#include <cstdint>
#include <cstdio>

namespace ipin {

size_t HashMapBytes(size_t num_elements, size_t num_buckets,
                    size_t element_bytes) {
  // libstdc++ unordered_map: one heap node per element holding the value,
  // a cached hash, and a next pointer, plus the bucket pointer array.
  const size_t node_overhead = 2 * sizeof(void*);
  return num_elements * (element_bytes + node_overhead) +
         num_buckets * sizeof(void*);
}

void AdviseHugePages(void* data, size_t bytes) {
#ifdef MADV_HUGEPAGE
  constexpr uintptr_t kHugePage = uintptr_t{2} << 20;
  const auto begin = reinterpret_cast<uintptr_t>(data);
  const uintptr_t first = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const uintptr_t last = (begin + bytes) & ~(kHugePage - 1);
  if (data == nullptr || first >= last) return;
  // Advice only: on failure the range keeps ordinary pages.
  (void)::madvise(reinterpret_cast<void*>(first), last - first,
                  MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

std::string FormatBytes(size_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f %s", value, units[unit]);
  return std::string(buf);
}

}  // namespace ipin
