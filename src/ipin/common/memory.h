#ifndef IPIN_COMMON_MEMORY_H_
#define IPIN_COMMON_MEMORY_H_

#include <cstddef>
#include <string>
#include <vector>

// Helpers for the analytic memory accounting used by the Table 4 harness.
// Structures report their own footprint via MemoryUsageBytes(); these
// utilities make the per-container arithmetic uniform.

namespace ipin {

/// Bytes held by a vector's allocation (capacity, not size). Accepts any
/// allocator so tally-accounted vectors (obs::TallyAllocator) work too.
template <typename T, typename Alloc>
size_t VectorBytes(const std::vector<T, Alloc>& v) {
  return v.capacity() * sizeof(T);
}

/// Approximate bytes of an unordered_map node store: per-element node
/// overhead (two pointers' worth on common implementations) plus the bucket
/// array. `num_elements`/`num_buckets` are taken from the live container.
size_t HashMapBytes(size_t num_elements, size_t num_buckets,
                    size_t element_bytes);

/// Asks the kernel to back the 2 MiB-aligned interior of
/// [data, data + bytes) with transparent huge pages (Linux MADV_HUGEPAGE; a
/// no-op elsewhere and for ranges without such an interior). Meant for
/// large buffers that are filled whole right after allocation — a file
/// read, an arena — and called before their first touch: each fault
/// then maps 2 MiB instead of 4 KiB, and the buffer's memory use is
/// unchanged because every page of it is written anyway.
void AdviseHugePages(void* data, size_t bytes);

/// Pretty-prints a byte count as "12.3 MB" (binary units).
std::string FormatBytes(size_t bytes);

}  // namespace ipin

#endif  // IPIN_COMMON_MEMORY_H_
