#include "ipin/sketch/sketch_arena.h"

#include <algorithm>
#include <mutex>
#include <new>

#include "ipin/common/check.h"
#include "ipin/common/memory.h"
#include "ipin/sketch/kernels.h"
#include "ipin/sketch/part_store.h"

namespace ipin {

obs::MemoryTally& SketchArenaMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("sketch_arena");
  return tally;
}

namespace {

// Reserves one of the arena's arrays exactly, huge-page-backed where the
// kernel allows, and writes nothing: every element is written once, by the
// first resize or append that reaches it.
template <typename Vec>
void Reserve(Vec* array, size_t size) {
  array->reserve(size);
  AdviseHugePages(array->data(), size * sizeof(typename Vec::value_type));
}

// The rank plane of the last load's or shard's arena dropped. An index
// restored again and again (each `topk` run, each IndexManager reload)
// asks for a plane of the same size each time. Handed back to the heap, the
// plane would leave a hole of its size, and the first allocation that splits
// that hole (any buffer that grows between two loads) would make the next
// plane extend the heap by its own size: peak memory would depend on what
// else ran between loads. Kept, the block stays resident as the hole would
// have, and no other allocation can land in it. A build's plane goes back to
// the heap instead: the next build's own buffers reuse its pages, where a
// kept plane would sit idle beside them until the build ends.
struct KeptPlane {
  std::mutex mu;
  void* data = nullptr;
  size_t bytes = 0;
};

// Never destroyed, so an arena dropped during static destruction still
// finds it.
KeptPlane& Kept() {
  static KeptPlane* const kept = new KeptPlane;
  return *kept;
}

}  // namespace

bool RowIsValid(std::span<const uint8_t> row, uint64_t entries,
                int precision) {
  // One pass of the dispatched row_stats kernel: a load checks every row it
  // copies, so the check runs at the speed of the SIMD target.
  const kernels::RowStats stats =
      kernels::Dispatched().row_stats(row.data(), row.size());
  return stats.max <= VhllMaxRank(precision) &&
         entries >= row.size() - stats.zeros && entries <= stats.sum;
}

SketchArena::SketchArena(int precision, uint64_t salt, size_t num_nodes,
                         size_t sketches)
    : SketchArena(precision, salt, num_nodes, sketches, /*keep_plane=*/true) {}

SketchArena::SketchArena(int precision, uint64_t salt, size_t num_nodes,
                         size_t sketches, bool keep_plane)
    : precision_(precision),
      salt_(salt),
      beta_(static_cast<size_t>(1) << precision),
      num_nodes_(num_nodes),
      slots_(sketches),
      rank_plane_(PlaneAllocator<uint8_t>(keep_plane)) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);
  Reserve(&rank_plane_, (sketches + 1) * beta_);
  rank_plane_.resize(beta_, 0);  // the shared all-zero row
  Reserve(&row_of_, num_nodes_);
  row_of_.resize(num_nodes_, 0);
  Reserve(&entries_, sketches);
}

SketchArena::SketchArena(int precision, uint64_t salt,
                         const std::vector<bool>& present)
    : SketchArena(precision, salt, present.size(),
                  static_cast<size_t>(
                      std::count(present.begin(), present.end(), true)),
                  /*keep_plane=*/false) {
  rank_plane_.resize((slots_ + 1) * beta_, 0);
  entries_.resize(slots_, 0);
  uint32_t slot = 0;
  for (size_t u = 0; u < num_nodes_; ++u) {
    if (present[u]) row_of_[u] = ++slot;
  }
}

bool SketchArena::SetEntries(NodeId u, uint64_t entries) {
  IPIN_CHECK(has_node(u));
  if (!RowIsValid(rank_row(u), entries, precision_)) return false;
  uint32_t& slot_entries = entries_[slot(u)];
  total_entries_ += entries - slot_entries;
  slot_entries = static_cast<uint32_t>(entries);
  return true;
}

void* SketchArena::TakePlane(size_t bytes) {
  SketchArenaMemTally().Add(bytes);
  KeptPlane& kept = Kept();
  void* other = nullptr;
  size_t other_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(kept.mu);
    std::swap(other, kept.data);
    std::swap(other_bytes, kept.bytes);
  }
  if (other != nullptr && other_bytes == bytes) return other;
  // A plane of another size is of no use to this arena: hand it back.
  if (other != nullptr) ::operator delete(other, other_bytes);
  return ::operator new(bytes);
}

void SketchArena::DropPlane(void* data, size_t bytes, bool keep) {
  SketchArenaMemTally().Sub(bytes);
  if (keep) {
    KeptPlane& kept = Kept();
    std::lock_guard<std::mutex> lock(kept.mu);
    std::swap(data, kept.data);
    std::swap(bytes, kept.bytes);
  }
  if (data != nullptr) ::operator delete(data, bytes);
}

SketchArena::SketchArena(SketchArena&&) noexcept = default;
SketchArena& SketchArena::operator=(SketchArena&&) noexcept = default;
SketchArena::~SketchArena() = default;

bool SketchArena::Append(NodeId u, std::span<const uint8_t> row,
                         uint64_t entries) {
  IPIN_CHECK_LT(u, num_nodes_);
  IPIN_CHECK_EQ(row_of_[u], 0u);
  IPIN_CHECK_EQ(row.size(), beta_);
  if (entries_.size() == slots_ || !RowIsValid(row, entries, precision_)) {
    return false;
  }
  rank_plane_.insert(rank_plane_.end(), row.data(), row.data() + beta_);
  entries_.push_back(static_cast<uint32_t>(entries));
  row_of_[u] = static_cast<uint32_t>(entries_.size());
  total_entries_ += entries;
  return true;
}

void SketchArena::AppendCopy(NodeId u, const SketchArena& from) {
  IPIN_CHECK(from.has_node(u));
  IPIN_CHECK_EQ(from.precision_, precision_);
  IPIN_CHECK_EQ(from.salt_, salt_);
  IPIN_CHECK(Append(u, from.rank_row(u), from.NodeNumEntries(u)));
}

void SketchArena::RollBack(size_t num_allocated, NodeId first, NodeId end) {
  IPIN_CHECK_LE(num_allocated, entries_.size());
  for (NodeId u = first; u < end; ++u) {
    if (has_node(u) && row_of_[u] - 1 >= num_allocated) row_of_[u] = 0;
  }
  for (size_t s = num_allocated; s < entries_.size(); ++s) {
    total_entries_ -= entries_[s];
  }
  rank_plane_.resize((num_allocated + 1) * beta_);
  entries_.resize(num_allocated);
}

double SketchArena::EstimateNode(NodeId u) const {
  return kernels::Dispatched().estimate_from_ranks(rank_row(u).data(), beta_);
}

bool SketchArena::CheckNodeInvariants(NodeId u) const {
  return !has_node(u) || RowIsValid(rank_row(u), NodeNumEntries(u), precision_);
}

size_t SketchArena::MemoryUsageBytes() const {
  return rank_plane_.capacity() * sizeof(uint8_t) +
         row_of_.capacity() * sizeof(uint32_t) +
         entries_.capacity() * sizeof(uint32_t);
}

}  // namespace ipin
