#include "ipin/sketch/sketch_arena.h"

#include <algorithm>
#include <cstring>

#include "ipin/common/check.h"
#include "ipin/common/memory.h"
#include "ipin/sketch/kernels.h"

namespace ipin {

obs::MemoryTally& SketchArenaMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("sketch_arena");
  return tally;
}

namespace {

// Sizes one of the arena's arrays exactly, huge-page-backed where the
// kernel allows: every array is written whole right away.
template <typename Vec, typename T>
void Allocate(Vec* array, size_t size, T value) {
  array->reserve(size);
  AdviseHugePages(array->data(), size * sizeof(T));
  array->resize(size, value);
}

size_t CountSketches(std::span<const std::unique_ptr<VersionedHll>> sketches) {
  size_t count = 0;
  for (const auto& sketch : sketches) count += sketch != nullptr ? 1 : 0;
  return count;
}

}  // namespace

bool RowIsValid(std::span<const uint8_t> row, uint64_t entries,
                int precision) {
  // Branch-free, with u32 sums (a row sums to at most 255 x 2^18) and a u8
  // maximum, so the loop vectorizes: a load checks every row it copies.
  uint32_t zeros = 0;
  uint32_t sum = 0;
  uint8_t top = 0;
  for (const uint8_t r : row) {
    zeros += r == 0;
    sum += r;
    top = std::max(top, r);
  }
  return top <= VersionedHll::MaxRank(precision) &&
         entries >= row.size() - zeros && entries <= sum;
}

SketchArena::SketchArena(int precision, uint64_t salt, size_t num_nodes,
                         size_t sketches)
    : precision_(precision),
      salt_(salt),
      beta_(static_cast<size_t>(1) << precision),
      num_nodes_(num_nodes) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);
  Allocate(&rank_plane_, (sketches + 1) * beta_, uint8_t{0});
  Allocate(&row_of_, num_nodes_, uint32_t{0});
  Allocate(&entries_, sketches, uint32_t{0});
}

SketchArena::SketchArena(
    int precision, uint64_t salt,
    std::span<const std::unique_ptr<VersionedHll>> sketches)
    : SketchArena(precision, salt, sketches.size(), CountSketches(sketches)) {
  for (size_t u = 0; u < num_nodes_; ++u) {
    if (sketches[u] != nullptr) {
      AppendCopy(static_cast<NodeId>(u), SketchView(sketches[u].get()));
    }
  }
}

SketchArena::SketchArena(SketchArena&&) noexcept = default;
SketchArena& SketchArena::operator=(SketchArena&&) noexcept = default;
SketchArena::~SketchArena() = default;

bool SketchArena::Append(NodeId u, std::span<const uint8_t> row,
                         uint64_t entries) {
  IPIN_CHECK_LT(u, num_nodes_);
  IPIN_CHECK_EQ(row_of_[u], 0u);
  IPIN_CHECK_EQ(row.size(), beta_);
  const size_t s = num_allocated_;
  if (s == entries_.size() || !RowIsValid(row, entries, precision_)) {
    return false;
  }
  std::memcpy(rank_plane_.data() + (s + 1) * beta_, row.data(), beta_);
  entries_[s] = static_cast<uint32_t>(entries);
  row_of_[u] = static_cast<uint32_t>(s + 1);
  total_entries_ += entries;
  num_allocated_ = s + 1;
  return true;
}

void SketchArena::AppendCopy(NodeId u, const SketchView& sketch) {
  IPIN_CHECK(sketch.valid());
  IPIN_CHECK_EQ(sketch.precision(), precision_);
  IPIN_CHECK_EQ(sketch.salt(), salt_);
  IPIN_CHECK(Append(u, sketch.max_ranks(), sketch.NumEntries()));
}

void SketchArena::RollBack(size_t num_allocated, NodeId first, NodeId end) {
  IPIN_CHECK_LE(num_allocated, num_allocated_);
  for (NodeId u = first; u < end; ++u) {
    if (has_node(u) && row_of_[u] - 1 >= num_allocated) row_of_[u] = 0;
  }
  for (size_t s = num_allocated; s < num_allocated_; ++s) {
    total_entries_ -= entries_[s];
  }
  num_allocated_ = num_allocated;
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

double SketchView::Estimate() const {
  if (hll_ != nullptr) return hll_->Estimate();
  return arena_->EstimateNode(node_);
}

bool SketchView::CheckInvariants() const {
  if (hll_ != nullptr) return hll_->CheckInvariants();
  return arena_ == nullptr || arena_->CheckNodeInvariants(node_);
}

}  // namespace ipin
