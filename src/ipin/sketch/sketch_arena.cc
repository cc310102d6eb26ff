#include "ipin/sketch/sketch_arena.h"

#include <algorithm>
#include <cstring>

#include "ipin/common/check.h"
#include "ipin/sketch/kernels.h"

namespace ipin {

obs::MemoryTally& SketchArenaMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("sketch_arena");
  return tally;
}

SketchArena::SketchArena(int precision, uint64_t salt, size_t num_nodes,
                         Capacity capacity)
    : precision_(precision),
      salt_(salt),
      beta_(static_cast<size_t>(1) << precision),
      num_nodes_(num_nodes) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);
  rank_plane_.resize(num_nodes_ * beta_, 0);
  slot_of_.resize(num_nodes_, kNoSlot);
  cell_counts_.resize(capacity.sketches * beta_, 0);
  slot_entry_base_.resize(capacity.sketches + 1, 0);
  entry_ranks_.resize(capacity.entries);
  entry_times_.resize(capacity.entries);
}

namespace {

SketchArena::Capacity CapacityFor(
    std::span<const std::unique_ptr<VersionedHll>> sketches) {
  SketchArena::Capacity capacity;
  for (const auto& sketch : sketches) {
    if (sketch == nullptr) continue;
    ++capacity.sketches;
    capacity.entries += sketch->NumEntries();
  }
  return capacity;
}

}  // namespace

SketchArena::SketchArena(
    int precision, uint64_t salt,
    std::span<const std::unique_ptr<VersionedHll>> sketches)
    : SketchArena(precision, salt, sketches.size(), CapacityFor(sketches)) {
  // Entries keep their in-cell order (ascending time, strictly ascending
  // rank — the vHLL invariant the kernels rely on).
  for (size_t u = 0; u < num_nodes_; ++u) {
    if (sketches[u] != nullptr) {
      AppendCopy(static_cast<NodeId>(u), SketchView(sketches[u].get()));
    }
  }
}

void SketchArena::AppendCopy(NodeId u, const SketchView& sketch) {
  IPIN_CHECK(sketch.valid());
  IPIN_CHECK_EQ(sketch.precision(), precision_);
  IPIN_CHECK_EQ(sketch.salt(), salt_);
  bool appended = false;
  if (sketch.hll_ != nullptr) {
    const VersionedHll& hll = *sketch.hll_;
    appended = AppendNode(u, [&hll](size_t c, uint8_t* ranks, int64_t* times,
                                    size_t room) {
      const VersionedHll::CellList& list = hll.cell(c);
      if (list.size() > room) return -1;
      for (size_t i = 0; i < list.size(); ++i) {
        ranks[i] = list[i].rank;
        times[i] = list[i].time;
      }
      return static_cast<int>(list.size());
    });
  } else {
    const SketchArena& src = *sketch.arena_;
    const size_t s = src.slot(sketch.node_);
    const uint8_t* counts = src.cell_counts_.data() + s * beta_;
    size_t entry = src.slot_entry_base_[s];
    appended = AppendNode(u, [&](size_t c, uint8_t* ranks, int64_t* times,
                                 size_t room) {
      const size_t n = counts[c];
      if (n > room) return -1;
      std::memcpy(ranks, src.entry_ranks_.data() + entry, n);
      std::memcpy(times, src.entry_times_.data() + entry,
                  n * sizeof(int64_t));
      entry += n;
      return static_cast<int>(n);
    });
  }
  IPIN_CHECK(appended);
}

void SketchArena::RollBack(size_t num_allocated, NodeId first, NodeId end) {
  IPIN_CHECK_LE(num_allocated, num_allocated_);
  for (NodeId u = first; u < end; ++u) {
    if (!has_node(u) || slot_of_[u] < num_allocated) continue;
    slot_of_[u] = kNoSlot;
    std::fill_n(rank_plane_.data() + static_cast<size_t>(u) * beta_, beta_,
                uint8_t{0});
  }
  num_allocated_ = num_allocated;
}

size_t SketchArena::NodeNumEntries(NodeId u) const {
  if (!has_node(u)) return 0;
  const size_t s = slot(u);
  return slot_entry_base_[s + 1] - slot_entry_base_[s];
}

double SketchArena::EstimateNode(NodeId u) const {
  return kernels::Dispatched().estimate_from_ranks(
      rank_plane_.data() + static_cast<size_t>(u) * beta_, beta_);
}

double SketchArena::EstimateNodeBefore(NodeId u, Timestamp bound,
                                       std::vector<uint8_t>* scratch) const {
  scratch->assign(beta_, 0);
  BoundedMaxInto(u, bound, scratch->data());
  return kernels::Dispatched().estimate_from_ranks(scratch->data(), beta_);
}

void SketchArena::BoundedMaxInto(NodeId u, Timestamp bound,
                                 uint8_t* dst) const {
  if (!has_node(u)) return;
  const size_t s = slot(u);
  const size_t base = slot_entry_base_[s];
  const size_t total = slot_entry_base_[s + 1] - base;
  static_assert(sizeof(Timestamp) == sizeof(int64_t));
  kernels::Dispatched().bounded_max_into(
      cell_counts_.data() + s * beta_, entry_ranks_.data() + base,
      entry_times_.data() + base, beta_, total, bound, dst);
}

namespace {

template <typename T>
void AppendRaw(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace

void SketchArena::SerializeNode(NodeId u, std::string* out) const {
  IPIN_CHECK(has_node(u));
  const size_t s = slot(u);
  const uint8_t* counts = cell_counts_.data() + s * beta_;
  size_t entry = slot_entry_base_[s];
  // Mirrors the VersionedHll serialization layout (vhll.cc) byte for byte.
  AppendRaw<uint8_t>(out, VersionedHll::kFormatVersion);
  AppendRaw<uint8_t>(out, static_cast<uint8_t>(precision_));
  AppendRaw<uint64_t>(out, salt_);
  for (size_t c = 0; c < beta_; ++c) {
    const size_t n = counts[c];
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i, ++entry) {
      AppendRaw<uint8_t>(out, entry_ranks_[entry]);
      AppendRaw<int64_t>(out, entry_times_[entry]);
    }
  }
}

bool SketchArena::CheckNodeInvariants(NodeId u) const {
  if (!has_node(u)) return true;
  const size_t s = slot(u);
  const uint8_t* counts = cell_counts_.data() + s * beta_;
  const uint8_t* row = rank_plane_.data() + static_cast<size_t>(u) * beta_;
  size_t entry = slot_entry_base_[s];
  for (size_t c = 0; c < beta_; ++c) {
    const size_t n = counts[c];
    if (n > 64) return false;
    for (size_t i = 0; i < n; ++i) {
      if (entry_ranks_[entry + i] == 0) return false;
      if (i > 0) {
        if (entry_ranks_[entry + i] <= entry_ranks_[entry + i - 1]) {
          return false;
        }
        if (entry_times_[entry + i] < entry_times_[entry + i - 1]) {
          return false;
        }
      }
    }
    const uint8_t expected = n == 0 ? 0 : entry_ranks_[entry + n - 1];
    if (row[c] != expected) return false;
    entry += n;
  }
  return entry == slot_entry_base_[s + 1];
}

size_t SketchArena::MemoryUsageBytes() const {
  return rank_plane_.capacity() * sizeof(uint8_t) +
         slot_of_.capacity() * sizeof(uint32_t) +
         cell_counts_.capacity() * sizeof(uint8_t) +
         slot_entry_base_.capacity() * sizeof(uint64_t) +
         entry_ranks_.capacity() * sizeof(uint8_t) +
         entry_times_.capacity() * sizeof(int64_t);
}

double SketchView::Estimate() const {
  if (hll_ != nullptr) return hll_->Estimate();
  return arena_->EstimateNode(node_);
}

double SketchView::EstimateBefore(Timestamp bound,
                                  std::vector<uint8_t>* scratch) const {
  if (hll_ != nullptr) return hll_->EstimateBefore(bound, scratch);
  return arena_->EstimateNodeBefore(node_, bound, scratch);
}

void SketchView::MaxRanks(Timestamp bound, std::vector<uint8_t>* ranks) const {
  if (hll_ != nullptr) {
    hll_->MaxRanks(bound, ranks);
    return;
  }
  IPIN_CHECK_EQ(ranks->size(), arena_->num_cells());
  arena_->BoundedMaxInto(node_, bound, ranks->data());
}

void SketchView::Serialize(std::string* out) const {
  if (hll_ != nullptr) {
    hll_->Serialize(out);
    return;
  }
  arena_->SerializeNode(node_, out);
}

bool SketchView::CheckInvariants() const {
  if (hll_ != nullptr) return hll_->CheckInvariants();
  return arena_->CheckNodeInvariants(node_);
}

}  // namespace ipin
