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

}  // namespace

SketchArena::SketchArena(int precision, uint64_t salt, size_t num_nodes,
                         Capacity capacity)
    : precision_(precision),
      salt_(salt),
      beta_(static_cast<size_t>(1) << precision),
      num_nodes_(num_nodes) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);
  Allocate(&rank_plane_, num_nodes_ * beta_, uint8_t{0});
  Allocate(&slot_of_, num_nodes_, kNoSlot);
  Allocate(&cell_counts_, capacity.sketches * beta_, uint8_t{0});
  Allocate(&slot_entry_base_, capacity.sketches + 1, uint64_t{0});
  Allocate(&entry_ranks_, capacity.entries, uint8_t{0});
  Allocate(&entry_times_, capacity.entries, int64_t{0});
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

std::optional<SketchArena::NodeRange> SketchArena::ContiguousRange(
    NodeId first, NodeId end) const {
  IPIN_CHECK_LE(first, end);
  IPIN_CHECK_LE(end, num_nodes_);
  size_t first_slot = 0;
  size_t sketches = 0;
  for (NodeId u = first; u < end; ++u) {
    if (!has_node(u)) continue;
    if (sketches == 0) {
      first_slot = slot(u);
    } else if (slot(u) != first_slot + sketches) {
      return std::nullopt;
    }
    ++sketches;
  }
  const size_t begin = slot_entry_base_[first_slot];
  const size_t entries = slot_entry_base_[first_slot + sketches] - begin;
  NodeRange range;
  range.cell_counts = {cell_counts_.data() + first_slot * beta_,
                       sketches * beta_};
  range.ranks = {entry_ranks_.data() + begin, entries};
  range.times = {entry_times_.data() + begin, entries};
  return range;
}

bool SketchArena::AppendNodes(NodeId first, std::span<const uint8_t> present,
                              std::span<const uint8_t> cell_counts,
                              std::span<const uint8_t> ranks,
                              std::span<const uint8_t> time_bytes) {
  IPIN_CHECK_LE(first, num_nodes_);
  IPIN_CHECK_LE(present.size(), num_nodes_ - first);
  size_t sketches = 0;
  for (const uint8_t p : present) sketches += p != 0 ? 1 : 0;
  const size_t entries = ranks.size();
  const size_t s0 = num_allocated_;
  const size_t e0 = slot_entry_base_[s0];
  if (cell_counts.size() != sketches * beta_ ||
      time_bytes.size() != entries * sizeof(int64_t) ||
      sketches > slot_entry_base_.size() - 1 - s0 ||
      entries > entry_ranks_.size() - e0) {
    return false;
  }
  // Counts first: every one at most 64, together exactly the pairs given,
  // so the walk below never indexes past them.
  size_t sum = 0;
  uint8_t max_count = 0;
  for (const uint8_t n : cell_counts) {
    sum += n;
    max_count = std::max(max_count, n);
  }
  if (max_count > 64 || sum != entries) return false;

  uint8_t* counts = cell_counts_.data() + s0 * beta_;
  uint8_t* r = entry_ranks_.data() + e0;
  int64_t* t = entry_times_.data() + e0;
  std::memcpy(counts, cell_counts.data(), cell_counts.size());
  std::memcpy(r, ranks.data(), entries);
  std::memcpy(t, time_bytes.data(), time_bytes.size());

  // Cell walk: each row cell is its list's last (largest) rank, and
  // cell_start marks where every list begins. An empty cell reads a byte it
  // then masks off (r[0], or a zero when there are no pairs at all), so the
  // loop has no data-dependent branch.
  static constexpr uint8_t kNoPairs = 0;
  const uint8_t* last_of = entries > 0 ? r : &kNoPairs;
  std::vector<uint8_t> cell_start(entries + 1, 0);
  size_t s = s0;
  size_t end = 0;
  for (size_t i = 0; i < present.size(); ++i) {
    if (present[i] == 0) continue;
    const NodeId u = first + static_cast<NodeId>(i);
    IPIN_CHECK_EQ(slot_of_[u], kNoSlot);
    const uint8_t* node_counts = counts + (s - s0) * beta_;
    uint8_t* row = rank_plane_.data() + static_cast<size_t>(u) * beta_;
    for (size_t c = 0; c < beta_; ++c) {
      const size_t n = node_counts[c];
      cell_start[end] = 1;
      end += n;
      const uint8_t keep = n != 0 ? 0xff : 0;
      row[c] = last_of[end - (end != 0 ? 1 : 0)] & keep;
    }
    slot_of_[u] = static_cast<uint32_t>(s);
    slot_entry_base_[s + 1] = e0 + end;
    ++s;
  }
  num_allocated_ = s;

  // Entry pass: ranks non-zero; inside a list, ranks strictly ascend and
  // times never descend.
  uint8_t bad = 0;
  for (size_t i = 0; i < entries; ++i) bad |= r[i] == 0 ? 1 : 0;
  for (size_t i = 1; i < entries; ++i) {
    const uint8_t out_of_order =
        (r[i] <= r[i - 1] ? 1 : 0) | (t[i] < t[i - 1] ? 1 : 0);
    bad |= out_of_order & (cell_start[i] ^ 1);
  }
  if (bad != 0) {
    RollBack(s0, first, first + static_cast<NodeId>(present.size()));
    return false;
  }
  return true;
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
