#include "ipin/sketch/sketch_arena.h"

#include <algorithm>
#include <cstring>
#include <limits>

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
                         Capacity capacity, TimeEncoding times)
    : precision_(precision),
      salt_(salt),
      beta_(static_cast<size_t>(1) << precision),
      num_nodes_(num_nodes),
      times_(times) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);
  IPIN_CHECK(times_.valid());
  Allocate(&rank_plane_, (capacity.sketches + 1) * beta_, uint8_t{0});
  Allocate(&row_of_, num_nodes_, uint32_t{0});
  Allocate(&cell_counts_, capacity.sketches * beta_, uint8_t{0});
  Allocate(&slot_entry_base_, capacity.sketches + 1, uint64_t{0});
  Allocate(&entry_ranks_, capacity.entries, uint8_t{0});
  Allocate(&entry_times_, capacity.entries * times_.width, uint8_t{0});
}

TimeEncoding TimeEncodingOf(
    std::span<const std::unique_ptr<VersionedHll>> sketches) {
  Timestamp first = std::numeric_limits<Timestamp>::max();
  Timestamp last = std::numeric_limits<Timestamp>::min();
  for (const auto& sketch : sketches) {
    if (sketch == nullptr) continue;
    for (size_t c = 0; c < sketch->num_cells(); ++c) {
      const VersionedHll::CellList list = sketch->cell(c);
      if (list.empty()) continue;
      first = std::min(first, list.time(0));
      last = std::max(last, list.time(list.size() - 1));
    }
  }
  return TimeEncoding::Covering(first, last);
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
    : SketchArena(precision, salt, sketches, TimeEncodingOf(sketches)) {}

SketchArena::SketchArena(
    int precision, uint64_t salt,
    std::span<const std::unique_ptr<VersionedHll>> sketches,
    TimeEncoding times)
    : SketchArena(precision, salt, sketches.size(), CapacityFor(sketches),
                  times) {
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
  if (sketch.hll_ != nullptr) {
    AppendSketch(u, *sketch.hll_);
    return;
  }
  // Decoded and re-encoded pair by pair: between arenas of one encoding
  // (a shard keeps its parent's) the offsets come out unchanged.
  const SketchArena& src = *sketch.arena_;
  const size_t s = src.slot(sketch.node_);
  const uint8_t* counts = src.cell_counts_.data() + s * beta_;
  size_t entry = src.slot_entry_base_[s];
  const bool appended = AppendNode(
      u, [&](size_t c, uint8_t* ranks, Timestamp* times, size_t room) {
        const size_t n = counts[c];
        if (n > room) return -1;
        for (size_t i = 0; i < n; ++i, ++entry) {
          ranks[i] = src.entry_ranks_[entry];
          times[i] = src.TimeAt(entry);
        }
        return static_cast<int>(n);
      });
  IPIN_CHECK(appended);
}

void SketchArena::AppendSketch(NodeId u, const VersionedHll& hll) {
  IPIN_CHECK_LT(u, num_nodes_);
  IPIN_CHECK_EQ(row_of_[u], 0u);
  const size_t s = num_allocated_;
  IPIN_CHECK_LT(s + 1, slot_entry_base_.size());
  const size_t base = slot_entry_base_[s];
  IPIN_CHECK_LE(hll.NumEntries(), entry_ranks_.size() - base);
  // The sketch keeps its invariants and its max-rank cache on every
  // mutation, so its cells are copied, not re-checked (a cell's times
  // ascend, so the encoding holds them if it holds the ends), and the
  // rank-plane row is that cache. A sketch stored in the arena's own
  // encoding (a build's, DESIGN.md §12) hands over its offsets as they
  // are; any other is decoded and re-encoded. Plain loops copy each cell's
  // runs of at most 64: a memcpy call per run would cost more.
  uint8_t* counts = cell_counts_.data() + s * beta_;
  uint8_t* const ranks = entry_ranks_.data();
  uint8_t* const times = entry_times_.data();
  const int64_t time_base = times_.base;
  const bool same_encoding = hll.time_encoding() == times_;
  size_t entry = base;
  WithTimeCodec(times_.width, [&](auto codec) {
    for (size_t c = 0; c < beta_; ++c) {
      const VersionedHll::CellList list = hll.cell(c);
      const size_t n = list.size();
      counts[c] = static_cast<uint8_t>(n);
      if (n == 0) continue;
      for (size_t i = 0; i < n; ++i) ranks[entry + i] = list.ranks()[i];
      if (same_encoding) {
        for (size_t i = 0; i < n; ++i, ++entry) {
          codec.Store(times, entry, codec.Load(list.time_bytes(), i));
        }
        continue;
      }
      IPIN_CHECK(times_.Holds(list.time(0)) && times_.Holds(list.time(n - 1)));
      for (size_t i = 0; i < n; ++i, ++entry) {
        codec.Store(times, entry, codec.Encode(time_base, list.time(i)));
      }
    }
  });
  std::memcpy(slot_row(s), hll.max_ranks().data(), beta_);
  row_of_[u] = static_cast<uint32_t>(s + 1);
  slot_entry_base_[s + 1] = entry;
  num_allocated_ = s + 1;
  IPIN_DCHECK(CheckNodeInvariants(u));
}

void SketchArena::RollBack(size_t num_allocated, NodeId first, NodeId end) {
  IPIN_CHECK_LE(num_allocated, num_allocated_);
  for (NodeId u = first; u < end; ++u) {
    if (has_node(u) && slot(u) >= num_allocated) row_of_[u] = 0;
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
  range.time_bytes = {entry_times_.data() + begin * times_.width,
                      entries * times_.width};
  range.times = times_;
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
  const size_t width = times_.width;
  const size_t s0 = num_allocated_;
  const size_t e0 = slot_entry_base_[s0];
  if (cell_counts.size() != sketches * beta_ ||
      time_bytes.size() != entries * width ||
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

  // An empty range may have no storage at all, and memcpy takes no null
  // pointer even for zero bytes.
  uint8_t* counts = cell_counts_.data() + s0 * beta_;
  uint8_t* r = entry_ranks_.data() + e0;
  uint8_t* t = entry_times_.data() + e0 * width;
  if (sketches != 0) std::memcpy(counts, cell_counts.data(), cell_counts.size());
  if (entries != 0) {
    std::memcpy(r, ranks.data(), entries);
    std::memcpy(t, time_bytes.data(), time_bytes.size());
  }

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
    IPIN_CHECK_EQ(row_of_[u], 0u);
    const uint8_t* node_counts = counts + (s - s0) * beta_;
    uint8_t* row = slot_row(s);
    for (size_t c = 0; c < beta_; ++c) {
      const size_t n = node_counts[c];
      cell_start[end] = 1;
      end += n;
      const uint8_t keep = n != 0 ? 0xff : 0;
      row[c] = last_of[end - (end != 0 ? 1 : 0)] & keep;
    }
    row_of_[u] = static_cast<uint32_t>(s + 1);
    slot_entry_base_[s + 1] = e0 + end;
    ++s;
  }
  num_allocated_ = s;

  // Entry pass: ranks non-zero; inside a list, ranks strictly ascend and
  // times never descend. Offsets order as their times do.
  uint8_t bad = 0;
  for (size_t i = 0; i < entries; ++i) bad |= r[i] == 0 ? 1 : 0;
  WithTimeCodec(width, [&](auto codec) {
    for (size_t i = 1; i < entries; ++i) {
      const uint8_t out_of_order =
          (r[i] <= r[i - 1] ? 1 : 0) |
          (codec.Load(t, i) < codec.Load(t, i - 1) ? 1 : 0);
      bad |= out_of_order & (cell_start[i] ^ 1);
    }
  });
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
  return kernels::Dispatched().estimate_from_ranks(rank_row(u).data(), beta_);
}

bool SketchArena::CheckNodeInvariants(NodeId u) const {
  if (!has_node(u)) return true;
  const size_t s = slot(u);
  const uint8_t* counts = cell_counts_.data() + s * beta_;
  const uint8_t* row = rank_row(u).data();
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
        if (TimeAt(entry + i) < TimeAt(entry + i - 1)) return false;
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
         row_of_.capacity() * sizeof(uint32_t) +
         cell_counts_.capacity() * sizeof(uint8_t) +
         slot_entry_base_.capacity() * sizeof(uint64_t) +
         entry_ranks_.capacity() * sizeof(uint8_t) +
         entry_times_.capacity() * sizeof(uint8_t);
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
