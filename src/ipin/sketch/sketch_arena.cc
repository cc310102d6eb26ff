#include "ipin/sketch/sketch_arena.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "ipin/common/check.h"
#include "ipin/common/memory.h"
#include "ipin/common/safe_io.h"
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

// An adopted file image and its charge to the arena tally.
struct SketchArena::AdoptedImage {
  explicit AdoptedImage(std::shared_ptr<const FileImage> file)
      : image(std::move(file)), charge(SketchArenaMemTally(), image->size()) {}

  std::shared_ptr<const FileImage> image;
  obs::ScopedMemoryCharge charge;
};

SketchArena::SketchArena(int precision, uint64_t salt, size_t num_nodes,
                         size_t sketches, TimeEncoding times)
    : precision_(precision),
      salt_(salt),
      beta_(static_cast<size_t>(1) << precision),
      num_nodes_(num_nodes),
      times_(times) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);
  IPIN_CHECK(times_.valid());
  Allocate(&rank_plane_, (sketches + 1) * beta_, uint8_t{0});
  Allocate(&row_of_, num_nodes_, uint32_t{0});
  Allocate(&slots_, sketches + 1, SlotLists{});
}

SketchArena::SketchArena(int precision, uint64_t salt, size_t num_nodes,
                         Capacity capacity, TimeEncoding times)
    : SketchArena(precision, salt, num_nodes, capacity.sketches, times) {
  Allocate(&owned_,
           capacity.sketches * beta_ + capacity.entries * (1 + times_.width),
           uint8_t{0});
  owned_entries_ = capacity.entries;
  image_ = owned_.data();
  image_size_ = owned_.size();
}

SketchArena::SketchArena(int precision, uint64_t salt, size_t num_nodes,
                         size_t sketches, TimeEncoding times,
                         std::shared_ptr<const FileImage> image)
    : SketchArena(precision, salt, num_nodes, sketches, times) {
  IPIN_CHECK(image != nullptr);
  adopted_ = std::make_unique<const AdoptedImage>(std::move(image));
  image_ = adopted_->image->data();
  image_size_ = adopted_->image->size();
}

SketchArena::SketchArena(SketchArena&&) noexcept = default;
SketchArena& SketchArena::operator=(SketchArena&&) noexcept = default;
SketchArena::~SketchArena() = default;

SketchArena::SlotLists SketchArena::OwnedSlot(size_t s) const {
  IPIN_CHECK(adopted_ == nullptr);  // an adopted image is never written
  const uint64_t before = slots_[s].entries_before;
  const uint64_t ranks_at = (slots_.size() - 1) * beta_;
  return {s * beta_, ranks_at + before,
          ranks_at + owned_entries_ + before * times_.width, before};
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
  const SlotLists& lists = src.slots_[src.slot(sketch.node_)];
  const uint8_t* counts = src.image_ + lists.counts;
  const uint8_t* src_ranks = src.image_ + lists.ranks;
  size_t entry = 0;
  const bool appended = AppendNode(
      u, [&](size_t c, uint8_t* ranks, Timestamp* times, size_t room) {
        const size_t n = counts[c];
        if (n > room) return -1;
        for (size_t i = 0; i < n; ++i, ++entry) {
          ranks[i] = src_ranks[entry];
          times[i] = src.TimeAt(lists, entry);
        }
        return static_cast<int>(n);
      });
  IPIN_CHECK(appended);
}

void SketchArena::AppendSketch(NodeId u, const VersionedHll& hll) {
  IPIN_CHECK_LT(u, num_nodes_);
  IPIN_CHECK_EQ(row_of_[u], 0u);
  const size_t s = num_allocated_;
  IPIN_CHECK_LT(s + 1, slots_.size());
  const SlotLists lists = OwnedSlot(s);
  IPIN_CHECK_LE(hll.NumEntries(), owned_entries_ - lists.entries_before);
  // The sketch keeps its invariants and its max-rank cache on every
  // mutation, so its cells are copied, not re-checked (a cell's times
  // ascend, so the encoding holds them if it holds the ends), and the
  // rank-plane row is that cache. A sketch stored in the arena's own
  // encoding (a build's, DESIGN.md §12) hands over its offsets as they
  // are; any other is decoded and re-encoded. Plain loops copy each cell's
  // runs of at most 64: a memcpy call per run would cost more.
  uint8_t* counts = owned_.data() + lists.counts;
  uint8_t* const ranks = owned_.data() + lists.ranks;
  uint8_t* const times = owned_.data() + lists.times;
  const int64_t time_base = times_.base;
  const bool same_encoding = hll.time_encoding() == times_;
  size_t entry = 0;
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
  slots_[s] = lists;
  slots_[s + 1].entries_before = lists.entries_before + entry;
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
  NodeRange range;
  range.times = times_;
  size_t first_slot = 0;
  size_t sketches = 0;
  for (NodeId u = first; u < end; ++u) {
    if (!has_node(u)) continue;
    if (sketches == 0) {
      first_slot = slot(u);
    } else {
      // Consecutive slots, each one's lists right after the previous one's.
      const size_t s = first_slot + sketches;
      const SlotLists& prev = slots_[s - 1];
      const SlotLists& next = slots_[s];
      const uint64_t n = next.entries_before - prev.entries_before;
      if (slot(u) != s || next.counts != prev.counts + beta_ ||
          next.ranks != prev.ranks + n ||
          next.times != prev.times + n * times_.width) {
        return std::nullopt;
      }
    }
    ++sketches;
  }
  if (sketches == 0) return range;
  const SlotLists& lists = slots_[first_slot];
  const size_t entries =
      slots_[first_slot + sketches].entries_before - lists.entries_before;
  range.cell_counts = {image_ + lists.counts, sketches * beta_};
  range.ranks = {image_ + lists.ranks, entries};
  range.time_bytes = {image_ + lists.times, entries * times_.width};
  return range;
}

namespace {

// Byte offset of `bytes` in the image [image, image + size); checked to lie
// inside it. An empty range may sit anywhere, and reads as offset 0.
uint64_t OffsetIn(const uint8_t* image, size_t size,
                  std::span<const uint8_t> bytes) {
  if (bytes.empty()) return 0;
  const auto begin = reinterpret_cast<uintptr_t>(image);
  const auto at = reinterpret_cast<uintptr_t>(bytes.data());
  IPIN_CHECK(at >= begin && at - begin <= size &&
             bytes.size() <= size - (at - begin));
  return at - begin;
}

}  // namespace

bool SketchArena::AppendNodes(NodeId first, std::span<const uint8_t> present,
                              std::span<const uint8_t> cell_counts,
                              std::span<const uint8_t> ranks,
                              std::span<const uint8_t> time_bytes) {
  IPIN_CHECK_LE(first, num_nodes_);
  IPIN_CHECK_LE(present.size(), num_nodes_ - first);
  const uint64_t counts_at = OffsetIn(image_, image_size_, cell_counts);
  const uint64_t ranks_at = OffsetIn(image_, image_size_, ranks);
  const uint64_t times_at = OffsetIn(image_, image_size_, time_bytes);
  size_t sketches = 0;
  for (const uint8_t p : present) sketches += p != 0 ? 1 : 0;
  const size_t entries = ranks.size();
  const size_t width = times_.width;
  const size_t s0 = num_allocated_;
  const uint64_t e0 = slots_[s0].entries_before;
  if (cell_counts.size() != sketches * beta_ ||
      time_bytes.size() != entries * width ||
      sketches > slots_.size() - 1 - s0) {
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

  // Cell walk: each row cell is its list's last (largest) rank, and
  // cell_start marks where every list begins. An empty cell reads a byte it
  // then masks off (r[0], or a zero when there are no pairs at all), so the
  // loop has no data-dependent branch. Each slot points into the image
  // where its lists lie.
  const uint8_t* counts = cell_counts.data();
  const uint8_t* r = ranks.data();
  static constexpr uint8_t kNoPairs = 0;
  const uint8_t* last_of = entries > 0 ? r : &kNoPairs;
  std::vector<uint8_t> cell_start(entries + 1, 0);
  size_t s = s0;
  size_t end = 0;
  for (size_t i = 0; i < present.size(); ++i) {
    if (present[i] == 0) continue;
    const NodeId u = first + static_cast<NodeId>(i);
    IPIN_CHECK_EQ(row_of_[u], 0u);
    const size_t k = s - s0;
    slots_[s] = {counts_at + k * beta_, ranks_at + end, times_at + end * width,
                 e0 + end};
    const uint8_t* node_counts = counts + k * beta_;
    uint8_t* row = slot_row(s);
    for (size_t c = 0; c < beta_; ++c) {
      const size_t n = node_counts[c];
      cell_start[end] = 1;
      end += n;
      const uint8_t keep = n != 0 ? 0xff : 0;
      row[c] = last_of[end - (end != 0 ? 1 : 0)] & keep;
    }
    row_of_[u] = static_cast<uint32_t>(s + 1);
    ++s;
  }
  slots_[s].entries_before = e0 + end;
  num_allocated_ = s;

  // Entry pass: ranks non-zero; inside a list, ranks strictly ascend and
  // times never descend. Offsets order as their times do.
  const uint8_t* t = time_bytes.data();
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
  return slots_[s + 1].entries_before - slots_[s].entries_before;
}

double SketchArena::EstimateNode(NodeId u) const {
  return kernels::Dispatched().estimate_from_ranks(rank_row(u).data(), beta_);
}

bool SketchArena::CheckNodeInvariants(NodeId u) const {
  if (!has_node(u)) return true;
  const size_t s = slot(u);
  const SlotLists& lists = slots_[s];
  const uint8_t* counts = image_ + lists.counts;
  const uint8_t* ranks = image_ + lists.ranks;
  const uint8_t* row = rank_row(u).data();
  size_t entry = 0;
  for (size_t c = 0; c < beta_; ++c) {
    const size_t n = counts[c];
    if (n > 64) return false;
    for (size_t i = 0; i < n; ++i) {
      if (ranks[entry + i] == 0) return false;
      if (i > 0) {
        if (ranks[entry + i] <= ranks[entry + i - 1]) return false;
        if (TimeAt(lists, entry + i) < TimeAt(lists, entry + i - 1)) {
          return false;
        }
      }
    }
    const uint8_t expected = n == 0 ? 0 : ranks[entry + n - 1];
    if (row[c] != expected) return false;
    entry += n;
  }
  return entry == NodeNumEntries(u);
}

size_t SketchArena::MemoryUsageBytes() const {
  return rank_plane_.capacity() * sizeof(uint8_t) +
         row_of_.capacity() * sizeof(uint32_t) +
         slots_.capacity() * sizeof(SlotLists) +
         owned_.capacity() * sizeof(uint8_t) +
         (adopted_ != nullptr ? adopted_->image->size() : 0);
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
