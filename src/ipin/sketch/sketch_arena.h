#ifndef IPIN_SKETCH_SKETCH_ARENA_H_
#define IPIN_SKETCH_SKETCH_ARENA_H_

#include <cstddef>
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ipin/common/check.h"
#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"
#include "ipin/sketch/time_codec.h"
#include "ipin/sketch/vhll.h"

// Storage for a sealed set of per-node versioned-HLL sketches (DESIGN.md
// §12). Index builds still mutate one VersionedHll per node (domination
// pruning needs the per-cell lists to be insertable), but once a build
// finishes the sketches are read-only forever; SketchArena is that
// read-only form, packed for the query hot paths:
//
//   rank plane   one beta-byte max-rank row per slot (present node), plus
//                one shared all-zero row that every absent node points at,
//                so cellwise-max unions and Estimate() stream rows without
//                branching on presence or chasing per-node heap objects;
//   entry store  one byte image plus a per-slot table. A slot's lists are
//                its per-cell entry counts (u8 — a cell holds at most 64
//                undominated pairs) and its (rank, time) pairs in cell
//                order, split into u8 ranks and time offsets in the arena's
//                TimeEncoding (time_codec.h: u32 when the span allows). The
//                table records where in the image each slot's counts, ranks
//                and offsets start, and how many pairs come before it.
//
// Every array, and the encoding, is fixed up front. An arena allocated with
// a Capacity owns its image, laid out as three regions (all counts, all
// ranks, all offsets), and is filled one node at a time by AppendCopy
// (sealing a build, each cell a copied rank run and a copied or re-encoded
// time run; or copying between arenas for shard extraction and reshard
// reconstruction, through AppendNode). A restored arena adopts the file
// image it was read from (common/safe_io.h): index files and build
// checkpoints store each 256-node chunk as the ContiguousRange of this
// layout, so AppendNodes points the chunk's slots into the image where the
// chunk lies, checks it and builds its rank-plane rows, copying nothing.
// Every reader of the lists goes through the table, so both kinds of image
// read alike. AppendNode and AppendNodes enforce the same invariants; a
// build sketch maintains them itself.

namespace ipin {

class FileImage;
class SketchView;

/// Byte tally charged for all arena allocations (component "sketch_arena");
/// published as the mem.sketch_arena.* gauges.
obs::MemoryTally& SketchArenaMemTally();

class SketchArena {
 public:
  /// Room an arena is allocated with: sketches (slots) and (rank, time)
  /// pairs across all of them.
  struct Capacity {
    size_t sketches = 0;
    size_t entries = 0;
  };

  /// An arena over `num_nodes` nodes, all absent, owning an image and a
  /// rank plane allocated for `capacity`, with times stored in encoding
  /// `times` (which must be valid). Fill it with AppendNode/AppendCopy.
  SketchArena(int precision, uint64_t salt, size_t num_nodes,
              Capacity capacity, TimeEncoding times);

  /// An arena over `num_nodes` nodes, all absent, with room for `sketches`
  /// slots whose lists stay in `image`, times in encoding `times` (which
  /// must be valid). Fill it with AppendNodes. The arena keeps the image
  /// alive and charges its bytes to the "sketch_arena" tally while it
  /// lives.
  SketchArena(int precision, uint64_t salt, size_t num_nodes, size_t sketches,
              TimeEncoding times, std::shared_ptr<const FileImage> image);

  SketchArena(SketchArena&&) noexcept;
  SketchArena& operator=(SketchArena&&) noexcept;
  ~SketchArena();

  /// Seals `sketches` (indexed by node id; null entries = absent node):
  /// sizes the arena exactly, stores times in encoding `times` (which must
  /// hold every one) and appends every sketch in node order. Sketches
  /// stored in `times` hand over their offsets without re-encoding. The
  /// arena copies everything out; callers free the source sketches
  /// afterwards.
  SketchArena(int precision, uint64_t salt,
              std::span<const std::unique_ptr<VersionedHll>> sketches,
              TimeEncoding times);

  /// As above, in the narrowest encoding of their times (TimeEncodingOf).
  SketchArena(int precision, uint64_t salt,
              std::span<const std::unique_ptr<VersionedHll>> sketches);

  /// Appends node `u` (< num_nodes, not yet present) in the next free slot
  /// of an arena that owns its image. `fill_cell(c, ranks, times, room)` is
  /// called once per cell in ascending cell order; it writes cell c's pairs
  /// (at most `room`) to ranks[]/times[] and returns how many it wrote, or
  /// -1 if it cannot.
  /// Every cell is checked against the vHLL invariants: at most 64 pairs,
  /// ranks non-zero and strictly ascending, times non-descending, and
  /// every time held by the arena's encoding. If fill_cell fails, a check
  /// fails or the arena is full, node `u` stays absent and false is
  /// returned.
  template <typename FillCell>
  bool AppendNode(NodeId u, FillCell&& fill_cell);

  /// Appends a copy of `sketch` (either storage mode; precision and salt
  /// must match, and the arena's encoding must hold its times) as node
  /// `u` of an arena that owns its image. The source is trusted: failure
  /// is a bug (checked).
  void AppendCopy(NodeId u, const SketchView& sketch);

  /// The stored form of a run of nodes: their per-cell entry counts and
  /// (rank, time) pairs, each one contiguous range of the arena's arrays.
  struct NodeRange {
    std::span<const uint8_t> cell_counts;  // beta per present node
    std::span<const uint8_t> ranks;        // every pair, cell order
    std::span<const uint8_t> time_bytes;   // their offsets, times.width each
    TimeEncoding times;

    /// The time of pair i, decoded.
    Timestamp time(size_t i) const { return times.Decode(time_bytes.data(), i); }
  };

  /// The storage of nodes [first, end) as three contiguous ranges, or
  /// nullopt when their slots are not consecutive in node order or their
  /// lists do not lie back to back in the image. Owned images filled in
  /// node order (Seal, shard extraction) always are; a restored arena is
  /// for every run within one of its file's chunks.
  std::optional<NodeRange> ContiguousRange(NodeId first, NodeId end) const;

  /// Appends nodes [first, first + present.size()) in one step, their
  /// lists left where they lie in the adopted image, in the layout
  /// ContiguousRange returns: present[i] != 0 marks node first + i as
  /// having a sketch, `cell_counts` holds beta counts per present node,
  /// `ranks` every pair's rank in cell order, and `time_bytes` their time
  /// offsets in the arena's encoding (width bytes per rank, little-endian,
  /// any alignment). The three ranges must lie inside the image (checked).
  /// They are checked in place against the vHLL invariants AppendNode
  /// enforces — counts at most 64 and summing to ranks.size(), ranks
  /// non-zero and strictly ascending within a cell, times non-descending —
  /// and the rank-plane rows are built. Nodes in the run must be absent. If
  /// a size disagrees, a check fails or the arena is full, nothing is
  /// appended and false is returned.
  bool AppendNodes(NodeId first, std::span<const uint8_t> present,
                   std::span<const uint8_t> cell_counts,
                   std::span<const uint8_t> ranks,
                   std::span<const uint8_t> time_bytes);

  /// Removes every node appended since NumAllocated() was `num_allocated`,
  /// so a group of appends that fails part-way leaves nothing behind. All
  /// of those nodes must lie in [first, end).
  void RollBack(size_t num_allocated, NodeId first, NodeId end);

  int precision() const { return precision_; }
  uint64_t salt() const { return salt_; }
  size_t num_cells() const { return beta_; }
  size_t num_nodes() const { return num_nodes_; }
  const TimeEncoding& time_encoding() const { return times_; }

  /// True if node `u` has a sketch.
  bool has_node(NodeId u) const { return u < num_nodes_ && row_of_[u] != 0; }

  /// Number of nodes with a sketch.
  size_t NumAllocated() const { return num_allocated_; }

  /// The node's row of the max-rank plane (the shared all-zero row for
  /// absent nodes, so union loops index without branching).
  std::span<const uint8_t> rank_row(NodeId u) const {
    return {rank_plane_.data() + size_t{row_of_[u]} * beta_, beta_};
  }

  /// Stored (rank, time) pairs of node `u` (0 for absent nodes).
  size_t NodeNumEntries(NodeId u) const;

  /// Total stored pairs across all nodes.
  size_t TotalEntries() const { return slots_[num_allocated_].entries_before; }

  /// Unbounded estimate for node `u` via the dispatched kernel.
  double EstimateNode(NodeId u) const;

  /// Verifies the per-cell invariants of node `u`'s stored entries and that
  /// its rank-plane row matches them. Test helper; true for absent nodes.
  bool CheckNodeInvariants(NodeId u) const;

  /// Heap footprint in bytes, an adopted image included.
  size_t MemoryUsageBytes() const;

 private:
  template <typename T>
  using TallyVec = std::vector<T, obs::TallyAllocator<T, &SketchArenaMemTally>>;

  /// Where slot s's lists lie in the image (byte offsets of its cell
  /// counts, ranks and time offsets), and the pairs stored before it.
  struct SlotLists {
    uint64_t counts = 0;
    uint64_t ranks = 0;
    uint64_t times = 0;
    uint64_t entries_before = 0;
  };

  struct AdoptedImage;

  /// The rank plane and slot table for `sketches` slots, and no image yet.
  SketchArena(int precision, uint64_t salt, size_t num_nodes, size_t sketches,
              TimeEncoding times);

  /// Slot of node u; callers must have checked has_node.
  size_t slot(NodeId u) const { return row_of_[u] - 1; }

  /// Rank-plane row of slot s (row 0 is the shared zero row).
  uint8_t* slot_row(size_t s) { return rank_plane_.data() + (s + 1) * beta_; }

  /// Decoded time of pair i of the slot at `lists`.
  Timestamp TimeAt(const SlotLists& lists, size_t i) const {
    return times_.Decode(image_ + lists.times, i);
  }

  /// Where the next free slot s goes in the owned image: its counts in the
  /// counts region, its pairs after every pair stored before it.
  SlotLists OwnedSlot(size_t s) const;

  /// AppendCopy of a build sketch (checked, like AppendCopy).
  void AppendSketch(NodeId u, const VersionedHll& hll);

  int precision_;
  uint64_t salt_;
  size_t beta_;
  size_t num_nodes_;
  TimeEncoding times_;
  size_t num_allocated_ = 0;
  TallyVec<uint8_t> rank_plane_;  // (capacity.sketches + 1) x beta
  TallyVec<uint32_t> row_of_;     // num_nodes: slot + 1, 0 if absent
  TallyVec<SlotLists> slots_;     // capacity.sketches + 1
  // The image: owned_ (counts | ranks | offsets regions, capacity.entries
  // pairs) or an adopted file image; image_ points at whichever it is.
  TallyVec<uint8_t> owned_;
  size_t owned_entries_ = 0;
  std::unique_ptr<const AdoptedImage> adopted_;
  const uint8_t* image_ = nullptr;
  size_t image_size_ = 0;
};

/// The narrowest TimeEncoding holding every time in `sketches` (null
/// entries skipped). Times ascend within a cell, so only each cell's first
/// and last time are read: O(cells), not O(entries).
TimeEncoding TimeEncodingOf(
    std::span<const std::unique_ptr<VersionedHll>> sketches);

template <typename FillCell>
bool SketchArena::AppendNode(NodeId u, FillCell&& fill_cell) {
  IPIN_CHECK_LT(u, num_nodes_);
  IPIN_CHECK_EQ(row_of_[u], 0u);
  const size_t s = num_allocated_;
  if (s + 1 >= slots_.size()) return false;  // no free slot
  const SlotLists lists = OwnedSlot(s);
  uint8_t* counts = owned_.data() + lists.counts;
  uint8_t* const first_rank = owned_.data() + lists.ranks;
  uint8_t* const time_bytes = owned_.data() + lists.times;
  uint8_t* row = slot_row(s);
  size_t entry = lists.entries_before;
  Timestamp times[VersionedHll::kMaxCellEntries];
  for (size_t c = 0; c < beta_; ++c) {
    const size_t local = entry - lists.entries_before;
    uint8_t* ranks = first_rank + local;
    const size_t room =
        std::min(owned_entries_ - entry, VersionedHll::kMaxCellEntries);
    const int filled = fill_cell(c, ranks, times, room);
    bool ok = filled >= 0 && static_cast<size_t>(filled) <= room;
    const size_t n = ok ? static_cast<size_t>(filled) : 0;
    for (size_t i = 0; ok && i < n; ++i) {
      ok = ranks[i] != 0 && times_.Holds(times[i]) &&
           (i == 0 || (ranks[i] > ranks[i - 1] && times[i] >= times[i - 1]));
    }
    if (!ok) return false;
    WithTimeCodec(times_.width, [&](auto codec) {
      for (size_t i = 0; i < n; ++i) {
        codec.Store(time_bytes, local + i, codec.Encode(times_.base, times[i]));
      }
    });
    counts[c] = static_cast<uint8_t>(n);
    row[c] = n == 0 ? 0 : ranks[n - 1];
    entry += n;
  }
  row_of_[u] = static_cast<uint32_t>(s + 1);
  slots_[s] = lists;
  slots_[s + 1].entries_before = entry;
  num_allocated_ = s + 1;
  return true;
}

/// Uniform read handle over one node's sketch in either storage mode:
/// a live VersionedHll during a build, or an arena slot once sealed.
/// Query code written against SketchView works identically in both modes,
/// and AppendCopy stores either one the same way (so a mid-build checkpoint
/// and a sealed index write the same chunk bytes).
class SketchView {
 public:
  SketchView() = default;
  explicit SketchView(const VersionedHll* hll) : hll_(hll) {}
  SketchView(const SketchArena* arena, NodeId node)
      : arena_(arena), node_(node) {}

  /// False for absent nodes (no sketch ever allocated).
  bool valid() const {
    return hll_ != nullptr || (arena_ != nullptr && arena_->has_node(node_));
  }
  explicit operator bool() const { return valid(); }

  int precision() const {
    return hll_ != nullptr ? hll_->precision() : arena_->precision();
  }
  uint64_t salt() const {
    return hll_ != nullptr ? hll_->salt() : arena_->salt();
  }
  size_t num_cells() const {
    return hll_ != nullptr ? hll_->num_cells() : arena_->num_cells();
  }

  /// Per-cell max rank, contiguous (the union fast path input).
  std::span<const uint8_t> max_ranks() const {
    return hll_ != nullptr ? hll_->max_ranks() : arena_->rank_row(node_);
  }

  size_t NumEntries() const {
    return hll_ != nullptr ? hll_->NumEntries() : arena_->NodeNumEntries(node_);
  }

  double Estimate() const;
  /// The vHLL invariants of the sketch; true for an absent one, in either
  /// storage mode.
  bool CheckInvariants() const;

 private:
  friend class SketchArena;  // AppendCopy reads either store directly

  const VersionedHll* hll_ = nullptr;
  const SketchArena* arena_ = nullptr;
  NodeId node_ = kInvalidNode;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_SKETCH_ARENA_H_
