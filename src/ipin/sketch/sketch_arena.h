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

// Struct-of-arrays storage for a sealed set of per-node versioned-HLL
// sketches (DESIGN.md §12). Index builds still mutate one VersionedHll per
// node (domination pruning needs the per-cell lists to be insertable), but
// once a build finishes the sketches are read-only forever; SketchArena is
// that read-only form, packed for the query hot paths:
//
//   rank plane   one beta-byte max-rank row per slot (present node), plus
//                one shared all-zero row that every absent node points at,
//                so cellwise-max unions and Estimate() stream rows without
//                branching on presence or chasing per-node heap objects;
//   entry store  per-cell entry counts (u8 — a cell holds at most 64
//                undominated pairs) plus all (rank, time) pairs concatenated
//                in cell order, split into u8 ranks and time offsets in the
//                arena's TimeEncoding (time_codec.h: u32 when the span
//                allows).
//
// Every array, and the encoding, is fixed up front. Nodes are filled one at
// a time by AppendCopy (sealing a build, each cell a copied rank run and a
// copied or re-encoded time run; or copying between arenas for shard extraction and
// reshard reconstruction, through AppendNode), or a run at a time by
// AppendNodes, which restores saved sketches: index files and build
// checkpoints store each 256-node chunk as the ContiguousRange of this
// layout, so a restore is a bulk copy plus one checking pass (oracle_io).
// AppendNode and AppendNodes enforce the same invariants; a build sketch
// maintains them itself.

namespace ipin {

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

  /// An arena over `num_nodes` nodes, all absent, with every array
  /// allocated for `capacity` and times stored in encoding `times` (which
  /// must be valid). Fill it with AppendNode/AppendCopy/AppendNodes.
  SketchArena(int precision, uint64_t salt, size_t num_nodes,
              Capacity capacity, TimeEncoding times);

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

  /// Appends node `u` (< num_nodes, not yet present) in the next free slot.
  /// `fill_cell(c, ranks, times, room)` is called once per cell in
  /// ascending cell order; it writes cell c's pairs (at most `room`) to
  /// ranks[]/times[] and returns how many it wrote, or -1 if it cannot.
  /// Every cell is checked against the vHLL invariants: at most 64 pairs,
  /// ranks non-zero and strictly ascending, times non-descending, and
  /// every time held by the arena's encoding. If fill_cell fails, a check
  /// fails or the arena is full, node `u` stays absent and false is
  /// returned.
  template <typename FillCell>
  bool AppendNode(NodeId u, FillCell&& fill_cell);

  /// Appends a copy of `sketch` (either storage mode; precision and salt
  /// must match, and the arena's encoding must hold its times) as node
  /// `u`. The source is trusted: failure is a bug (checked).
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
  /// nullopt when their slots are not consecutive in node order. Arenas
  /// filled in node order (Seal, restore, shard extraction) always are.
  std::optional<NodeRange> ContiguousRange(NodeId first, NodeId end) const;

  /// Appends nodes [first, first + present.size()) in one step, from the
  /// layout ContiguousRange returns: present[i] != 0 marks node first + i
  /// as having a sketch, `cell_counts` holds beta counts per present node,
  /// `ranks` every pair's rank in cell order, and `time_bytes` their time
  /// offsets in the arena's encoding (width bytes per rank, little-endian,
  /// any alignment). The ranges are copied in bulk, then checked against
  /// the vHLL invariants AppendNode enforces — counts at most 64 and
  /// summing to ranks.size(), ranks non-zero and strictly ascending within
  /// a cell, times non-descending — and the rank-plane rows are built.
  /// Nodes in the run must be absent. If a size disagrees, a check fails
  /// or the arena is full, nothing is appended and false is returned.
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
  size_t TotalEntries() const { return slot_entry_base_[num_allocated_]; }

  /// Unbounded estimate for node `u` via the dispatched kernel.
  double EstimateNode(NodeId u) const;

  /// Verifies the per-cell invariants of node `u`'s stored entries and that
  /// its rank-plane row matches them. Test helper; true for absent nodes.
  bool CheckNodeInvariants(NodeId u) const;

  /// Approximate heap footprint in bytes.
  size_t MemoryUsageBytes() const;

 private:
  template <typename T>
  using TallyVec = std::vector<T, obs::TallyAllocator<T, &SketchArenaMemTally>>;

  /// Slot of node u; callers must have checked has_node.
  size_t slot(NodeId u) const { return row_of_[u] - 1; }

  /// Rank-plane row of slot s (row 0 is the shared zero row).
  uint8_t* slot_row(size_t s) { return rank_plane_.data() + (s + 1) * beta_; }

  /// Decoded time of stored pair `entry`.
  Timestamp TimeAt(size_t entry) const {
    return times_.Decode(entry_times_.data(), entry);
  }

  /// AppendCopy of a build sketch (checked, like AppendCopy).
  void AppendSketch(NodeId u, const VersionedHll& hll);

  int precision_;
  uint64_t salt_;
  size_t beta_;
  size_t num_nodes_;
  TimeEncoding times_;
  size_t num_allocated_ = 0;
  TallyVec<uint8_t> rank_plane_;        // (capacity.sketches + 1) x beta
  TallyVec<uint32_t> row_of_;           // num_nodes: slot + 1, 0 if absent
  TallyVec<uint8_t> cell_counts_;       // capacity.sketches x beta
  TallyVec<uint64_t> slot_entry_base_;  // capacity.sketches + 1
  TallyVec<uint8_t> entry_ranks_;       // capacity.entries, cell order
  TallyVec<uint8_t> entry_times_;       // parallel offsets, width bytes each
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
  if (s + 1 >= slot_entry_base_.size()) return false;  // no free slot
  uint8_t* counts = cell_counts_.data() + s * beta_;
  uint8_t* row = slot_row(s);
  size_t entry = slot_entry_base_[s];
  Timestamp times[VersionedHll::kMaxCellEntries];
  for (size_t c = 0; c < beta_; ++c) {
    uint8_t* ranks = entry_ranks_.data() + entry;
    const size_t room =
        std::min(entry_ranks_.size() - entry, VersionedHll::kMaxCellEntries);
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
        codec.Store(entry_times_.data(), entry + i,
                    codec.Encode(times_.base, times[i]));
      }
    });
    counts[c] = static_cast<uint8_t>(n);
    row[c] = n == 0 ? 0 : ranks[n - 1];
    entry += n;
  }
  row_of_[u] = static_cast<uint32_t>(s + 1);
  slot_entry_base_[s + 1] = entry;
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
  bool CheckInvariants() const;

 private:
  friend class SketchArena;  // AppendCopy reads either store directly

  const VersionedHll* hll_ = nullptr;
  const SketchArena* arena_ = nullptr;
  NodeId node_ = kInvalidNode;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_SKETCH_ARENA_H_
