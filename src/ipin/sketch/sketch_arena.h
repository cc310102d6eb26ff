#ifndef IPIN_SKETCH_SKETCH_ARENA_H_
#define IPIN_SKETCH_SKETCH_ARENA_H_

#include <cstddef>
#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ipin/common/check.h"
#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"
#include "ipin/sketch/vhll.h"

// Struct-of-arrays storage for a sealed set of per-node versioned-HLL
// sketches (DESIGN.md §12). Index builds still mutate one VersionedHll per
// node (domination pruning needs the per-cell lists to be insertable), but
// once a build finishes the sketches are read-only forever; SketchArena is
// that read-only form, packed for the query hot paths:
//
//   rank plane   num_nodes x beta max-rank bytes, one contiguous row per
//                node (zero rows for absent nodes), so cellwise-max unions
//                and Estimate() stream cache lines instead of chasing
//                per-node heap objects;
//   entry store  per-cell entry counts (u8 — a cell holds at most 64
//                undominated pairs) plus all (rank, time) pairs concatenated
//                in cell order, split into parallel rank/time arrays for the
//                windowed bounded-max kernel.
//
// Every array is sized once, up front, and filled one node at a time by
// AppendNode — the single fill path behind sealing a build, restoring a
// saved index (oracle_io parses each node's bytes straight into the arena;
// nothing is sealed at restore) and copying nodes between arenas (shard
// extraction, reshard reconstruction).
//
// Serialization is byte-compatible with VersionedHll::Serialize, so
// oracle_io round-trips unchanged whether a node is serialized from a live
// sketch or from the arena.

namespace ipin {

class SketchView;

/// Byte tally charged for all arena allocations (component "sketch_arena");
/// published as the mem.sketch_arena.* gauges.
obs::MemoryTally& SketchArenaMemTally();

class SketchArena {
 public:
  /// Slot sentinel for nodes that never received a sketch.
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  /// Room an arena is allocated with: sketches (slots) and (rank, time)
  /// pairs across all of them.
  struct Capacity {
    size_t sketches = 0;
    size_t entries = 0;
  };

  /// An arena over `num_nodes` nodes, all absent, with every array
  /// allocated for `capacity`. Fill it with AppendNode/AppendCopy.
  SketchArena(int precision, uint64_t salt, size_t num_nodes,
              Capacity capacity);

  /// Seals `sketches` (indexed by node id; null entries = absent node):
  /// sizes the arena exactly and appends every sketch in node order. The
  /// arena copies everything out; callers free the source sketches
  /// afterwards.
  SketchArena(int precision, uint64_t salt,
              std::span<const std::unique_ptr<VersionedHll>> sketches);

  /// Appends node `u` (< num_nodes, not yet present) in the next free slot.
  /// `fill_cell(c, ranks, times, room)` is called once per cell in
  /// ascending cell order; it writes cell c's pairs (at most `room`) to
  /// ranks[]/times[] and returns how many it wrote, or -1 if it cannot.
  /// Every cell is checked against the vHLL invariants: at most 64 pairs,
  /// ranks non-zero and strictly ascending, times non-descending. If
  /// fill_cell fails, a check fails or the arena is full, node `u` stays
  /// absent and false is returned.
  template <typename FillCell>
  bool AppendNode(NodeId u, FillCell&& fill_cell);

  /// Appends a copy of `sketch` (either storage mode; precision and salt
  /// must match) as node `u`. The source is trusted: failure is a bug
  /// (checked).
  void AppendCopy(NodeId u, const SketchView& sketch);

  /// Removes every node appended since NumAllocated() was `num_allocated`,
  /// so a group of appends that fails part-way leaves nothing behind. All
  /// of those nodes must lie in [first, end).
  void RollBack(size_t num_allocated, NodeId first, NodeId end);

  int precision() const { return precision_; }
  uint64_t salt() const { return salt_; }
  size_t num_cells() const { return beta_; }
  size_t num_nodes() const { return num_nodes_; }

  /// True if node `u` has a sketch.
  bool has_node(NodeId u) const {
    return u < num_nodes_ && slot_of_[u] != kNoSlot;
  }

  /// Number of nodes with a sketch.
  size_t NumAllocated() const { return num_allocated_; }

  /// The node's row of the max-rank plane (all zeros for absent nodes —
  /// every node has a row, so union loops index without branching).
  std::span<const uint8_t> rank_row(NodeId u) const {
    return {rank_plane_.data() + static_cast<size_t>(u) * beta_, beta_};
  }

  /// Stored (rank, time) pairs of node `u` (0 for absent nodes).
  size_t NodeNumEntries(NodeId u) const;

  /// Total stored pairs across all nodes.
  size_t TotalEntries() const { return slot_entry_base_[num_allocated_]; }

  /// Unbounded estimate for node `u` via the dispatched kernel.
  double EstimateNode(NodeId u) const;

  /// Windowed estimate (entries with time < bound) for node `u`, reusing
  /// *scratch for the rank vector.
  double EstimateNodeBefore(NodeId u, Timestamp bound,
                            std::vector<uint8_t>* scratch) const;

  /// Folds node `u`'s windowed max ranks into dst (size num_cells):
  /// dst[c] = max(dst[c], max rank among cell c entries with time < bound).
  void BoundedMaxInto(NodeId u, Timestamp bound, uint8_t* dst) const;

  /// Appends node `u`'s encoding to *out, byte-identical to what
  /// VersionedHll::Serialize would have produced for the sealed sketch.
  /// Must not be called for absent nodes.
  void SerializeNode(NodeId u, std::string* out) const;

  /// Verifies the per-cell invariants of node `u`'s stored entries and that
  /// its rank-plane row matches them. Test helper; true for absent nodes.
  bool CheckNodeInvariants(NodeId u) const;

  /// Approximate heap footprint in bytes.
  size_t MemoryUsageBytes() const;

 private:
  template <typename T>
  using TallyVec = std::vector<T, obs::TallyAllocator<T, &SketchArenaMemTally>>;

  /// Slot of node u; callers must have checked has_node.
  size_t slot(NodeId u) const { return slot_of_[u]; }

  int precision_;
  uint64_t salt_;
  size_t beta_;
  size_t num_nodes_;
  size_t num_allocated_ = 0;
  TallyVec<uint8_t> rank_plane_;        // num_nodes x beta
  TallyVec<uint32_t> slot_of_;          // num_nodes, kNoSlot when absent
  TallyVec<uint8_t> cell_counts_;       // capacity.sketches x beta
  TallyVec<uint64_t> slot_entry_base_;  // capacity.sketches + 1
  TallyVec<uint8_t> entry_ranks_;       // capacity.entries, cell order
  TallyVec<int64_t> entry_times_;       // parallel to entry_ranks_
};

template <typename FillCell>
bool SketchArena::AppendNode(NodeId u, FillCell&& fill_cell) {
  IPIN_CHECK_LT(u, num_nodes_);
  IPIN_CHECK_EQ(slot_of_[u], kNoSlot);
  const size_t s = num_allocated_;
  if (s + 1 >= slot_entry_base_.size()) return false;  // no free slot
  uint8_t* counts = cell_counts_.data() + s * beta_;
  uint8_t* row = rank_plane_.data() + static_cast<size_t>(u) * beta_;
  size_t entry = slot_entry_base_[s];
  for (size_t c = 0; c < beta_; ++c) {
    uint8_t* ranks = entry_ranks_.data() + entry;
    int64_t* times = entry_times_.data() + entry;
    const size_t room = entry_ranks_.size() - entry;
    const int filled = fill_cell(c, ranks, times, room);
    bool ok = filled >= 0 && filled <= 64 &&
              static_cast<size_t>(filled) <= room;
    const size_t n = ok ? static_cast<size_t>(filled) : 0;
    for (size_t i = 0; ok && i < n; ++i) {
      ok = ranks[i] != 0 &&
           (i == 0 || (ranks[i] > ranks[i - 1] && times[i] >= times[i - 1]));
    }
    if (!ok) {
      std::fill(row, row + beta_, uint8_t{0});
      return false;
    }
    counts[c] = static_cast<uint8_t>(n);
    row[c] = n == 0 ? 0 : ranks[n - 1];
    entry += n;
  }
  slot_of_[u] = static_cast<uint32_t>(s);
  slot_entry_base_[s + 1] = entry;
  num_allocated_ = s + 1;
  return true;
}

/// Uniform read handle over one node's sketch in either storage mode:
/// a live VersionedHll during a build, or an arena slot once sealed.
/// Query code written against SketchView works identically in both modes —
/// including Serialize, which is byte-identical either way (the mid-build
/// checkpoint writer and the sealed oracle writer share this contract).
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
  double EstimateBefore(Timestamp bound, std::vector<uint8_t>* scratch) const;

  /// Folds the windowed per-cell max ranks into *ranks (size num_cells),
  /// like VersionedHll::MaxRanks.
  void MaxRanks(Timestamp bound, std::vector<uint8_t>* ranks) const;

  void Serialize(std::string* out) const;
  bool CheckInvariants() const;

 private:
  friend class SketchArena;  // AppendCopy reads either store directly


  const VersionedHll* hll_ = nullptr;
  const SketchArena* arena_ = nullptr;
  NodeId node_ = kInvalidNode;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_SKETCH_ARENA_H_
