#ifndef IPIN_SKETCH_SKETCH_ARENA_H_
#define IPIN_SKETCH_SKETCH_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"
#include "ipin/sketch/vhll.h"

// Storage for a sealed set of per-node versioned-HLL sketches (DESIGN.md
// §12). Index builds still mutate one VersionedHll per node (domination
// pruning needs the per-cell lists to be insertable), but every query reads
// only a sketch's max-rank registers, so once a build finishes its served
// form is those registers alone:
//
//   rank plane   one beta-byte max-rank row per slot (present node), plus
//                one shared all-zero row that every absent node points at,
//                so cellwise-max unions and Estimate() stream rows without
//                branching on presence or chasing per-node heap objects;
//   row_of_      per node: its slot + 1, or 0 if absent;
//   entries      per slot: how many (rank, time) pairs the build sketch
//                held, kept so entry counts (and the bytes-per-entry
//                metrics) read the same before and after sealing.
//
// Sealing copies each build sketch's max-rank cache and entry count;
// shard extraction, reshard reconstruction and index loads append rows the
// same way (Append). No (rank, time) list is stored.

namespace ipin {

class SketchView;

/// Byte tally charged for all arena allocations (component "sketch_arena");
/// published as the mem.sketch_arena.* gauges.
obs::MemoryTally& SketchArenaMemTally();

/// True if `row` (beta bytes) with `entries` pairs is one a VersionedHll of
/// `precision` can hold: every rank at most VersionedHll::MaxRank, and
/// `entries` between the row's non-zero cells (a non-empty cell keeps at
/// least one pair) and the sum of its ranks (a cell's ranks strictly
/// ascend to its row value, so it keeps at most that many pairs).
bool RowIsValid(std::span<const uint8_t> row, uint64_t entries,
                int precision);

class SketchArena {
 public:
  /// An arena over `num_nodes` nodes, all absent, with room for `sketches`
  /// rows. Fill it with Append or AppendCopy.
  SketchArena(int precision, uint64_t salt, size_t num_nodes, size_t sketches);

  /// Seals `sketches` (indexed by node id; null entries = absent node):
  /// sizes the arena exactly and copies every sketch's max-rank row and
  /// entry count in node order. Callers free the source sketches
  /// afterwards.
  SketchArena(int precision, uint64_t salt,
              std::span<const std::unique_ptr<VersionedHll>> sketches);

  SketchArena(SketchArena&&) noexcept;
  SketchArena& operator=(SketchArena&&) noexcept;
  ~SketchArena();

  /// Appends node `u` (< num_nodes, absent) in the next free slot with
  /// max-rank row `row` (beta bytes) and `entries` pairs. False, with
  /// nothing appended, if the arena is full or the row is not valid
  /// (RowIsValid).
  bool Append(NodeId u, std::span<const uint8_t> row, uint64_t entries);

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
  bool has_node(NodeId u) const { return u < num_nodes_ && row_of_[u] != 0; }

  /// Number of nodes with a sketch.
  size_t NumAllocated() const { return num_allocated_; }

  /// The node's row of the max-rank plane (the shared all-zero row for
  /// absent nodes, so union loops index without branching).
  std::span<const uint8_t> rank_row(NodeId u) const {
    return {rank_plane_.data() + size_t{row_of_[u]} * beta_, beta_};
  }

  /// The (rank, time) pairs node `u`'s build sketch held (0 for absent
  /// nodes).
  size_t NodeNumEntries(NodeId u) const {
    return has_node(u) ? entries_[row_of_[u] - 1] : 0;
  }

  /// Total pairs across all nodes.
  size_t TotalEntries() const { return total_entries_; }

  /// Unbounded estimate for node `u` via the dispatched kernel.
  double EstimateNode(NodeId u) const;

  /// True if node `u`'s row and entry count are valid (RowIsValid). Test
  /// helper; true for absent nodes.
  bool CheckNodeInvariants(NodeId u) const;

  /// Heap footprint in bytes.
  size_t MemoryUsageBytes() const;

 private:
  template <typename T>
  using TallyVec = std::vector<T, obs::TallyAllocator<T, &SketchArenaMemTally>>;

  int precision_;
  uint64_t salt_;
  size_t beta_;
  size_t num_nodes_;
  size_t num_allocated_ = 0;
  size_t total_entries_ = 0;
  TallyVec<uint8_t> rank_plane_;  // (sketches + 1) x beta
  TallyVec<uint32_t> row_of_;     // num_nodes: slot + 1, 0 if absent
  TallyVec<uint32_t> entries_;    // sketches: pairs per slot
};

/// Uniform read handle over one node's sketch in either storage mode:
/// a live VersionedHll during a build, or an arena slot once sealed.
/// Query code written against SketchView works identically in both modes,
/// and a save writes either one the same way (its row and entry count).
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

  /// The build sketch behind the view, or null for an arena slot (whose
  /// cell lists are not stored).
  const VersionedHll* build_sketch() const { return hll_; }

  double Estimate() const;
  /// The sketch's invariants (VersionedHll::CheckInvariants, or the arena
  /// row's); true for an absent one.
  bool CheckInvariants() const;

 private:
  const VersionedHll* hll_ = nullptr;
  const SketchArena* arena_ = nullptr;
  NodeId node_ = kInvalidNode;
};

}  // namespace ipin

#endif  // IPIN_SKETCH_SKETCH_ARENA_H_
