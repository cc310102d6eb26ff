#ifndef IPIN_SKETCH_SKETCH_ARENA_H_
#define IPIN_SKETCH_SKETCH_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "ipin/graph/types.h"
#include "ipin/obs/memtally.h"

// The store every vHLL query reads (DESIGN.md §12). Index builds mutate
// per-cell lists in their worker stores (part_store.h; domination pruning
// needs the lists to be insertable), but every query reads only a sketch's
// max-rank registers, so those registers live here from a build's first
// insert on, and answers, saves and shard extraction read only this arena:
//
//   rank plane   one beta-byte max-rank row per slot (present node), plus
//                one shared all-zero row that every absent node points at,
//                so cellwise-max unions and Estimate() stream rows without
//                branching on presence or chasing per-node heap objects;
//   row_of_      per node: its slot + 1, or 0 if absent;
//   entries      per slot: how many (rank, time) pairs the build sketch
//                held, kept so entry counts (and the bytes-per-entry
//                metrics) outlive the build sketches.
//
// A build's arena holds a zero row for every sender from the start, which
// the build's stores write in place, and the end of the build sets each
// row's entry count (SetEntries), checking the row. Shard extraction,
// reshard reconstruction and index loads append rows instead (Append): the
// arrays are sized exactly up front but not filled, and each row is written
// once, by its Append. No (rank, time) list is stored. A load's or a
// shard's arena keeps its rank plane when it is dropped, for the next arena
// of the same size (see PlaneAllocator), so an index restored again and
// again reuses one block.

namespace ipin {

/// Byte tally charged for all arena allocations (component "sketch_arena");
/// published as the mem.sketch_arena.* gauges.
obs::MemoryTally& SketchArenaMemTally();

/// True if `row` (beta bytes) with `entries` pairs is one a vHLL sketch of
/// `precision` can hold: every rank at most VhllMaxRank, and
/// `entries` between the row's non-zero cells (a non-empty cell keeps at
/// least one pair) and the sum of its ranks (a cell's ranks strictly
/// ascend to its row value, so it keeps at most that many pairs).
bool RowIsValid(std::span<const uint8_t> row, uint64_t entries,
                int precision);

class SketchArena {
 public:
  /// An arena over `num_nodes` nodes, all absent, with room for `sketches`
  /// rows, reserved but not written. Fill it with Append or AppendCopy. Its
  /// rank plane is kept when it is dropped, for the next arena of its size.
  SketchArena(int precision, uint64_t salt, size_t num_nodes, size_t sketches);

  /// A build's arena: a row for each node `present` marks, in node order,
  /// all zero and with no entries. The build's stores write the rows in
  /// place (build_rows), and SetEntries gives each its entry count once the
  /// scan ends. Its rank plane goes back to the heap when it is dropped.
  SketchArena(int precision, uint64_t salt, const std::vector<bool>& present);

  SketchArena(SketchArena&&) noexcept;
  SketchArena& operator=(SketchArena&&) noexcept;
  ~SketchArena();

  /// Appends node `u` (< num_nodes, absent) in the next free slot with
  /// max-rank row `row` (beta bytes) and `entries` pairs. False, with
  /// nothing appended, if the arena is full or the row is not valid
  /// (RowIsValid).
  bool Append(NodeId u, std::span<const uint8_t> row, uint64_t entries);

  /// Sets present node `u`'s entry count. False, with nothing set, if its
  /// row and `entries` are not valid together (RowIsValid).
  bool SetEntries(NodeId u, uint64_t entries);

  /// Slot 0's row, where a build's stores write: slot s's row is the beta
  /// bytes at build_rows() + s * beta.
  uint8_t* build_rows() { return rank_plane_.data() + beta_; }

  /// Present node `u`'s slot: its row's index among the present nodes'.
  size_t slot(NodeId u) const { return row_of_[u] - 1; }

  /// Appends a copy of node `u` of `from` (present; precision and salt must
  /// match) as node `u`. The source is trusted: failure is a bug (checked).
  void AppendCopy(NodeId u, const SketchArena& from);

  /// Removes every node appended since NumAllocated() was `num_allocated`,
  /// so a group of appends that fails part-way leaves nothing behind: their
  /// rows are trimmed and their slots reused. All of those nodes must lie in
  /// [first, end).
  void RollBack(size_t num_allocated, NodeId first, NodeId end);

  int precision() const { return precision_; }
  uint64_t salt() const { return salt_; }
  size_t num_cells() const { return beta_; }
  size_t num_nodes() const { return num_nodes_; }

  /// True if node `u` has a sketch.
  bool has_node(NodeId u) const { return u < num_nodes_ && row_of_[u] != 0; }

  /// Number of nodes with a sketch.
  size_t NumAllocated() const { return entries_.size(); }

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

  // The rank plane's allocator: charges SketchArenaMemTally like
  // TallyAllocator, takes its block from TakePlane, and gives it to
  // DropPlane, which keeps it for the next plane if `keep` (see the .cc).
  template <typename T>
  struct PlaneAllocator {
    using value_type = T;
    using propagate_on_container_move_assignment = std::true_type;
    using is_always_equal = std::true_type;
    explicit PlaneAllocator(bool keep) : keep(keep) {}
    template <typename U>
    PlaneAllocator(const PlaneAllocator<U>& other)  // NOLINT(runtime/explicit)
        : keep(other.keep) {}
    T* allocate(size_t n) { return static_cast<T*>(TakePlane(n * sizeof(T))); }
    void deallocate(T* p, size_t n) { DropPlane(p, n * sizeof(T), keep); }
    friend bool operator==(const PlaneAllocator&, const PlaneAllocator&) {
      return true;
    }
    bool keep;
  };
  static void* TakePlane(size_t bytes);
  static void DropPlane(void* data, size_t bytes, bool keep);

  SketchArena(int precision, uint64_t salt, size_t num_nodes, size_t sketches,
              bool keep_plane);

  int precision_;
  uint64_t salt_;
  size_t beta_;
  size_t num_nodes_;
  size_t slots_;  // rows reserved: Append fails past this many
  size_t total_entries_ = 0;
  // rank_plane_ and entries_ are reserved for slots_ rows and grow only by
  // Append, so each row is written once and never moves.
  std::vector<uint8_t, PlaneAllocator<uint8_t>>
      rank_plane_;               // (NumAllocated() + 1) x beta
  TallyVec<uint32_t> row_of_;   // num_nodes: slot + 1, 0 if absent
  TallyVec<uint32_t> entries_;  // pairs per slot, one per present node
};

}  // namespace ipin

#endif  // IPIN_SKETCH_SKETCH_ARENA_H_
