#ifndef IPIN_TESTS_TEST_UTIL_H_
#define IPIN_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "ipin/core/irs_approx.h"
#include "ipin/graph/interaction_graph.h"
#include "ipin/graph/types.h"
#include "ipin/sketch/part_store.h"
#include "ipin/sketch/sketch_arena.h"
#include "ipin/sketch/vhll.h"

// Shared fixtures for the core-algorithm tests: the paper's running
// examples, with nodes a..f mapped to ids 0..5, snapshots of a build
// sketch's cells and of any sketch's row, and a file's bytes.

namespace ipin {

inline constexpr NodeId kA = 0;
inline constexpr NodeId kB = 1;
inline constexpr NodeId kC = 2;
inline constexpr NodeId kD = 3;
inline constexpr NodeId kE = 4;
inline constexpr NodeId kF = 5;

/// The interaction network of the paper's Figure 1a:
/// (a,d,1) (e,f,2) (d,e,3) (e,b,4) (a,b,5) (b,e,6) (e,c,7) (b,c,8).
inline InteractionGraph FigureOneGraph() {
  InteractionGraph g(6);
  g.AddInteraction(kA, kD, 1);
  g.AddInteraction(kE, kF, 2);
  g.AddInteraction(kD, kE, 3);
  g.AddInteraction(kE, kB, 4);
  g.AddInteraction(kA, kB, 5);
  g.AddInteraction(kB, kE, 6);
  g.AddInteraction(kE, kC, 7);
  g.AddInteraction(kB, kC, 8);
  return g;
}

/// The expected IRS summaries of Figure 1a at window 3, from the paper's
/// Example 2 (final table state).
inline std::vector<std::map<NodeId, Timestamp>> FigureOneSummariesW3() {
  return {
      /*a=*/{{kB, 5}, {kC, 7}, {kE, 3}, {kD, 1}},
      /*b=*/{{kC, 7}, {kE, 6}},
      /*c=*/{},
      /*d=*/{{kE, 3}, {kB, 4}},
      /*e=*/{{kC, 7}, {kB, 4}, {kF, 2}},
      /*f=*/{},
  };
}

/// Everything a sketch stores. A live sketch: per cell its live list's
/// length, and every live pair's rank and time, in cell order; then per
/// cell its retired pairs, and their ranks in cell order. A collapsed one:
/// no cells. Either way its max-rank row and entry count. Two sketches hold
/// the same cells iff their SketchCells compare equal, whatever their parts
/// or time encoding.
struct SketchCells {
  int precision = 0;
  uint64_t salt = 0;
  bool collapsed = false;
  std::vector<uint8_t> counts;
  std::vector<uint8_t> ranks;
  std::vector<int64_t> times;
  std::vector<uint8_t> retired;
  std::vector<uint8_t> retired_ranks;
  std::vector<uint8_t> row;
  size_t entries = 0;

  bool operator==(const SketchCells&) const = default;
};

/// Failure messages name the sketch's size instead of dumping its bytes.
inline void PrintTo(const SketchCells& cells, std::ostream* os) {
  *os << "{precision " << cells.precision << ", salt " << cells.salt << ", "
      << (cells.collapsed ? "collapsed, " : "") << cells.entries
      << " entries, " << cells.times.size() << " live}";
}

/// The cells of `sketch`, read through VersionedHll::cell(). A
/// VersionedHll never retires or collapses.
inline SketchCells CellsOf(const VersionedHll& sketch) {
  const std::span<const uint8_t> row = sketch.max_ranks();
  SketchCells cells;
  cells.precision = sketch.precision();
  cells.salt = sketch.salt();
  cells.row.assign(row.begin(), row.end());
  cells.entries = sketch.NumEntries();
  for (size_t c = 0; c < sketch.num_cells(); ++c) {
    const VersionedHll::CellList list = sketch.cell(c);
    cells.counts.push_back(static_cast<uint8_t>(list.size()));
    for (const VersionedHll::Entry& e : list) {
      cells.ranks.push_back(e.rank);
      cells.times.push_back(e.time);
    }
    cells.retired.push_back(0);
  }
  return cells;
}

/// The sketch in slot `slot` of `stores` (part k of it in store k),
/// gathered in part order, with its row `row`: nullopt if it is absent.
inline std::optional<SketchCells> GatherCells(
    std::span<const PartStore> stores, size_t slot,
    std::span<const uint8_t> row, int precision, uint64_t salt) {
  const PartStore::Form form = stores[0].form(slot);
  if (form == PartStore::Form::kAbsent) return std::nullopt;
  SketchCells cells;
  cells.precision = precision;
  cells.salt = salt;
  cells.collapsed = form == PartStore::Form::kCollapsed;
  cells.row.assign(row.begin(), row.end());
  for (const PartStore& store : stores) {
    cells.entries += store.NumEntries(slot);
    if (cells.collapsed) continue;
    const PartStore::Runs runs = store.runs(slot);
    for (size_t j = 0; j < store.num_cells(); ++j) {
      cells.counts.push_back(runs.counts.empty() ? 0 : runs.counts[j]);
      cells.retired.push_back(runs.retired.empty() ? 0 : runs.retired[j]);
    }
    cells.ranks.insert(cells.ranks.end(), runs.ranks.begin(),
                       runs.ranks.end());
    for (size_t i = 0; i < runs.ranks.size(); ++i) {
      cells.times.push_back(
          store.time_encoding().Decode(runs.time_bytes.data(), i));
    }
    cells.retired_ranks.insert(cells.retired_ranks.end(),
                               runs.retired_ranks.begin(),
                               runs.retired_ranks.end());
  }
  return cells;
}

/// Node u's build sketch as the worker stores of `irs` hold it, with its
/// arena row (where the stores write it): nullopt if u holds none (it has
/// not sent yet in scan order, or `irs` has no build store).
inline std::optional<SketchCells> BuildCellsOf(const IrsApprox& irs,
                                               NodeId u) {
  const SketchArena& arena = *irs.arena();
  if (irs.build_stores().empty() || !arena.has_node(u)) return std::nullopt;
  return GatherCells(irs.build_stores(), arena.slot(u), arena.rank_row(u),
                     arena.precision(), arena.salt());
}

/// Where the sections of a checkpoint's sketch chunk start (checkpoint.cc,
/// version 4): u64 first_node, u32 count, u64 ranks, u64 pairs, u8
/// form[count] (0 absent, 1 live, 2 collapsed), then a block per present
/// node (live: counts[beta] and retired[beta]; collapsed: row[beta] and a
/// u32 entry count), the ranks, and the time offsets.
struct ChunkLayout {
  uint64_t first = 0;
  uint32_t count = 0;
  uint64_t ranks = 0;
  uint64_t pairs = 0;
  std::vector<size_t> blocks;  // each node's block (0 for an absent one)
  size_t ranks_at = 0;
  size_t times_at = 0;
};

inline ChunkLayout LayoutOf(const std::string& chunk, int precision) {
  const size_t beta = size_t{1} << precision;
  ChunkLayout layout;
  std::memcpy(&layout.first, chunk.data(), 8);
  std::memcpy(&layout.count, chunk.data() + 8, 4);
  std::memcpy(&layout.ranks, chunk.data() + 12, 8);
  std::memcpy(&layout.pairs, chunk.data() + 20, 8);
  size_t at = 28 + layout.count;
  for (uint32_t i = 0; i < layout.count; ++i) {
    const auto form = static_cast<uint8_t>(chunk[28 + i]);
    layout.blocks.push_back(form == 0 ? 0 : at);
    at += form == 1 ? 2 * beta : form == 2 ? beta + 4 : 0;
  }
  layout.ranks_at = at;
  layout.times_at = at + layout.ranks;
  return layout;
}

/// What a served sketch stores: its max-rank row and the pairs its build
/// sketch held. A build sketch and every arena holding its node (built,
/// loaded, shard) agree on it.
struct SketchRow {
  int precision = 0;
  uint64_t salt = 0;
  std::vector<uint8_t> row;
  size_t entries = 0;

  bool operator==(const SketchRow&) const = default;
};

inline void PrintTo(const SketchRow& row, std::ostream* os) {
  *os << "{precision " << row.precision << ", salt " << row.salt << ", "
      << row.entries << " pairs}";
}

/// The row and entry count of `cells`.
inline SketchRow RowOf(const SketchCells& cells) {
  return {cells.precision, cells.salt, cells.row, cells.entries};
}

inline SketchRow RowOf(const VersionedHll& sketch) {
  const std::span<const uint8_t> row = sketch.max_ranks();
  return {sketch.precision(), sketch.salt(), {row.begin(), row.end()},
          sketch.NumEntries()};
}

/// Node u's row in `arena` (all zero and no pairs if u is absent).
inline SketchRow RowOf(const SketchArena& arena, NodeId u) {
  const std::span<const uint8_t> row = arena.rank_row(u);
  return {arena.precision(), arena.salt(), {row.begin(), row.end()},
          arena.NodeNumEntries(u)};
}

/// The bytes of the file at `path`, or nullopt if it cannot be opened.
inline std::optional<std::string> FileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace ipin

#endif  // IPIN_TESTS_TEST_UTIL_H_
