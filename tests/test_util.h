#ifndef IPIN_TESTS_TEST_UTIL_H_
#define IPIN_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <vector>

#include "ipin/common/check.h"
#include "ipin/graph/interaction_graph.h"
#include "ipin/graph/types.h"
#include "ipin/sketch/sketch_arena.h"

// Shared fixtures for the core-algorithm tests: the paper's running
// examples, with nodes a..f mapped to ids 0..5, and snapshots of a build
// sketch's cells and of any sketch's row.

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

/// Everything a build sketch stores: per-cell entry counts and every
/// (rank, time) pair in cell order. Two sketches hold the same cell lists
/// iff their SketchCells compare equal, whatever their parts or time
/// encoding.
struct SketchCells {
  int precision = 0;
  uint64_t salt = 0;
  std::vector<uint8_t> counts;
  std::vector<uint8_t> ranks;
  std::vector<int64_t> times;

  bool operator==(const SketchCells&) const = default;
};

/// Failure messages name the sketch's size instead of dumping its bytes.
inline void PrintTo(const SketchCells& cells, std::ostream* os) {
  *os << "{precision " << cells.precision << ", salt " << cells.salt << ", "
      << cells.ranks.size() << " pairs}";
}

/// The cell lists of `sketch`, read through VersionedHll::cell().
inline SketchCells CellsOf(const VersionedHll& sketch) {
  SketchCells cells{sketch.precision(), sketch.salt(), {}, {}, {}};
  for (size_t c = 0; c < sketch.num_cells(); ++c) {
    const VersionedHll::CellList list = sketch.cell(c);
    cells.counts.push_back(static_cast<uint8_t>(list.size()));
    for (const VersionedHll::Entry& e : list) {
      cells.ranks.push_back(e.rank);
      cells.times.push_back(e.time);
    }
  }
  return cells;
}

/// The cell lists behind a build sketch's view. A sealed view stores no
/// lists (checked).
inline SketchCells CellsOf(const SketchView& sketch) {
  IPIN_CHECK(sketch.build_sketch() != nullptr);
  return CellsOf(*sketch.build_sketch());
}

/// What a served sketch stores: its max-rank row and the pairs its build
/// sketch held. Every storage of a sketch (build, sealed, loaded, shard)
/// agrees on it.
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

inline SketchRow RowOf(const SketchView& sketch) {
  const std::span<const uint8_t> row = sketch.max_ranks();
  return {sketch.precision(), sketch.salt(), {row.begin(), row.end()},
          sketch.NumEntries()};
}

}  // namespace ipin

#endif  // IPIN_TESTS_TEST_UTIL_H_
