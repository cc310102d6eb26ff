#ifndef IPIN_CORE_IRS_APPROX_H_
#define IPIN_CORE_IRS_APPROX_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ipin/common/check.h"
#include "ipin/graph/interaction_graph.h"
#include "ipin/graph/types.h"
#include "ipin/sketch/sketch_arena.h"
#include "ipin/sketch/vhll.h"

namespace ipin {

/// Options for the sketch-based IRS computation.
struct IrsApproxOptions {
  /// HLL precision k; beta = 2^k cells per node. The paper evaluates
  /// beta in {16 .. 512} and defaults to 512 (k = 9).
  int precision = 9;
  /// Hash salt; runs with different salts are independent estimators.
  uint64_t salt = 0;
};

/// Approximate influence-reachability-set computation (the paper's
/// Algorithm 3): the same one-pass reverse scan as IrsExact, with each
/// node's exact summary phi(u) replaced by a versioned HyperLogLog sketch.
/// Every build runs ComputeParallel's scan: a plain build as one epoch, a
/// checkpointed one (core/checkpoint.h) in epochs cut by checkpoints.
///
/// Expected complexity: O(m * beta * log^2(window)) time and
/// O(n * beta * log^2(window)) space (Lemmas 5-6); estimates carry the HLL
/// relative error of ~1.04/sqrt(beta).
class IrsApprox {
 public:
  /// Runs the full reverse scan over a time-sorted interaction list:
  /// ComputeParallel with one part per global thread
  /// (common/thread_pool.h). The result does not depend on the thread
  /// count.
  static IrsApprox Compute(const InteractionGraph& graph, Duration window,
                           const IrsApproxOptions& options = {});

  /// Cell-partitioned build (DESIGN.md §10): every sender's sketch is
  /// split into P = min(max(num_parts, 1), beta) contiguous cell ranges,
  /// and P workers on the global pool each run the whole one-pass reverse
  /// scan over their own range of every sketch. No vHLL operation reads
  /// two cells together, so each cell receives exactly the inserts of the
  /// one-pass scan in the same order: sketches, tallies and counters are
  /// bit-identical for every part count (cross-validated in
  /// tests/test_parallel_irs.cc). P = 1 is the sequential scan.
  static IrsApprox ComputeParallel(const InteractionGraph& graph,
                                   Duration window,
                                   const IrsApproxOptions& options,
                                   size_t num_parts);

  /// Wraps an already-packed arena (its precision and salt must match
  /// `options`; checked). Used by the oracle persistence layer
  /// (oracle_io.h), shard extraction and reshard reconstruction, which fill
  /// the arena directly. The result is sealed (query-facing from birth).
  IrsApprox(Duration window, const IrsApproxOptions& options,
            SketchArena arena);

  /// Copies the per-node build sketches' max-rank rows and entry counts
  /// into a read-only SketchArena (DESIGN.md §12) and frees the sketches.
  /// Queries answered after sealing are bit-identical to before (the same
  /// rows, the same kernels), just faster: unions and estimates stream the
  /// contiguous max-rank plane. Every build (Compute, ComputeParallel and
  /// the checkpointed build) returns UNSEALED so the copy + free cost stays
  /// out of the timed build scan (fig3). Call Seal() at the build->query
  /// handoff, before sustained querying. The restore paths (oracle load,
  /// shard extraction) never hold unsealed sketches: they build the arena
  /// directly. Idempotent.
  void Seal();

  /// True once Seal() ran, and for instances built from an arena.
  bool sealed() const { return sealed_; }

  /// The packed sketch store, or nullptr while unsealed. Query hot loops
  /// (influence_oracle.cc) use it to stream rank-plane rows directly.
  const SketchArena* arena() const { return arena_.get(); }

  /// The encoding checkpoints write the build sketches' times in
  /// (time_codec.h): the sketches' own when it is narrow, as a build's is
  /// when its input's times span less than 2^32 (DESIGN.md §12), and
  /// otherwise the narrowest that holds their times (TimeEncodingOf,
  /// O(cells)). Unsealed only: a sealed index stores no times.
  TimeEncoding time_encoding() const {
    IPIN_CHECK(!sealed_);
    return times_.width == 4 ? times_ : TimeEncodingOf(sketches_);
  }

  /// Estimated |sigma_omega(u)|.
  double EstimateIrsSize(NodeId u) const;

  /// Estimated |union of sigma_omega(s) for s in seeds| — the sketch-based
  /// Influence Oracle (Section 4.1): cellwise max over the seeds' sketches,
  /// O(|seeds| * beta * log) time, independent of the set sizes.
  double EstimateUnionSize(std::span<const NodeId> seeds) const;

  /// As above, reusing *scratch for the union rank vector instead of
  /// allocating one per call (hot under greedy/CELF and oracle serving).
  /// *scratch is resized as needed; contents on entry are ignored.
  double EstimateUnionSize(std::span<const NodeId> seeds,
                           std::vector<uint8_t>* scratch) const;

  /// View of node u's sketch (invalid if u never appeared as a source —
  /// its IRS is empty). Works in both storage modes; see SketchView.
  SketchView Sketch(NodeId u) const {
    if (sealed_) return SketchView(arena_.get(), u);
    return SketchView(sketches_[u].get());
  }

  size_t num_nodes() const { return num_nodes_; }
  Duration window() const { return window_; }
  const IrsApproxOptions& options() const { return options_; }

  /// Number of nodes that own a (non-null) sketch.
  size_t NumAllocatedSketches() const;

  /// Total (rank, time) entries across all sketches.
  size_t TotalSketchEntries() const;

  /// Total AddEntry attempts across all sketches (pre-pruning volume).
  size_t TotalInsertAttempts() const;

  /// Total dominance-pair evictions across all sketches.
  size_t TotalEvictions() const;

  /// Total entries examined by MergeWindow across all sketches, and the
  /// subset that survived domination filtering and updated a cell.
  size_t TotalMergeEntriesScanned() const;
  size_t TotalCellUpdates() const;

  /// Approximate heap footprint in bytes (the paper's Table 4 quantity).
  size_t MemoryUsageBytes() const;

 private:
  // Serialization/restore hooks for the crash-safe checkpoint layer
  // (core/checkpoint.cc): reads and reinstates the private scan state so a
  // resumed build is indistinguishable from an uninterrupted one.
  friend class CheckpointAccess;

  // An empty build over `graph` whose sketches will have
  // min(max(num_parts, 1), beta) parts and store times in the graph's
  // scan encoding (irs_approx.cc).
  IrsApprox(const InteractionGraph& graph, Duration window,
            const IrsApproxOptions& options, size_t num_parts);

  // The reverse scan of the edges not yet in the sketches (all but the
  // last `done`), on parts_ workers (ComputeParallel), in epochs ending
  // where the scanned count reaches a multiple of `epoch_edges` (0: one
  // epoch). At each epoch's end the workers meet, the build holds the
  // one-pass scan's sketches, and, if edges remain,
  // `after_epoch(edges scanned)` runs on the calling thread.
  void Scan(const InteractionGraph& graph, size_t done, size_t epoch_edges,
            const std::function<void(size_t)>& after_epoch);

  // Rolls the plain-member scan tallies up into the metrics registry; called
  // once per completed build (by Compute and the checkpointed variant).
  void PublishBuildMetrics() const;

  // Sets the sketch.arena.* gauges from the live arena.
  void PublishArenaGauges() const;

  Duration window_;
  IrsApproxOptions options_;
  size_t num_nodes_ = 0;
  // The part count of every build sketch (1 for an arena-built instance).
  size_t parts_ = 1;
  // Scan tallies: plain members so the per-edge path stays atomics-free;
  // Compute() rolls them up into the metrics registry once per build.
  size_t edges_scanned_ = 0;
  size_t merge_calls_ = 0;
  // The encoding every build sketch stores its times in: the scan's
  // (ScanTimeEncoding).
  TimeEncoding times_;
  // Dual-mode storage. While building, only nodes that send own a sketch
  // (a node that never sends has an empty IRS and needs no sketch — phi(v)
  // = {} in the exact algorithm, memory proportional to *active* sources):
  // Scan allocates it at the epoch of the node's first send in scan order.
  // Seal() copies their rows into arena_ and frees them; exactly one of the
  // two representations is live at a time.
  std::vector<std::unique_ptr<VersionedHll>> sketches_;
  std::unique_ptr<SketchArena> arena_;
  bool sealed_ = false;
  // Per-sketch lifetime tallies, captured by Seal() before the sketches
  // are freed so the Total*() accessors keep working (zero for instances
  // built from an arena: their build history is not stored).
  size_t sealed_insert_attempts_ = 0;
  size_t sealed_evictions_ = 0;
  size_t sealed_merge_entries_scanned_ = 0;
  size_t sealed_cell_updates_ = 0;
};

}  // namespace ipin

#endif  // IPIN_CORE_IRS_APPROX_H_
