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
#include "ipin/sketch/part_store.h"
#include "ipin/sketch/sketch_arena.h"

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
/// checkpointed one (core/checkpoint.h) in epochs cut by checkpoints. A
/// build's sketches' rows live in a SketchArena from its first insert, and
/// every answer reads only that arena.
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
  /// scan over their own range of every sketch, held in the worker's own
  /// store (PartStore). No vHLL operation reads
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
  /// (oracle_io.h) and shard extraction, which fill the arena directly.
  /// The result holds no build store.
  IrsApprox(Duration window, const IrsApproxOptions& options,
            SketchArena arena);

  /// Frees the build store: the worker stores and the scan's time
  /// encoding. Every build already ends with its rows in arena()
  /// (DESIGN.md §12), so no answer changes; only build_stores,
  /// time_encoding and the checkpoint layer lose their input.
  /// Call it at the build->query handoff to return the build's memory.
  /// Idempotent, and a no-op for loaded and shard indexes.
  void Seal();

  /// The store every query, save and shard extraction reads: each present
  /// node's max-rank row and entry count. Never null.
  const SketchArena* arena() const { return &arena_; }

  /// The worker stores of the build: store k holds part k of the sketch of
  /// every node the arena holds, in the node's arena slot
  /// (SketchArena::slot). A sketch is absent until the scan reaches its
  /// node's last send, and may have collapsed or hold retired ranks
  /// (DESIGN.md §10). Empty once Seal() has run, and for loaded and shard
  /// indexes. For checks that the served rows are the build's.
  std::span<const PartStore> build_stores() const;

  /// The encoding the worker stores store their times in, and
  /// checkpoints write them in (time_codec.h): u32 offsets when the input's
  /// times span less than 2^32, u64 otherwise (DESIGN.md §12). Only while
  /// the build store exists (checked).
  TimeEncoding time_encoding() const;

  /// Estimated |sigma_omega(u)|.
  double EstimateIrsSize(NodeId u) const;

  /// Estimated |union of sigma_omega(s) for s in seeds| — the sketch-based
  /// Influence Oracle (Section 4.1): the estimate of FoldRankRows
  /// (influence_oracle.h) over the arena's rows, O(|seeds| * beta) time,
  /// independent of the set sizes.
  double EstimateUnionSize(std::span<const NodeId> seeds) const;

  size_t num_nodes() const { return num_nodes_; }
  Duration window() const { return window_; }
  const IrsApproxOptions& options() const { return options_; }

  /// Number of nodes that own a sketch.
  size_t NumAllocatedSketches() const { return arena_.NumAllocated(); }

  /// Total (rank, time) entries across all sketches.
  size_t TotalSketchEntries() const { return arena_.TotalEntries(); }

  /// The build sketches' lifetime tallies, summed when the build ended
  /// (zero for loaded and shard indexes: their build history is not
  /// stored). AddEntry attempts (pre-pruning volume), dominance-pair
  /// evictions, entries examined by MergeWindow, and the subset of those
  /// that survived domination filtering and updated a cell.
  size_t TotalInsertAttempts() const { return tallies_.insert_attempts; }
  size_t TotalEvictions() const { return tallies_.evictions; }
  size_t TotalMergeEntriesScanned() const {
    return tallies_.merge_entries_scanned;
  }
  size_t TotalCellUpdates() const { return tallies_.cell_updates; }

  /// Approximate heap footprint in bytes (the paper's Table 4 quantity):
  /// the arena, plus the worker stores while they exist (their slabs,
  /// holes included, and records). After a build this is the end-of-scan
  /// store, no longer the build's peak: sketches the scan collapsed or
  /// retired have given their bytes back. The peak is the "vhll" memory
  /// tally's (VhllMemTally().PeakBytes()).
  size_t MemoryUsageBytes() const;

 private:
  // Serialization/restore hooks for the crash-safe checkpoint layer
  // (core/checkpoint.cc): reads and reinstates the private scan state so a
  // resumed build is indistinguishable from an uninterrupted one.
  friend class CheckpointAccess;

  struct Tallies {
    size_t insert_attempts = 0;
    size_t evictions = 0;
    size_t merge_entries_scanned = 0;
    size_t cell_updates = 0;
  };

  // What only a build reads: the scan, the checkpoint layer,
  // MemoryUsageBytes and build_stores.
  struct Build {
    // One store per worker: store k holds part k of every sketch. Only
    // nodes that send own a sketch (a node that never sends has an empty
    // IRS and needs no sketch — phi(v) = {} in the exact algorithm, memory
    // proportional to *active* sources), in their arena slot: the scan
    // opens it at the node's first send in scan order.
    std::vector<PartStore> stores;
    // The encoding every store stores its times in: the scan's
    // (ScanTimeEncoding).
    TimeEncoding times;
    // Scan tallies: plain members so the per-edge path stays atomics-free;
    // Finish() rolls them up into the metrics registry once per build.
    size_t edges_scanned = 0;
    size_t merge_calls = 0;
  };

  // An empty build over `graph`: an arena with a zero row for every
  // sender, and min(max(num_parts, 1), beta) worker stores storing times in
  // the graph's scan encoding (irs_approx.cc).
  IrsApprox(const InteractionGraph& graph, Duration window,
            const IrsApproxOptions& options, size_t num_parts);

  // The reverse scan of the edges not yet in the sketches (all but the
  // last `done`), one worker per store (ComputeParallel), in epochs
  // ending where the scanned count reaches a multiple of `epoch_edges` (0:
  // one epoch). At each epoch's end the workers meet, the build holds the
  // one-pass scan's sketches, and, if edges remain,
  // `after_epoch(edges scanned)` runs on the calling thread.
  void Scan(const InteractionGraph& graph, size_t done, size_t epoch_edges,
            const std::function<void(size_t)>& after_epoch);

  // The form of each node's sketch once Scan has scanned the log's last
  // `done` edges (at most the edge count): live for each node that sends
  // among them and no other, collapsed exactly when the scan is a window
  // past the node's first send. A resumed build starts only from stores
  // that hold exactly these.
  std::vector<PartStore::Form> ScannedForms(const InteractionGraph& graph,
                                            size_t done) const;

  // The end of every build (plain and checkpointed): sums the stores'
  // lifetime tallies, gives each arena row its entry count, checking the
  // row, and publishes the build metrics and the arena gauges. No row is
  // copied: the stores wrote them in place.
  void Finish();

  // Sets the sketch.arena.* gauges from the arena.
  void PublishArenaGauges() const;

  Duration window_;
  IrsApproxOptions options_;
  size_t num_nodes_ = 0;
  // Null for loaded and shard indexes, and once Seal() has run.
  std::unique_ptr<Build> build_;
  Tallies tallies_;
  // A build's rows from its first insert on; a loaded or shard index's.
  SketchArena arena_;
};

}  // namespace ipin

#endif  // IPIN_CORE_IRS_APPROX_H_
