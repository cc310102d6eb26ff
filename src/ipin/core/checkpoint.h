#ifndef IPIN_CORE_CHECKPOINT_H_
#define IPIN_CORE_CHECKPOINT_H_

#include <cstddef>
#include <string>

#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_exact.h"
#include "ipin/graph/interaction_graph.h"

// Crash-safe checkpoint/resume for the one-pass reverse scan (Algorithms
// 2/3). The scan is the expensive step of the whole pipeline; on a 100M-edge
// log, a crash at edge 90M must not cost 90M edges of rework. With
// checkpointing enabled, the scan state is written through common/safe_io
// every N edges — a meta frame (position, tallies, fingerprint, and the
// time encoding of the sketch chunks) plus one frame per 256 nodes, holding
// their summaries (exact) or their sketches' cell lists (approx; the only
// files that store them, checkpoint.cc) — and a restarted build resumes
// from the newest checkpoint that verifies, falling back to the next-older
// one when the newest is damaged or of another format version. A resumed
// build produces results identical to an uninterrupted run.
//
// Checkpoint files are named ckpt_<algo>_<edges>.ipinckpt inside
// `options.dir`. They carry a fingerprint of (graph, window, sketch
// options); a checkpoint taken against different inputs is ignored rather
// than resumed into a wrong build. Files beyond `options.keep` newest are
// pruned after each successful save. Checkpoints are kept after a completed
// build (a rerun with identical inputs resumes at 100% and just replays the
// final state); delete the directory to force a fresh build.
//
// Failpoints: checkpoint.save (arm with crash_after_n to kill a build
// mid-scan), checkpoint.load, plus everything in common/safe_io.

namespace ipin {

/// Where and how often to checkpoint. Disabled unless both `dir` is
/// non-empty and `every_edges` > 0.
struct CheckpointOptions {
  /// Directory for checkpoint files (created if absent).
  std::string dir;
  /// Checkpoint after every N processed edges (0 = never).
  size_t every_edges = 0;
  /// Newest checkpoints retained per algorithm; older ones are pruned.
  size_t keep = 2;

  bool enabled() const { return !dir.empty() && every_edges > 0; }
};

/// What the checkpointed build did (also published as robustness.* metrics).
struct CheckpointStats {
  /// Edges skipped because a checkpoint was resumed.
  size_t resumed_edges = 0;
  /// Checkpoints successfully written during this build.
  size_t checkpoints_written = 0;
  /// Checkpoint writes that failed (build continues regardless).
  size_t checkpoint_failures = 0;
  /// Newer checkpoints that failed verification and were skipped before a
  /// valid one (or a fresh start) was chosen.
  size_t invalid_checkpoints_skipped = 0;
  /// Wall time spent writing checkpoints, failed writes included (each
  /// write is also recorded in the robustness.checkpoint.save_ms
  /// histogram).
  double save_seconds = 0;
};

/// IrsExact::Compute with checkpoint/resume. Identical results to
/// IrsExact::Compute(graph, window); `stats` (optional) reports resume and
/// save activity.
IrsExact ComputeIrsExactCheckpointed(const InteractionGraph& graph,
                                     Duration window,
                                     const CheckpointOptions& options,
                                     CheckpointStats* stats = nullptr);

/// IrsApprox::Compute with checkpoint/resume: Compute's cell-partitioned
/// scan, one part per global thread, run in epochs of
/// `options.every_edges` edges; the workers meet at each epoch's end and
/// the checkpoint is cut there. Identical results to
/// IrsApprox::Compute(graph, window, irs_options), returned unsealed as
/// Compute's are, whatever the thread counts the checkpoints were written
/// and resumed at.
IrsApprox ComputeIrsApproxCheckpointed(const InteractionGraph& graph,
                                       Duration window,
                                       const IrsApproxOptions& irs_options,
                                       const CheckpointOptions& options,
                                       CheckpointStats* stats = nullptr);

}  // namespace ipin

#endif  // IPIN_CORE_CHECKPOINT_H_
