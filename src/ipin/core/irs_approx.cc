#include "ipin/core/irs_approx.h"

#include <algorithm>
#include <utility>

#include "ipin/common/check.h"
#include "ipin/common/hash.h"
#include "ipin/common/thread_pool.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/progress.h"
#include "ipin/obs/trace.h"
#include "ipin/sketch/estimators.h"
#include "ipin/sketch/kernels.h"

namespace ipin {
namespace {

// Algorithm 3's step for edge (u, v, t) on the cells of `part`: ApproxAdd
// of v into phi(u), then ApproxMerge of phi(v) (`sketch_v`, null while v
// has no sketch). Self-loops do neither, like in IrsExact: a node is not
// in its own IRS, and merging a sketch into itself is a no-op. A merge can
// still fold u's own hash in via a temporal cycle — a one-item bias the
// sketch cannot distinguish, documented in DESIGN.md. Returns true if it
// merged.
bool ScanEdge(const Interaction& edge, VersionedHll& sketch_u,
              const VersionedHll* sketch_v, Duration window, size_t part) {
  const auto [u, v, t] = edge;
  if (u == v) return false;
  sketch_u.AddInPart(static_cast<uint64_t>(v), t, part);
  if (sketch_v == nullptr) return false;
  sketch_u.MergeWindow(*sketch_v, t, window, part);
  return true;
}

// The encoding a build over `graph` stores its sketches' times in: the
// narrowest covering its earliest and latest non-self-loop interaction
// times, the only times a scan stores. A sketch entry at the earliest one
// always survives (only an entry at the same time can evict it), so when
// this encoding is narrow it is exactly the TimeEncodingOf the finished
// build's sketches.
TimeEncoding ScanTimeEncoding(const InteractionGraph& graph) {
  IPIN_CHECK(graph.is_sorted());
  const std::span<const Interaction> edges = graph.interactions();
  const auto sends = [](const Interaction& e) { return e.src != e.dst; };
  const auto first = std::find_if(edges.begin(), edges.end(), sends);
  if (first == edges.end()) return TimeEncoding::Covering(1, 0);
  const auto last = std::find_if(edges.rbegin(), edges.rend(), sends);
  return TimeEncoding::Covering(first->time, last->time);
}

}  // namespace

IrsApprox::IrsApprox(const InteractionGraph& graph, Duration window,
                     const IrsApproxOptions& options, size_t num_parts)
    : window_(window),
      options_(options),
      num_nodes_(graph.num_nodes()),
      parts_(std::clamp<size_t>(num_parts, 1, size_t{1} << options.precision)),
      times_(ScanTimeEncoding(graph)),
      sketches_(num_nodes_) {
  IPIN_CHECK_GE(window, 1);
}

IrsApprox::IrsApprox(Duration window, const IrsApproxOptions& options,
                     SketchArena arena)
    : window_(window),
      options_(options),
      num_nodes_(arena.num_nodes()),
      arena_(std::make_unique<SketchArena>(std::move(arena))),
      sealed_(true) {
  IPIN_CHECK_GE(window, 1);
  IPIN_CHECK_EQ(arena_->precision(), options_.precision);
  IPIN_CHECK_EQ(arena_->salt(), options_.salt);
  PublishArenaGauges();
}

void IrsApprox::Seal() {
  if (sealed_) return;
  IPIN_TRACE_SPAN("irs.approx.seal");
  // Capture the per-sketch lifetime tallies before freeing their owners.
  sealed_insert_attempts_ = TotalInsertAttempts();
  sealed_evictions_ = TotalEvictions();
  sealed_merge_entries_scanned_ = TotalMergeEntriesScanned();
  sealed_cell_updates_ = TotalCellUpdates();
  arena_ = std::make_unique<SketchArena>(options_.precision, options_.salt,
                                         std::span(sketches_));
  sealed_ = true;
  sketches_.clear();
  sketches_.shrink_to_fit();
  PublishArenaGauges();
}

void IrsApprox::PublishArenaGauges() const {
  IPIN_GAUGE_SET("sketch.arena.bytes", arena_->MemoryUsageBytes());
  IPIN_GAUGE_SET("sketch.arena.entries", arena_->TotalEntries());
}

IrsApprox IrsApprox::Compute(const InteractionGraph& graph, Duration window,
                             const IrsApproxOptions& options) {
  return ComputeParallel(graph, window, options, GlobalThreads());
}

IrsApprox IrsApprox::ComputeParallel(const InteractionGraph& graph,
                                     Duration window,
                                     const IrsApproxOptions& options,
                                     size_t num_parts) {
  IPIN_TRACE_SPAN("irs.approx.compute");
  IrsApprox irs(graph, window, options, num_parts);
  irs.Scan(graph, /*done=*/0, /*epoch_edges=*/0, {});
  irs.PublishBuildMetrics();
  return irs;
}

// Cell-partitioned scan (DESIGN.md §10). Algorithm 3 touches a sketch only
// cell by cell, so worker k runs the whole reverse scan but applies only
// the inserts that land in part k of each sketch. Every cell then receives
// exactly the inserts of the one-pass scan, in the same order, so the
// sketches are bit-identical for every part count.
void IrsApprox::Scan(const InteractionGraph& graph, size_t done,
                     size_t epoch_edges,
                     const std::function<void(size_t)>& after_epoch) {
  IPIN_CHECK(graph.is_sorted());
  const std::span<const Interaction> edges = graph.interactions();
  const size_t m = edges.size();
  // last_sent[v] is one past the index of v's last edge as a source (0 if
  // v never sends). The one-pass scan allocates phi(v) at that edge, so
  // while scanning edge i - 1 it holds a sketch for v iff last_sent[v] > i.
  std::vector<size_t> last_sent(num_nodes_, 0);
  for (size_t i = 0; i < m; ++i) last_sent[edges[i].src] = i + 1;

  obs::ProgressPhase phase("irs.approx.scan", m);
  phase.SetDone(done);  // resumed edges count as completed work
  while (done < m) {
    // This epoch scans edges [lo, hi) backwards.
    const size_t hi = m - done;
    const size_t epoch =
        epoch_edges == 0 ? m : epoch_edges - done % epoch_edges;
    const size_t lo = hi - std::min(hi, epoch);
    for (size_t i = lo; i < hi; ++i) {
      const NodeId u = edges[i].src;
      if (last_sent[u] == i + 1) {
        sketches_[u] = std::make_unique<VersionedHll>(
            options_.precision, options_.salt, parts_, times_);
      }
    }
    ParallelFor(0, parts_, 1, [&](size_t first, size_t last) {
      for (size_t part = first; part < last; ++part) {
        size_t part_merges = 0;
        size_t since_tick = 0;
        for (size_t i = hi; i > lo; --i) {
          const Interaction& edge = edges[i - 1];
          const NodeId v = edge.dst;
          part_merges +=
              ScanEdge(edge, *sketches_[edge.src],
                       last_sent[v] > i ? sketches_[v].get() : nullptr,
                       window_, part);
          // Worker 0 reports progress; chunked ticks keep the per-edge path
          // atomics-free.
          if (part == 0 && ++since_tick == (size_t{64} << 10)) {
            phase.Tick(since_tick);
            since_tick = 0;
          }
        }
        if (part == 0) merge_calls_ += part_merges;
      }
    });
    done = m - lo;
    edges_scanned_ += hi - lo;
    phase.SetDone(done);
    if (done < m && after_epoch) after_epoch(done);
  }
}

void IrsApprox::PublishBuildMetrics() const {
  // Scan and per-sketch tallies (plain members, free to maintain) roll up
  // into the registry once per build, keeping the per-edge path atomics-free.
  IPIN_COUNTER_ADD("irs.approx.edges_scanned", edges_scanned_);
  IPIN_COUNTER_ADD("sketch.vhll.merges", merge_calls_);
  IPIN_COUNTER_ADD("sketch.vhll.merge_entries_scanned",
                   TotalMergeEntriesScanned());
  IPIN_COUNTER_ADD("sketch.vhll.cell_updates", TotalCellUpdates());
  IPIN_COUNTER_ADD("sketch.vhll.insert_attempts", TotalInsertAttempts());
  IPIN_COUNTER_ADD("sketch.vhll.dominance_evictions", TotalEvictions());
  IPIN_GAUGE_SET("sketch.vhll.total_entries", TotalSketchEntries());
  IPIN_GAUGE_SET("irs.approx.allocated_sketches", NumAllocatedSketches());
}

double IrsApprox::EstimateIrsSize(NodeId u) const {
  IPIN_CHECK_LT(u, num_nodes_);
  if (sealed_) {
    return arena_->has_node(u) ? arena_->EstimateNode(u) : 0.0;
  }
  const VersionedHll* sketch = sketches_[u].get();
  return sketch == nullptr ? 0.0 : sketch->Estimate();
}

double IrsApprox::EstimateUnionSize(std::span<const NodeId> seeds) const {
  std::vector<uint8_t> ranks;
  return EstimateUnionSize(seeds, &ranks);
}

double IrsApprox::EstimateUnionSize(std::span<const NodeId> seeds,
                                    std::vector<uint8_t>* scratch) const {
  const size_t beta = static_cast<size_t>(1) << options_.precision;
  scratch->assign(beta, 0);
  uint8_t* const ranks = scratch->data();
  bool any = false;
  for (const NodeId u : seeds) {
    IPIN_CHECK_LT(u, num_nodes_);
    if (sealed_) {
      if (!arena_->has_node(u)) continue;
      any = true;
      // Sealed fast path: fold the node's rank-plane row straight in —
      // one contiguous vector max per seed.
      kernels::CellwiseMaxU8(ranks, arena_->rank_row(u).data(), beta);
      continue;
    }
    const VersionedHll* sketch = sketches_[u].get();
    if (sketch == nullptr) continue;
    any = true;
    kernels::CellwiseMaxU8(ranks, sketch->max_ranks().data(), beta);
  }
  if (!any) return 0.0;
  return kernels::Dispatched().estimate_from_ranks(ranks, beta);
}

size_t IrsApprox::NumAllocatedSketches() const {
  if (sealed_) return arena_->NumAllocated();
  size_t count = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) ++count;
  }
  return count;
}

size_t IrsApprox::TotalSketchEntries() const {
  if (sealed_) return arena_->TotalEntries();
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumEntries();
  }
  return total;
}

size_t IrsApprox::TotalInsertAttempts() const {
  if (sealed_) return sealed_insert_attempts_;
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumInsertAttempts();
  }
  return total;
}

size_t IrsApprox::TotalEvictions() const {
  if (sealed_) return sealed_evictions_;
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumEvictions();
  }
  return total;
}

size_t IrsApprox::TotalMergeEntriesScanned() const {
  if (sealed_) return sealed_merge_entries_scanned_;
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumMergeEntriesScanned();
  }
  return total;
}

size_t IrsApprox::TotalCellUpdates() const {
  if (sealed_) return sealed_cell_updates_;
  size_t total = 0;
  for (const auto& s : sketches_) {
    if (s != nullptr) total += s->NumCellUpdates();
  }
  return total;
}

size_t IrsApprox::MemoryUsageBytes() const {
  if (sealed_) return arena_->MemoryUsageBytes();
  size_t bytes = sketches_.capacity() * sizeof(std::unique_ptr<VersionedHll>);
  for (const auto& s : sketches_) {
    if (s != nullptr) bytes += sizeof(VersionedHll) + s->MemoryUsageBytes();
  }
  return bytes;
}

}  // namespace ipin
