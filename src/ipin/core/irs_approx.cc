#include "ipin/core/irs_approx.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <limits>
#include <utility>

#include "ipin/common/check.h"
#include "ipin/common/hash.h"
#include "ipin/common/thread_pool.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace.h"
#include "ipin/sketch/estimators.h"

namespace ipin {
namespace {

// The encoding a build over `graph` stores its sketches' times in, and its
// checkpoints write them in: the narrowest covering its earliest and latest
// non-self-loop interaction times, the only times a scan stores.
TimeEncoding ScanTimeEncoding(const InteractionGraph& graph) {
  IPIN_CHECK(graph.is_sorted());
  const std::span<const Interaction> edges = graph.interactions();
  const auto sends = [](const Interaction& e) { return e.src != e.dst; };
  const auto first = std::find_if(edges.begin(), edges.end(), sends);
  if (first == edges.end()) return TimeEncoding::Covering(1, 0);
  const auto last = std::find_if(edges.rbegin(), edges.rend(), sends);
  return TimeEncoding::Covering(first->time, last->time);
}

// True once a scan at time t is a whole window before `later`
// (later - t >= window, exactly at any i64 values): the scan then acts on
// a sketch whose owner's send at `later` is quiet.
bool WindowPassed(Timestamp later, Timestamp t, Duration window) {
  return later > t && static_cast<uint64_t>(later) - static_cast<uint64_t>(t) >=
                          static_cast<uint64_t>(window);
}

// Marks the nodes that send in `graph`: the nodes that own a sketch.
std::vector<bool> Senders(const InteractionGraph& graph) {
  std::vector<bool> senders(graph.num_nodes(), false);
  for (const Interaction& edge : graph.interactions()) senders[edge.src] = true;
  return senders;
}

// Where each node sends in a time-sorted log of m edges, and which of its
// sends are quiet (IrsApprox::Scan).
struct Sends {
  // One past the index of each node's last edge as a source (0: none).
  std::vector<size_t> last;
  // The index of each node's first edge as a source (m: none).
  std::vector<size_t> first;
  // The quiet sends, newest first.
  std::vector<size_t> quiet;
};

Sends FindSends(std::span<const Interaction> edges, size_t num_nodes,
                Duration window) {
  const size_t m = edges.size();
  Sends sends{std::vector<size_t>(num_nodes, 0),
              std::vector<size_t>(num_nodes, m), {}};
  const Duration quiet_gap = window > std::numeric_limits<Duration>::max() / 2
                                 ? std::numeric_limits<Duration>::max()
                                 : 2 * window;
  for (size_t i = 0; i < m; ++i) {
    const NodeId u = edges[i].src;
    if (sends.last[u] == 0) {
      sends.first[u] = i;
      sends.quiet.push_back(i);
    } else if (WindowPassed(edges[i].time, edges[sends.last[u] - 1].time,
                            quiet_gap)) {
      sends.quiet.push_back(i);
    }
    sends.last[u] = i + 1;
  }
  std::reverse(sends.quiet.begin(), sends.quiet.end());
  return sends;
}

}  // namespace

IrsApprox::IrsApprox(const InteractionGraph& graph, Duration window,
                     const IrsApproxOptions& options, size_t num_parts)
    : window_(window),
      options_(options),
      num_nodes_(graph.num_nodes()),
      build_(std::make_unique<Build>()),
      arena_(options.precision, options.salt, Senders(graph)) {
  IPIN_CHECK_GE(window, 1);
#if defined(__GLIBC__)
  // The scan allocates nothing from the heap: the worker stores map their
  // own slabs, and the rows are the arena's. So the heap's free memory (a
  // parse's buffers, say) would sit idle through the scan, resident; give
  // its pages back to the kernel instead.
  malloc_trim(0);
#endif
  const size_t parts =
      std::clamp<size_t>(num_parts, 1, size_t{1} << options.precision);
  build_->times = ScanTimeEncoding(graph);
  build_->stores.reserve(parts);
  for (size_t k = 0; k < parts; ++k) {
    build_->stores.emplace_back(options.precision, k, parts,
                                arena_.NumAllocated(), build_->times,
                                arena_.build_rows());
  }
}

IrsApprox::IrsApprox(Duration window, const IrsApproxOptions& options,
                     SketchArena arena)
    : window_(window),
      options_(options),
      num_nodes_(arena.num_nodes()),
      arena_(std::move(arena)) {
  IPIN_CHECK_GE(window, 1);
  IPIN_CHECK_EQ(arena_.precision(), options_.precision);
  IPIN_CHECK_EQ(arena_.salt(), options_.salt);
  PublishArenaGauges();
}

void IrsApprox::Seal() {
  if (build_ == nullptr) return;
  IPIN_TRACE_SPAN("irs.approx.seal");
  build_.reset();
}

std::span<const PartStore> IrsApprox::build_stores() const {
  if (build_ == nullptr) return {};
  return build_->stores;
}

TimeEncoding IrsApprox::time_encoding() const {
  IPIN_CHECK(build_ != nullptr);
  return build_->times;
}

void IrsApprox::PublishArenaGauges() const {
  IPIN_GAUGE_SET("sketch.arena.bytes", arena_.MemoryUsageBytes());
  IPIN_GAUGE_SET("sketch.arena.entries", arena_.TotalEntries());
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
  irs.Finish();
  return irs;
}

// Cell-partitioned scan (DESIGN.md §10). Algorithm 3 touches a sketch only
// cell by cell, so worker k runs the whole reverse scan over its own store,
// which holds part k of every sketch, and applies only the inserts that
// land in that part. Every cell then receives exactly the inserts of the
// one-pass scan, in the same order, so the sketches are bit-identical for
// every part count. For edge (u, v, t) a worker does Algorithm 3's step:
// ApproxAdd of v into phi(u), then ApproxMerge of phi(v) once v has a
// sketch. Self-loops do neither, like in IrsExact: a node is not in its
// own IRS, and merging a sketch into itself is a no-op. A merge can still
// fold u's own hash in via a temporal cycle — a one-item bias the sketch
// cannot distinguish, documented in DESIGN.md.
//
// The scan also releases what the window makes unreachable (the
// "Retirement" rules of vhll.h). Every pair of phi(u) is at or after u's
// latest scanned send, so once the scan is a whole window before that
// send and u has not sent again, every pair of phi(u) is dead: no merge
// reads it, and it can never dominate a new pair. If that send was u's
// first, phi(u) is final, and the scan collapses it to its row and entry
// count then. Otherwise, if u stays silent for another window at least
// (two windows after the send, in scan order), the scan retires its
// pairs then, which u's next sends evict or keep as ranks; after a
// shorter silence u soon sends again, and the retirements cost more scan
// time than they save memory (EXPERIMENTS.md). Such a send is "quiet". The log alone fixes the quiet sends, and
// each worker acts on its own part with its own cursor into one shared
// list, so every part count, and every resume, does the same.
void IrsApprox::Scan(const InteractionGraph& graph, size_t done,
                     size_t epoch_edges,
                     const std::function<void(size_t)>& after_epoch) {
  IPIN_CHECK(graph.is_sorted());
  Build& build = *build_;
  const std::span<const Interaction> edges = graph.interactions();
  const size_t m = edges.size();
  // sends.last[v] is one past the index of v's last edge as a source (0
  // if v never sends). The one-pass scan opens phi(v) at that edge, so
  // while scanning edge i - 1 it holds a sketch for v iff
  // sends.last[v] > i.
  const Sends sends = FindSends(edges, num_nodes_, window_);
  const std::vector<size_t>& quiet = sends.quiet;
  // How many quiet sends a scan at time t is a window before, counting on
  // from `from` of them.
  const auto due_at = [&](Timestamp t, size_t from) {
    while (from < quiet.size() &&
           WindowPassed(edges[quiet[from]].time, t, window_)) {
      ++from;
    }
    return from;
  };

  obs::PhaseSpan phase("irs.approx.scan", m);
  phase.SetDone(done);  // resumed edges count as completed work
  // The quiet sends acted on before this epoch: a resumed scan's restored
  // sketches already show them.
  size_t acted = done == 0 ? 0 : due_at(edges[m - done].time, 0);
  while (done < m) {
    // This epoch scans edges [lo, hi) backwards.
    const size_t hi = m - done;
    const size_t epoch =
        epoch_edges == 0 ? m : epoch_edges - done % epoch_edges;
    const size_t lo = hi - std::min(hi, epoch);
    ParallelFor(0, build.stores.size(), 1, [&](size_t first, size_t last) {
      for (size_t part = first; part < last; ++part) {
        PartStore& store = build.stores[part];
        size_t part_merges = 0;
        size_t since_tick = 0;
        size_t cursor = acted;
        for (size_t i = hi; i > lo; --i) {
          const Interaction& edge = edges[i - 1];
          for (const size_t end = due_at(edge.time, cursor); cursor < end;
               ++cursor) {
            const size_t send = quiet[cursor];
            const NodeId sender = edges[send].src;
            const size_t slot = arena_.slot(sender);
            if (sends.first[sender] == send) {
              store.Collapse(slot);
            } else {
              store.Retire(slot);
            }
          }
          const auto [u, v, t] = edge;
          const size_t su = arena_.slot(u);
          if (sends.last[u] == i) store.Open(su);
          if (u != v) {
            store.AddHash(su, Hash64(static_cast<uint64_t>(v), options_.salt),
                          t);
            if (sends.last[v] > i) {
              store.MergeWindow(su, store, arena_.slot(v), t, window_);
              ++part_merges;
            }
          }
          // Worker 0 reports progress; chunked ticks keep the per-edge path
          // atomics-free.
          if (part == 0 && ++since_tick == (size_t{64} << 10)) {
            phase.Tick(since_tick);
            since_tick = 0;
          }
        }
        if (part == 0) build.merge_calls += part_merges;
      }
    });
    acted = due_at(edges[lo].time, acted);
    done = m - lo;
    build.edges_scanned += hi - lo;
    phase.SetDone(done);
    if (done < m && after_epoch) after_epoch(done);
  }
}

std::vector<PartStore::Form> IrsApprox::ScannedForms(
    const InteractionGraph& graph, size_t done) const {
  const std::span<const Interaction> edges = graph.interactions();
  IPIN_CHECK_LE(done, edges.size());
  const Sends sends = FindSends(edges, num_nodes_, window_);
  // The scan's latest step is at edge lo, the earliest scanned.
  const size_t lo = edges.size() - done;
  std::vector<PartStore::Form> forms(num_nodes_, PartStore::Form::kAbsent);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    if (sends.last[u] <= lo) continue;
    forms[u] = WindowPassed(edges[sends.first[u]].time, edges[lo].time,
                            window_)
                   ? PartStore::Form::kCollapsed
                   : PartStore::Form::kLive;
  }
  return forms;
}

void IrsApprox::Finish() {
  IPIN_TRACE_SPAN("irs.approx.finish");
  const std::vector<PartStore>& stores = build_->stores;
  for (const PartStore& store : stores) {
    tallies_.insert_attempts += store.tallies().insert_attempts;
    tallies_.evictions += store.tallies().evictions;
    tallies_.merge_entries_scanned += store.tallies().merge_entries_scanned;
    tallies_.cell_updates += store.tallies().cell_updates;
  }
  for (NodeId u = 0; u < num_nodes_; ++u) {
    if (!arena_.has_node(u)) continue;
    const size_t slot = arena_.slot(u);
    size_t entries = 0;
    for (const PartStore& store : stores) entries += store.NumEntries(slot);
    IPIN_CHECK(arena_.SetEntries(u, entries));
  }
  // Scan and per-sketch tallies (plain members, free to maintain) roll up
  // into the registry once per build, keeping the per-edge path atomics-free.
  IPIN_COUNTER_ADD("irs.approx.edges_scanned", build_->edges_scanned);
  IPIN_COUNTER_ADD("sketch.vhll.merges", build_->merge_calls);
  IPIN_COUNTER_ADD("sketch.vhll.merge_entries_scanned",
                   tallies_.merge_entries_scanned);
  IPIN_COUNTER_ADD("sketch.vhll.cell_updates", tallies_.cell_updates);
  IPIN_COUNTER_ADD("sketch.vhll.insert_attempts", tallies_.insert_attempts);
  IPIN_COUNTER_ADD("sketch.vhll.dominance_evictions", tallies_.evictions);
  IPIN_GAUGE_SET("sketch.vhll.total_entries", TotalSketchEntries());
  IPIN_GAUGE_SET("irs.approx.allocated_sketches", NumAllocatedSketches());
  PublishArenaGauges();
}

double IrsApprox::EstimateIrsSize(NodeId u) const {
  IPIN_CHECK_LT(u, num_nodes());
  return arena_.has_node(u) ? arena_.EstimateNode(u) : 0.0;
}

double IrsApprox::EstimateUnionSize(std::span<const NodeId> seeds) const {
  return EstimateFromRanks(FoldRankRows(*this, seeds, {}).ranks);
}

size_t IrsApprox::MemoryUsageBytes() const {
  size_t bytes = arena_.MemoryUsageBytes();
  for (const PartStore& store : build_stores()) {
    bytes += store.MemoryUsageBytes();
  }
  return bytes;
}

}  // namespace ipin
