#ifndef IPIN_OBS_TRACE_H_
#define IPIN_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ipin/common/timer.h"
#include "ipin/obs/metrics.h"

// Scoped tracing spans: the one phase timer. IPIN_TRACE_SPAN("irs.scan")
// times the enclosing scope; spans nest (a span opened while another is
// active on the same thread becomes its child), and every (parent-path,
// name) pair aggregates into one node of a process-wide span tree: calls,
// wall time, process CPU time and work units. Each span end also feeds the
// metrics registry (the counter "trace.<path>.calls" and the latency
// histogram "trace.<path>.us") and, while a recording session runs, the
// Chrome trace (trace_events.h).
//
// A span also tags the parallel sections its thread starts with its name
// (SetCurrentPoolPhase in common/thread_pool.h), so pool task accounting
// lands under the same name. A batch phase that reports progress is a
// PhaseSpan: a span with a work-unit total that workers Tick. Open
// PhaseSpans are listed for the heartbeat reporter (progress.h), which
// names the innermost one; the run ledger (ledger.h) reads its per-phase
// timings from the tree.
//
// Nesting is tracked per thread (thread-local parent pointer); the tree
// itself is shared, with node creation mutex-guarded and per-node totals
// accumulated via relaxed atomics.

namespace ipin::obs {

struct SpanNode;  // internal; defined in trace.cc

/// Aggregated statistics of one span-tree node, flattened depth-first, or
/// of one open span (OpenPhaseSpans). `path` joins the nesting chain with
/// '/' (span names themselves are dotted, e.g.
/// "irs.approx.compute/irs.approx.scan").
struct SpanStats {
  std::string name;  // the span's own name: the last element of `path`
  std::string path;
  int depth = 0;
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t cpu_ns = 0;  // process CPU consumed while the spans ran
  uint64_t units_done = 0;
  uint64_t units_total = 0;  // 0 = no total given / open-ended
  bool active = false;       // an open span, timed so far

  double TotalSeconds() const { return static_cast<double>(total_ns) * 1e-9; }
};

/// RAII span. Construct on the stack (normally via IPIN_TRACE_SPAN, or as a
/// PhaseSpan); the destructor records the elapsed time. `name` must outlive
/// the span (string literals in practice).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  /// A span that carries work units (`total_units` = 0: open-ended). It is
  /// listed by OpenPhaseSpans while open.
  TraceSpan(const char* name, uint64_t total_units);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Adds `delta` completed work units. Callable from any thread: workers
  /// inside a ParallelFor may tick the span of the section they run under.
  void Tick(uint64_t delta = 1) {
    units_done_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Sets the absolute completed-unit count (resumed builds, chunked loops
  /// that track their own cursor).
  void SetDone(uint64_t done) {
    units_done_.store(done, std::memory_order_relaxed);
  }

 private:
  friend std::vector<SpanStats> OpenPhaseSpans();

  TraceSpan(const char* name, uint64_t total_units, bool carries_units);

  WallTimer timer_;
  const char* name_;  // kept for the event recorder (node_ may outlive resets)
  SpanNode* node_;
  SpanNode* prev_;  // the span active on this thread before this one
  const char* prev_pool_phase_;
  const bool carries_units_;
  const uint64_t units_total_;
  std::atomic<uint64_t> units_done_{0};
  uint64_t start_cpu_ns_;
};

/// Flattened copy of the span tree, depth-first, children sorted by name.
std::vector<SpanStats> SpanTreeSnapshot();

/// The spans opened with a work-unit total that are still open, oldest
/// first (the last one is the innermost), with `active` set.
std::vector<SpanStats> OpenPhaseSpans();

/// Pretty-prints the span tree (indented by depth) to `out`.
void DumpSpanTree(std::FILE* out);

/// Clears the span tree. Test-only: callers must guarantee no span is
/// currently open on any thread.
void ResetSpanTreeForTest();

#ifdef IPIN_OBS_DISABLED
/// Compiled-out PhaseSpan: ticks cost nothing and nothing is recorded.
class PhaseSpan {
 public:
  PhaseSpan(const char*, uint64_t) {}
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;
  void Tick(uint64_t = 1) {}
  void SetDone(uint64_t) {}
};
#else
/// A named span that carries work units: one batch phase.
using PhaseSpan = TraceSpan;
#endif

}  // namespace ipin::obs

#ifdef IPIN_OBS_DISABLED
#define IPIN_TRACE_SPAN(name)
#else
/// Opens a TraceSpan covering the rest of the enclosing scope.
#define IPIN_TRACE_SPAN(name) \
  ::ipin::obs::TraceSpan IPIN_OBS_CONCAT(ipin_obs_span_, __LINE__)(name)
#endif

#endif  // IPIN_OBS_TRACE_H_
