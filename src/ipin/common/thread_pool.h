#ifndef IPIN_COMMON_THREAD_POOL_H_
#define IPIN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

// Shared parallel runtime for the hot paths (DESIGN.md §10).
//
// One process-wide pool (GlobalPool) sized by the --threads flag /
// IPIN_THREADS env var / hardware_concurrency, plus a free ParallelFor
// helper that every parallel section goes through. The contract that makes
// the parallelism safe to sprinkle over deterministic algorithms:
//
//   * GlobalThreads() == 1 means *exact sequential fallback*: ParallelFor
//     invokes the body inline on the caller as body(begin, end) — no pool,
//     no task objects, no extra threads. Every parallel section in the
//     codebase is written so that its threaded schedule produces results
//     identical to this fallback (bit-identical sketches, seed-identical
//     greedy/TCIC); tests/test_parallel_irs.cc cross-validates.
//   * Nested ParallelFor calls run inline on the calling worker instead of
//     re-entering the queue, so a parallel section may freely call library
//     code that is itself parallelized without risking deadlock or
//     oversubscription.
//   * SetGlobalThreads must not be called while a parallel section is in
//     flight (the pool is torn down and rebuilt on size changes). In
//     practice it is called once at startup from flag parsing.
//
// Observability: parallel.pool.tasks counts submitted tasks,
// parallel.pool.queue_depth gauges the backlog. Per-phase spans live at the
// call sites, which know what the tasks mean.

namespace ipin {

/// Fixed-size worker pool. `Submit` enqueues fire-and-forget tasks (used by
/// the serving layer for its long-running worker loops); `ParallelFor`
/// partitions an index range into chunks that workers and the caller claim
/// dynamically.
class ThreadPool {
 public:
  /// Spawns `num_threads` (clamped to >= 1) dedicated worker threads.
  explicit ThreadPool(size_t num_threads);

  /// Completes every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues `fn` for execution on a worker thread.
  void Submit(std::function<void()> fn);

  /// Invokes `body(lo, hi)` over disjoint sub-ranges covering
  /// [begin, end), each at least `grain` long (except possibly the last).
  /// The caller participates; returns when the whole range is done. The
  /// first exception thrown by a body is rethrown here (remaining chunks
  /// still run). Runs inline when the range fits one grain, the pool has a
  /// single thread, or the caller is itself a pool worker (nesting).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  /// True when the calling thread is a worker of any ThreadPool.
  static bool OnWorkerThread();

 private:
  void WorkerMain();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// std::thread::hardware_concurrency(), never 0.
size_t HardwareThreads();

/// Overrides the global thread count; 0 restores the default resolution
/// (IPIN_THREADS env var if set and positive, else HardwareThreads()).
/// Must not race in-flight parallel sections.
void SetGlobalThreads(size_t n);

/// The effective global thread count (see SetGlobalThreads).
size_t GlobalThreads();

/// The process-wide pool, sized GlobalThreads(); (re)created lazily.
ThreadPool& GlobalPool();

/// ParallelFor on the global pool; exact inline sequential execution when
/// GlobalThreads() <= 1, the range fits one grain, or already on a worker.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body);

// ---- Per-phase pool profiling ---------------------------------------------
//
// Parallel sections tagged with a phase name (obs::ProgressPhase tags the
// calling thread automatically; SetCurrentPoolPhase does it by hand)
// accumulate task-level accounting: how many chunks ran under the tag, the
// summed and slowest chunk execution times, and the caller-side wall time of
// the tagged sections. From those the skew and utilization of a phase are
// derived — e.g. a cell-partitioned IRS build where one part's cells hold
// most of the entries shows up as a high imbalance ratio instead of having
// to be inferred from total wall time. Accounting compiles out under IPIN_OBS_DISABLED (the API stays,
// profiles are simply empty). Untagged sections (the serving worker loops)
// are not accounted.

/// Cumulative accounting for every parallel section run under one tag.
struct PoolPhaseProfile {
  std::string name;
  uint64_t tasks = 0;        // chunks executed under the tag
  uint64_t busy_us = 0;      // summed chunk execution wall time
  uint64_t max_task_us = 0;  // slowest single chunk
  uint64_t wall_us = 0;      // summed caller-side section wall time

  double MeanTaskUs() const {
    return tasks == 0 ? 0.0 : static_cast<double>(busy_us) /
                                  static_cast<double>(tasks);
  }

  /// Slowest chunk over mean chunk time: 1.0 = perfectly balanced,
  /// >> 1.0 = one straggler chunk dominated. 0 when nothing ran.
  double ImbalanceRatio() const {
    const double mean = MeanTaskUs();
    return mean == 0.0 ? 0.0 : static_cast<double>(max_task_us) / mean;
  }

  /// Fraction of the section's thread-time that did work:
  /// busy / (wall * threads). 0 when nothing ran.
  double Utilization(size_t threads) const {
    if (wall_us == 0 || threads == 0) return 0.0;
    return static_cast<double>(busy_us) /
           (static_cast<double>(wall_us) * static_cast<double>(threads));
  }
};

/// Tags parallel sections started by the calling thread with `phase`
/// (nullptr = untagged). Returns the previous tag so callers can restore
/// it; the string must stay alive while the tag is set.
const char* SetCurrentPoolPhase(const char* phase);

/// The calling thread's current phase tag (nullptr when untagged).
const char* CurrentPoolPhase();

/// Every phase profile accumulated so far, sorted by name.
std::vector<PoolPhaseProfile> PoolPhaseProfiles();

/// Clears all accumulated phase profiles (tests, between bench reps).
void ResetPoolPhaseProfiles();

/// Mirrors each profile into the metrics registry as the gauges
/// "parallel.phase.<name>.{tasks,busy_us,max_task_us,wall_us,imbalance,
/// utilization}" (utilization computed against GlobalThreads()). Call
/// before snapshotting the registry for a run report or ledger.
void PublishPoolPhaseMetrics();

}  // namespace ipin

#endif  // IPIN_COMMON_THREAD_POOL_H_
