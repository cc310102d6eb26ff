#ifndef IPIN_OBS_PROGRESS_H_
#define IPIN_OBS_PROGRESS_H_

#include <cstdint>
#include <string>
#include <vector>

// Progress/heartbeat engine for batch jobs (builds, seed selection, Monte
// Carlo runs). Long phases register themselves with a ProgressPhase RAII
// scope and tick work-unit counters (edges scanned, greedy rounds, TCIC
// runs); a background reporter thread periodically turns the
// innermost active phase into
//
//   * a machine-readable heartbeat line (schema ipin.heartbeat.v1, one JSON
//     object per line) appended to --progress_out, and
//   * an optional throttled human ticker on stderr,
//
// so a wedged multi-hour build is distinguishable from a merely slow one:
// heartbeats keep coming either way, but units_done stops moving when the
// job is stuck. Completed phases aggregate by name (bounded memory even in
// a long-lived server) and are summarized into the run ledger
// (obs/ledger.h) together with the per-phase thread-pool profiles.
//
// ProgressPhase also tags the calling thread's parallel sections (see
// SetCurrentPoolPhase in common/thread_pool.h) so pool task accounting
// lands under the same phase name.
//
// Under IPIN_OBS_DISABLED everything here compiles to no-ops: phases cost
// nothing, StartProgressReporting reports nothing.

namespace ipin::obs {

/// One phase as seen by snapshots: a completed per-name aggregate
/// (active == false, instances >= 1) or a live phase (active == true).
struct ProgressPhaseSnapshot {
  std::string name;
  uint64_t instances = 0;    // phases merged into this aggregate
  uint64_t units_done = 0;
  uint64_t units_total = 0;  // 0 = unknown / open-ended
  uint64_t wall_us = 0;
  uint64_t cpu_us = 0;       // process CPU consumed while the phase ran
  bool active = false;
};

/// Reporter configuration (see StartProgressReporting).
struct ProgressOptions {
  uint64_t interval_ms = 1000;  // heartbeat cadence (clamped to >= 1)
  std::string out_path;         // heartbeat JSONL file; empty = none
  bool stderr_ticker = false;   // one human-readable line per interval
};

#ifndef IPIN_OBS_DISABLED

/// RAII scope for one phase of a batch job. Construction registers the
/// phase (and tags the thread's pool sections with `name`); destruction
/// finalizes its timings and folds it into the per-name aggregate. Tick /
/// SetDone are callable from any thread (relaxed atomics) — workers inside
/// a ParallelFor may tick the phase of the section they run under.
/// `name` must outlive the object (string literals in practice).
class ProgressPhase {
 public:
  ProgressPhase(const char* name, uint64_t total_units);
  ~ProgressPhase();

  ProgressPhase(const ProgressPhase&) = delete;
  ProgressPhase& operator=(const ProgressPhase&) = delete;

  /// Adds `delta` completed work units.
  void Tick(uint64_t delta = 1);

  /// Sets the absolute completed-unit count (resumed builds, chunked
  /// loops that track their own cursor).
  void SetDone(uint64_t done);

  struct State;  // implementation detail, public for the engine in the .cc

 private:
  State* state_;
  const char* prev_pool_phase_;
};

/// Starts the background heartbeat reporter. Returns false (and changes
/// nothing) if a reporter is already running or the output file cannot be
/// opened. A final heartbeat is always emitted on stop, so any run with a
/// reporter produces at least one line.
bool StartProgressReporting(const ProgressOptions& options);

/// Stops the reporter (no-op when none is running): emits a final
/// heartbeat, joins the thread, closes the output file.
void StopProgressReporting();

/// Completed per-name aggregates (sorted by name) followed by live phases
/// in creation order.
std::vector<ProgressPhaseSnapshot> ProgressPhases();

/// Heartbeat lines emitted since process start (monotone; survives
/// reporter restarts).
uint64_t ProgressHeartbeatsEmitted();

/// The most recent heartbeat lines (bounded ring, newest last), kept for
/// the run ledger.
std::vector<std::string> RecentHeartbeatLines();

/// Clears completed-phase aggregates and the heartbeat ring (tests).
/// Active phases are unaffected.
void ResetProgressForTest();

#else  // IPIN_OBS_DISABLED

class ProgressPhase {
 public:
  ProgressPhase(const char*, uint64_t) {}
  ProgressPhase(const ProgressPhase&) = delete;
  ProgressPhase& operator=(const ProgressPhase&) = delete;
  void Tick(uint64_t = 1) {}
  void SetDone(uint64_t) {}
};

inline bool StartProgressReporting(const ProgressOptions&) { return false; }
inline void StopProgressReporting() {}
inline std::vector<ProgressPhaseSnapshot> ProgressPhases() { return {}; }
inline uint64_t ProgressHeartbeatsEmitted() { return 0; }
inline std::vector<std::string> RecentHeartbeatLines() { return {}; }
inline void ResetProgressForTest() {}

#endif  // IPIN_OBS_DISABLED

}  // namespace ipin::obs

#endif  // IPIN_OBS_PROGRESS_H_
