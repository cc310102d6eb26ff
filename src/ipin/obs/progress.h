#ifndef IPIN_OBS_PROGRESS_H_
#define IPIN_OBS_PROGRESS_H_

#include <cstdint>
#include <string>
#include <vector>

// Heartbeat reporter for batch jobs (builds, seed selection, Monte Carlo
// runs). The phases themselves are PhaseSpans (trace.h): spans that carry
// a work-unit total (edges scanned, greedy rounds, TCIC runs) and are
// ticked as the work goes. A background reporter thread periodically turns
// the innermost open PhaseSpan into
//
//   * a machine-readable heartbeat line (schema ipin.heartbeat.v1, one JSON
//     object per line) appended to --progress_out, and
//   * an optional throttled human ticker on stderr,
//
// so a wedged multi-hour build is distinguishable from a merely slow one:
// heartbeats keep coming either way, but units_done stops moving when the
// job is stuck. The most recent lines are kept in a ring for the run
// ledger (obs/ledger.h).
//
// Under IPIN_OBS_DISABLED everything here compiles to no-ops:
// StartProgressReporting reports nothing.

namespace ipin::obs {

/// Reporter configuration (see StartProgressReporting).
struct ProgressOptions {
  uint64_t interval_ms = 1000;  // heartbeat cadence (clamped to >= 1)
  std::string out_path;         // heartbeat JSONL file; empty = none
  bool stderr_ticker = false;   // one human-readable line per interval
};

#ifndef IPIN_OBS_DISABLED

/// Starts the background heartbeat reporter. Returns false (and changes
/// nothing) if a reporter is already running or the output file cannot be
/// opened. A final heartbeat is always emitted on stop, so any run with a
/// reporter produces at least one line.
bool StartProgressReporting(const ProgressOptions& options);

/// Stops the reporter (no-op when none is running): emits a final
/// heartbeat, joins the thread, closes the output file.
void StopProgressReporting();

/// Heartbeat lines emitted since process start (monotone; survives
/// reporter restarts).
uint64_t ProgressHeartbeatsEmitted();

/// The most recent heartbeat lines (bounded ring, newest last), kept for
/// the run ledger.
std::vector<std::string> RecentHeartbeatLines();

#else  // IPIN_OBS_DISABLED

inline bool StartProgressReporting(const ProgressOptions&) { return false; }
inline void StopProgressReporting() {}
inline uint64_t ProgressHeartbeatsEmitted() { return 0; }
inline std::vector<std::string> RecentHeartbeatLines() { return {}; }

#endif  // IPIN_OBS_DISABLED

}  // namespace ipin::obs

#endif  // IPIN_OBS_PROGRESS_H_
