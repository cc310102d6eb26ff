#ifndef IPIN_OBS_LEDGER_H_
#define IPIN_OBS_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ipin/common/json.h"

// Durable per-run manifests for batch jobs. Every CLI command, checkpointed
// build, and bench harness can open the process-wide RunLedger at startup
// and finish it on exit; with a ledger directory configured
// (--ledger_dir=DIR), Finish() persists one `run_<start_ms>_<pid>.ipinrun`
// file through safe_io. The file carries three frames, each a
// self-contained JSON object:
//
//   core      schema "ipin.run.v1": tool/command/args, start time, wall
//             seconds, outcome (ok | error | resumed), exit code,
//             provenance (git sha, hostname, cpus, threads, build type,
//             obs mode), input-file fingerprints (size + CRC32C of the
//             first MiB), output paths, peak RSS;
//   activity  recorded events (checkpoint saves/resumes, ...), per-span
//             wall/CPU/work-unit timings from the span tree (obs/trace.h,
//             keyed by span path, open PhaseSpans marked active), the
//             per-phase thread-pool profiles, and a heartbeat summary with
//             the most recent heartbeat lines;
//   metrics   a final snapshot of the metrics registry (counters, gauges,
//             histogram count/mean/p95).
//
// The frame split is what makes corrupt ledgers degrade instead of vanish:
// per-frame CRCs let LoadRunLedger drop a damaged activity or metrics
// frame and still return the core outcome record. Under IPIN_OBS_DISABLED
// the ledger stays fully functional (it is cold-path code); the activity
// and metrics frames are simply near-empty because the instrumentation
// feeding them compiled out.
//
// tools/ipin_runs lists, shows, and diffs these files.

namespace ipin::obs {

/// safe_io file type tag of ledger files ("IRUN" little-endian).
inline constexpr uint32_t kLedgerFileType = 0x4e555249;
inline constexpr uint32_t kLedgerVersion = 1;
inline constexpr char kLedgerFileSuffix[] = ".ipinrun";

/// Where and who: stamped into every ledger (and BENCH documents).
struct RunProvenance {
  std::string git_sha;     // IPIN_GIT_SHA env, else compile-time stamp
  std::string hostname;
  std::string build_type;  // CMAKE_BUILD_TYPE at compile time
  std::string obs_mode;    // "enabled" | "disabled"
  uint64_t cpus = 0;       // hardware concurrency
  uint64_t threads = 0;    // effective GlobalThreads()
};

/// Collects the current process's provenance.
RunProvenance CollectRunProvenance();

/// Configuration for RunLedger::Begin.
struct RunLedgerOptions {
  std::string dir;      // empty: track in memory, write nothing on Finish
  std::string tool;     // "ipin_cli", "bench", "bench_micro", ...
  std::string command;  // subcommand or experiment name
  std::string args;     // human-readable reconstruction of the invocation
};

/// The process-wide run manifest. All methods are thread-safe; recording
/// calls before Begin (library code running outside a ledgered command)
/// are silently dropped.
class RunLedger {
 public:
  static RunLedger& Global();

  /// Starts a new run record (resets any previous unfinished one).
  void Begin(RunLedgerOptions options);

  /// True between Begin and Finish.
  bool begun() const;

  /// Fingerprints `path` (size + CRC32C of the first MiB) into the inputs
  /// section; unreadable files record with size 0.
  void RecordInputFile(const std::string& path);

  /// Records an output artifact path.
  void RecordOutput(const std::string& path);

  /// Records a timestamped event ("checkpoint.resume", ...). Bounded: after
  /// kMaxEvents the ledger counts drops instead of growing.
  void RecordEvent(const std::string& kind, const std::string& detail);

  /// True when an event of `kind` was recorded since Begin.
  bool SawEvent(const std::string& kind) const;

  /// Closes the record: outcome is "error" when exit_code != 0, else
  /// "resumed" when a checkpoint.resume event was recorded, else "ok".
  /// With a ledger directory configured, publishes pool-phase and memory
  /// gauges, snapshots the registry, and writes the ledger file, returning
  /// its path ("" when writing is disabled or failed). Ends the record
  /// either way.
  std::string Finish(int exit_code);

  /// Wall seconds since Begin (for end-of-command summary lines).
  double WallSeconds() const;

  /// Output paths recorded so far.
  std::vector<std::string> Outputs() const;

  static constexpr size_t kMaxEvents = 200;

 private:
  struct Impl;
  Impl* impl_;  // leaked singleton state

  RunLedger();
};

// ---- reader side ----------------------------------------------------------

enum class LedgerLoadStatus {
  kOk,        // every frame verified
  kDegraded,  // core frame present, >= 1 later frame dropped
  kCorrupt,   // header bad or no readable core frame
  kMissing,   // file absent
};

struct LedgerLoadResult {
  LedgerLoadStatus status = LedgerLoadStatus::kMissing;
  size_t frames_total = 0;
  size_t frames_dropped = 0;
  std::string text;  // surviving frames merged into one JSON object
  JsonValue doc;     // parsed form of `text`

  bool usable() const {
    return status == LedgerLoadStatus::kOk ||
           status == LedgerLoadStatus::kDegraded;
  }
};

/// Reads a ledger file, dropping damaged frames (kDegraded) as long as the
/// core frame survives.
LedgerLoadResult LoadRunLedger(const std::string& path);

/// Ledger files in `dir` (full paths), sorted ascending by filename — i.e.
/// chronologically, thanks to the start-timestamp naming.
std::vector<std::string> ListRunLedgers(const std::string& dir);

}  // namespace ipin::obs

#endif  // IPIN_OBS_LEDGER_H_
