#ifndef IPIN_SERVE_INDEX_MANAGER_H_
#define IPIN_SERVE_INDEX_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_exact.h"

// Epoch-swapped ownership of the serving index. Queries snapshot the current
// index as a shared_ptr and keep computing on it while a reload swaps the
// pointer underneath — in-flight requests always finish on the epoch they
// started on, and the old index is freed when its last query completes.
//
// Reloads go through oracle_io's validating loader (CRC-framed sections from
// the crash-safety layer). A file that is missing, truncated, corrupt, or
// even partially damaged (degraded load) is REJECTED for serving: the old
// index stays installed ("rollback"), serve.reload.rollback is incremented
// and an error is logged — the daemon alerts instead of crashing or silently
// serving a worse index than it already has. Only a fully verified load
// advances the epoch (serve.reload.ok).
//
// The optional exact-summary map supports the "exact" query mode; it is
// installed in-process (SetExact) and can be dropped under memory pressure
// (UnloadExact) — queries then degrade to the sketch estimate.

namespace ipin::serve {

/// A consistent view of the serving state, taken under one lock
/// acquisition: `epoch` is the epoch `index`/`exact` were installed at,
/// never the epoch of a reload that landed between two reads.
struct IndexSnapshot {
  std::shared_ptr<const IrsApprox> index;
  std::shared_ptr<const IrsExact> exact;
  uint64_t epoch = 0;
};

/// Outcome of one reload attempt.
enum class ReloadStatus {
  kOk,          // new index verified and swapped in; epoch advanced
  kRolledBack,  // new file rejected (missing/corrupt/degraded); old index
                // (if any) keeps serving
  kNoChange,    // reload skipped: file unchanged since the last attempt
};

class IndexManager {
 public:
  /// `index_path` is the file Reload() reads. May be empty for in-process
  /// use (tests, benches) — then Install() is the only way to load.
  explicit IndexManager(std::string index_path);
  ~IndexManager();

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Installs an in-memory index (first epoch or test swap).
  void Install(std::shared_ptr<const IrsApprox> index);

  /// Installs/drops the exact-summary map.
  void SetExact(std::shared_ptr<const IrsExact> exact);
  void UnloadExact() { SetExact(nullptr); }

  /// Loads index_path through the validating loader and swaps it in if (and
  /// only if) every section verifies. Failpoint "serve.reload": error mode
  /// forces the rollback path, delay mode simulates a slow load (the old
  /// index keeps serving throughout — Current() never blocks on a reload).
  /// `force` bypasses the file-unchanged short-circuit.
  ReloadStatus Reload(bool force = true);

  /// Starts/stops a background thread that polls the file every
  /// `check_interval_ms` and reloads when its mtime, size or inode changed.
  void StartWatcher(int64_t check_interval_ms);
  void StopWatcher();

  /// The serving snapshot: nullptr when nothing was ever loaded.
  std::shared_ptr<const IrsApprox> Current() const;
  std::shared_ptr<const IrsExact> Exact() const;

  /// Index + exact map + epoch under one lock: use this wherever a
  /// response reports the epoch an answer was computed on, so a reload
  /// landing between separate Current()/Epoch() calls cannot skew it.
  IndexSnapshot Snapshot() const;

  /// Epoch of the installed index; 0 = nothing installed yet. Each
  /// successful Install/Reload increments it.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  const std::string& index_path() const { return index_path_; }

 private:
  // What identifies one version of the file. Saves replace the file by
  // renaming a new one over it, so each save has a new inode: two indexes
  // of one node set have the same size, and two saves within one mtime
  // tick the same mtime.
  struct FileStamp {
    int64_t mtime_ns = -1;
    int64_t size = -1;
    uint64_t inode = 0;
    bool operator==(const FileStamp&) const = default;
  };
  static FileStamp StampOf(const std::string& path);

  const std::string index_path_;

  mutable std::mutex mu_;  // guards current_, exact_, last_stamp_
  std::shared_ptr<const IrsApprox> current_;
  std::shared_ptr<const IrsExact> exact_;
  FileStamp last_stamp_;
  // Written only under mu_ (so Snapshot() is consistent); atomic so the
  // fast Epoch() read stays lock-free.
  std::atomic<uint64_t> epoch_{0};

  // Serializes reload attempts (watcher vs. request-triggered).
  std::mutex reload_mu_;

  std::mutex watcher_mu_;
  std::condition_variable watcher_cv_;
  std::thread watcher_;
  bool watcher_stop_ = false;
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_INDEX_MANAGER_H_
