#ifndef IPIN_SERVE_INDEX_MANAGER_H_
#define IPIN_SERVE_INDEX_MANAGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_exact.h"

// Epoch-swapped ownership of what a daemon serves from a file. One holder,
// EpochHolder<T>, backs both the oracle's index (IndexManager, below) and
// the router's shard map (ShardMapManager, shard_map.h); they differ only
// in their loader and the names they report under. Queries snapshot the
// current value and keep computing on it while a reload swaps the pointer
// underneath: in-flight requests finish on the epoch they started on.
//
// A file the loader rejects (missing, truncated, corrupt or unparsable; for
// an index, even partially damaged) is REJECTED: the old value keeps
// serving ("rollback"), the rollback counter is incremented and an error
// logged. Only a fully verified load advances the epoch (the ok counter).
// An unforced reload skips a file whose stamp (mtime, size, inode) equals
// the last attempt's, so a poll never re-reads a file it took or rejected.
// At runtime every reload runs on the frontend's reload thread
// (frontend.h): the reload verb, SIGHUP and the --reload_check_ms poll.
//
// The index's optional exact-summary map supports the "exact" query mode;
// it is installed in-process (SetExact) and can be dropped under memory
// pressure (UnloadExact) — queries then degrade to the sketch estimate.

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
  kOk,          // new value verified and swapped in; epoch advanced
  kRolledBack,  // new file rejected; the old value (if any) keeps serving
  kNoChange,    // reload skipped: no file, or unchanged since the last try
};

/// What a holder reports under; literals only, nullptr for none.
struct HolderNames {
  const char* failpoint;  // error: forced rollback; delay: a slow load
  const char* injected;   // the reason a forced rollback logs
  const char* ok_counter;
  const char* rollback_counter;
  const char* epoch_gauge;  // set on every install
  const char* swap_event;   // trace instant at each reload's swap
};

template <typename T>
class EpochHolder {
 public:
  /// Reads `path`: the value, or nullptr with the reason in *why.
  using Loader = std::shared_ptr<const T> (*)(const std::string& path,
                                              std::string* why);
  /// Logs a reload's outcome in the holder's own words: the value it
  /// installed at `epoch`, or nullptr and why it kept serving `epoch`.
  using Reporter = void (*)(const std::string& path, const T* installed,
                            const std::string& why, uint64_t epoch);

  EpochHolder(const EpochHolder&) = delete;
  EpochHolder& operator=(const EpochHolder&) = delete;

  /// Installs an in-memory value (first epoch or test swap).
  void Install(std::shared_ptr<const T> value);

  /// Loads the file and swaps the result in if (and only if) the loader
  /// accepts it; Current() never blocks on a reload. `force` bypasses the
  /// file-unchanged check. An empty path is kNoChange.
  ReloadStatus Reload(bool force = true);

  /// The serving value: nullptr when nothing was ever installed.
  std::shared_ptr<const T> Current() const;

  /// Epoch of the installed value; 0 = nothing installed yet. Each
  /// successful Install/Reload increments it.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

 protected:
  /// An empty `path` (tests, benches) leaves Install() as the only loader.
  EpochHolder(std::string path, const HolderNames& names, Loader load,
              Reporter report)
      : path_(std::move(path)), names_(names), load_(load), report_(report) {}
  ~EpochHolder() = default;

  // Guards current_ and a subclass's serving state; epoch_ is written only
  // under it, so snapshots are consistent, and read lock-free by Epoch().
  mutable std::mutex mu_;
  std::shared_ptr<const T> current_;
  std::atomic<uint64_t> epoch_{0};

 private:
  const std::string path_;
  const HolderNames names_;
  const Loader load_;
  const Reporter report_;

  std::mutex reload_mu_;  // serializes reload attempts
  // (mtime_ns, size, inode) of the last attempt; guarded by reload_mu_.
  std::array<int64_t, 3> last_stamp_{-1, -1, -1};
};

extern template class EpochHolder<IrsApprox>;

/// The oracle's serving index: serve.reload.{ok,rollback}, failpoint
/// "serve.reload", serve.index.epoch, the serve.index.reload instant and
/// the log lines "serve: reloaded '<path>' -> epoch N" and "serve: reload
/// of '<path>' rejected (<why>); keeping epoch N".
class IndexManager : public EpochHolder<IrsApprox> {
 public:
  explicit IndexManager(std::string index_path);

  /// Installs/drops the exact-summary map.
  void SetExact(std::shared_ptr<const IrsExact> exact);
  void UnloadExact() { SetExact(nullptr); }
  std::shared_ptr<const IrsExact> Exact() const;

  /// Index + exact map + epoch under one lock: use this wherever a
  /// response reports the epoch an answer was computed on.
  IndexSnapshot Snapshot() const;

 private:
  std::shared_ptr<const IrsExact> exact_;  // guarded by mu_
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_INDEX_MANAGER_H_
