#include "ipin/serve/index_manager.h"

#include <sys/stat.h>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/core/oracle_io.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace_events.h"
#include "ipin/serve/shard_map.h"

namespace ipin::serve {
namespace {

// The holders' metrics are named at run time, so they skip the macros'
// per-call-site caching; reloads are rare enough for a registry lookup.
void AddOne([[maybe_unused]] const char* counter) {
#ifndef IPIN_OBS_DISABLED
  obs::MetricsRegistry::Global().GetCounter(counter)->Add(1);
#endif
}

// One version of a file: (mtime_ns, size, inode); all -1 when missing.
// Saves rename a new file into place, so each has a new inode even when
// size and mtime tick match the last one's.
std::array<int64_t, 3> StampOf(const std::string& path) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return {-1, -1, -1};
  return {static_cast<int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
              st.st_mtim.tv_nsec,
          static_cast<int64_t>(st.st_size), static_cast<int64_t>(st.st_ino)};
}

// A reload only ever replaces a good index with a fully verified one:
// degraded loads (dropped sections) are fine for a cold start from a
// damaged disk (the CLI path), but a hot swap must not lose sketches the
// serving index still has.
std::shared_ptr<const IrsApprox> LoadIndex(const std::string& path,
                                           std::string* why) {
  IndexLoadResult result = LoadInfluenceIndexDetailed(path);
  if (result.status == IndexLoadStatus::kOk) {
    return std::make_shared<const IrsApprox>(std::move(*result.index));
  }
  *why = result.status == IndexLoadStatus::kDegraded
             ? "degraded: corrupt sections"
         : result.status == IndexLoadStatus::kMissing ? "missing/unreadable"
         : result.status == IndexLoadStatus::kTruncated ? "truncated"
                                                        : "corrupt";
  return nullptr;
}

void ReportIndexReload(const std::string& path, const IrsApprox* installed,
                       const std::string& why, uint64_t epoch) {
  if (installed == nullptr) {
    LogError(StrFormat("serve: reload of '%s' rejected (%s); keeping epoch "
                       "%llu",
                       path.c_str(), why.c_str(),
                       static_cast<unsigned long long>(epoch)));
  } else {
    LogInfo(StrFormat("serve: reloaded '%s' -> epoch %llu", path.c_str(),
                      static_cast<unsigned long long>(epoch)));
  }
}

}  // namespace

template <typename T>
void EpochHolder<T>::Install(std::shared_ptr<const T> value) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(value);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
#ifndef IPIN_OBS_DISABLED
  if (names_.epoch_gauge != nullptr) {
    obs::MetricsRegistry::Global().GetGauge(names_.epoch_gauge)->Set(
        static_cast<double>(Epoch()));
  }
#endif
}

template <typename T>
std::shared_ptr<const T> EpochHolder<T>::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

template <typename T>
ReloadStatus EpochHolder<T>::Reload(bool force) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  if (path_.empty()) return ReloadStatus::kNoChange;

  const std::array<int64_t, 3> stamp = StampOf(path_);
  if (!force && stamp == last_stamp_) return ReloadStatus::kNoChange;
  last_stamp_ = stamp;  // a rejected file is not retried until it changes

  // Before the load: delay mode holds the reload open while queries keep
  // flowing from the old epoch; error mode stands in for a corrupt file.
  std::string why = names_.injected;
  std::shared_ptr<const T> fresh;
  if (!IPIN_FAILPOINT(names_.failpoint).fail) fresh = load_(path_, &why);
  if (fresh == nullptr) {
    AddOne(names_.rollback_counter);
    report_(path_, nullptr, why, Epoch());
    return ReloadStatus::kRolledBack;
  }

  Install(fresh);
  AddOne(names_.ok_counter);
  // Tells request lanes before and after the swap apart in the trace.
  if (names_.swap_event != nullptr) IPIN_TRACE_INSTANT(names_.swap_event);
  report_(path_, fresh.get(), why, Epoch());
  return ReloadStatus::kOk;
}

template class EpochHolder<IrsApprox>;
template class EpochHolder<ShardMap>;

IndexManager::IndexManager(std::string index_path)
    : EpochHolder(std::move(index_path),
                  {"serve.reload", "injected failure", "serve.reload.ok",
                   "serve.reload.rollback", "serve.index.epoch",
                   "serve.index.reload"},
                  LoadIndex, ReportIndexReload) {}

void IndexManager::SetExact(std::shared_ptr<const IrsExact> exact) {
  std::lock_guard<std::mutex> lock(mu_);
  exact_ = std::move(exact);
}

std::shared_ptr<const IrsExact> IndexManager::Exact() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exact_;
}

IndexSnapshot IndexManager::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return IndexSnapshot{current_, exact_,
                       epoch_.load(std::memory_order_relaxed)};
}

}  // namespace ipin::serve
