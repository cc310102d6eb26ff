#include "ipin/serve/index_manager.h"

#include <sys/stat.h>

#include <chrono>
#include <utility>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/core/oracle_io.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace_events.h"

namespace ipin::serve {

IndexManager::IndexManager(std::string index_path)
    : index_path_(std::move(index_path)) {}

IndexManager::~IndexManager() { StopWatcher(); }

void IndexManager::Install(std::shared_ptr<const IrsApprox> index) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(index);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  IPIN_GAUGE_SET("serve.index.epoch", Epoch());
}

void IndexManager::SetExact(std::shared_ptr<const IrsExact> exact) {
  std::lock_guard<std::mutex> lock(mu_);
  exact_ = std::move(exact);
}

std::shared_ptr<const IrsApprox> IndexManager::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
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

IndexManager::FileStamp IndexManager::StampOf(const std::string& path) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return FileStamp{};
  return FileStamp{
      .mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
                  st.st_mtim.tv_nsec,
      .size = static_cast<int64_t>(st.st_size),
      .inode = static_cast<uint64_t>(st.st_ino),
  };
}

ReloadStatus IndexManager::Reload(bool force) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  if (index_path_.empty()) return ReloadStatus::kNoChange;

  const FileStamp stamp = StampOf(index_path_);
  if (!force) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stamp == last_stamp_) return ReloadStatus::kNoChange;
  }

  // The failpoint sits before the load: delay mode holds the reload open
  // (queries must keep flowing from the old epoch meanwhile), error mode
  // simulates an unreadable/corrupt file without touching the disk.
  const bool injected_failure = IPIN_FAILPOINT("serve.reload").fail;
  IndexLoadResult result;
  if (!injected_failure) result = LoadInfluenceIndexDetailed(index_path_);

  // A reload only ever replaces a good index with a fully verified one:
  // degraded loads (dropped sections) are fine for a cold start from a
  // damaged disk (the CLI path), but a hot swap must not lose sketches the
  // serving index still has.
  const bool acceptable =
      !injected_failure && result.status == IndexLoadStatus::kOk;
  if (!acceptable) {
    IPIN_COUNTER_ADD("serve.reload.rollback", 1);
    LogError(StrFormat(
        "serve: reload of '%s' rejected (%s); keeping epoch %llu",
        index_path_.c_str(),
        injected_failure ? "injected failure"
        : result.status == IndexLoadStatus::kDegraded
            ? "degraded: corrupt sections"
        : result.status == IndexLoadStatus::kMissing ? "missing/unreadable"
        : result.status == IndexLoadStatus::kTruncated ? "truncated"
                                                       : "corrupt",
        static_cast<unsigned long long>(Epoch())));
    std::lock_guard<std::mutex> lock(mu_);
    last_stamp_ = stamp;  // don't retry the same bad file every poll
    return ReloadStatus::kRolledBack;
  }

  auto fresh = std::make_shared<const IrsApprox>(std::move(*result.index));
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(fresh);
    last_stamp_ = stamp;
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  IPIN_COUNTER_ADD("serve.reload.ok", 1);
  IPIN_GAUGE_SET("serve.index.epoch", Epoch());
  // Marks the epoch flip in the Chrome trace, so request lanes before and
  // after the swap can be told apart.
  IPIN_TRACE_INSTANT("serve.index.reload");
  LogInfo(StrFormat("serve: reloaded '%s' -> epoch %llu", index_path_.c_str(),
                    static_cast<unsigned long long>(Epoch())));
  return ReloadStatus::kOk;
}

void IndexManager::StartWatcher(int64_t check_interval_ms) {
  StopWatcher();
  {
    std::lock_guard<std::mutex> lock(watcher_mu_);
    watcher_stop_ = false;
  }
  {
    // Seed the stamp so the watcher only reacts to future changes.
    std::lock_guard<std::mutex> lock(mu_);
    last_stamp_ = StampOf(index_path_);
  }
  watcher_ = std::thread([this, check_interval_ms] {
    std::unique_lock<std::mutex> lock(watcher_mu_);
    while (!watcher_stop_) {
      watcher_cv_.wait_for(lock,
                           std::chrono::milliseconds(check_interval_ms),
                           [this] { return watcher_stop_; });
      if (watcher_stop_) break;
      lock.unlock();
      (void)Reload(/*force=*/false);
      lock.lock();
    }
  });
}

void IndexManager::StopWatcher() {
  {
    std::lock_guard<std::mutex> lock(watcher_mu_);
    watcher_stop_ = true;
  }
  watcher_cv_.notify_all();
  if (watcher_.joinable()) watcher_.join();
}

}  // namespace ipin::serve
