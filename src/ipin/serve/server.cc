#include "ipin/serve/server.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/common/thread_pool.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/obs/metrics.h"

namespace ipin::serve {

OracleServer::OracleServer(IndexManager* index, ServerOptions options)
    : index_(index),
      options_(std::move(options)),
      frontend_(this, options_,
                FrontendRole{"serve", "query", "eval", "serve.eval",
                             "serve.latency.query_us", {}},
                // Captures only the IndexManager, which outlives the server
                // (and so any reload the frontend had to detach).
                [index] {
                  const ReloadStatus status = index->Reload();
                  return ReloadResult{status, index->Epoch()};
                }) {
  if (options_.audit_rate > 0.0) {
    audit_every_ = static_cast<uint64_t>(
        std::max(1.0, std::round(1.0 / std::min(1.0, options_.audit_rate))));
  }
}

OracleServer::~OracleServer() { Shutdown(); }

Response OracleServer::Evaluate(const Request& request,
                                Clock::time_point deadline) {
  Response response = ReplyTo(request, StatusCode::kOk);

  // One-lock snapshot: the whole evaluation runs on this index (and exact
  // map), and the reported epoch is the one these pointers were installed
  // at — a reload swapping the manager mid-query can skew neither.
  const IndexSnapshot snapshot = index_->Snapshot();
  const std::shared_ptr<const IrsApprox>& index = snapshot.index;
  response.epoch = snapshot.epoch;
  if (index == nullptr) {
    response.status = StatusCode::kUnavailable;
    response.error = "no index loaded";
    response.retry_after_ms = options_.retry_after_ms;
    return response;
  }

  if (request.method == Method::kTopk) {
    // The k individually most influential SKETCHED nodes (a node without a
    // sketch never sent inside the window; its IRS is empty and it is never
    // ranked — this also keeps shard partials disjoint, since a shard index
    // holds sketches only for the nodes it owns). Bounded worst-on-top
    // heap: O(n log k), ties broken by ascending node id so the order — and
    // the router's merge of shard partials — is deterministic.
    const size_t k = std::min<size_t>(
        static_cast<size_t>(std::max<int64_t>(1, request.k)),
        index->num_nodes());
    const auto better = [](const std::pair<NodeId, double>& a,
                           const std::pair<NodeId, double>& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    };
    // priority_queue treats its comparator as less-than, so comparing with
    // `better` keeps the WORST kept entry on top, ready to evict.
    std::priority_queue<std::pair<NodeId, double>,
                        std::vector<std::pair<NodeId, double>>,
                        decltype(better)>
        worst_first(better);
    const SketchArena& arena = *index->arena();
    QueryBudget budget;
    budget.deadline = deadline;
    for (NodeId u = 0; u < index->num_nodes(); ++u) {
      if (u % 4096 == 0 && budget.Expired()) {
        response.status = StatusCode::kDeadlineExceeded;
        IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
        return response;
      }
      if (!arena.has_node(u)) continue;
      worst_first.emplace(u, arena.EstimateNode(u));
      if (worst_first.size() > k) worst_first.pop();
    }
    response.topk.resize(worst_first.size());
    for (size_t i = worst_first.size(); i-- > 0;) {
      response.topk[i] = worst_first.top();
      worst_first.pop();
    }
    response.status = StatusCode::kOk;
    IPIN_COUNTER_ADD("serve.requests.ok", 1);
    return response;
  }

  for (const NodeId seed : request.seeds) {
    if (static_cast<size_t>(seed) >= index->num_nodes()) {
      response.status = StatusCode::kBadRequest;
      response.error = "seed out of range";
      IPIN_COUNTER_ADD("serve.requests.bad", 1);
      return response;
    }
  }

  bool answered = false;
  bool degraded = false;
  double estimate = 0.0;

  // Exact attempt: bounded by both the request deadline and the server's
  // exact-latency budget, so a miss leaves time for the sketch fallback.
  // want_ranks forces the sketch path — the rank vector only exists there —
  // so an explicit "exact" + want_ranks request is answered degraded.
  const bool want_exact =
      request.mode != QueryMode::kSketch && !request.want_ranks;
  if (request.want_ranks && request.mode == QueryMode::kExact) degraded = true;
  if (want_exact) {
    const std::shared_ptr<const IrsExact>& exact = snapshot.exact;
    if (exact == nullptr || exact->num_nodes() < index->num_nodes()) {
      // Exact map unloaded (or stale vs. the serving index): "exact"
      // explicitly asked for it, so its answer is degraded; "auto" treats
      // sketch-only service as the normal case.
      degraded = request.mode == QueryMode::kExact;
    } else {
      QueryBudget budget;
      budget.deadline = std::min(
          deadline, Clock::now() + std::chrono::milliseconds(
                                       options_.exact_budget_ms));
      // serve.eval: delay mode burns the exact budget (a slow evaluation),
      // error mode fails the attempt outright — both degrade to sketch.
      const bool eval_fault = IPIN_FAILPOINT("serve.eval").fail;
      if (!eval_fault) {
        const ExactInfluenceOracle oracle(exact.get());
        const BudgetedValue result =
            oracle.InfluenceOfSetBudgeted(request.seeds, budget);
        if (!result.exceeded) {
          estimate = result.value;
          answered = true;
        }
      }
      if (!answered) degraded = true;
    }
  }

  bool answered_by_sketch = false;
  std::vector<uint8_t> ranks;
  if (!answered) {
    // The sketch answer. A want_ranks request also gets the union row, the
    // partial a scatter-gather router folds (cellwise max) into an exact
    // global answer; its estimate is the plain answer's, bit for bit.
    const SketchInfluenceOracle oracle(index.get());
    QueryBudget budget;
    budget.deadline = deadline;
    const BudgetedValue result = oracle.InfluenceOfSetBudgeted(
        request.seeds, budget, request.want_ranks ? &ranks : nullptr);
    if (result.exceeded) {
      response.status = StatusCode::kDeadlineExceeded;
      IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
      return response;
    }
    estimate = result.value;
    answered_by_sketch = true;
  }

  if (Clock::now() >= deadline) {
    // The answer exists but arrived too late to be truthful about.
    response.status = StatusCode::kDeadlineExceeded;
    IPIN_COUNTER_ADD("serve.requests.deadline_exceeded", 1);
    return response;
  }
  response.status = StatusCode::kOk;
  response.estimate = estimate;
  response.ranks = std::move(ranks);
  response.degraded = degraded;
  IPIN_COUNTER_ADD("serve.requests.ok", 1);
  if (degraded) {
    IPIN_COUNTER_ADD("serve.requests.degraded", 1);
    LogDebug(StrFormat("serve: degraded answer trace_id=%s id=%lld",
                       TraceIdToHex(request.trace_id).c_str(),
                       static_cast<long long>(request.id)));
  }
#ifndef IPIN_OBS_DISABLED
  if (answered_by_sketch) MaybeAudit(snapshot, request.seeds, estimate);
#else
  (void)answered_by_sketch;
#endif
  return response;
}

#ifndef IPIN_OBS_DISABLED
void OracleServer::MaybeAudit(const IndexSnapshot& snapshot,
                              const std::vector<NodeId>& seeds,
                              double estimate) {
  if (audit_every_ == 0 || seeds.empty()) return;
  const std::shared_ptr<const IrsExact>& exact = snapshot.exact;
  // Same coverage condition as the exact serving path: auditing against a
  // stale exact map would measure reload skew, not sketch error.
  if (exact == nullptr || exact->num_nodes() < snapshot.index->num_nodes()) {
    return;
  }
  if (audit_tick_.fetch_add(1, std::memory_order_relaxed) % audit_every_ !=
      0) {
    return;
  }
  IPIN_COUNTER_ADD("serve.audit.sampled", 1);
  // Fire-and-forget on the shared global pool: the exact re-evaluation
  // never holds the query's reader or evaluation slot, and the captured
  // shared_ptr keeps the audited epoch's exact map alive even across a
  // reload or server shutdown.
  GlobalPool().Submit([exact, seeds, estimate] {
    const ExactInfluenceOracle oracle(exact.get());
    const double truth = oracle.InfluenceOfSet(seeds);
    if (truth <= 0.0) {
      IPIN_COUNTER_ADD("serve.audit.zero_truth", 1);
      IPIN_COUNTER_ADD("serve.audit.completed", 1);
      return;
    }
    // Histograms hold non-negative integers, so the signed relative error
    // is split into over/under histograms, scaled to per-mille.
    const double rel = (estimate - truth) / truth;
    const uint64_t abs_pm =
        static_cast<uint64_t>(std::fabs(rel) * 1000.0 + 0.5);
    IPIN_HISTOGRAM_RECORD("serve.audit.rel_error_abs_pm", abs_pm);
    if (rel >= 0.0) {
      IPIN_HISTOGRAM_RECORD("serve.audit.rel_error_over_pm", abs_pm);
    } else {
      IPIN_HISTOGRAM_RECORD("serve.audit.rel_error_under_pm", abs_pm);
    }
    IPIN_COUNTER_ADD("serve.audit.completed", 1);
  });
}
#endif  // IPIN_OBS_DISABLED

void OracleServer::AppendStats(StatsInfo* info) {
  const IndexSnapshot snapshot = index_->Snapshot();
  info->emplace_back("num_nodes",
                     snapshot.index == nullptr
                         ? 0.0
                         : static_cast<double>(snapshot.index->num_nodes()));
  info->emplace_back("exact_loaded", snapshot.exact != nullptr ? 1.0 : 0.0);
  if (options_.shard_count > 0) {
    info->emplace_back("shard_id", static_cast<double>(options_.shard_id));
    info->emplace_back("shard_count",
                       static_cast<double>(options_.shard_count));
  }
}

Response OracleServer::ReshardStatus(const Request& request) {
  // Router-only admin verb: an oracle backend has no shard map to report
  // on, and answering OK here would make a misconfigured client believe it
  // is talking to a router.
  Response response = ReplyTo(request, StatusCode::kBadRequest);
  response.error = "reshard_status is a router verb";
  IPIN_COUNTER_ADD("serve.requests.bad", 1);
  return response;
}

}  // namespace ipin::serve
