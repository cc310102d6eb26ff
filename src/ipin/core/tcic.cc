#include "ipin/core/tcic.h"

#include <vector>

#include "ipin/common/check.h"
#include "ipin/common/thread_pool.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace.h"

namespace ipin {

TcicTrace SimulateTcicTrace(const InteractionGraph& graph,
                            std::span<const NodeId> seeds,
                            const TcicOptions& options, Rng* rng) {
  IPIN_CHECK(graph.is_sorted());
  IPIN_CHECK_GE(options.window, 0);
  IPIN_CHECK(rng != nullptr);
  const size_t n = graph.num_nodes();

  TcicTrace trace;
  trace.active.assign(n, 0);
  trace.activate_time.assign(n, kNoTimestamp);

  std::vector<char> is_seed(n, 0);
  for (const NodeId s : seeds) {
    IPIN_CHECK_LT(s, n);
    is_seed[s] = 1;
  }

  for (const Interaction& e : graph.interactions()) {
    const auto [u, v, t] = e;
    // Seeds activate at their first interaction as a source.
    if (is_seed[u] && !trace.active[u]) {
      trace.active[u] = 1;
      trace.activate_time[u] = t;
    }
    if (trace.active[u] && (t - trace.activate_time[u]) <= options.window) {
      if (rng->NextBernoulli(options.probability)) {
        trace.active[v] = 1;
        // The child inherits the chain's start time (max over infections),
        // exactly as in Algorithm 1.
        if (trace.activate_time[u] > trace.activate_time[v]) {
          trace.activate_time[v] = trace.activate_time[u];
        }
      }
    }
  }

  for (const char a : trace.active) {
    if (a) ++trace.num_active;
  }
  IPIN_COUNTER_ADD("tcic.sim.runs", 1);
  IPIN_COUNTER_ADD("tcic.sim.activations", trace.num_active);
  IPIN_COUNTER_ADD("tcic.sim.interactions_scanned",
                   graph.num_interactions());
  return trace;
}

size_t SimulateTcic(const InteractionGraph& graph,
                    std::span<const NodeId> seeds, const TcicOptions& options,
                    Rng* rng) {
  return SimulateTcicTrace(graph, seeds, options, rng).num_active;
}

double AverageTcicSpread(const InteractionGraph& graph,
                         std::span<const NodeId> seeds,
                         const TcicOptions& options, size_t num_runs,
                         uint64_t seed) {
  obs::PhaseSpan phase("tcic.average_spread", num_runs);
  IPIN_CHECK_GE(num_runs, 1u);
  // Monte Carlo runs are independent, each on its own SplitMix-derived RNG
  // stream keyed by the run index — so the per-run spreads, and the sum
  // accumulated below in run order, are identical for any thread count.
  std::vector<double> spread(num_runs);
  ParallelFor(0, num_runs, 1, [&](size_t lo, size_t hi) {
    for (size_t run = lo; run < hi; ++run) {
      Rng rng(seed + run * 0x9e3779b97f4a7c15ULL);
      spread[run] =
          static_cast<double>(SimulateTcic(graph, seeds, options, &rng));
      phase.Tick();
    }
  });
  double total = 0.0;
  for (const double s : spread) total += s;
  return total / static_cast<double>(num_runs);
}

}  // namespace ipin
