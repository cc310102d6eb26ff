// Figure 5 (a-l): average TCIC spread of the top-k seeds selected by each
// method (PR, HD, SHD, SKIM, IRS-approx, IRS-exact, ConTinEst), for
// k in {5..50}, window length in {1, 20} percent, and infection probability
// in {0.5, 1.0}, on the Lkml, Enron and Facebook datasets.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ipin/baselines/continest.h"
#include "ipin/baselines/degree.h"
#include "ipin/baselines/pagerank.h"
#include "ipin/baselines/skim.h"
#include "ipin/core/influence_maximization.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/irs_exact.h"
#include "ipin/core/tcic.h"
#include "ipin/eval/spread_eval.h"
#include "ipin/eval/table.h"

namespace ipin {
namespace {

struct MethodSeeds {
  std::string name;
  std::vector<NodeId> seeds;
};

// ConTinEst diffusion horizon calibrated to the TCIC window fraction: delays
// are O(1) units per hop, so a 1% window corresponds to a short horizon and
// 20% to a generous one (see DESIGN.md substitutions).
double ContinestHorizon(double window_percent) {
  return window_percent <= 1.0 ? 1.0 : 5.0;
}

std::vector<MethodSeeds> SelectAllSeeds(const InteractionGraph& graph,
                                        Duration window, double probability,
                                        double window_percent, size_t k) {
  std::vector<MethodSeeds> all;

  all.push_back({"PR", SelectSeedsPageRank(graph, k)});
  all.push_back({"HD", SelectSeedsHighDegree(graph, k)});
  all.push_back({"SHD", SelectSeedsSmartHighDegree(graph, k)});

  SkimOptions skim_options;
  skim_options.probability = probability;
  skim_options.num_instances = 16;
  all.push_back({"SKIM", SelectSeedsSkim(graph, k, skim_options).seeds});

  ContinestOptions cte_options;
  cte_options.time_horizon = ContinestHorizon(window_percent);
  cte_options.num_samples = 16;
  all.push_back(
      {"CTE", SelectSeedsContinest(graph, k, cte_options).seeds});

  IrsApproxOptions approx_options;
  approx_options.precision = 9;
  IrsApprox approx = IrsApprox::Compute(graph, window, approx_options);
  approx.Seal();
  const SketchInfluenceOracle sketch_oracle(&approx);
  all.push_back(
      {"IRS(Approx)", SelectSeedsCelf(sketch_oracle, k).seeds});

  const IrsExact exact = IrsExact::Compute(graph, window);
  const ExactInfluenceOracle exact_oracle(&exact);
  all.push_back({"IRS(Exact)", SelectSeedsCelf(exact_oracle, k).seeds});

  return all;
}

int Run(int argc, char** argv) {
  const FlagMap flags = FlagMap::Parse(argc, argv);
  SetupBenchObservability(flags, "fig5_spread");
  const double scale = flags.GetDouble("scale", 0.02);
  const size_t runs = static_cast<size_t>(flags.GetInt("runs", 20));
  const size_t max_k = static_cast<size_t>(flags.GetInt("k", 50));
  PrintBanner("Figure 5: TCIC spread of top-k seeds per method", flags, scale);

  const std::vector<std::string> datasets = [&flags] {
    const std::string arg =
        flags.GetString("datasets", "lkml,enron,facebook");
    std::vector<std::string> names;
    for (const auto piece : SplitString(arg, ",")) names.emplace_back(piece);
    return names;
  }();

  std::vector<size_t> ks;
  for (size_t k = 5; k <= max_k; k += 5) ks.push_back(k);

  for (const double probability : {0.5, 1.0}) {
    for (const double window_percent : {1.0, 20.0}) {
      for (const std::string& name : datasets) {
        const InteractionGraph graph = LoadBenchDataset(name, scale);
        const Duration window = graph.WindowFromPercent(window_percent);

        const std::vector<MethodSeeds> methods = SelectAllSeeds(
            graph, window, probability, window_percent, max_k);

        TcicOptions tcic;
        tcic.window = window;
        tcic.probability = probability;

        TablePrinter table(StrFormat(
            "Figure 5 — %s (w = %g%%, p = %.0f%%): avg spread of top-k seeds",
            name.c_str(), window_percent, probability * 100));
        std::vector<std::string> header = {"k"};
        for (const MethodSeeds& m : methods) header.push_back(m.name);
        table.SetHeader(std::move(header));

        std::vector<SpreadCurve> curves;
        for (const MethodSeeds& m : methods) {
          curves.push_back(EvaluateSpreadCurve(graph, m.name, m.seeds, ks,
                                               tcic, runs, 777));
        }
        for (size_t ki = 0; ki < ks.size(); ++ki) {
          std::vector<std::string> row = {TablePrinter::Cell(ks[ki])};
          for (const SpreadCurve& curve : curves) {
            row.push_back(TablePrinter::Cell(curve.spreads[ki], 1));
          }
          table.AddRow(std::move(row));
        }
        table.Print();
        std::printf("\n");
      }
    }
  }
  std::printf(
      "Paper shape: IRS(Exact) leads or ties every configuration; "
      "IRS(Approx) is close;\nstatic methods catch up as the window "
      "grows.\n");
  EmitRunReport(flags);
  return 0;
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
