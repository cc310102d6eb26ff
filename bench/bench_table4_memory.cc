// Table 4: memory (MB) used by the approximate algorithm's sketches after
// processing all interactions, at window lengths 1/10/20 percent: the
// build sketches plus the arena of rows every build ends with. Each index
// is then sealed (its build sketches freed), so the table also shows what
// the arena alone (the served form) costs, next to the build's peak bytes
// per stored entry.
//
// Gauges for the w=20% build of the last dataset: mem.vhll.peak_bytes is
// that build's peak (the vhll tally is re-armed before every build),
// bench.table4.build_peak_bytes_per_entry divides it by the build's
// entries, and bench.table4.arena_bytes_per_entry is its sealed arena's
// bytes per entry. The mem.sketch_arena.* gauges carry the arenas' bytes.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "ipin/core/irs_approx.h"
#include "ipin/eval/table.h"

namespace ipin {
namespace {

int Run(int argc, char** argv) {
  const FlagMap flags = FlagMap::Parse(argc, argv);
  SetupBenchObservability(flags, "table4_memory");
  const double scale = flags.GetDouble("scale", 0.01);
  const int precision = static_cast<int>(flags.GetInt("precision", 9));
  PrintBanner("Table 4: sketch memory (MB) vs window length", flags, scale);

  const std::vector<double> window_percents = {1.0, 10.0, 20.0};
  TablePrinter table("Table 4 — approximate-algorithm memory (MB)");
  table.SetHeader({"Dataset", "nodes", "w=1%", "w=10%", "w=20%",
                   "measured @20%", "entries @20%", "peak B/entry @20%",
                   "sealed MB @20%"});

  obs::MemoryTally& vhll_tally = obs::GetMemoryTally("vhll");
  const auto mb = [](double bytes) { return bytes / (1024.0 * 1024.0); };
  for (const std::string& name : DatasetsFromFlags(flags)) {
    const InteractionGraph graph = LoadBenchDataset(name, scale);
    std::vector<std::string> row = {name,
                                    TablePrinter::Cell(graph.num_nodes())};
    size_t entries_at_20 = 0;
    double measured_mb_at_20 = 0.0;
    double peak_per_entry_at_20 = 0.0;
    double sealed_bytes_at_20 = 0.0;
    for (const double pct : window_percents) {
      IrsApproxOptions options;
      options.precision = precision;
      const int64_t tally_before = vhll_tally.CurrentBytes();
      vhll_tally.ResetPeak();
      IrsApprox approx =
          IrsApprox::Compute(graph, graph.WindowFromPercent(pct), options);
      row.push_back(TablePrinter::Cell(
          mb(static_cast<double>(approx.MemoryUsageBytes())), 1));
      entries_at_20 = approx.TotalSketchEntries();
      // Allocator-counted cell-list bytes of THIS index (tally delta), vs
      // the analytic estimate in the w=... columns.
      measured_mb_at_20 =
          mb(static_cast<double>(vhll_tally.CurrentBytes() - tally_before));
      peak_per_entry_at_20 =
          static_cast<double>(vhll_tally.PeakBytes() - tally_before) /
          static_cast<double>(std::max<size_t>(entries_at_20, 1));
      approx.Seal();
      sealed_bytes_at_20 = static_cast<double>(approx.MemoryUsageBytes());
    }
    row.push_back(TablePrinter::Cell(measured_mb_at_20, 1));
    row.push_back(TablePrinter::Cell(entries_at_20));
    row.push_back(TablePrinter::Cell(peak_per_entry_at_20, 1));
    row.push_back(TablePrinter::Cell(mb(sealed_bytes_at_20), 1));
    table.AddRow(std::move(row));
    IPIN_GAUGE_SET("bench.table4.build_peak_bytes_per_entry",
                   peak_per_entry_at_20);
    IPIN_GAUGE_SET("bench.table4.arena_bytes_per_entry",
                   sealed_bytes_at_20 /
                       static_cast<double>(std::max<size_t>(entries_at_20, 1)));
  }
  table.Print();
  std::printf(
      "\nPaper shape: memory tracks the number of (sending) nodes, not the "
      "interaction count,\nand grows mildly with the window length.\n");
  EmitRunReport(flags);
  return 0;
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
