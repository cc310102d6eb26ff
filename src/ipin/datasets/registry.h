#ifndef IPIN_DATASETS_REGISTRY_H_
#define IPIN_DATASETS_REGISTRY_H_

#include <optional>
#include <string>
#include <vector>

#include "ipin/datasets/synthetic.h"
#include "ipin/graph/interaction_graph.h"

namespace ipin {

/// Characteristics the paper reports for its six datasets (Table 2).
struct PaperDatasetStats {
  std::string name;
  size_t num_nodes;         // |V|
  size_t num_interactions;  // |E|
  int64_t days;             // time span in days
};

/// The paper's Table 2 rows, verbatim.
std::vector<PaperDatasetStats> PaperTable2();

/// Names of the six named dataset configurations:
/// enron, lkml, facebook, higgs, slashdot, us2016.
std::vector<std::string> ListDatasetNames();

/// Returns the synthetic generator configuration whose node/interaction
/// counts match the paper's dataset `name`, scaled by `scale` in (0, 1]
/// (node and interaction counts multiply by `scale`; the time span in days
/// is kept, at one-minute resolution). Activity/community parameters are
/// tuned per dataset family (email vs social vs tweet burst).
/// Returns nullopt for an unknown name, and (logging an error) for a scale
/// outside (0, 1].
std::optional<SyntheticConfig> GetDatasetConfig(const std::string& name,
                                                double scale);

/// Generates the named dataset at the given scale. Check-fails on unknown
/// names (use GetDatasetConfig to probe).
InteractionGraph LoadSyntheticDataset(const std::string& name, double scale);

}  // namespace ipin

#endif  // IPIN_DATASETS_REGISTRY_H_
