#include "ipin/datasets/registry.h"

#include <algorithm>
#include <cmath>

#include "ipin/common/check.h"
#include "ipin/common/hash.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"

namespace ipin {
namespace {

constexpr int64_t kSecondsPerDay = 86400;

// Rough behavioural family of a dataset, used to pick generator knobs.
enum class Family { kEmail, kSocial, kBurst };

struct NamedDataset {
  PaperDatasetStats stats;
  Family family;
};

const std::vector<NamedDataset>& AllDatasets() {
  static const auto* datasets = new std::vector<NamedDataset>{
      {{"enron", 87300, 1148100, 8767}, Family::kEmail},
      {{"lkml", 27400, 1048600, 2923}, Family::kEmail},
      {{"facebook", 46900, 877000, 1592}, Family::kSocial},
      {{"higgs", 304700, 526200, 7}, Family::kBurst},
      {{"slashdot", 51100, 140800, 978}, Family::kSocial},
      {{"us2016", 4468000, 44638000, 16}, Family::kBurst},
  };
  return *datasets;
}

}  // namespace

std::vector<PaperDatasetStats> PaperTable2() {
  std::vector<PaperDatasetStats> rows;
  for (const NamedDataset& d : AllDatasets()) rows.push_back(d.stats);
  return rows;
}

std::vector<std::string> ListDatasetNames() {
  std::vector<std::string> names;
  for (const NamedDataset& d : AllDatasets()) names.push_back(d.stats.name);
  return names;
}

std::optional<SyntheticConfig> GetDatasetConfig(const std::string& name,
                                                double scale) {
  if (!(scale > 0.0 && scale <= 1.0)) {  // NaN fails too
    LogError(StrFormat("dataset scale must lie in (0, 1], got %g", scale));
    return std::nullopt;
  }
  for (const NamedDataset& d : AllDatasets()) {
    if (d.stats.name != name) continue;
    SyntheticConfig config;
    config.name = name;
    config.num_nodes = std::max<size_t>(
        100, static_cast<size_t>(std::llround(
                 static_cast<double>(d.stats.num_nodes) * scale)));
    config.num_interactions = std::max<size_t>(
        500, static_cast<size_t>(std::llround(
                 static_cast<double>(d.stats.num_interactions) * scale)));
    config.time_span = d.stats.days * kSecondsPerDay;
    config.seed = Hash64(HashString(name));
    switch (d.family) {
      case Family::kEmail:
        // Mailing lists: strong reply chains, medium-size communities.
        config.reply_probability = 0.5;
        config.activity_exponent = 1.3;
        config.popularity_exponent = 1.25;
        config.num_communities = 64;
        config.intra_community_probability = 0.75;
        break;
      case Family::kSocial:
        // Social link/comment networks: weaker chains, more communities.
        config.reply_probability = 0.35;
        config.activity_exponent = 1.2;
        config.popularity_exponent = 1.2;
        config.num_communities = 128;
        config.intra_community_probability = 0.65;
        break;
      case Family::kBurst:
        // Retweet bursts: very heavy hubs, short span, strong cascades.
        config.reply_probability = 0.3;
        config.activity_exponent = 1.45;
        config.popularity_exponent = 1.4;
        config.num_communities = 16;
        config.intra_community_probability = 0.5;
        break;
    }
    return config;
  }
  return std::nullopt;
}

InteractionGraph LoadSyntheticDataset(const std::string& name, double scale) {
  const auto config = GetDatasetConfig(name, scale);
  IPIN_CHECK(config.has_value());
  return GenerateInteractionNetwork(*config);
}

}  // namespace ipin
