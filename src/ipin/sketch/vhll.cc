#include "ipin/sketch/vhll.h"

#include <algorithm>

#include "ipin/common/check.h"
#include "ipin/common/hash.h"
#include "ipin/sketch/estimators.h"

namespace ipin {

VersionedHll::VersionedHll(int precision, uint64_t salt, TimeEncoding encoding)
    : precision_(precision),
      salt_(salt),
      max_ranks_(size_t{1} << std::clamp(precision, 4, 18), 0),
      store_(precision, /*part=*/0, /*num_parts=*/1, /*num_slots=*/1, encoding,
             max_ranks_.data()) {
  store_.Open(0);
}

bool VersionedHll::Add(uint64_t item, Timestamp t) {
  return AddHash(Hash64(item, salt_), t);
}

bool VersionedHll::AddHash(uint64_t hash, Timestamp t) {
  return store_.AddHash(0, hash, t);
}

bool VersionedHll::AddEntry(size_t cell_index, uint8_t rank, Timestamp t) {
  IPIN_DCHECK(cell_index < num_cells());
  return store_.AddEntry(0, cell_index, rank, t);
}

void VersionedHll::MergeWindow(const VersionedHll& other, Timestamp merge_time,
                               Duration window) {
  IPIN_CHECK_EQ(precision_, other.precision_);
  IPIN_CHECK_EQ(salt_, other.salt_);
  store_.MergeWindow(0, other.store_, 0, merge_time, window);
}

double VersionedHll::Estimate() const {
  return EstimateFromRanks({max_ranks_.data(), max_ranks_.size()});
}

void VersionedHll::Clear() { store_.Clear(0); }

VersionedHll::CellList VersionedHll::cell(size_t i) const {
  const PartStore::Runs runs = store_.runs(0);
  size_t begin = 0;
  for (size_t j = 0; j < i; ++j) begin += runs.counts[j];
  return {runs.ranks.data() + begin,
          runs.time_bytes.data() + begin * time_encoding().width,
          time_encoding(), runs.counts[i]};
}

}  // namespace ipin
