#include "ipin/sketch/vhll.h"

#include <algorithm>
#include <bit>

#include "ipin/common/check.h"
#include "ipin/common/hash.h"
#include "ipin/sketch/estimators.h"

namespace ipin {

obs::MemoryTally& VhllMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("vhll");
  return tally;
}

VersionedHll::VersionedHll(int precision, uint64_t salt)
    : precision_(precision), salt_(salt) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);
  heads_.resize(static_cast<size_t>(1) << precision);
  max_ranks_.resize(heads_.size(), 0);
  free_blocks_.fill(kNoBlock);
}

VersionedHll::VersionedHll(int precision, uint64_t salt,
                           std::span<const uint8_t> cell_counts,
                           std::span<const uint8_t> ranks,
                           std::span<const int64_t> times)
    : VersionedHll(precision, salt) {
  IPIN_CHECK_EQ(cell_counts.size(), heads_.size());
  IPIN_CHECK_EQ(ranks.size(), times.size());
  size_t entry = 0;
  for (size_t c = 0; c < heads_.size(); ++c) {
    const size_t n = cell_counts[c];
    if (n == 0) continue;
    IPIN_CHECK_LE(n, kMaxCellEntries);
    IPIN_CHECK_LE(n, ranks.size() - entry);
    const size_t cap = std::bit_ceil(n);
    const uint32_t block = AllocateBlock(cap);
    Entry* const list = pool_.data() + block;
    for (size_t i = 0; i < n; ++i, ++entry) {
      list[i] = {ranks[entry], times[entry]};
    }
    heads_[c] = {block, static_cast<uint8_t>(n), static_cast<uint8_t>(cap)};
    max_ranks_[c] = list[n - 1].rank;
  }
  IPIN_CHECK_EQ(entry, ranks.size());
  IPIN_DCHECK(CheckInvariants());
}

bool VersionedHll::Add(uint64_t item, Timestamp t) {
  return AddHash(Hash64(item, salt_), t);
}

bool VersionedHll::AddHash(uint64_t hash, Timestamp t) {
  const size_t cell = static_cast<size_t>(hash & (heads_.size() - 1));
  const uint64_t rest = hash >> precision_;
  const int r = std::min(RhoLsb(rest), 64 - precision_ + 1);
  return AddEntry(cell, static_cast<uint8_t>(r), t);
}

bool VersionedHll::AddEntry(size_t cell_index, uint8_t rank, Timestamp t) {
  IPIN_DCHECK(cell_index < heads_.size());
  IPIN_DCHECK(rank > 0);
  ++insert_attempts_;
  CellHead& head = heads_[cell_index];
  Entry* list = pool_.data() + head.offset;
  const size_t len = head.len;

  // Lists are ascending in both time and rank. Locate the first entry with
  // time > t; every entry before it has time <= t, and the largest rank in
  // that prefix sits immediately before the insertion point.
  size_t pos = len;
  while (pos > 0 && list[pos - 1].time > t) --pos;

  if (pos > 0 && list[pos - 1].rank >= rank) {
    return false;  // dominated by an earlier (or simultaneous) >=-rank entry
  }

  // Entries sharing timestamp t all have rank < `rank` at this point (the
  // prefix max did), so the new pair dominates them too; pull them into the
  // removal run.
  while (pos > 0 && list[pos - 1].time == t) --pos;

  // The new pair dominates every later entry with rank <= `rank`; since
  // ranks ascend, those form a contiguous run starting at pos.
  size_t end = pos;
  while (end < len && list[end].rank <= rank) ++end;

  if (end == pos) {
    if (len == head.cap) list = GrowCell(head);
    std::copy_backward(list + pos, list + len, list + len + 1);
    ++head.len;
  } else {
    evictions_ += end - pos;  // dominated pairs dropped for the new one
    std::copy(list + end, list + len, list + pos + 1);
    head.len = static_cast<uint8_t>(len - (end - pos - 1));
  }
  list[pos] = Entry{rank, t};
  // Ranks ascend within a list, so the cached cell max is just the tail.
  max_ranks_[cell_index] = list[head.len - 1].rank;
  return true;
}

VersionedHll::Entry* VersionedHll::GrowCell(CellHead& head) {
  IPIN_CHECK_LT(head.cap, kMaxCellEntries);
  const size_t cap = head.cap == 0 ? 1 : 2 * size_t{head.cap};
  const uint32_t block = AllocateBlock(cap);
  Entry* const dst = pool_.data() + block;
  std::copy_n(pool_.data() + head.offset, head.len, dst);
  if (head.cap > 0) FreeBlock(head.offset, head.cap);
  head.offset = block;
  head.cap = static_cast<uint8_t>(cap);
  return dst;
}

uint32_t VersionedHll::AllocateBlock(size_t cap) {
  uint32_t& free_head = free_blocks_[std::countr_zero(cap)];
  if (free_head != kNoBlock) {
    const uint32_t block = free_head;
    free_head = static_cast<uint32_t>(pool_[block].time);
    return block;
  }
  IPIN_CHECK_LE(pool_.size() + cap, size_t{kNoBlock});
  const auto block = static_cast<uint32_t>(pool_.size());
  pool_.resize(pool_.size() + cap);
  return block;
}

void VersionedHll::FreeBlock(uint32_t offset, size_t cap) {
  uint32_t& free_head = free_blocks_[std::countr_zero(cap)];
  pool_[offset].time = free_head;
  free_head = offset;
}

void VersionedHll::MergeWindow(const VersionedHll& other, Timestamp merge_time,
                               Duration window) {
  IPIN_CHECK_EQ(precision_, other.precision_);
  IPIN_CHECK_EQ(salt_, other.salt_);
  const Timestamp bound = merge_time + window;  // keep entries with t < bound
  size_t scanned = 0;
  size_t kept = 0;
  for (size_t c = 0; c < heads_.size(); ++c) {
    for (const Entry& e : other.cell(c)) {
      if (e.time >= bound) break;  // ascending time: rest is out of window
      ++scanned;
      kept += AddEntry(c, e.rank, e.time);
    }
  }
  merge_entries_scanned_ += scanned;
  cell_updates_ += kept;
}

void VersionedHll::MergeAll(const VersionedHll& other) {
  IPIN_CHECK_EQ(precision_, other.precision_);
  IPIN_CHECK_EQ(salt_, other.salt_);
  for (size_t c = 0; c < heads_.size(); ++c) {
    for (const Entry& e : other.cell(c)) {
      AddEntry(c, e.rank, e.time);
    }
  }
}

bool VersionedHll::MergeWithFloor(const VersionedHll& other, Timestamp floor,
                                  Timestamp bound) {
  IPIN_CHECK_EQ(precision_, other.precision_);
  IPIN_CHECK_EQ(salt_, other.salt_);
  bool changed = false;
  for (size_t c = 0; c < heads_.size(); ++c) {
    for (const Entry& e : other.cell(c)) {
      if (e.time >= bound) break;  // ascending time: rest is out of window
      changed |= AddEntry(c, e.rank, std::max(e.time, floor));
    }
  }
  return changed;
}

double VersionedHll::Estimate() const {
  return EstimateFromRanks({max_ranks_.data(), max_ranks_.size()});
}

double VersionedHll::EstimateBefore(Timestamp bound) const {
  std::vector<uint8_t> scratch;
  return EstimateBefore(bound, &scratch);
}

double VersionedHll::EstimateBefore(Timestamp bound,
                                    std::vector<uint8_t>* scratch) const {
  scratch->assign(heads_.size(), 0);
  MaxRanks(bound, scratch);
  return EstimateFromRanks(*scratch);
}

void VersionedHll::MaxRanks(Timestamp bound,
                            std::vector<uint8_t>* ranks) const {
  IPIN_CHECK_EQ(ranks->size(), heads_.size());
  for (size_t c = 0; c < heads_.size(); ++c) {
    const CellList list = cell(c);
    // Times ascend and ranks strictly ascend, so the in-window entries are
    // a prefix whose max rank is its last entry — no max fold needed.
    size_t k = 0;
    while (k < list.size() && list[k].time < bound) ++k;
    if (k > 0 && list[k - 1].rank > (*ranks)[c]) {
      (*ranks)[c] = list[k - 1].rank;
    }
  }
}

void VersionedHll::CompactExpired(Timestamp frontier, Duration window) {
  const Timestamp bound = frontier + window;
  for (size_t c = 0; c < heads_.size(); ++c) {
    CellHead& head = heads_[c];
    const Entry* list = pool_.data() + head.offset;
    while (head.len > 0 && list[head.len - 1].time >= bound) --head.len;
    max_ranks_[c] = head.len == 0 ? 0 : list[head.len - 1].rank;
  }
}

void VersionedHll::Clear() {
  // Keeps the pool's capacity (like clearing a vector) but forgets every
  // block: the next inserts carve fresh blocks from the start of the pool.
  pool_.clear();
  std::fill(heads_.begin(), heads_.end(), CellHead{});
  free_blocks_.fill(kNoBlock);
  std::fill(max_ranks_.begin(), max_ranks_.end(), 0);
}

size_t VersionedHll::NumEntries() const {
  size_t total = 0;
  for (const CellHead& head : heads_) total += head.len;
  return total;
}

bool VersionedHll::CheckInvariants() const {
  for (size_t c = 0; c < heads_.size(); ++c) {
    const CellHead& head = heads_[c];
    if (head.len > head.cap || size_t{head.offset} + head.cap > pool_.size()) {
      return false;
    }
    const CellList list = cell(c);
    if (max_ranks_[c] != (list.empty() ? 0 : list.back().rank)) return false;
    for (size_t i = 1; i < list.size(); ++i) {
      // Strictly ascending rank; non-descending time; no domination either
      // way (equal times with equal ranks would have been collapsed).
      if (list[i].rank <= list[i - 1].rank) return false;
      if (list[i].time < list[i - 1].time) return false;
    }
    for (const Entry& e : list) {
      if (e.rank == 0) return false;
    }
  }
  return true;
}

size_t VersionedHll::MemoryUsageBytes() const {
  return heads_.capacity() * sizeof(CellHead) +
         pool_.capacity() * sizeof(Entry) +
         max_ranks_.capacity() * sizeof(uint8_t);
}

}  // namespace ipin
