#include "ipin/sketch/vhll.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "ipin/common/check.h"
#include "ipin/common/hash.h"
#include "ipin/sketch/estimators.h"

namespace ipin {

obs::MemoryTally& VhllMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("vhll");
  return tally;
}

VersionedHll::VersionedHll(int precision, uint64_t salt, size_t num_parts,
                           TimeEncoding encoding)
    : precision_(precision), salt_(salt), encoding_(encoding) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);
  IPIN_CHECK(encoding_.valid());
  heads_.resize(static_cast<size_t>(1) << precision);
  max_ranks_.resize(heads_.size(), 0);
  IPIN_CHECK_GE(num_parts, 1u);
  IPIN_CHECK_LE(num_parts, heads_.size());
  more_parts_.resize(num_parts - 1);
}

VersionedHll::VersionedHll(int precision, uint64_t salt, size_t num_parts,
                           std::span<const uint8_t> cell_counts,
                           std::span<const uint8_t> ranks,
                           std::span<const int64_t> times,
                           TimeEncoding encoding)
    : VersionedHll(precision, salt, num_parts, encoding) {
  IPIN_CHECK_EQ(cell_counts.size(), heads_.size());
  IPIN_CHECK_EQ(ranks.size(), times.size());
  for (size_t k = 0; k < num_parts; ++k) {
    size_t slots = 0;
    for (size_t c = PartBegin(k); c < PartBegin(k + 1); ++c) {
      const size_t n = cell_counts[c];
      IPIN_CHECK_LE(n, kMaxCellEntries);
      slots += n == 0 ? 0 : std::bit_ceil(n);
    }
    part(k).ranks.reserve(slots);
    part(k).times.reserve(slots * encoding_.width);
  }
  WithTimeCodec(encoding_.width, [&](auto codec) {
    using Offset = decltype(codec.Encode(0, 0));
    size_t entry = 0;
    for (size_t c = 0; c < heads_.size(); ++c) {
      const size_t n = cell_counts[c];
      if (n == 0) continue;
      IPIN_CHECK_LE(n, ranks.size() - entry);
      Part& p = part(PartOf(c));
      const size_t cap = std::bit_ceil(n);
      const uint32_t block = AllocateBlock<Offset>(p, cap);
      std::copy_n(ranks.data() + entry, n, p.ranks.data() + block);
      for (size_t i = 0; i < n; ++i) {
        IPIN_CHECK(encoding_.Holds(times[entry + i]));
        codec.Store(p.times.data(), block + i,
                    codec.Encode(encoding_.base, times[entry + i]));
      }
      entry += n;
      heads_[c] = {block, static_cast<uint8_t>(n), static_cast<uint8_t>(cap)};
      max_ranks_[c] = p.ranks[block + n - 1];
    }
    IPIN_CHECK_EQ(entry, ranks.size());
  });
  IPIN_DCHECK(CheckInvariants());
}

bool VersionedHll::Add(uint64_t item, Timestamp t) {
  return AddHash(Hash64(item, salt_), t);
}

bool VersionedHll::AddHash(uint64_t hash, Timestamp t) {
  const size_t cell = static_cast<size_t>(hash & (heads_.size() - 1));
  const uint64_t rest = hash >> precision_;
  const int r = std::min(RhoLsb(rest), MaxRank(precision_));
  return AddEntry(cell, static_cast<uint8_t>(r), t);
}

bool VersionedHll::AddInPart(uint64_t item, Timestamp t, size_t part) {
  const uint64_t hash = Hash64(item, salt_);
  if (PartOf(hash & (heads_.size() - 1)) != part) return false;
  return AddHash(hash, t);
}

bool VersionedHll::AddEntry(size_t cell_index, uint8_t rank, Timestamp t) {
  IPIN_DCHECK(cell_index < heads_.size());
  IPIN_CHECK(encoding_.Holds(t));
  Part& p = part(PartOf(cell_index));
  ++p.insert_attempts;
  bool kept = false;
  WithTimeCodec(encoding_.width, [&](auto codec) {
    kept = Insert(p, cell_index, rank, codec.Encode(encoding_.base, t),
                  &p.evictions);
  });
  return kept;
}

template <typename Offset>
bool VersionedHll::Insert(Part& p, size_t cell_index, uint8_t rank, Offset t,
                          size_t* evicted) {
  using Codec = TimeCodec<Offset>;
  IPIN_DCHECK(rank > 0);
  CellHead& head = heads_[cell_index];
  uint8_t* ranks = p.ranks.data() + head.offset;
  uint8_t* times = p.times.data() + size_t{head.offset} * sizeof(Offset);
  const size_t len = head.len;

  // Lists are ascending in both time and rank. Locate the first entry with
  // time > t; every entry before it has time <= t, and the largest rank in
  // that prefix sits immediately before the insertion point.
  size_t pos = len;
  while (pos > 0 && Codec::Load(times, pos - 1) > t) --pos;

  if (pos > 0 && ranks[pos - 1] >= rank) {
    return false;  // dominated by an earlier (or simultaneous) >=-rank entry
  }

  // Entries sharing timestamp t all have rank < `rank` at this point (the
  // prefix max did), so the new pair dominates them too; pull them into the
  // removal run.
  while (pos > 0 && Codec::Load(times, pos - 1) == t) --pos;

  // The new pair dominates every later entry with rank <= `rank`; since
  // ranks ascend, those form a contiguous run starting at pos.
  size_t end = pos;
  while (end < len && ranks[end] <= rank) ++end;

  // The shifts below are plain loops that move both arrays in one pass: a
  // list is short, and a memmove call per array costs more than the move.
  if (end == pos) {
    if (len == head.cap) {
      GrowCell<Offset>(p, head);
      ranks = p.ranks.data() + head.offset;
      times = p.times.data() + size_t{head.offset} * sizeof(Offset);
    }
    for (size_t i = len; i > pos; --i) {
      ranks[i] = ranks[i - 1];
      Codec::Store(times, i, Codec::Load(times, i - 1));
    }
    ++head.len;
  } else {
    *evicted += end - pos;  // dominated pairs dropped for the new one
    for (size_t i = end, j = pos + 1; i < len; ++i, ++j) {
      ranks[j] = ranks[i];
      Codec::Store(times, j, Codec::Load(times, i));
    }
    head.len = static_cast<uint8_t>(len - (end - pos - 1));
  }
  ranks[pos] = rank;
  Codec::Store(times, pos, t);
  // Ranks ascend within a list, so the cached cell max is just the tail.
  max_ranks_[cell_index] = ranks[head.len - 1];
  return true;
}

template <typename Offset>
void VersionedHll::GrowCell(Part& p, CellHead& head) {
  IPIN_CHECK_LT(head.cap, kMaxCellEntries);
  const size_t cap = head.cap == 0 ? 1 : 2 * size_t{head.cap};
  const uint32_t block = AllocateBlock<Offset>(p, cap);
  std::copy_n(p.ranks.data() + head.offset, head.len, p.ranks.data() + block);
  std::copy_n(p.times.data() + size_t{head.offset} * sizeof(Offset),
              head.len * sizeof(Offset),
              p.times.data() + size_t{block} * sizeof(Offset));
  if (head.cap > 0) FreeBlock<Offset>(p, head.offset, head.cap);
  head.offset = block;
  head.cap = static_cast<uint8_t>(cap);
}

template <typename Offset>
uint32_t VersionedHll::AllocateBlock(Part& p, size_t cap) {
  using Codec = TimeCodec<Offset>;
  uint32_t& free_head = p.free_blocks[std::countr_zero(cap)];
  if (free_head != kNoBlock) {
    const uint32_t block = free_head;
    free_head = static_cast<uint32_t>(Codec::Load(p.times.data(), block));
    return block;
  }
  const size_t size = p.ranks.size();
  IPIN_CHECK_LE(size + cap, size_t{kNoBlock});
  if (size + cap > p.ranks.capacity()) {
    // Grow by a quarter, not by doubling: the pools are most of a build's
    // memory, and doubling leaves up to half of every pool unused.
    const size_t capacity =
        std::max(size + cap, p.ranks.capacity() + p.ranks.capacity() / 4);
    p.ranks.reserve(capacity);
    p.times.reserve(capacity * sizeof(Offset));
  }
  p.ranks.resize(size + cap);
  p.times.resize((size + cap) * sizeof(Offset));
  return static_cast<uint32_t>(size);
}

template <typename Offset>
void VersionedHll::FreeBlock(Part& p, uint32_t offset, size_t cap) {
  uint32_t& free_head = p.free_blocks[std::countr_zero(cap)];
  TimeCodec<Offset>::Store(p.times.data(), offset, Offset{free_head});
  free_head = offset;
}

void VersionedHll::MergeWindow(const VersionedHll& other, Timestamp merge_time,
                               Duration window) {
  for (size_t k = 0; k < num_parts(); ++k) {
    MergeWindow(other, merge_time, window, k);
  }
}

void VersionedHll::MergeWindow(const VersionedHll& other, Timestamp merge_time,
                               Duration window, size_t part_index) {
  IPIN_CHECK_EQ(precision_, other.precision_);
  IPIN_CHECK_EQ(salt_, other.salt_);
  IPIN_CHECK_EQ(num_parts(), other.num_parts());
  IPIN_CHECK(encoding_ == other.encoding_);
  // Entries with t < merge_time + window are kept: offsets below
  // merge_time + window - base. That bound is formed in 128 bits, where it
  // cannot overflow; at or below zero nothing is kept, and above the
  // largest offset everything is.
  const __int128 bound =
      static_cast<__int128>(merge_time) - encoding_.base + window;
  if (bound <= 0) return;
  WithTimeCodec(encoding_.width, [&](auto codec) {
    using Offset = decltype(codec.Encode(0, 0));
    constexpr Offset kTop = std::numeric_limits<Offset>::max();
    const Offset last =
        bound > kTop ? kTop : static_cast<Offset>(bound - 1);
    MergeCells(other, part_index, last);
  });
}

template <typename Offset>
void VersionedHll::MergeCells(const VersionedHll& other, size_t part_index,
                              Offset last) {
  using Codec = TimeCodec<Offset>;
  // One part lookup per call, not per cell: this loop is the build's hot
  // path.
  Part& p = part(part_index);
  const Part& from = other.part(part_index);
  const uint8_t* const from_ranks = from.ranks.data();
  const uint8_t* const from_times = from.times.data();
  size_t scanned = 0;
  size_t kept = 0;
  size_t evicted = 0;
  const size_t end = PartBegin(part_index + 1);
  for (size_t c = PartBegin(part_index); c < end; ++c) {
    const CellHead& head = other.heads_[c];
    for (size_t i = head.offset; i < size_t{head.offset} + head.len; ++i) {
      const Offset t = Codec::Load(from_times, i);
      if (t > last) break;  // ascending time: rest is out
      ++scanned;
      kept += Insert(p, c, from_ranks[i], t, &evicted);
    }
  }
  p.insert_attempts += scanned;
  p.evictions += evicted;
  p.merge_entries_scanned += scanned;
  p.cell_updates += kept;
}

double VersionedHll::Estimate() const {
  return EstimateFromRanks({max_ranks_.data(), max_ranks_.size()});
}

void VersionedHll::Clear() {
  // Keeps the pools' capacity (like clearing a vector) but forgets every
  // block: the next inserts carve fresh blocks from the start of the pools.
  for (size_t k = 0; k < num_parts(); ++k) {
    part(k).ranks.clear();
    part(k).times.clear();
    part(k).free_blocks.fill(kNoBlock);
  }
  std::fill(heads_.begin(), heads_.end(), CellHead{});
  std::fill(max_ranks_.begin(), max_ranks_.end(), 0);
}

size_t VersionedHll::SumOverParts(size_t Part::*tally) const {
  size_t total = 0;
  for (size_t k = 0; k < num_parts(); ++k) total += part(k).*tally;
  return total;
}

size_t VersionedHll::NumEntries() const {
  size_t total = 0;
  for (const CellHead& head : heads_) total += head.len;
  return total;
}

bool VersionedHll::CheckInvariants() const {
  const size_t width = encoding_.width;
  for (size_t k = 0; k < num_parts(); ++k) {
    const Part& p = part(k);
    if (p.ranks.size() * width != p.times.size() ||
        p.ranks.capacity() * width != p.times.capacity()) {
      return false;
    }
  }
  for (size_t c = 0; c < heads_.size(); ++c) {
    const CellHead& head = heads_[c];
    if (head.len > head.cap ||
        size_t{head.offset} + head.cap > part(PartOf(c)).ranks.size()) {
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
  size_t bytes = heads_.capacity() * sizeof(CellHead) +
                 max_ranks_.capacity() * sizeof(uint8_t) +
                 more_parts_.capacity() * sizeof(Part);
  for (size_t k = 0; k < num_parts(); ++k) {
    bytes += part(k).ranks.capacity() + part(k).times.capacity();
  }
  return bytes;
}

TimeEncoding TimeEncodingOf(
    std::span<const std::unique_ptr<VersionedHll>> sketches) {
  Timestamp first = std::numeric_limits<Timestamp>::max();
  Timestamp last = std::numeric_limits<Timestamp>::min();
  for (const auto& sketch : sketches) {
    if (sketch == nullptr) continue;
    for (size_t c = 0; c < sketch->num_cells(); ++c) {
      const VersionedHll::CellList list = sketch->cell(c);
      if (list.empty()) continue;
      first = std::min(first, list.time(0));
      last = std::max(last, list.time(list.size() - 1));
    }
  }
  return TimeEncoding::Covering(first, last);
}

}  // namespace ipin
