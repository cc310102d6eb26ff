#include "ipin/sketch/vhll.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "ipin/common/check.h"
#include "ipin/common/hash.h"
#include "ipin/sketch/estimators.h"

namespace ipin {

obs::MemoryTally& VhllMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("vhll");
  return tally;
}

namespace {

// The buffer a merge writes the cells it rewrites to, one per thread:
// merges allocate nothing once it has grown to the largest rewrite.
struct MergeScratch {
  std::vector<uint8_t> ranks;
  std::vector<uint8_t> times;
};
thread_local MergeScratch t_merge_scratch;

// One cell's skyline merge. Folds the `nv` pairs (vr, vt) into the `nu`
// pairs (ur, ut), both lists strictly ascending in time and rank, and
// writes the skyline of their union to (out_r, out_t): pairs go in order
// of time ascending, rank descending, u's pair first on a full tie, and a
// pair is kept iff its rank exceeds every rank before it. That is exactly
// what inserting v's pairs one by one keeps. Returns the output length and
// adds the number of v's pairs kept to *kept; u's pairs dropped are then
// nu - (length - kept).
template <typename Offset>
size_t MergeCell(const uint8_t* ur, const uint8_t* ut, size_t nu,
                 const uint8_t* vr, const uint8_t* vt, size_t nv,
                 uint8_t* out_r, uint8_t* out_t, size_t* kept) {
  using Codec = TimeCodec<Offset>;
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
  uint8_t top = 0;
  const auto take = [&](uint8_t rank, Offset t) {
    if (rank <= top) return false;
    top = rank;
    out_r[n] = rank;
    Codec::Store(out_t, n++, t);
    return true;
  };
  while (i < nu && j < nv) {
    const Offset a = Codec::Load(ut, i);
    const Offset b = Codec::Load(vt, j);
    if (a < b || (a == b && ur[i] >= vr[j])) {
      take(ur[i++], a);
    } else {
      *kept += take(vr[j], b);
      ++j;
    }
  }
  for (; i < nu; ++i) take(ur[i], Codec::Load(ut, i));
  for (; j < nv; ++j) *kept += take(vr[j], Codec::Load(vt, j));
  return n;
}

// True if merging the `nv` pairs (vr, vt) into the `nu` pairs (ur, ut)
// keeps a pair of v: one outranks every pair of u no later than it. (The
// pairs of v before it rank lower, so only u's can dominate it.)
template <typename Offset>
bool GainsPair(const uint8_t* ur, const uint8_t* ut, size_t nu,
               const uint8_t* vr, const uint8_t* vt, size_t nv) {
  using Codec = TimeCodec<Offset>;
  size_t i = 0;
  uint8_t top = 0;
  for (size_t j = 0; j < nv; ++j) {
    const Offset t = Codec::Load(vt, j);
    while (i < nu && Codec::Load(ut, i) <= t) top = ur[i++];
    if (vr[j] > top) return true;
  }
  return false;
}

}  // namespace

VersionedHll::VersionedHll(int precision, uint64_t salt, size_t num_parts,
                           TimeEncoding encoding)
    : precision_(precision), salt_(salt), encoding_(encoding) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);
  IPIN_CHECK(encoding_.valid());
  max_ranks_.resize(static_cast<size_t>(1) << precision, 0);
  IPIN_CHECK_GE(num_parts, 1u);
  IPIN_CHECK_LE(num_parts, num_cells());
  more_parts_.resize(num_parts - 1);
  for (size_t k = 0; k < num_parts; ++k) {
    part(k).counts.resize(PartBegin(k + 1) - PartBegin(k), 0);
  }
}

VersionedHll::VersionedHll(int precision, uint64_t salt, size_t num_parts,
                           std::span<const uint8_t> cell_counts,
                           std::span<const uint8_t> ranks,
                           std::span<const int64_t> times,
                           TimeEncoding encoding)
    : VersionedHll(precision, salt, num_parts, encoding) {
  IPIN_CHECK_EQ(cell_counts.size(), num_cells());
  IPIN_CHECK_EQ(ranks.size(), times.size());
  WithTimeCodec(encoding_.width, [&](auto codec) {
    using Offset = decltype(codec.Encode(0, 0));
    size_t entry = 0;
    for (size_t k = 0; k < num_parts; ++k) {
      Part& p = part(k);
      const size_t first = PartBegin(k);
      size_t slots = 0;
      for (size_t j = 0; j < p.counts.size(); ++j) {
        const uint8_t n = cell_counts[first + j];
        IPIN_CHECK_LE(n, kMaxCellEntries);
        slots += n;
        IPIN_CHECK_LE(slots, ranks.size() - entry);
        p.counts[j] = n;
        if (n > 0) max_ranks_[first + j] = ranks[entry + slots - 1];
      }
      p.ranks.reserve(slots);
      p.times.reserve(slots * sizeof(Offset));
      p.ranks.assign(ranks.begin() + entry, ranks.begin() + entry + slots);
      p.times.resize(slots * sizeof(Offset));
      for (size_t i = 0; i < slots; ++i) {
        IPIN_CHECK(encoding_.Holds(times[entry + i]));
        codec.Store(p.times.data(), i,
                    codec.Encode(encoding_.base, times[entry + i]));
      }
      entry += slots;
    }
    IPIN_CHECK_EQ(entry, ranks.size());
  });
  IPIN_DCHECK(CheckInvariants());
}

bool VersionedHll::Add(uint64_t item, Timestamp t) {
  return AddHash(Hash64(item, salt_), t);
}

bool VersionedHll::AddHash(uint64_t hash, Timestamp t) {
  const size_t cell = static_cast<size_t>(hash & (num_cells() - 1));
  const uint64_t rest = hash >> precision_;
  const int r = std::min(RhoLsb(rest), MaxRank(precision_));
  return AddEntry(cell, static_cast<uint8_t>(r), t);
}

bool VersionedHll::AddInPart(uint64_t item, Timestamp t, size_t part) {
  const uint64_t hash = Hash64(item, salt_);
  if (PartOf(hash & (num_cells() - 1)) != part) return false;
  return AddHash(hash, t);
}

bool VersionedHll::AddEntry(size_t cell_index, uint8_t rank, Timestamp t) {
  IPIN_DCHECK(cell_index < num_cells());
  IPIN_CHECK(encoding_.Holds(t));
  ++part(PartOf(cell_index)).insert_attempts;
  bool kept = false;
  WithTimeCodec(encoding_.width, [&](auto codec) {
    kept = Insert(cell_index, rank, codec.Encode(encoding_.base, t));
  });
  return kept;
}

template <typename Offset>
bool VersionedHll::Insert(size_t cell_index, uint8_t rank, Offset t) {
  using Codec = TimeCodec<Offset>;
  IPIN_DCHECK(rank > 0);
  const size_t k = PartOf(cell_index);
  Part& p = part(k);
  const size_t j = cell_index - PartBegin(k);
  const size_t begin = CellBegin(p, j);
  const size_t len = p.counts[j];

  // The cell's new list: the skyline of its pairs and the new one.
  uint8_t new_ranks[kMaxCellEntries + 1];
  uint8_t new_times[(kMaxCellEntries + 1) * sizeof(Offset)];
  uint8_t t_bytes[sizeof(Offset)];
  Codec::Store(t_bytes, 0, t);
  size_t kept = 0;
  const size_t n = MergeCell<Offset>(
      p.ranks.data() + begin, p.times.data() + begin * sizeof(Offset), len,
      &rank, t_bytes, 1, new_ranks, new_times, &kept);
  if (kept == 0) return false;  // dominated by an earlier (or equal) pair
  p.evictions += len + 1 - n;   // the pairs the new one dominated

  // Splice it in: the part's later pairs move by n - len slots (n - len is
  // at most 1).
  const size_t old_slots = p.ranks.size();
  const size_t tail = old_slots - (begin + len);
  if (n > len) ResizePart<Offset>(p, old_slots + 1);
  std::memmove(p.ranks.data() + begin + n, p.ranks.data() + begin + len, tail);
  std::memmove(p.times.data() + (begin + n) * sizeof(Offset),
               p.times.data() + (begin + len) * sizeof(Offset),
               tail * sizeof(Offset));
  if (n < len) ResizePart<Offset>(p, old_slots - (len - n));
  std::memcpy(p.ranks.data() + begin, new_ranks, n);
  std::memcpy(p.times.data() + begin * sizeof(Offset), new_times,
              n * sizeof(Offset));
  p.counts[j] = static_cast<uint8_t>(n);
  // Ranks ascend within a list, so the cached cell max is just the tail.
  max_ranks_[cell_index] = new_ranks[n - 1];
  return true;
}

template <typename Offset>
void VersionedHll::ResizePart(Part& p, size_t slots) {
  if (slots > p.ranks.capacity()) {
    // Grow by a quarter, not by doubling: the parts are most of a build's
    // memory, and doubling leaves up to half of every part unused.
    const size_t capacity =
        std::max(slots, p.ranks.capacity() + p.ranks.capacity() / 4);
    p.ranks.reserve(capacity);
    p.times.reserve(capacity * sizeof(Offset));
  }
  p.ranks.resize(slots);
  p.times.resize(slots * sizeof(Offset));
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
  constexpr size_t kWidth = sizeof(Offset);
  // One part lookup per call, not per cell: this loop is the build's hot
  // path.
  Part& p = part(part_index);
  const Part& from = other.part(part_index);
  if (from.ranks.empty()) return;
  const size_t cells = p.counts.size();
  uint8_t* const counts = p.counts.data();
  const uint8_t* const from_counts = from.counts.data();
  const uint8_t* const ur = p.ranks.data();
  const uint8_t* const ut = p.times.data();
  const uint8_t* const vr = from.ranks.data();
  const uint8_t* const vt = from.times.data();
  uint8_t* const max_ranks = max_ranks_.data() + PartBegin(part_index);
  // The number of pairs of `from`'s cell c, starting at slot v_begin, in
  // the window: its times ascend, so they are a prefix.
  const auto window = [vt, last, from_counts](size_t c, size_t v_begin) {
    size_t nv = 0;
    while (nv < from_counts[c] && Codec::Load(vt, v_begin + nv) <= last) {
      ++nv;
    }
    return nv;
  };

  // Up to the first cell that gains a pair, nothing changes.
  size_t scanned = 0;
  size_t c = 0;
  size_t u_begin = 0;
  size_t v_begin = 0;
  for (; c < cells; ++c) {
    const size_t nv = window(c, v_begin);
    if (nv > 0 && GainsPair<Offset>(ur + u_begin, ut + u_begin * kWidth,
                                     counts[c], vr + v_begin,
                                     vt + v_begin * kWidth, nv)) {
      break;
    }
    scanned += nv;
    u_begin += counts[c];
    v_begin += from_counts[c];
  }
  if (c == cells) {
    p.insert_attempts += scanned;
    p.merge_entries_scanned += scanned;
    return;
  }

  // From cell c on, the part's pairs are rewritten into the scratch buffer:
  // merged cells, and runs of cells with nothing in the window copied
  // whole. `copy_from` is the first slot of the run not yet copied.
  const size_t rewrite_from = u_begin;
  const size_t old_slots = p.ranks.size();
  const size_t most = old_slots - rewrite_from + from.ranks.size() - v_begin;
  MergeScratch& scratch = t_merge_scratch;
  if (scratch.ranks.size() < most) scratch.ranks.resize(most);
  if (scratch.times.size() < most * kWidth) scratch.times.resize(most * kWidth);
  uint8_t* const sr = scratch.ranks.data();
  uint8_t* const st = scratch.times.data();
  size_t n = 0;
  size_t copy_from = rewrite_from;
  const auto copy_run = [&](size_t until) {
    if (until == copy_from) return;  // ur may be null
    std::memcpy(sr + n, ur + copy_from, until - copy_from);
    std::memcpy(st + n * kWidth, ut + copy_from * kWidth,
                (until - copy_from) * kWidth);
    n += until - copy_from;
  };
  size_t kept = 0;
  size_t evicted = 0;
  for (; c < cells; ++c) {
    const size_t nv = window(c, v_begin);
    scanned += nv;
    const size_t nu = counts[c];
    if (nv > 0) {
      copy_run(u_begin);
      size_t gained = 0;
      const size_t len = MergeCell<Offset>(
          ur + u_begin, ut + u_begin * kWidth, nu, vr + v_begin,
          vt + v_begin * kWidth, nv, sr + n, st + n * kWidth, &gained);
      n += len;
      kept += gained;
      evicted += nu - (len - gained);
      counts[c] = static_cast<uint8_t>(len);
      max_ranks[c] = sr[n - 1];
      copy_from = u_begin + nu;
    }
    u_begin += nu;
    v_begin += from_counts[c];
  }
  copy_run(old_slots);
  ResizePart<Offset>(p, rewrite_from + n);
  std::memcpy(p.ranks.data() + rewrite_from, sr, n);
  std::memcpy(p.times.data() + rewrite_from * kWidth, st, n * kWidth);
  p.insert_attempts += scanned;
  p.evictions += evicted;
  p.merge_entries_scanned += scanned;
  p.cell_updates += kept;
}

double VersionedHll::Estimate() const {
  return EstimateFromRanks({max_ranks_.data(), max_ranks_.size()});
}

void VersionedHll::Clear() {
  // Keeps the parts' capacity, like clearing a vector.
  for (size_t k = 0; k < num_parts(); ++k) {
    Part& p = part(k);
    p.ranks.clear();
    p.times.clear();
    std::fill(p.counts.begin(), p.counts.end(), 0);
  }
  std::fill(max_ranks_.begin(), max_ranks_.end(), 0);
}

size_t VersionedHll::SumOverParts(size_t Part::*tally) const {
  size_t total = 0;
  for (size_t k = 0; k < num_parts(); ++k) total += part(k).*tally;
  return total;
}

size_t VersionedHll::CellBegin(const Part& p, size_t j) {
  size_t begin = 0;
  for (size_t i = 0; i < j; ++i) begin += p.counts[i];
  return begin;
}

VersionedHll::CellList VersionedHll::cell(size_t i) const {
  const size_t k = PartOf(i);
  const Part& p = part(k);
  const size_t j = i - PartBegin(k);
  const size_t begin = CellBegin(p, j);
  return {p.ranks.data() + begin, p.times.data() + begin * encoding_.width,
          encoding_, p.counts[j]};
}

size_t VersionedHll::NumEntries() const {
  size_t total = 0;
  for (size_t k = 0; k < num_parts(); ++k) total += part(k).ranks.size();
  return total;
}

bool VersionedHll::CheckInvariants() const {
  const size_t width = encoding_.width;
  for (size_t k = 0; k < num_parts(); ++k) {
    const Part& p = part(k);
    if (p.counts.size() != PartBegin(k + 1) - PartBegin(k) ||
        CellBegin(p, p.counts.size()) != p.ranks.size() ||
        p.ranks.size() * width != p.times.size() ||
        p.ranks.capacity() * width != p.times.capacity()) {
      return false;
    }
  }
  for (size_t c = 0; c < num_cells(); ++c) {
    const CellList list = cell(c);
    if (list.size() > kMaxCellEntries) return false;
    if (max_ranks_[c] != (list.empty() ? 0 : list.back().rank)) return false;
    for (size_t i = 1; i < list.size(); ++i) {
      // Strictly ascending rank and time: no pair dominates another.
      if (list[i].rank <= list[i - 1].rank) return false;
      if (list[i].time <= list[i - 1].time) return false;
    }
    for (const Entry& e : list) {
      if (e.rank == 0) return false;
    }
  }
  return true;
}

size_t VersionedHll::MemoryUsageBytes() const {
  size_t bytes = max_ranks_.capacity() * sizeof(uint8_t) +
                 more_parts_.capacity() * sizeof(Part);
  for (size_t k = 0; k < num_parts(); ++k) {
    const Part& p = part(k);
    bytes += p.counts.capacity() + p.ranks.capacity() + p.times.capacity();
  }
  return bytes;
}

}  // namespace ipin
