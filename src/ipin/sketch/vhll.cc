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

// Sets `run`'s size to `size` bytes, growing its capacity by at least a
// quarter when short: not by doubling, since the parts are most of a
// build's memory, and doubling leaves up to half of every part unused.
template <typename Run>
void ResizeRun(Run& run, size_t size) {
  if (size > run.capacity()) {
    run.reserve(std::max(size, run.capacity() + run.capacity() / 4));
  }
  run.resize(size);
}

// Frees a run's heap buffer.
template <typename Run>
void Free(Run& run) {
  Run().swap(run);
}

// The number of the `n` ascending ranks at `retired` that a list topped by
// rank `top` evicts: those not above it. (They are later than any pair a
// list gains, so rank alone decides.)
size_t EvictedBy(uint8_t top, const uint8_t* retired, size_t n) {
  size_t evicted = 0;
  while (evicted < n && retired[evicted] <= top) ++evicted;
  return evicted;
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
                           std::span<const uint8_t> counts,
                           std::span<const uint8_t> ranks,
                           std::span<const int64_t> times,
                           std::span<const uint8_t> retired,
                           std::span<const uint8_t> retired_ranks,
                           TimeEncoding encoding)
    : VersionedHll(precision, salt, num_parts, encoding) {
  IPIN_CHECK_EQ(counts.size(), num_cells());
  IPIN_CHECK(retired.empty() || retired.size() == num_cells());
  IPIN_CHECK_EQ(ranks.size(), times.size());
  WithTimeCodec(encoding_.width, [&](auto codec) {
    using Offset = decltype(codec.Encode(0, 0));
    size_t entry = 0;
    size_t retired_entry = 0;
    for (size_t k = 0; k < num_parts; ++k) {
      Part& p = part(k);
      const size_t first = PartBegin(k);
      const size_t cells = p.counts.size();
      size_t slots = 0;
      size_t retired_slots = 0;
      for (size_t j = 0; j < cells; ++j) {
        const uint8_t n = counts[first + j];
        const uint8_t r = retired.empty() ? 0 : retired[first + j];
        IPIN_CHECK_LE(size_t{n} + r, kMaxCellEntries);
        slots += n;
        retired_slots += r;
        IPIN_CHECK_LE(slots, ranks.size() - entry);
        IPIN_CHECK_LE(retired_slots, retired_ranks.size() - retired_entry);
        p.counts[j] = n;
        if (r > 0) {
          max_ranks_[first + j] =
              retired_ranks[retired_entry + retired_slots - 1];
        } else if (n > 0) {
          max_ranks_[first + j] = ranks[entry + slots - 1];
        }
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
      if (retired_slots > 0) {
        p.retired.assign(retired.begin() + first,
                         retired.begin() + first + cells);
        p.retired_ranks.reserve(retired_slots);
        p.retired_ranks.assign(
            retired_ranks.begin() + retired_entry,
            retired_ranks.begin() + retired_entry + retired_slots);
        if (slots == 0) Free(p.counts);  // retired ranks alone, as Retire
      }
      entry += slots;
      retired_entry += retired_slots;
    }
    IPIN_CHECK_EQ(entry, ranks.size());
    IPIN_CHECK_EQ(retired_entry, retired_ranks.size());
  });
  IPIN_DCHECK(CheckInvariants());
}

VersionedHll::VersionedHll(int precision, uint64_t salt, size_t num_parts,
                           std::span<const uint8_t> row, size_t entries,
                           TimeEncoding encoding)
    : VersionedHll(precision, salt, num_parts, encoding) {
  IPIN_CHECK_EQ(row.size(), num_cells());
  for (size_t c = 0; c < row.size(); ++c) {
    IPIN_CHECK_LE(row[c], MaxRank(precision_));
    max_ranks_[c] = row[c];
  }
  for (size_t k = 0; k < num_parts; ++k) Collapse(k);
  // The count is the sketch's, not a part's: part 0 carries it.
  first_part_.collapsed_entries = entries;
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
  IPIN_DCHECK(!Collapsed(p));
  // A part with retired ranks alone keeps the pair: its counts come back.
  if (p.counts.empty()) p.counts.resize(p.retired.size(), 0);
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
  // The cell's max rank: its new list's last, unless a retired rank above
  // it survives. The new pair evicts the retired ranks not above it.
  uint8_t top = new_ranks[n - 1];
  size_t evicted = 0;
  if (!p.retired.empty() && p.retired[j] > 0) {
    const size_t r_begin = RetiredBegin(p, j);
    const size_t r_len = p.retired[j];
    const uint8_t* const run = p.retired_ranks.data() + r_begin;
    evicted = EvictedBy(top, run, r_len);
    if (evicted < r_len) top = run[r_len - 1];
    if (evicted > 0) {
      const auto at = p.retired_ranks.begin() + static_cast<ptrdiff_t>(r_begin);
      p.retired_ranks.erase(at, at + static_cast<ptrdiff_t>(evicted));
      p.retired[j] = static_cast<uint8_t>(r_len - evicted);
    }
  }
  p.evictions += len + 1 - n + evicted;  // the pairs the new one dominated

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
  max_ranks_[cell_index] = top;
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
    const Offset last = bound > kTop ? kTop : static_cast<Offset>(bound - 1);
    // Only a part that has retired ranks can evict some.
    if (part(part_index).retired_ranks.empty()) {
      MergeCells<Offset, false>(other, part_index, last);
    } else {
      MergeCells<Offset, true>(other, part_index, last);
    }
  });
}

template <typename Offset, bool kRetired>
void VersionedHll::MergeCells(const VersionedHll& other, size_t part_index,
                              Offset last) {
  using Codec = TimeCodec<Offset>;
  constexpr size_t kWidth = sizeof(Offset);
  // One part lookup per call, not per cell: this loop is the build's hot
  // path.
  Part& p = part(part_index);
  const Part& from = other.part(part_index);
  if (from.ranks.empty()) return;  // no live pair: a collapsed part or none
  IPIN_DCHECK(!Collapsed(p));
  const uint8_t* const from_counts = from.counts.data();
  const uint8_t* const vr = from.ranks.data();
  const uint8_t* const vt = from.times.data();
  if (p.counts.empty()) {
    // The part holds retired ranks alone, so the first cell with a pair in
    // the window gains it: its counts come back only if there is one.
    size_t v_begin = 0;
    size_t c = 0;
    for (; c < from.counts.size(); v_begin += from_counts[c++]) {
      if (from_counts[c] > 0 && Codec::Load(vt, v_begin) <= last) break;
    }
    if (c == from.counts.size()) return;
    p.counts.resize(p.retired.size(), 0);
  }
  const size_t cells = p.counts.size();
  uint8_t* const counts = p.counts.data();
  const uint8_t* const ur = p.ranks.data();
  const uint8_t* const ut = p.times.data();
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

  // Up to the first cell that gains a pair, nothing changes: a retired
  // rank is evicted only by a pair a cell gains.
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
  // The retired ranks a merged cell evicts leave the part's retired runs
  // in place: the ranks between two evicting cells move down as one block.
  // `r_begin` is cell c's first retired rank before any moved.
  uint8_t* const retired = kRetired ? p.retired.data() : nullptr;
  uint8_t* const rr = kRetired ? p.retired_ranks.data() : nullptr;
  size_t r_begin = kRetired ? RetiredBegin(p, c) : 0;
  size_t r_block = r_begin;
  size_t r_dropped = 0;
  const auto move_retired = [&](size_t until) {
    if (r_dropped > 0 && until > r_block) {
      std::memmove(rr + r_block - r_dropped, rr + r_block, until - r_block);
    }
  };
  size_t kept = 0;
  size_t evicted = 0;
  for (; c < cells; ++c) {
    const size_t nv = window(c, v_begin);
    scanned += nv;
    const size_t nu = counts[c];
    const size_t r_len = kRetired ? retired[c] : 0;
    if (nv > 0) {
      copy_run(u_begin);
      size_t gained = 0;
      const size_t len = MergeCell<Offset>(
          ur + u_begin, ut + u_begin * kWidth, nu, vr + v_begin,
          vt + v_begin * kWidth, nv, sr + n, st + n * kWidth, &gained);
      n += len;
      size_t dropped = 0;
      if (kRetired && r_len > 0) {
        dropped = EvictedBy(sr[n - 1], rr + r_begin, r_len);
        if (dropped > 0) {
          move_retired(r_begin);
          r_block = r_begin + dropped;
          r_dropped += dropped;
          retired[c] = static_cast<uint8_t>(r_len - dropped);
        }
      }
      kept += gained;
      evicted += nu - (len - gained) + dropped;
      counts[c] = static_cast<uint8_t>(len);
      max_ranks[c] = dropped < r_len ? rr[r_begin + r_len - 1] : sr[n - 1];
      copy_from = u_begin + nu;
    }
    u_begin += nu;
    v_begin += from_counts[c];
    r_begin += r_len;
  }
  copy_run(old_slots);
  ResizePart<Offset>(p, rewrite_from + n);
  std::memcpy(p.ranks.data() + rewrite_from, sr, n);
  std::memcpy(p.times.data() + rewrite_from * kWidth, st, n * kWidth);
  if (r_dropped > 0) {
    move_retired(p.retired_ranks.size());
    ResizeRun(p.retired_ranks, p.retired_ranks.size() - r_dropped);
  }
  p.insert_attempts += scanned;
  p.evictions += evicted;
  p.merge_entries_scanned += scanned;
  p.cell_updates += kept;
}

void VersionedHll::Retire(size_t part_index) {
  Part& p = part(part_index);
  IPIN_DCHECK(!Collapsed(p));
  if (p.ranks.empty()) return;
  if (p.retired_ranks.empty()) {
    // The live counts and ranks are the retired runs as they stand.
    p.retired.swap(p.counts);
    p.retired_ranks.swap(p.ranks);
  } else {
    // Each cell's live ranks go in front of its retired run.
    TallyVector<uint8_t> runs;
    runs.reserve(p.ranks.size() + p.retired_ranks.size());
    size_t live = 0;
    size_t dead = 0;
    for (size_t j = 0; j < p.counts.size(); ++j) {
      runs.insert(runs.end(), p.ranks.begin() + live,
                  p.ranks.begin() + live + p.counts[j]);
      runs.insert(runs.end(), p.retired_ranks.begin() + dead,
                  p.retired_ranks.begin() + dead + p.retired[j]);
      live += p.counts[j];
      dead += p.retired[j];
      p.retired[j] = static_cast<uint8_t>(p.retired[j] + p.counts[j]);
    }
    p.retired_ranks.swap(runs);
  }
  // No live pair is left: the counts go too, until the part gains one.
  Free(p.counts);
  Free(p.ranks);
  Free(p.times);
}

void VersionedHll::Collapse(size_t part_index) {
  Part& p = part(part_index);
  if (Collapsed(p)) return;
  p.collapsed_entries = p.ranks.size() + p.retired_ranks.size();
  Free(p.counts);
  Free(p.ranks);
  Free(p.times);
  Free(p.retired);
  Free(p.retired_ranks);
}

bool VersionedHll::collapsed() const {
  for (size_t k = 0; k < num_parts(); ++k) {
    if (!Collapsed(part(k))) return false;
  }
  return true;
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
    p.retired.clear();
    p.retired_ranks.clear();
    p.collapsed_entries = 0;
    p.counts.assign(PartBegin(k + 1) - PartBegin(k), 0);
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
  if (p.counts.empty()) return begin;
  for (size_t i = 0; i < j; ++i) begin += p.counts[i];
  return begin;
}

size_t VersionedHll::RetiredBegin(const Part& p, size_t j) {
  size_t begin = 0;
  if (p.retired.empty()) return begin;
  for (size_t i = 0; i < j; ++i) begin += p.retired[i];
  return begin;
}

VersionedHll::CellList VersionedHll::cell(size_t i) const {
  const size_t k = PartOf(i);
  const Part& p = part(k);
  IPIN_CHECK(!Collapsed(p));
  const size_t j = i - PartBegin(k);
  const size_t begin = CellBegin(p, j);
  const size_t r_len = p.retired.empty() ? 0 : p.retired[j];
  return {p.ranks.data() + begin, p.times.data() + begin * encoding_.width,
          encoding_, p.counts.empty() ? size_t{0} : p.counts[j],
          {p.retired_ranks.data() + RetiredBegin(p, j), r_len}};
}

VersionedHll::PartRuns VersionedHll::part_runs(size_t k) const {
  const Part& p = part(k);
  IPIN_CHECK(!Collapsed(p));
  return {{p.counts.data(), p.counts.size()},
          {p.ranks.data(), p.ranks.size()},
          {p.times.data(), p.times.size()},
          {p.retired.data(), p.retired.size()},
          {p.retired_ranks.data(), p.retired_ranks.size()}};
}

size_t VersionedHll::NumEntries() const {
  size_t total = 0;
  for (size_t k = 0; k < num_parts(); ++k) {
    const Part& p = part(k);
    total += Collapsed(p) ? p.collapsed_entries
                          : p.ranks.size() + p.retired_ranks.size();
  }
  return total;
}

bool VersionedHll::CheckInvariants() const {
  const size_t width = encoding_.width;
  for (size_t k = 0; k < num_parts(); ++k) {
    const Part& p = part(k);
    if (Collapsed(p)) {
      if (!p.ranks.empty() || !p.times.empty() || !p.retired.empty() ||
          !p.retired_ranks.empty()) {
        return false;
      }
      continue;
    }
    const size_t cells = PartBegin(k + 1) - PartBegin(k);
    // Empty counts: retired ranks alone (a collapsed part has none).
    if ((p.counts.empty() ? p.retired_ranks.empty()
                          : p.counts.size() != cells) ||
        (!p.retired.empty() && p.retired.size() != cells) ||
        CellBegin(p, cells) != p.ranks.size() ||
        p.ranks.size() * width != p.times.size() ||
        p.ranks.capacity() * width != p.times.capacity() ||
        (p.retired.empty() ? 0 : RetiredBegin(p, cells)) !=
            p.retired_ranks.size()) {
      return false;
    }
  }
  for (size_t c = 0; c < num_cells(); ++c) {
    if (Collapsed(part(PartOf(c)))) continue;
    const CellList list = cell(c);
    if (list.num_entries() > kMaxCellEntries) return false;
    // Strictly ascending ranks through the live pairs and then the
    // retired ones, and strictly ascending live times: no pair dominates
    // another.
    uint8_t top = 0;
    for (const Entry& e : list) {
      if (e.rank <= top) return false;
      top = e.rank;
    }
    for (const uint8_t rank : list.retired()) {
      if (rank <= top) return false;
      top = rank;
    }
    for (size_t i = 1; i < list.size(); ++i) {
      if (list.time(i) <= list.time(i - 1)) return false;
    }
    if (max_ranks_[c] != top) return false;
  }
  return true;
}

size_t VersionedHll::MemoryUsageBytes() const {
  size_t bytes = max_ranks_.capacity() * sizeof(uint8_t) +
                 more_parts_.capacity() * sizeof(Part);
  for (size_t k = 0; k < num_parts(); ++k) {
    const Part& p = part(k);
    bytes += p.counts.capacity() + p.ranks.capacity() + p.times.capacity() +
             p.retired.capacity() + p.retired_ranks.capacity();
  }
  return bytes;
}

}  // namespace ipin
