#include "ipin/sketch/part_store.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "ipin/common/check.h"
#include "ipin/common/hash.h"

namespace ipin {

obs::MemoryTally& VhllMemTally() {
  static obs::MemoryTally& tally = obs::GetMemoryTally("vhll");
  return tally;
}

namespace {

// A slab compacts once its holes pass 1/kHoleShare of its extent.
constexpr size_t kHoleShare = 8;

// The capacity classes of a run: 0, 1, 2, ..., 8, 10, 12, 15, 18, 22, ...,
// each a quarter above the one before (and at least one), up to the most
// pairs a part can hold, 64 in each of 2^18 cells. A freed run leaves a
// hole its class's next run takes whole.
constexpr size_t kNumCapClasses = 80;
constexpr std::array<uint32_t, kNumCapClasses> kCapClasses = [] {
  std::array<uint32_t, kNumCapClasses> caps{};
  for (size_t k = 1; k < kNumCapClasses; ++k) {
    caps[k] = caps[k - 1] + std::max<uint32_t>(1, caps[k - 1] / 4);
  }
  return caps;
}();
static_assert(kCapClasses.back() >= kVhllMaxCellEntries << 18);

// The smallest class of at least `pairs`.
size_t CapClassOf(size_t pairs) {
  return static_cast<size_t>(
      std::lower_bound(kCapClasses.begin(), kCapClasses.end(), pairs) -
      kCapClasses.begin());
}

// The smallest mapping a slab reserves.
constexpr size_t kMinMapping = size_t{64} << 10;

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

size_t RoundUp(size_t n, size_t to) { return (n + to - 1) / to * to; }

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

// The number of the `n` ascending ranks at `retired` that a list topped by
// rank `top` evicts: those not above it. (They are later than any pair a
// list gains, so rank alone decides.)
size_t EvictedBy(uint8_t top, const uint8_t* retired, size_t n) {
  size_t evicted = 0;
  while (evicted < n && retired[evicted] <= top) ++evicted;
  return evicted;
}

// The sum of the first `j` counts.
size_t SumOf(const uint8_t* counts, size_t j) {
  size_t sum = 0;
  for (size_t i = 0; i < j; ++i) sum += counts[i];
  return sum;
}

}  // namespace

// ---- Slab ------------------------------------------------------------------

Slab::Slab(Slab&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, 0)) {}

Slab& Slab::operator=(Slab&& other) noexcept {
  Slab old(std::move(*this));
  data_ = std::exchange(other.data_, nullptr);
  size_ = std::exchange(other.size_, 0);
  mapped_ = std::exchange(other.mapped_, 0);
  return *this;
}

Slab::~Slab() {
  if (data_ == nullptr) return;
  VhllMemTally().Sub(static_cast<int64_t>(size_));
  munmap(data_, mapped_);
}

void Slab::Trim() {
  const size_t keep = RoundUp(size_, PageSize());
  if (keep < mapped_) madvise(data_ + keep, mapped_ - keep, MADV_DONTNEED);
}

void Slab::Resize(size_t bytes) {
  if (bytes > mapped_) {
    // A fresh mapping of the grown size, into whose start mremap moves the
    // pages in use: the kernel moves their page tables, not their bytes.
    // (Mapping the destination first also shows tools that watch mmap,
    // such as ThreadSanitizer, that its range is new memory.)
    const size_t want =
        std::max({RoundUp(bytes, PageSize()), 2 * mapped_, kMinMapping});
    void* const data = mmap(nullptr, want, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    IPIN_CHECK(data != MAP_FAILED);
    if (data_ != nullptr) {
      IPIN_CHECK(mremap(data_, mapped_, mapped_, MREMAP_MAYMOVE | MREMAP_FIXED,
                        data) != MAP_FAILED);
    }
    data_ = static_cast<uint8_t*>(data);
    mapped_ = want;
  }
  if (bytes > size_) {
    VhllMemTally().Add(static_cast<int64_t>(bytes - size_));
  } else {
    VhllMemTally().Sub(static_cast<int64_t>(size_ - bytes));
  }
  size_ = bytes;
}

// ---- PartStore: runs ------------------------------------------------------

PartStore::PartStore(int precision, size_t part, size_t num_parts,
                     size_t num_slots, TimeEncoding encoding, uint8_t* rows)
    : beta_(size_t{1} << precision),
      precision_(precision),
      encoding_(encoding),
      width_(encoding.width),
      rows_(rows) {
  IPIN_CHECK_GE(precision, 4);
  IPIN_CHECK_LE(precision, 18);
  IPIN_CHECK(encoding_.valid());
  IPIN_CHECK_GE(num_parts, 1u);
  IPIN_CHECK_LE(num_parts, beta_);
  IPIN_CHECK_LT(part, num_parts);
  begin_ = (part * beta_ + num_parts - 1) / num_parts;
  cells_ = ((part + 1) * beta_ + num_parts - 1) / num_parts - begin_;
  records_.resize(num_slots);
}

uint64_t PartStore::Allocate(RunSlab& slab, size_t cls, size_t bytes) {
  if (cls < slab.free.size() && !slab.free[cls].empty()) {
    const uint64_t at = slab.free[cls].back();
    slab.free[cls].pop_back();
    slab.holes -= bytes;
    return at;
  }
  const uint64_t at = slab.slab.size();
  slab.slab.Resize(at + bytes);
  return at;
}

void PartStore::Release(RunSlab& slab, size_t cls, uint64_t at,
                        size_t bytes) {
  if (at + bytes == slab.slab.size()) {
    slab.slab.Resize(at);
    return;
  }
  slab.holes += bytes;
  if (slab.free.size() <= cls) slab.free.resize(cls + 1);
  slab.free[cls].push_back(at);
}

void PartStore::MaybeCompact(const RunRef& ref) {
  RunSlab& slab = ref.slab;
  if (slab.holes * kHoleShare <= slab.slab.size()) return;
  const bool live = &slab == &live_;
  // Every run of the slab, in offset order, slides down to close the holes.
  std::vector<std::pair<uint64_t, uint32_t>> order;
  for (size_t s = 0; s < records_.size(); ++s) {
    const Run& run = live ? records_[s].live : records_[s].retired;
    if (run.at != kNoRun) order.emplace_back(run.at, static_cast<uint32_t>(s));
  }
  std::sort(order.begin(), order.end());
  uint8_t* const base = slab.slab.data();
  uint64_t to = 0;
  for (const auto& [at, s] : order) {
    Run& run = live ? records_[s].live : records_[s].retired;
    const size_t bytes = RunBytes(ref.time_width, run.cap);
    if (at != to) std::memmove(base + to, base + at, bytes);
    run.at = to;
    to += bytes;
  }
  slab.slab.Resize(to);
  slab.slab.Trim();
  slab.holes = 0;
  TallyVector<TallyVector<uint64_t>>().swap(slab.free);
  ++compactions_;
}

void PartStore::Resize(const RunRef& ref, size_t pairs) {
  IPIN_DCHECK(pairs <= kCapClasses.back());
  RunSlab& slab = ref.slab;
  Run& run = ref.run;
  if (run.at == kNoRun) {
    ref.cls = CapClassOf(pairs);
    run.cap = kCapClasses[ref.cls];
    run.at = Allocate(slab, ref.cls, RunBytes(ref.time_width, run.cap));
    std::memset(slab.slab.data() + run.at, 0, cells_);
    run.pairs = static_cast<uint32_t>(pairs);
    return;
  }
  if (pairs <= run.cap) {
    run.pairs = static_cast<uint32_t>(pairs);
    return;
  }
  // Grow to the class that holds `pairs`, and by a class (a quarter) at
  // least: not by doubling, since the runs are most of a build's memory,
  // and doubling leaves up to half of every run unused.
  const size_t cls = std::max<size_t>(ref.cls + 1, CapClassOf(pairs));
  const uint32_t cap = kCapClasses[cls];
  const size_t old_bytes = RunBytes(ref.time_width, run.cap);
  const size_t keep = run.pairs;
  if (run.at + old_bytes == slab.slab.size()) {
    // The slab's last run grows in place; its times move up.
    slab.slab.Resize(run.at + RunBytes(ref.time_width, cap));
    uint8_t* const data = slab.slab.data() + run.at;
    std::memmove(data + cells_ + cap, data + cells_ + run.cap,
                 keep * ref.time_width);
  } else {
    const uint64_t at = Allocate(slab, cls, RunBytes(ref.time_width, cap));
    const uint8_t* const from = slab.slab.data() + run.at;
    uint8_t* const to = slab.slab.data() + at;
    std::memcpy(to, from, cells_ + keep);
    std::memcpy(to + cells_ + cap, from + cells_ + run.cap,
                keep * ref.time_width);
    Release(slab, ref.cls, run.at, old_bytes);
    run.at = at;
    ++relocations_;
  }
  run.cap = cap;
  run.pairs = static_cast<uint32_t>(pairs);
  ref.cls = static_cast<uint8_t>(cls);
  MaybeCompact(ref);
}

void PartStore::Free(const RunRef& ref) {
  Release(ref.slab, ref.cls, ref.run.at, RunBytes(ref.time_width, ref.run.cap));
  ref.run = Run{};
  ref.cls = 0;
  MaybeCompact(ref);
}

// ---- PartStore: cell operations -------------------------------------------

void PartStore::Open(size_t s) {
  Record& r = records_[s];
  IPIN_DCHECK(r.form == Form::kAbsent);
  r.form = Form::kLive;
  Resize(live_ref(r), 0);
}

bool PartStore::AddHash(size_t s, uint64_t hash, Timestamp t) {
  const size_t cell = static_cast<size_t>(hash & (beta_ - 1));
  if (cell - begin_ >= cells_) return false;
  const int rank =
      std::min(RhoLsb(hash >> precision_), VhllMaxRank(precision_));
  return AddEntry(s, cell, static_cast<uint8_t>(rank), t);
}

bool PartStore::AddEntry(size_t s, size_t cell, uint8_t rank, Timestamp t) {
  IPIN_DCHECK(cell - begin_ < cells_);
  IPIN_CHECK(encoding_.Holds(t));
  ++tallies_.insert_attempts;
  bool kept = false;
  WithTimeCodec(width_, [&](auto codec) {
    kept = Insert(s, cell - begin_, rank, codec.Encode(encoding_.base, t));
  });
  return kept;
}

// ApproxAdd of (rank, t) into cell j of slot s: AddEntry without the
// lookup and the attempt tally. Returns true if the pair was kept.
template <typename Offset>
bool PartStore::Insert(size_t s, size_t j, uint8_t rank, Offset t) {
  using Codec = TimeCodec<Offset>;
  constexpr size_t kWidth = sizeof(Offset);
  IPIN_DCHECK(rank > 0);
  Record& r = records_[s];
  IPIN_DCHECK(r.form == Form::kLive);
  // A part with retired ranks alone keeps the pair: its counts come back.
  if (r.live.at == kNoRun) Resize(live_ref(r), 0);
  const uint8_t* run = live_run(r);
  const size_t begin = SumOf(run, j);
  const size_t len = run[j];

  // The cell's new list: the skyline of its pairs and the new one.
  uint8_t new_ranks[kVhllMaxCellEntries + 1];
  uint8_t new_times[(kVhllMaxCellEntries + 1) * kWidth];
  uint8_t t_bytes[kWidth];
  Codec::Store(t_bytes, 0, t);
  size_t kept = 0;
  const uint8_t* const ranks = run + cells_;
  const size_t n = MergeCell<Offset>(
      ranks + begin, ranks + r.live.cap + begin * kWidth, len, &rank, t_bytes,
      1, new_ranks, new_times, &kept);
  if (kept == 0) return false;  // dominated by an earlier (or equal) pair
  // The cell's max rank: its new list's last, unless a retired rank above
  // it survives. The new pair evicts the retired ranks not above it.
  uint8_t top = new_ranks[n - 1];
  size_t evicted = 0;
  if (r.retired.pairs > 0) {
    uint8_t* const retired = retired_run(r);
    const size_t r_len = retired[j];
    if (r_len > 0) {
      uint8_t* const rr = retired + cells_;
      const size_t r_begin = SumOf(retired, j);
      evicted = EvictedBy(top, rr + r_begin, r_len);
      if (evicted < r_len) top = rr[r_begin + r_len - 1];
      if (evicted > 0) {
        std::memmove(rr + r_begin, rr + r_begin + evicted,
                     r.retired.pairs - r_begin - evicted);
        retired[j] = static_cast<uint8_t>(r_len - evicted);
        r.retired.pairs -= static_cast<uint32_t>(evicted);
      }
    }
  }
  // The pairs the new one dominated.
  tallies_.evictions += len + 1 - n + evicted;

  // Splice it in: the part's later pairs move by n - len slots (n - len is
  // at most 1).
  const size_t old_pairs = r.live.pairs;
  const size_t tail = old_pairs - (begin + len);
  if (n > len) Resize(live_ref(r), old_pairs + 1);
  uint8_t* const counts = live_run(r);
  uint8_t* const ur = counts + cells_;
  uint8_t* const ut = ur + r.live.cap;
  std::memmove(ur + begin + n, ur + begin + len, tail);
  std::memmove(ut + (begin + n) * kWidth, ut + (begin + len) * kWidth,
               tail * kWidth);
  if (n < len) Resize(live_ref(r), old_pairs - (len - n));
  std::memcpy(ur + begin, new_ranks, n);
  std::memcpy(ut + begin * kWidth, new_times, n * kWidth);
  counts[j] = static_cast<uint8_t>(n);
  row(s)[j] = top;
  if (r.retired.at != kNoRun && r.retired.pairs == 0) Free(retired_ref(r));
  return true;
}

void PartStore::MergeWindow(size_t s, const PartStore& from, size_t v,
                            Timestamp merge_time, Duration window) {
  IPIN_CHECK_EQ(beta_, from.beta_);
  IPIN_CHECK_EQ(begin_, from.begin_);
  IPIN_CHECK_EQ(cells_, from.cells_);
  IPIN_CHECK(encoding_ == from.encoding_);
  // A sketch holds every pair it could gain from itself.
  if (&from == this && v == s) return;
  // Entries with t < merge_time + window are kept: offsets below
  // merge_time + window - base. That bound is formed in 128 bits, where it
  // cannot overflow; at or below zero nothing is kept, and above the
  // largest offset everything is.
  const __int128 bound =
      static_cast<__int128>(merge_time) - encoding_.base + window;
  if (bound <= 0) return;
  WithTimeCodec(width_, [&](auto codec) {
    using Offset = decltype(codec.Encode(0, 0));
    constexpr Offset kTop = std::numeric_limits<Offset>::max();
    const Offset last = bound > kTop ? kTop : static_cast<Offset>(bound - 1);
    // Only a part that has retired ranks can evict some.
    if (records_[s].retired.pairs == 0) {
      MergeCells<Offset, false>(s, from, v, last);
    } else {
      MergeCells<Offset, true>(s, from, v, last);
    }
  });
}

// Folds in the live pairs of slot v of `from` whose offset is at most
// `last`. kRetired: slot s has retired ranks, which the pairs it gains may
// evict.
template <typename Offset, bool kRetired>
void PartStore::MergeCells(size_t s, const PartStore& from, size_t v,
                           Offset last) {
  using Codec = TimeCodec<Offset>;
  constexpr size_t kWidth = sizeof(Offset);
  const Record& fr = from.records_[v];
  // No live pair: a collapsed or absent sketch, or one that retired.
  if (fr.form != Form::kLive || fr.live.pairs == 0) return;
  Record& r = records_[s];
  IPIN_DCHECK(r.form == Form::kLive);
  const size_t cells = cells_;
  if (r.live.at == kNoRun) {
    // The part holds retired ranks alone, so the first cell with a pair in
    // the window gains it: its counts come back only if there is one.
    const uint8_t* const fc = from.live_run(fr);
    const uint8_t* const ft = fc + cells + fr.live.cap;
    size_t v_begin = 0;
    size_t c = 0;
    for (; c < cells; v_begin += fc[c++]) {
      if (fc[c] > 0 && Codec::Load(ft, v_begin) <= last) break;
    }
    if (c == cells) return;
    // May compact this store: from's runs are read below.
    Resize(live_ref(r), 0);
  }
  const uint8_t* const from_counts = from.live_run(fr);
  const uint8_t* const vr = from_counts + cells;
  const uint8_t* const vt = vr + fr.live.cap;
  uint8_t* const counts = live_run(r);
  const uint8_t* const ur = counts + cells;
  const uint8_t* const ut = ur + r.live.cap;
  uint8_t* const max_ranks = row(s);
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
    tallies_.insert_attempts += scanned;
    tallies_.merge_entries_scanned += scanned;
    return;
  }

  // From cell c on, the part's pairs are rewritten into the scratch buffer:
  // merged cells, and runs of cells with nothing in the window copied
  // whole. `copy_from` is the first slot of the run not yet copied.
  const size_t rewrite_from = u_begin;
  const size_t old_pairs = r.live.pairs;
  const size_t most = old_pairs - rewrite_from + fr.live.pairs - v_begin;
  MergeScratch& scratch = t_merge_scratch;
  if (scratch.ranks.size() < most) scratch.ranks.resize(most);
  if (scratch.times.size() < most * kWidth) scratch.times.resize(most * kWidth);
  uint8_t* const sr = scratch.ranks.data();
  uint8_t* const st = scratch.times.data();
  size_t n = 0;
  size_t copy_from = rewrite_from;
  const auto copy_run = [&](size_t until) {
    if (until == copy_from) return;
    std::memcpy(sr + n, ur + copy_from, until - copy_from);
    std::memcpy(st + n * kWidth, ut + copy_from * kWidth,
                (until - copy_from) * kWidth);
    n += until - copy_from;
  };
  // The retired ranks a merged cell evicts leave the part's retired runs
  // in place: the ranks between two evicting cells move down as one block.
  // `r_begin` is cell c's first retired rank before any moved.
  uint8_t* const retired = kRetired ? retired_run(r) : nullptr;
  uint8_t* const rr = kRetired ? retired + cells : nullptr;
  size_t r_begin = kRetired ? SumOf(retired, c) : 0;
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
  copy_run(old_pairs);
  // The retired runs are settled before the live run may move: a move can
  // compact the store, and `from` may be this store.
  if (r_dropped > 0) {
    move_retired(r.retired.pairs);
    r.retired.pairs -= static_cast<uint32_t>(r_dropped);
  }
  Resize(live_ref(r), rewrite_from + n);
  uint8_t* const to = live_run(r) + cells;
  std::memcpy(to + rewrite_from, sr, n);
  std::memcpy(to + r.live.cap + rewrite_from * kWidth, st, n * kWidth);
  tallies_.insert_attempts += scanned;
  tallies_.evictions += evicted;
  tallies_.merge_entries_scanned += scanned;
  tallies_.cell_updates += kept;
  if (kRetired && r.retired.pairs == 0) Free(retired_ref(r));
}

void PartStore::Retire(size_t s) {
  Record& r = records_[s];
  IPIN_DCHECK(r.form == Form::kLive);
  if (r.live.pairs == 0) return;
  // Each cell's retired run becomes its live ranks and then its retired
  // ones. Filled from the back, no rank is overwritten before it is read:
  // cell j's ranks move up by the live pairs of cells 0..j.
  size_t live_end = r.live.pairs;
  size_t retired_end = r.retired.pairs;
  Resize(retired_ref(r), retired_end + live_end);
  uint8_t* const retired = retired_run(r);
  uint8_t* const rr = retired + cells_;
  const uint8_t* const counts = live_run(r);
  const uint8_t* const ranks = counts + cells_;
  size_t to = r.retired.pairs;
  for (size_t j = cells_; j-- > 0;) {
    const size_t dead = retired[j];
    to -= dead;
    retired_end -= dead;
    std::memmove(rr + to, rr + retired_end, dead);
    to -= counts[j];
    live_end -= counts[j];
    std::memcpy(rr + to, ranks + live_end, counts[j]);
    retired[j] = static_cast<uint8_t>(dead + counts[j]);
  }
  // No live pair is left: the counts go too, until the part gains one.
  Free(live_ref(r));
}

void PartStore::Collapse(size_t s) {
  Record& r = records_[s];
  IPIN_DCHECK(r.form != Form::kAbsent);
  if (r.form == Form::kCollapsed) return;
  r.collapsed_entries = r.live.pairs + r.retired.pairs;
  if (r.live.at != kNoRun) Free(live_ref(r));
  if (r.retired.at != kNoRun) Free(retired_ref(r));
  r.form = Form::kCollapsed;
}

void PartStore::Clear(size_t s) {
  Record& r = records_[s];
  if (r.live.at != kNoRun) Free(live_ref(r));
  if (r.retired.at != kNoRun) Free(retired_ref(r));
  r = Record{};
  std::memset(row(s), 0, cells_);
  Open(s);
}

void PartStore::Restore(size_t s, std::span<const uint8_t> counts,
                        std::span<const uint8_t> ranks,
                        std::span<const uint8_t> time_bytes,
                        std::span<const uint8_t> retired,
                        std::span<const uint8_t> retired_ranks) {
  Record& r = records_[s];
  IPIN_DCHECK(r.form == Form::kAbsent);
  IPIN_DCHECK(counts.size() == cells_ && retired.size() == cells_);
  IPIN_DCHECK(time_bytes.size() == ranks.size() * width_);
  r.form = Form::kLive;
  // Retired ranks alone leave no live counts, as Retire does.
  if (!ranks.empty() || retired_ranks.empty()) {
    Resize(live_ref(r), ranks.size());
    uint8_t* const run = live_run(r);
    std::memcpy(run, counts.data(), cells_);
    if (!ranks.empty()) {
      std::memcpy(run + cells_, ranks.data(), ranks.size());
      std::memcpy(run + cells_ + r.live.cap, time_bytes.data(),
                  time_bytes.size());
    }
  }
  if (!retired_ranks.empty()) {
    Resize(retired_ref(r), retired_ranks.size());
    uint8_t* const run = retired_run(r);
    std::memcpy(run, retired.data(), cells_);
    std::memcpy(run + cells_, retired_ranks.data(), retired_ranks.size());
  }
  // Each cell's max rank: its last retired rank, else its last live one.
  uint8_t* const max_ranks = row(s);
  size_t live = 0;
  size_t dead = 0;
  for (size_t j = 0; j < cells_; ++j) {
    live += counts[j];
    dead += retired[j];
    max_ranks[j] = retired[j] > 0 ? retired_ranks[dead - 1]
                   : counts[j] > 0 ? ranks[live - 1]
                                   : 0;
  }
}

void PartStore::RestoreCollapsed(size_t s, size_t entries) {
  Record& r = records_[s];
  IPIN_DCHECK(r.form == Form::kAbsent);
  IPIN_DCHECK(entries <= std::numeric_limits<uint32_t>::max());
  r.form = Form::kCollapsed;
  r.collapsed_entries = static_cast<uint32_t>(entries);
}

// ---- PartStore: reads -----------------------------------------------------

PartStore::Runs PartStore::runs(size_t s) const {
  const Record& r = records_[s];
  IPIN_CHECK(r.form == Form::kLive);
  Runs out;
  if (r.live.at != kNoRun) {
    const uint8_t* const run = live_run(r);
    out.counts = {run, cells_};
    out.ranks = {run + cells_, r.live.pairs};
    out.time_bytes = {run + cells_ + r.live.cap, r.live.pairs * width_};
  }
  if (r.retired.at != kNoRun) {
    const uint8_t* const run = retired_run(r);
    out.retired = {run, cells_};
    out.retired_ranks = {run + cells_, r.retired.pairs};
  }
  return out;
}

size_t PartStore::NumEntries(size_t s) const {
  const Record& r = records_[s];
  return r.form == Form::kCollapsed ? r.collapsed_entries
                                    : r.live.pairs + r.retired.pairs;
}

bool PartStore::CheckInvariants() const {
  // The slabs: runs and listed holes inside, disjoint, the listed holes
  // at most the holes, and the holes exactly the rest.
  for (const bool live : {true, false}) {
    const RunSlab& slab = live ? live_ : retired_;
    const size_t time_width = live ? width_ : 0;
    std::vector<std::pair<uint64_t, size_t>> spans;
    for (const Record& r : records_) {
      const Run& run = live ? r.live : r.retired;
      if (run.at == kNoRun) continue;
      if (kCapClasses[live ? r.live_class : r.retired_class] != run.cap) {
        return false;
      }
      spans.emplace_back(run.at, RunBytes(time_width, run.cap));
    }
    const size_t used = std::accumulate(
        spans.begin(), spans.end(), size_t{0},
        [](size_t sum, const auto& span) { return sum + span.second; });
    size_t listed = 0;
    for (size_t k = 0; k < slab.free.size(); ++k) {
      for (const uint64_t at : slab.free[k]) {
        spans.emplace_back(at, RunBytes(time_width, kCapClasses[k]));
        listed += spans.back().second;
      }
    }
    std::sort(spans.begin(), spans.end());
    uint64_t end = 0;
    for (const auto& [at, bytes] : spans) {
      if (at < end) return false;
      end = at + bytes;
    }
    if (end > slab.slab.size() || listed > slab.holes ||
        used + slab.holes != slab.slab.size()) {
      return false;
    }
  }
  for (size_t s = 0; s < records_.size(); ++s) {
    const Record& r = records_[s];
    if (r.form != Form::kLive) {
      if (r.live.at != kNoRun || r.retired.at != kNoRun) return false;
      continue;
    }
    // A live part has a run, and a retired run holds a pair.
    if ((r.live.at == kNoRun && r.retired.at == kNoRun) ||
        r.live.pairs > r.live.cap || r.retired.pairs > r.retired.cap ||
        (r.retired.at != kNoRun && r.retired.pairs == 0)) {
      return false;
    }
    const Runs runs = this->runs(s);
    if ((runs.counts.empty() ? 0 : SumOf(runs.counts.data(), cells_)) !=
            runs.ranks.size() ||
        (runs.retired.empty() ? 0 : SumOf(runs.retired.data(), cells_)) !=
            runs.retired_ranks.size()) {
      return false;
    }
    size_t live = 0;
    size_t dead = 0;
    for (size_t j = 0; j < cells_; ++j) {
      const size_t n = runs.counts.empty() ? 0 : runs.counts[j];
      const size_t d = runs.retired.empty() ? 0 : runs.retired[j];
      if (n + d > kVhllMaxCellEntries) return false;
      // Strictly ascending ranks through the live pairs and then the
      // retired ones, and strictly ascending live times: no pair
      // dominates another.
      uint8_t top = 0;
      for (size_t i = live; i < live + n; ++i) {
        if (runs.ranks[i] <= top) return false;
        top = runs.ranks[i];
        if (i > live && encoding_.Decode(runs.time_bytes.data(), i) <=
                            encoding_.Decode(runs.time_bytes.data(), i - 1)) {
          return false;
        }
      }
      for (size_t i = dead; i < dead + d; ++i) {
        if (runs.retired_ranks[i] <= top) return false;
        top = runs.retired_ranks[i];
      }
      if (row(s)[j] != top) return false;
      live += n;
      dead += d;
    }
  }
  return true;
}

size_t PartStore::MemoryUsageBytes() const {
  size_t bytes = live_.slab.size() + retired_.slab.size() +
                 records_.capacity() * sizeof(Record);
  for (const RunSlab* slab : {&live_, &retired_}) {
    bytes += slab->free.capacity() * sizeof(TallyVector<uint64_t>);
    for (const TallyVector<uint64_t>& holes : slab->free) {
      bytes += holes.capacity() * sizeof(uint64_t);
    }
  }
  return bytes;
}

}  // namespace ipin
