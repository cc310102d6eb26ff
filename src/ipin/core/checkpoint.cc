#include "ipin/core/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "ipin/common/check.h"
#include "ipin/common/failpoint.h"
#include "ipin/common/hash.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"
#include "ipin/common/thread_pool.h"
#include "ipin/common/timer.h"
#include "ipin/obs/ledger.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace.h"
#include "ipin/sketch/sketch_arena.h"

namespace ipin {

// Friend of IrsApprox: the only code that reads/reinstates its private
// scan state, keeping the checkpoint format out of the algorithm class.
class CheckpointAccess {
 public:
  // The scan tallies travel in the checkpoint's meta frame so a resumed
  // build publishes the same irs.* scan metrics as an uninterrupted one.
  // (The worker stores' lifetime tallies are NOT checkpointed; see
  // DESIGN.md §8.)
  static void GetTallies(const IrsApprox& irs, uint64_t* edges_scanned,
                         uint64_t* merge_calls) {
    *edges_scanned = irs.build_->edges_scanned;
    *merge_calls = irs.build_->merge_calls;
  }
  static void SetTallies(IrsApprox* irs, uint64_t edges_scanned,
                         uint64_t merge_calls) {
    irs->build_->edges_scanned = edges_scanned;
    irs->build_->merge_calls = merge_calls;
  }
  // The build's worker stores, store k holding part k of every sketch.
  static std::span<PartStore> Stores(IrsApprox* irs) {
    return irs->build_->stores;
  }
  // Node u's arena row (u must send), where a restored collapsed sketch's
  // row goes; a live one's stores write theirs.
  static uint8_t* Row(IrsApprox* irs, NodeId u) {
    SketchArena& arena = irs->arena_;
    return arena.build_rows() + arena.slot(u) * arena.num_cells();
  }
  // The form each node's sketch has once the scan has scanned the log's
  // last `done` edges; every checkpoint the scan writes holds exactly these.
  static std::vector<PartStore::Form> ScannedForms(
      const IrsApprox& irs, const InteractionGraph& graph, size_t done) {
    return irs.ScannedForms(graph, done);
  }
  // An empty build over `graph`, its sketches split into one part per
  // global thread and storing times as a plain build over the same graph
  // does.
  static IrsApprox MakeBuild(const InteractionGraph& graph, Duration window,
                             const IrsApproxOptions& options) {
    return IrsApprox(graph, window, options, GlobalThreads());
  }
  static void Scan(IrsApprox* irs, const InteractionGraph& graph, size_t done,
                   size_t epoch_edges,
                   const std::function<void(size_t)>& after_epoch) {
    irs->Scan(graph, done, epoch_edges, after_epoch);
  }
  // Ends the build: each arena row, written in place, gets its entry count.
  static void Finish(IrsApprox* irs) { irs->Finish(); }
};

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kCheckpointFileType = 0x504b4349;  // "ICKP" little-endian
// Version 4: chunks store each node absent, live (its cells' runs) or
// collapsed (its row), and the meta frame holds only what a resume reads.
// Files of other versions fail verification and are skipped.
constexpr uint32_t kCheckpointVersion = 4;
constexpr uint32_t kChunkSize = 256;  // nodes per frame
constexpr char kPrefix[] = "ckpt_approx_";
constexpr char kSuffix[] = ".ipinckpt";

// Everything a checkpoint must agree on with the running build before it is
// allowed to resume into it.
struct Fingerprint {
  int64_t window = 0;
  uint64_t num_nodes = 0;
  uint64_t num_interactions = 0;
  uint64_t graph_hash = 0;
  uint8_t precision = 0;
  uint64_t salt = 0;

  bool Matches(const Fingerprint& other) const {
    return window == other.window && num_nodes == other.num_nodes &&
           num_interactions == other.num_interactions &&
           graph_hash == other.graph_hash && precision == other.precision &&
           salt == other.salt;
  }
};

// Scan position and tallies carried in the meta frame beside the
// fingerprint, and the encoding of the chunks' times: the build's own,
// which a resuming build must share.
struct MetaFrame {
  Fingerprint fp;
  uint64_t edges_processed = 0;
  uint32_t chunk_size = 0;
  uint64_t edges_scanned = 0;
  uint64_t merge_calls = 0;
  TimeEncoding times;
};

uint64_t GraphHash(const InteractionGraph& graph) {
  static_assert(std::has_unique_object_representations_v<Interaction>,
                "Interaction must be padding-free to hash its bytes");
  const auto& edges = graph.interactions();
  const uint64_t h =
      HashBytes(edges.data(), edges.size() * sizeof(Interaction),
                /*seed=*/0x49504e43u);
  return HashCombine(h, Hash64(graph.num_nodes()));
}

void SerializeMeta(const MetaFrame& meta, std::string* out) {
  AppendRaw<int64_t>(out, meta.fp.window);
  AppendRaw<uint64_t>(out, meta.fp.num_nodes);
  AppendRaw<uint64_t>(out, meta.fp.num_interactions);
  AppendRaw<uint64_t>(out, meta.fp.graph_hash);
  AppendRaw<uint8_t>(out, meta.fp.precision);
  AppendRaw<uint64_t>(out, meta.fp.salt);
  AppendRaw<uint64_t>(out, meta.edges_processed);
  AppendRaw<uint32_t>(out, meta.chunk_size);
  AppendRaw<uint64_t>(out, meta.edges_scanned);
  AppendRaw<uint64_t>(out, meta.merge_calls);
  AppendRaw<int64_t>(out, meta.times.base);
  AppendRaw<uint8_t>(out, meta.times.width);
}

bool ParseMeta(std::string_view payload, MetaFrame* meta) {
  size_t offset = 0;
  if (!ReadRaw(payload, &offset, &meta->fp.window) ||
      !ReadRaw(payload, &offset, &meta->fp.num_nodes) ||
      !ReadRaw(payload, &offset, &meta->fp.num_interactions) ||
      !ReadRaw(payload, &offset, &meta->fp.graph_hash) ||
      !ReadRaw(payload, &offset, &meta->fp.precision) ||
      !ReadRaw(payload, &offset, &meta->fp.salt) ||
      !ReadRaw(payload, &offset, &meta->edges_processed) ||
      !ReadRaw(payload, &offset, &meta->chunk_size) ||
      !ReadRaw(payload, &offset, &meta->edges_scanned) ||
      !ReadRaw(payload, &offset, &meta->merge_calls) ||
      !ReadRaw(payload, &offset, &meta->times.base) ||
      !ReadRaw(payload, &offset, &meta->times.width)) {
    return false;
  }
  return offset == payload.size() && meta->chunk_size >= 1;
}

std::string CheckpointPath(const std::string& dir, uint64_t edges) {
  return StrFormat("%s/%s%020llu%s", dir.c_str(), kPrefix,
                   static_cast<unsigned long long>(edges), kSuffix);
}

// Checkpoint files in `dir`, newest (most edges) first.
std::vector<std::pair<uint64_t, std::string>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> found;
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!StartsWith(name, kPrefix) || name.size() <= kPrefixLen + kSuffixLen ||
        name.substr(name.size() - kSuffixLen) != kSuffix) {
      continue;
    }
    const auto edges = ParseInt64(
        name.substr(kPrefixLen, name.size() - kPrefixLen - kSuffixLen));
    if (!edges.has_value() || *edges < 0) continue;
    found.emplace_back(static_cast<uint64_t>(*edges), entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

void PruneCheckpoints(const std::string& dir, size_t keep) {
  const auto files = ListCheckpoints(dir);
  for (size_t i = keep; i < files.size(); ++i) {
    std::error_code ec;
    fs::remove(files[i].second, ec);
  }
}

// ---- sketch chunks ---------------------------------------------------------

// Each chunk frame holds the build's sketches of nodes
// [first_node, first_node + count):
//   u64 first_node, u32 count, u64 ranks, u64 pairs, u8 form[count],
//   then a block per present node in node order:
//     live (form 1):      u8 counts[beta], u8 retired[beta]
//     collapsed (form 2): u8 row[beta], u32 entries
//   u8 ranks[ranks], time offsets[pairs]
// — form 0 is an absent node. A live node's `counts` are its cells' live
// pairs and `retired` their retired ones. Its ranks are its live pairs'
// ranks in cell order, then its retired ranks in cell order, and its time
// offsets its live pairs' times, in node order. The encoding is the one
// the build's sketches store their times in (IrsApprox::time_encoding),
// given by the meta frame.

constexpr uint8_t kAbsent = 0;
constexpr uint8_t kLive = 1;
constexpr uint8_t kCollapsed = 2;
// A node's form byte is its worker stores' form.
static_assert(static_cast<uint8_t>(PartStore::Form::kAbsent) == kAbsent &&
              static_cast<uint8_t>(PartStore::Form::kLive) == kLive &&
              static_cast<uint8_t>(PartStore::Form::kCollapsed) == kCollapsed);

// A chunk's fixed prefix: u64 first_node, u32 count, u64 ranks, u64 pairs.
constexpr size_t kChunkPrefixBytes =
    sizeof(uint64_t) + sizeof(uint32_t) + 2 * sizeof(uint64_t);

// Writes the chunk straight from the worker stores, gathering each node's
// runs in part order. A store holds a run of cells in cell order as the
// chunk lays them out — its counts, then its ranks and time offsets,
// already in the chunk's encoding — so each live part is one copy of each
// of its runs. A collapsed node's row is its arena row.
size_t SerializeChunk(const IrsApprox& irs, const MetaFrame& meta,
                      uint64_t first, uint32_t count, std::string* out) {
  const size_t width = meta.times.width;
  const size_t beta = size_t{1} << meta.fp.precision;
  const SketchArena& arena = *irs.arena();
  const std::span<const PartStore> stores = irs.build_stores();
  // Every store holds a node's sketch in the same form.
  const auto form = [&](NodeId u) {
    return arena.has_node(u) ? stores[0].form(arena.slot(u))
                             : PartStore::Form::kAbsent;
  };
  size_t blocks = 0;
  uint64_t ranks = 0;
  uint64_t pairs = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(first + i);
    if (form(u) == PartStore::Form::kCollapsed) {
      blocks += beta + sizeof(uint32_t);
    } else if (form(u) == PartStore::Form::kLive) {
      blocks += 2 * beta;
      for (const PartStore& store : stores) {
        const PartStore::Runs runs = store.runs(arena.slot(u));
        ranks += runs.ranks.size() + runs.retired_ranks.size();
        pairs += runs.ranks.size();
      }
    }
  }
  const size_t size =
      kChunkPrefixBytes + count + blocks + ranks + pairs * width;
  if (out->size() < size) out->resize(size);
  auto* bytes = reinterpret_cast<uint8_t*>(out->data());
  std::memcpy(bytes, &first, sizeof(first));
  std::memcpy(bytes + 8, &count, sizeof(count));
  std::memcpy(bytes + 12, &ranks, sizeof(ranks));
  std::memcpy(bytes + 20, &pairs, sizeof(pairs));
  uint8_t* const forms = bytes + kChunkPrefixBytes;
  uint8_t* block = forms + count;
  uint8_t* rank_out = block + blocks;
  uint8_t* time_out = rank_out + ranks;
  const auto put = [](uint8_t** to, std::span<const uint8_t> run) {
    if (run.empty()) return;
    std::memcpy(*to, run.data(), run.size());
    *to += run.size();
  };
  for (uint32_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(first + i);
    forms[i] = static_cast<uint8_t>(form(u));
    if (forms[i] == kAbsent) continue;
    const size_t slot = arena.slot(u);
    if (forms[i] == kCollapsed) {
      put(&block, arena.rank_row(u));
      size_t entries = 0;
      for (const PartStore& store : stores) entries += store.NumEntries(slot);
      const auto entries32 = static_cast<uint32_t>(entries);
      std::memcpy(block, &entries32, sizeof(entries32));
      block += sizeof(entries32);
      continue;
    }
    uint8_t* retired = block + beta;
    for (const PartStore& store : stores) {
      // A part that holds retired ranks alone has no live counts, and one
      // that holds no retired rank no retired counts: both are zeros.
      const PartStore::Runs runs = store.runs(slot);
      if (runs.counts.empty()) {
        std::memset(block, 0, store.num_cells());
        block += store.num_cells();
      }
      if (runs.retired.empty()) {
        std::memset(retired, 0, store.num_cells());
        retired += store.num_cells();
      }
      put(&block, runs.counts);
      put(&retired, runs.retired);
      put(&rank_out, runs.ranks);
      put(&time_out, runs.time_bytes);
    }
    for (const PartStore& store : stores) {
      put(&rank_out, store.runs(slot).retired_ranks);
    }
    block = retired;
  }
  return size;
}

// Measures the chunk — it must cover exactly [expected_first,
// expected_first + expected_count), every form be the one the scan left
// its node in (`forms`, ScannedForms), and the payload be exactly 28 +
// count + its nodes' blocks + ranks + width x pairs bytes — then checks
// each present node, and only once every node has passed places them in
// the worker stores for the scan to keep growing (a chunk records no parts,
// so any part count resumes any other). A live node's cells hold at most
// 64 pairs each, together exactly its share of the chunk's ranks and
// pairs; each cell's ranks, live then retired, are one strictly ascending
// run in [1, MaxRank] and its live times strictly ascend. A collapsed
// node's row and entry count must be one a sketch can hold (RowIsValid).
// The meta frame's encoding is the build's (LoadCheckpoint checks), so
// the time offsets go into the stores as they are. Nothing the chunk holds
// can fail a check in the stores or the arena: a frame that breaks a rule
// is refused before anything is written.
bool RestoreChunk(std::string_view payload, NodeId expected_first,
                  uint32_t expected_count, const MetaFrame& meta,
                  std::span<const PartStore::Form> scanned, IrsApprox* irs) {
  const int precision = meta.fp.precision;
  const size_t beta = size_t{1} << precision;
  const TimeEncoding& times = meta.times;
  size_t offset = 0;
  uint64_t first = 0;
  uint32_t count = 0;
  uint64_t ranks = 0;
  uint64_t pairs = 0;
  if (!ReadRaw(payload, &offset, &first) ||
      !ReadRaw(payload, &offset, &count) ||
      !ReadRaw(payload, &offset, &ranks) ||
      !ReadRaw(payload, &offset, &pairs) || first != expected_first ||
      count != expected_count || payload.size() - offset < count) {
    return false;
  }
  const auto* bytes = reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* forms = bytes + offset;
  size_t blocks = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (forms[i] != static_cast<uint8_t>(scanned[expected_first + i])) {
      return false;
    }
    blocks += forms[i] == kLive        ? 2 * beta
              : forms[i] == kCollapsed ? beta + sizeof(uint32_t)
                                       : 0;
  }
  offset += count;
  const size_t rest = payload.size() - offset;
  if (blocks > rest || ranks > rest - blocks ||
      pairs > (rest - blocks - ranks) / times.width ||
      rest != blocks + ranks + pairs * times.width) {
    return false;
  }
  const uint8_t* const rank_in = bytes + offset + blocks;
  const uint8_t* const time_in = rank_in + ranks;
  const int max_rank = VhllMaxRank(precision);
  const std::span<PartStore> stores = CheckpointAccess::Stores(irs);
  // Walks the nodes: checks each (place = false), or places each, checked.
  const auto walk = [&](bool place) {
    const uint8_t* block = bytes + offset;
    size_t rank = 0;
    size_t pair = 0;
    for (uint32_t i = 0; i < count; ++i) {
      if (forms[i] == kAbsent) continue;
      const NodeId u = expected_first + i;
      if (forms[i] == kCollapsed) {
        const std::span<const uint8_t> row(block, beta);
        uint32_t entries = 0;
        std::memcpy(&entries, block + beta, sizeof(entries));
        block += beta + sizeof(entries);
        if (!place) {
          if (!RowIsValid(row, entries, precision)) return false;
          continue;
        }
        std::memcpy(CheckpointAccess::Row(irs, u), row.data(), beta);
        const size_t slot = irs->arena()->slot(u);
        for (PartStore& store : stores) {
          // The count is the sketch's, not a part's: part 0 carries it.
          store.RestoreCollapsed(slot, &store == &stores[0] ? entries : 0);
        }
        continue;
      }
      const uint8_t* const counts = block;
      const uint8_t* const retired = block + beta;
      block += 2 * beta;
      size_t live_pairs = 0;
      size_t retired_pairs = 0;
      for (size_t c = 0; c < beta; ++c) {
        live_pairs += counts[c];
        retired_pairs += retired[c];
      }
      const uint8_t* live_ranks = rank_in + rank;
      const uint8_t* retired_ranks = live_ranks + live_pairs;
      if (!place) {
        if (live_pairs > pairs - pair ||
            live_pairs + retired_pairs > ranks - rank) {
          return false;
        }
        // Each cell: at most 64 pairs, ranks in [1, MaxRank] strictly
        // ascending through its live pairs and then its retired ones, and
        // live times strictly ascending. A scan never leaves two pairs
        // with one time in a cell (the higher rank evicts the lower), so
        // such a list is not one it wrote.
        size_t e = 0;
        size_t r = 0;
        for (size_t c = 0; c < beta; ++c) {
          if (size_t{counts[c]} + retired[c] > kVhllMaxCellEntries) {
            return false;
          }
          uint8_t top = 0;
          for (size_t j = 0; j < counts[c]; ++j, ++e) {
            if (live_ranks[e] <= top || live_ranks[e] > max_rank ||
                (j > 0 && times.Decode(time_in, pair + e) <=
                              times.Decode(time_in, pair + e - 1))) {
              return false;
            }
            top = live_ranks[e];
          }
          for (size_t j = 0; j < retired[c]; ++j, ++r) {
            if (retired_ranks[r] <= top || retired_ranks[r] > max_rank) {
              return false;
            }
            top = retired_ranks[r];
          }
        }
      } else {
        // Each store takes its cells' counts and its share of the runs.
        const size_t slot = irs->arena()->slot(u);
        const uint8_t* part_times = time_in + pair * times.width;
        for (PartStore& store : stores) {
          const size_t b = store.begin();
          const size_t cells = store.num_cells();
          size_t n = 0;
          size_t d = 0;
          for (size_t c = b; c < b + cells; ++c) {
            n += counts[c];
            d += retired[c];
          }
          store.Restore(slot, {counts + b, cells}, {live_ranks, n},
                        {part_times, n * times.width}, {retired + b, cells},
                        {retired_ranks, d});
          live_ranks += n;
          retired_ranks += d;
          part_times += n * times.width;
        }
      }
      rank += live_pairs + retired_pairs;
      pair += live_pairs;
    }
    return rank == ranks && pair == pairs;
  };
  return walk(/*place=*/false) && walk(/*place=*/true);
}

// ---- save / load ----------------------------------------------------------

bool SaveCheckpoint(const IrsApprox& irs, const MetaFrame& meta,
                    const std::string& dir) {
  IPIN_TRACE_SPAN("checkpoint.save");
  if (IPIN_FAILPOINT("checkpoint.save").fail) {
    LogError("checkpoint: injected save failure");
    return false;
  }
  SafeFileWriter writer(CheckpointPath(dir, meta.edges_processed),
                        kCheckpointFileType, kCheckpointVersion);
  std::string payload;
  SerializeMeta(meta, &payload);
  if (!writer.AppendFrame(payload)) return false;
  for (uint64_t first = 0; first < meta.fp.num_nodes; first += kChunkSize) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(kChunkSize, meta.fp.num_nodes - first));
    const size_t size = SerializeChunk(irs, meta, first, count, &payload);
    if (!writer.AppendFrame(std::string_view(payload.data(), size))) {
      return false;
    }
  }
  return writer.Commit();
}

// Loads one checkpoint file in full into *irs, an empty build. Unlike a
// saved index, a checkpoint is all-or-nothing: any unverifiable frame
// invalidates it and the caller falls back to an older file (resuming from a
// partial state would silently lose sketches). So does a meta frame whose
// time encoding is not the build's, and a chunk whose nodes are not in the
// forms the scan of `graph` leaves them in at the meta frame's position:
// no scan of this graph wrote it. On success fills *irs and *meta.
bool LoadCheckpoint(const std::string& path, const Fingerprint& expected,
                    const InteractionGraph& graph, IrsApprox* irs,
                    MetaFrame* meta) {
  if (IPIN_FAILPOINT("checkpoint.load").fail) {
    LogError("checkpoint: injected load failure for " + path);
    return false;
  }
  SafeFileReader reader;
  if (reader.Open(path, kCheckpointFileType) != SafeOpenStatus::kOk ||
      reader.version() != kCheckpointVersion) {
    return false;
  }
  std::string_view payload;
  if (reader.ReadFrame(&payload) != FrameStatus::kOk ||
      !ParseMeta(payload, meta) || !meta->fp.Matches(expected) ||
      meta->times != irs->time_encoding() ||
      meta->edges_processed > meta->fp.num_interactions) {
    return false;
  }
  const std::vector<PartStore::Form> scanned =
      CheckpointAccess::ScannedForms(*irs, graph, meta->edges_processed);
  for (uint64_t first = 0; first < meta->fp.num_nodes;
       first += meta->chunk_size) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(meta->chunk_size, meta->fp.num_nodes - first));
    if (reader.ReadFrame(&payload) != FrameStatus::kOk ||
        !RestoreChunk(payload, static_cast<NodeId>(first), count, *meta,
                      scanned, irs)) {
      return false;
    }
  }
  return true;
}

// Walks checkpoints newest-first until one verifies, restoring sketches and
// tallies into *irs. Returns the resumed edge count (0 = fresh start).
uint64_t TryResume(const CheckpointOptions& options,
                   const InteractionGraph& graph, const Fingerprint& expected,
                   IrsApprox* irs, CheckpointStats* stats) {
  IPIN_TRACE_SPAN("checkpoint.resume");
  for (const auto& [edges, path] : ListCheckpoints(options.dir)) {
    MetaFrame meta;
    IrsApprox candidate =
        CheckpointAccess::MakeBuild(graph, irs->window(), irs->options());
    if (!LoadCheckpoint(path, expected, graph, &candidate, &meta)) {
      ++stats->invalid_checkpoints_skipped;
      LogWarning("checkpoint " + path + " failed verification, skipped");
      continue;
    }
    CheckpointAccess::SetTallies(&candidate, meta.edges_scanned,
                                 meta.merge_calls);
    *irs = std::move(candidate);
    stats->resumed_edges = meta.edges_processed;
    const std::string detail = StrFormat(
        "resuming approx IRS build from %s (%llu/%llu edges)", path.c_str(),
        static_cast<unsigned long long>(meta.edges_processed),
        static_cast<unsigned long long>(meta.fp.num_interactions));
    LogInfo(detail);
    obs::RunLedger::Global().RecordEvent("checkpoint.resume", detail);
    return meta.edges_processed;
  }
  return 0;
}

// Writes the checkpoint of `irs` after the scan's first `done` edges (the
// log's last) and prunes older ones. A failed save only counts and logs.
void WriteCheckpoint(const IrsApprox& irs, const Fingerprint& fp,
                     std::span<const Interaction> edges, uint64_t done,
                     const CheckpointOptions& options,
                     CheckpointStats* stats) {
  MetaFrame meta;
  meta.fp = fp;
  meta.edges_processed = done;
  meta.chunk_size = kChunkSize;
  CheckpointAccess::GetTallies(irs, &meta.edges_scanned, &meta.merge_calls);
  meta.times = irs.time_encoding();
  const WallTimer timer;
  const bool saved = SaveCheckpoint(irs, meta, options.dir);
  const double save_ms = timer.ElapsedMillis();
  IPIN_HISTOGRAM_RECORD("robustness.checkpoint.save_ms", save_ms);
  stats->save_seconds += save_ms / 1e3;
  if (saved) {
    ++stats->checkpoints_written;
    obs::RunLedger::Global().RecordEvent(
        "checkpoint.save",
        StrFormat("%llu/%llu edges",
                  static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(edges.size())));
    PruneCheckpoints(options.dir, options.keep);
  } else {
    ++stats->checkpoint_failures;
    const std::string detail =
        StrFormat("checkpoint save at edge %llu failed; continuing",
                  static_cast<unsigned long long>(done));
    LogWarning(detail);
    obs::RunLedger::Global().RecordEvent("checkpoint.save_failure", detail);
  }
}

void PublishCheckpointMetrics([[maybe_unused]] const CheckpointStats& stats) {
  IPIN_COUNTER_ADD("robustness.checkpoint.saves", stats.checkpoints_written);
  IPIN_COUNTER_ADD("robustness.checkpoint.save_failures",
                   stats.checkpoint_failures);
  IPIN_COUNTER_ADD("robustness.checkpoint.resumed_edges",
                   stats.resumed_edges);
  IPIN_COUNTER_ADD("robustness.checkpoint.invalid_skipped",
                   stats.invalid_checkpoints_skipped);
}

bool EnsureDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    LogError("checkpoint: cannot create directory " + dir + ": " +
             ec.message());
    return false;
  }
  return true;
}

}  // namespace

IrsApprox ComputeIrsApproxCheckpointed(const InteractionGraph& graph,
                                       Duration window,
                                       const IrsApproxOptions& irs_options,
                                       const CheckpointOptions& options,
                                       CheckpointStats* stats) {
  IPIN_TRACE_SPAN("irs.approx.compute");
  IPIN_CHECK(graph.is_sorted());
  CheckpointStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = CheckpointStats{};

  const auto& edges = graph.interactions();
  Fingerprint fp;
  fp.window = window;
  fp.num_nodes = graph.num_nodes();
  fp.num_interactions = edges.size();
  fp.graph_hash = GraphHash(graph);
  fp.precision = static_cast<uint8_t>(irs_options.precision);
  fp.salt = irs_options.salt;

  IrsApprox irs = CheckpointAccess::MakeBuild(graph, window, irs_options);
  const bool enabled = options.enabled() && EnsureDir(options.dir);
  const uint64_t done =
      enabled ? TryResume(options, graph, fp, &irs, stats) : 0;
  CheckpointAccess::Scan(&irs, graph, done, enabled ? options.every_edges : 0,
                         [&](size_t scanned) {
                           WriteCheckpoint(irs, fp, edges, scanned, options,
                                           stats);
                         });
  CheckpointAccess::Finish(&irs);
  PublishCheckpointMetrics(*stats);
  return irs;
}

}  // namespace ipin
