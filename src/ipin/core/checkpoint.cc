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

namespace ipin {

// Friend of IrsApprox: the only code that reads/reinstates its private
// scan state, keeping the checkpoint format out of the algorithm class.
class CheckpointAccess {
 public:
  // Tallies travel in the checkpoint's meta frame so a resumed build
  // publishes the same irs.* scan metrics as an uninterrupted one.
  // (Per-sketch lifetime tallies inside VersionedHll are NOT checkpointed;
  // see DESIGN.md §8.)
  static void GetTallies(const IrsApprox& irs, uint64_t tally[4]) {
    tally[0] = irs.build_->edges_scanned;
    tally[1] = irs.build_->merge_calls;
    tally[2] = tally[3] = 0;
  }
  static void SetTallies(IrsApprox* irs, const uint64_t tally[4]) {
    irs->build_->edges_scanned = tally[0];
    irs->build_->merge_calls = tally[1];
  }
  // Refills u's build sketch from a checkpoint's cells (`cell_counts` cut
  // `ranks` and `times` into lists, already checked against the vHLL
  // invariants and decoded from the build's own time encoding), in the
  // build's parts and time encoding.
  static void RefillSketch(IrsApprox* irs, NodeId u,
                           std::span<const uint8_t> cell_counts,
                           std::span<const uint8_t> ranks,
                           std::span<const Timestamp> times) {
    IrsApprox::Build& build = *irs->build_;
    build.sketches[u] = std::make_unique<VersionedHll>(
        irs->options_.precision, irs->options_.salt, build.parts, cell_counts,
        ranks, times, build.times);
  }
  // The build store's sketches, indexed by node id (null: absent).
  static std::span<const std::unique_ptr<VersionedHll>> Sketches(
      const IrsApprox& irs) {
    return irs.build_->sketches;
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
  // Ends the build: its rows land in the arena every query reads.
  static void Finish(IrsApprox* irs) { irs->Finish(); }
};

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kCheckpointFileType = 0x504b4349;  // "ICKP" little-endian
// Version 3: chunks are sketch chunks (below) whose times are offsets in
// the TimeEncoding the meta frame records. Files of other versions fail
// verification and are skipped.
constexpr uint32_t kCheckpointVersion = 3;
constexpr uint32_t kChunkSize = 256;  // nodes per frame
// The meta frame's algorithm byte. Version 3 also named an exact scan (1),
// whose files (ckpt_exact_*) no build reads or prunes any more.
constexpr uint8_t kAlgoApprox = 2;
constexpr char kPrefix[] = "ckpt_approx_";
constexpr char kSuffix[] = ".ipinckpt";

template <typename T>
void AppendRaw(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadRaw(std::string_view data, size_t* offset, T* value) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

// Everything a checkpoint must agree on with the running build before it is
// allowed to resume into it.
struct Fingerprint {
  uint8_t algo = kAlgoApprox;
  int64_t window = 0;
  uint64_t num_nodes = 0;
  uint64_t num_interactions = 0;
  uint64_t graph_hash = 0;
  uint8_t precision = 0;
  uint64_t salt = 0;

  bool Matches(const Fingerprint& other) const {
    return algo == other.algo && window == other.window &&
           num_nodes == other.num_nodes &&
           num_interactions == other.num_interactions &&
           graph_hash == other.graph_hash && precision == other.precision &&
           salt == other.salt;
  }
};

// Scan position + tallies carried in the meta frame beside the fingerprint,
// and the encoding of the chunks' times: the build's own, which a resuming
// build must share. `last_time`, `saw_interaction` and tally[2..3] are read
// by no build: only the retired exact checkpoint did. They keep the
// version-3 bytes (written as the last scanned edge's time, 1, and zeros)
// until the version bump that stores retired registers (ROADMAP.md item
// 13) drops them.
struct MetaFrame {
  Fingerprint fp;
  uint64_t edges_processed = 0;
  int64_t last_time = 0;
  uint8_t saw_interaction = 0;
  uint32_t chunk_size = 0;
  uint64_t tally[4] = {0, 0, 0, 0};
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
  AppendRaw<uint8_t>(out, meta.fp.algo);
  AppendRaw<int64_t>(out, meta.fp.window);
  AppendRaw<uint64_t>(out, meta.fp.num_nodes);
  AppendRaw<uint64_t>(out, meta.fp.num_interactions);
  AppendRaw<uint64_t>(out, meta.fp.graph_hash);
  AppendRaw<uint8_t>(out, meta.fp.precision);
  AppendRaw<uint64_t>(out, meta.fp.salt);
  AppendRaw<uint64_t>(out, meta.edges_processed);
  AppendRaw<int64_t>(out, meta.last_time);
  AppendRaw<uint8_t>(out, meta.saw_interaction);
  AppendRaw<uint32_t>(out, meta.chunk_size);
  for (const uint64_t t : meta.tally) AppendRaw<uint64_t>(out, t);
  AppendRaw<int64_t>(out, meta.times.base);
  AppendRaw<uint8_t>(out, meta.times.width);
}

bool ParseMeta(std::string_view payload, MetaFrame* meta) {
  size_t offset = 0;
  if (!ReadRaw(payload, &offset, &meta->fp.algo) ||
      !ReadRaw(payload, &offset, &meta->fp.window) ||
      !ReadRaw(payload, &offset, &meta->fp.num_nodes) ||
      !ReadRaw(payload, &offset, &meta->fp.num_interactions) ||
      !ReadRaw(payload, &offset, &meta->fp.graph_hash) ||
      !ReadRaw(payload, &offset, &meta->fp.precision) ||
      !ReadRaw(payload, &offset, &meta->fp.salt) ||
      !ReadRaw(payload, &offset, &meta->edges_processed) ||
      !ReadRaw(payload, &offset, &meta->last_time) ||
      !ReadRaw(payload, &offset, &meta->saw_interaction) ||
      !ReadRaw(payload, &offset, &meta->chunk_size)) {
    return false;
  }
  for (uint64_t& t : meta->tally) {
    if (!ReadRaw(payload, &offset, &t)) return false;
  }
  if (!ReadRaw(payload, &offset, &meta->times.base) ||
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

// Each chunk frame is the sketch chunk of the build's sketches of nodes
// [first_node, first_node + count):
//   u64 first_node, u32 count, u64 entries, u8 present[count],
//   u8 cell_counts[present x beta], u8 ranks[entries],
//   time offsets[entries] (the meta frame's TimeEncoding, 4 or 8 bytes
//   each)
// — per present node its cells' entry counts, then every pair's rank and
// time offset in node and cell order. The encoding is the one the build's
// sketches store their times in (IrsApprox::time_encoding).

// A sketch chunk's fixed prefix: u64 first_node, u32 count, u64 entries.
constexpr size_t kSketchChunkPrefixBytes =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t);

// Writes the chunk straight from the build sketches' parts. A part holds a
// run of cells in cell order as the chunk lays them out — its cell counts,
// then its pairs' ranks and time offsets, already in the chunk's encoding —
// so each part is one copy of each of its three runs.
size_t SerializeChunk(const IrsApprox& irs, const MetaFrame& meta,
                      uint64_t first, uint32_t count, std::string* out) {
  const size_t width = meta.times.width;
  const size_t beta = size_t{1} << meta.fp.precision;
  const std::span<const std::unique_ptr<VersionedHll>> sketches =
      CheckpointAccess::Sketches(irs).subspan(first, count);
  size_t present = 0;
  uint64_t entries = 0;
  for (const auto& sketch : sketches) {
    if (sketch != nullptr) {
      ++present;
      entries += sketch->NumEntries();
    }
  }
  const size_t size = kSketchChunkPrefixBytes + count + present * beta +
                      entries * (1 + width);
  if (out->size() < size) out->resize(size);
  auto* bytes = reinterpret_cast<uint8_t*>(out->data());
  std::memcpy(bytes, &first, sizeof(first));
  std::memcpy(bytes + 8, &count, sizeof(count));
  std::memcpy(bytes + 12, &entries, sizeof(entries));
  uint8_t* flags = bytes + kSketchChunkPrefixBytes;
  uint8_t* counts = flags + count;
  uint8_t* const ranks = counts + present * beta;
  uint8_t* const time_bytes = ranks + entries;
  size_t pair = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const VersionedHll* sketch = sketches[i].get();
    flags[i] = sketch != nullptr ? 1 : 0;
    if (sketch == nullptr) continue;
    IPIN_DCHECK(sketch->time_encoding() == meta.times);
    for (size_t k = 0; k < sketch->num_parts(); ++k) {
      const VersionedHll::PartRuns part = sketch->part_runs(k);
      std::memcpy(counts, part.counts.data(), part.counts.size());
      counts += part.counts.size();
      if (part.ranks.empty()) continue;
      std::memcpy(ranks + pair, part.ranks.data(), part.ranks.size());
      std::memcpy(time_bytes + pair * width, part.time_bytes.data(),
                  part.time_bytes.size());
      pair += part.ranks.size();
    }
  }
  return size;
}

// Measures the chunk — it must cover exactly [expected_first,
// expected_first + expected_count), every present byte be 0 or 1, and the
// payload be exactly 20 + count + present x beta + (1 + width) x entries
// bytes — then checks each present node's cells (at most 64 pairs each,
// together exactly the chunk's entries, each list a vHLL cell list) and
// refills its VersionedHll with the build's part count for the scan to keep
// growing (a chunk records no parts, so any part count resumes any other).
// The meta frame's encoding is the build's (LoadCheckpoint checks), so
// every decoded time is one the build's sketches can hold.
bool RestoreChunk(std::string_view payload, NodeId expected_first,
                  uint32_t expected_count, const MetaFrame& meta,
                  IrsApprox* irs) {
  const int precision = meta.fp.precision;
  const size_t beta = size_t{1} << precision;
  const TimeEncoding& times = meta.times;
  size_t offset = 0;
  uint64_t first = 0;
  uint32_t count = 0;
  uint64_t entries = 0;
  if (!ReadRaw(payload, &offset, &first) ||
      !ReadRaw(payload, &offset, &count) ||
      !ReadRaw(payload, &offset, &entries) || first != expected_first ||
      count != expected_count || payload.size() - offset < count) {
    return false;
  }
  const auto* bytes = reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* present = bytes + offset;
  uint8_t flags = 0;
  size_t sketches = 0;
  for (uint32_t i = 0; i < count; ++i) {
    flags |= present[i];
    sketches += present[i];
  }
  offset += count;
  const size_t pair_bytes = 1 + times.width;  // u8 rank + time offset
  const size_t rest = payload.size() - offset;
  if (flags > 1 || entries > rest / pair_bytes ||
      rest != sketches * beta + entries * pair_bytes) {
    return false;
  }
  const uint8_t* counts = bytes + offset;
  const uint8_t* ranks = counts + sketches * beta;
  const uint8_t* time_bytes = ranks + entries;
  const int max_rank = VersionedHll::MaxRank(precision);
  std::vector<Timestamp> node_times;
  size_t pair = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (present[i] == 0) continue;
    const std::span<const uint8_t> cell_counts(counts, beta);
    counts += beta;
    size_t node_entries = 0;
    for (const uint8_t n : cell_counts) {
      if (n > VersionedHll::kMaxCellEntries) return false;
      node_entries += n;
    }
    if (node_entries > entries - pair) return false;
    const uint8_t* node_ranks = ranks + pair;
    node_times.resize(node_entries);
    for (size_t e = 0; e < node_entries; ++e) {
      node_times[e] = times.Decode(time_bytes, pair + e);
    }
    // Each cell's list: ranks in [1, MaxRank], ranks and times strictly
    // ascending. A scan never leaves two pairs with one time in a cell (the
    // higher rank evicts the lower), so such a list is not one it wrote.
    size_t e = 0;
    for (const uint8_t n : cell_counts) {
      for (size_t j = 0; j < n; ++j, ++e) {
        if (node_ranks[e] == 0 || node_ranks[e] > max_rank ||
            (j > 0 && (node_ranks[e] <= node_ranks[e - 1] ||
                       node_times[e] <= node_times[e - 1]))) {
          return false;
        }
      }
    }
    CheckpointAccess::RefillSketch(irs, expected_first + i, cell_counts,
                                   {node_ranks, node_entries}, node_times);
    pair += node_entries;
  }
  return pair == entries;
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
// time encoding is not the build's: no scan of this graph wrote it. On
// success fills *irs and *meta.
bool LoadCheckpoint(const std::string& path, const Fingerprint& expected,
                    IrsApprox* irs, MetaFrame* meta) {
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
  for (uint64_t first = 0; first < meta->fp.num_nodes;
       first += meta->chunk_size) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(meta->chunk_size, meta->fp.num_nodes - first));
    if (reader.ReadFrame(&payload) != FrameStatus::kOk ||
        !RestoreChunk(payload, static_cast<NodeId>(first), count, *meta,
                      irs)) {
      return false;
    }
  }
  return true;
}

// A build resumes only from the sketches its scan held at the checkpoint:
// one for each node that sends among the scanned edges, and no other.
// Every checkpoint the scan writes holds exactly those.
bool HoldsScannedSenders(const MetaFrame& meta, const InteractionGraph& graph,
                         const IrsApprox& irs) {
  const std::span<const Interaction> edges = graph.interactions();
  std::vector<bool> sent(graph.num_nodes(), false);
  for (const auto& e : edges.last(meta.edges_processed)) sent[e.src] = true;
  const std::span<const std::unique_ptr<VersionedHll>> sketches =
      CheckpointAccess::Sketches(irs);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    if ((sketches[u] != nullptr) != sent[u]) return false;
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
    if (!LoadCheckpoint(path, expected, &candidate, &meta) ||
        !HoldsScannedSenders(meta, graph, candidate)) {
      ++stats->invalid_checkpoints_skipped;
      LogWarning("checkpoint " + path + " failed verification, skipped");
      continue;
    }
    CheckpointAccess::SetTallies(&candidate, meta.tally);
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
  meta.last_time = edges[edges.size() - done].time;
  meta.saw_interaction = 1;
  meta.chunk_size = kChunkSize;
  CheckpointAccess::GetTallies(irs, meta.tally);
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
