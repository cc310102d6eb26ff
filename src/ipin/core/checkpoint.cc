#include "ipin/core/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
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
#include "ipin/obs/progress.h"
#include "ipin/obs/trace.h"

namespace ipin {

// Friend of IrsExact and IrsApprox: the only code that reads/reinstates
// their private scan state, keeping the checkpoint format out of the
// algorithm classes.
class CheckpointAccess {
 public:
  static void SetScanPosition(IrsExact* irs, Timestamp last_time,
                              bool saw_interaction) {
    irs->last_time_ = last_time;
    irs->saw_interaction_ = saw_interaction;
  }

  // Tallies travel in the checkpoint's meta frame so a resumed build
  // publishes the same irs.* scan metrics as an uninterrupted one.
  // (Per-sketch lifetime tallies inside VersionedHll are NOT checkpointed;
  // see DESIGN.md §8.)
  static void GetTallies(const IrsExact& irs, uint64_t tally[4]) {
    tally[0] = irs.edges_scanned_;
    tally[1] = irs.summary_inserts_;
    tally[2] = irs.summary_updates_;
    tally[3] = irs.window_prunes_;
  }
  static void SetTallies(IrsExact* irs, const uint64_t tally[4]) {
    irs->edges_scanned_ = tally[0];
    irs->summary_inserts_ = tally[1];
    irs->summary_updates_ = tally[2];
    irs->window_prunes_ = tally[3];
  }
  static void GetTallies(const IrsApprox& irs, uint64_t tally[4]) {
    tally[0] = irs.edges_scanned_;
    tally[1] = irs.merge_calls_;
    tally[2] = tally[3] = 0;
  }
  static void SetTallies(IrsApprox* irs, const uint64_t tally[4]) {
    irs->edges_scanned_ = tally[0];
    irs->merge_calls_ = tally[1];
  }

  static IrsSummaryMap* MutableSummary(IrsExact* irs, NodeId u) {
    return &irs->summaries_[u];
  }
  // Refills u's build sketch from a checkpoint's cells (`cell_counts` cut
  // `ranks` and `times` into lists, already checked against the vHLL
  // invariants), in the build's parts and time encoding; false if that
  // encoding cannot hold a time.
  static bool RefillSketch(IrsApprox* irs, NodeId u,
                           std::span<const uint8_t> cell_counts,
                           std::span<const uint8_t> ranks,
                           std::span<const Timestamp> times) {
    for (const Timestamp t : times) {
      if (!irs->times_.Holds(t)) return false;
    }
    irs->sketches_[u] = std::make_unique<VersionedHll>(
        irs->options_.precision, irs->options_.salt, irs->parts_, cell_counts,
        ranks, times, irs->times_);
    return true;
  }
  // An empty approx build over `graph`, its sketches split into parts and
  // storing times as a plain build over the same graph does.
  static IrsApprox MakeBuild(const InteractionGraph& graph, Duration window,
                             const IrsApproxOptions& options,
                             size_t num_parts) {
    return IrsApprox(graph, window, options, num_parts);
  }
  static void Scan(IrsApprox* irs, const InteractionGraph& graph, size_t done,
                   size_t epoch_edges,
                   const std::function<void(size_t)>& after_epoch) {
    irs->Scan(graph, done, epoch_edges, after_epoch);
  }
  static void Publish(const IrsExact& irs) { irs.PublishBuildMetrics(); }
  static void Publish(const IrsApprox& irs) { irs.PublishBuildMetrics(); }
};

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kCheckpointFileType = 0x504b4349;  // "ICKP" little-endian
// Version 3: approx chunks are sketch chunks (below) whose times are
// offsets in the TimeEncoding the meta frame records. Files of other
// versions fail verification and are skipped.
constexpr uint32_t kCheckpointVersion = 3;
constexpr uint32_t kChunkSize = 256;  // nodes per frame
constexpr uint8_t kAlgoExact = 1;
constexpr uint8_t kAlgoApprox = 2;
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
  uint8_t algo = 0;
  int64_t window = 0;
  uint64_t num_nodes = 0;
  uint64_t num_interactions = 0;
  uint64_t graph_hash = 0;
  uint8_t precision = 0;  // approx only, 0 for exact
  uint64_t salt = 0;      // approx only, 0 for exact

  bool Matches(const Fingerprint& other) const {
    return algo == other.algo && window == other.window &&
           num_nodes == other.num_nodes &&
           num_interactions == other.num_interactions &&
           graph_hash == other.graph_hash && precision == other.precision &&
           salt == other.salt;
  }
};

// Scan position + tallies carried in the meta frame beside the fingerprint,
// and the encoding of the approx chunks' times (unused by exact builds).
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
  return offset == payload.size() && meta->chunk_size >= 1 &&
         meta->times.valid();
}

const char* AlgoName(uint8_t algo) {
  return algo == kAlgoExact ? "exact" : "approx";
}

std::string CheckpointPath(const std::string& dir, uint8_t algo,
                           uint64_t edges) {
  return StrFormat("%s/ckpt_%s_%020llu%s", dir.c_str(), AlgoName(algo),
                   static_cast<unsigned long long>(edges), kSuffix);
}

// Checkpoint files for `algo` in `dir`, newest (most edges) first.
std::vector<std::pair<uint64_t, std::string>> ListCheckpoints(
    const std::string& dir, uint8_t algo) {
  std::vector<std::pair<uint64_t, std::string>> found;
  const std::string prefix = StrFormat("ckpt_%s_", AlgoName(algo));
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!StartsWith(name, prefix) ||
        name.size() <= prefix.size() + kSuffixLen ||
        name.substr(name.size() - kSuffixLen) != kSuffix) {
      continue;
    }
    const auto edges = ParseInt64(
        name.substr(prefix.size(), name.size() - prefix.size() - kSuffixLen));
    if (!edges.has_value() || *edges < 0) continue;
    found.emplace_back(static_cast<uint64_t>(*edges), entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

void PruneCheckpoints(const std::string& dir, uint8_t algo, size_t keep) {
  const auto files = ListCheckpoints(dir, algo);
  for (size_t i = keep; i < files.size(); ++i) {
    std::error_code ec;
    fs::remove(files[i].second, ec);
  }
}

// ---- per-algorithm chunk encodings ----------------------------------------

// Exact: per node, u64 entry count then (u32 target, i64 time) pairs sorted
// by target id — deterministic bytes for identical summaries. Like
// SerializeApproxChunk, writes the chunk into *out and returns its length.
size_t SerializeExactChunk(const IrsExact& irs, const MetaFrame& /*meta*/,
                           uint64_t first, uint32_t count, std::string* out) {
  out->clear();
  AppendRaw<uint64_t>(out, first);
  AppendRaw<uint32_t>(out, count);
  std::vector<std::pair<NodeId, Timestamp>> entries;
  for (NodeId u = static_cast<NodeId>(first); u < first + count; ++u) {
    const IrsSummaryMap& summary = irs.Summary(u);
    entries.assign(summary.begin(), summary.end());
    std::sort(entries.begin(), entries.end());
    AppendRaw<uint64_t>(out, entries.size());
    for (const auto& [v, t] : entries) {
      AppendRaw<uint32_t>(out, v);
      AppendRaw<int64_t>(out, t);
    }
  }
  return out->size();
}

bool ParseExactChunk(std::string_view payload, NodeId expected_first,
                     uint32_t expected_count, const MetaFrame& meta,
                     IrsExact* irs) {
  const Fingerprint& fp = meta.fp;
  size_t offset = 0;
  uint64_t first = 0;
  uint32_t count = 0;
  if (!ReadRaw(payload, &offset, &first) ||
      !ReadRaw(payload, &offset, &count) || first != expected_first ||
      count != expected_count || first + count > fp.num_nodes) {
    return false;
  }
  for (NodeId u = static_cast<NodeId>(first); u < first + count; ++u) {
    uint64_t entries = 0;
    if (!ReadRaw(payload, &offset, &entries)) return false;
    IrsSummaryMap* summary = CheckpointAccess::MutableSummary(irs, u);
    for (uint64_t i = 0; i < entries; ++i) {
      uint32_t v = 0;
      int64_t t = 0;
      if (!ReadRaw(payload, &offset, &v) || !ReadRaw(payload, &offset, &t) ||
          v >= fp.num_nodes) {
        return false;
      }
      if (!summary->emplace(v, t).second) return false;  // duplicate target
    }
  }
  return offset == payload.size();
}

// Approx: each chunk frame is the sketch chunk of the build's sketches of
// nodes [first_node, first_node + count):
//   u64 first_node, u32 count, u64 entries, u8 present[count],
//   u8 cell_counts[present x beta], u8 ranks[entries],
//   time offsets[entries] (the meta frame's TimeEncoding, 4 or 8 bytes
//   each)
// — per present node its cells' entry counts, then every pair's rank and
// time offset in node and cell order. The encoding is the one the build's
// sketches store their times in when it is narrow, and otherwise the
// narrowest that holds them (IrsApprox::time_encoding; exact builds store
// no times this way).
TimeEncoding ChunkTimes(const IrsExact& /*irs*/) { return {}; }
TimeEncoding ChunkTimes(const IrsApprox& irs) { return irs.time_encoding(); }

// A sketch chunk's fixed prefix: u64 first_node, u32 count, u64 entries.
constexpr size_t kSketchChunkPrefixBytes =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t);

// Writes the chunk straight from the build sketches' cells. A sketch stored
// in the chunk's encoding hands over its offsets as they are; any other is
// decoded and re-encoded.
size_t SerializeApproxChunk(const IrsApprox& irs, const MetaFrame& meta,
                            uint64_t first, uint32_t count, std::string* out) {
  const TimeEncoding& times = meta.times;
  const size_t beta = size_t{1} << meta.fp.precision;
  const NodeId lo = static_cast<NodeId>(first);
  size_t present = 0;
  uint64_t entries = 0;
  for (NodeId u = lo; u < lo + count; ++u) {
    if (const VersionedHll* sketch = irs.Sketch(u).build_sketch()) {
      ++present;
      entries += sketch->NumEntries();
    }
  }
  const size_t size = kSketchChunkPrefixBytes + count + present * beta +
                      entries * (1 + times.width);
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
  WithTimeCodec(times.width, [&](auto codec) {
    for (uint32_t i = 0; i < count; ++i) {
      const VersionedHll* sketch = irs.Sketch(lo + i).build_sketch();
      flags[i] = sketch != nullptr ? 1 : 0;
      if (sketch == nullptr) continue;
      const bool same_encoding = sketch->time_encoding() == times;
      for (size_t c = 0; c < beta; ++c) {
        const VersionedHll::CellList list = sketch->cell(c);
        const size_t n = list.size();
        *counts++ = static_cast<uint8_t>(n);
        if (n == 0) continue;
        std::memcpy(ranks + pair, list.ranks(), n);
        if (same_encoding) {
          for (size_t j = 0; j < n; ++j) {
            codec.Store(time_bytes, pair + j, codec.Load(list.time_bytes(), j));
          }
        } else {
          IPIN_CHECK(times.Holds(list.time(0)) &&
                     times.Holds(list.time(n - 1)));
          for (size_t j = 0; j < n; ++j) {
            codec.Store(time_bytes, pair + j,
                        codec.Encode(times.base, list.time(j)));
          }
        }
        pair += n;
      }
    }
  });
  return size;
}

// Measures the chunk — it must cover exactly [expected_first,
// expected_first + expected_count), every present byte be 0 or 1, and the
// payload be exactly 20 + count + present x beta + (1 + width) x entries
// bytes — then checks each present node's cells (at most 64 pairs each,
// together exactly the chunk's entries, each list a vHLL cell list) and
// refills its VersionedHll with the build's part count for the scan to keep
// growing (a chunk records no parts, so any part count resumes any other).
// A time the build's encoding cannot hold (a checkpoint no scan of this
// graph wrote) fails the chunk.
bool RestoreApproxChunk(std::string_view payload, NodeId expected_first,
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
    // Each cell's list: ranks in [1, MaxRank] and strictly ascending,
    // times non-descending.
    size_t e = 0;
    for (const uint8_t n : cell_counts) {
      for (size_t j = 0; j < n; ++j, ++e) {
        if (node_ranks[e] == 0 || node_ranks[e] > max_rank ||
            (j > 0 && (node_ranks[e] <= node_ranks[e - 1] ||
                       node_times[e] < node_times[e - 1]))) {
          return false;
        }
      }
    }
    if (!CheckpointAccess::RefillSketch(irs, expected_first + i, cell_counts,
                                        {node_ranks, node_entries},
                                        node_times)) {
      return false;
    }
    pair += node_entries;
  }
  return pair == entries;
}

// ---- save / load ----------------------------------------------------------

template <typename Irs, typename SerializeChunk>
bool SaveCheckpoint(const Irs& irs, const MetaFrame& meta,
                    const std::string& dir, SerializeChunk serialize_chunk) {
  IPIN_TRACE_SPAN("checkpoint.save");
  if (IPIN_FAILPOINT("checkpoint.save").fail) {
    LogError("checkpoint: injected save failure");
    return false;
  }
  const std::string path =
      CheckpointPath(dir, meta.fp.algo, meta.edges_processed);
  SafeFileWriter writer(path, kCheckpointFileType, kCheckpointVersion);
  std::string payload;
  SerializeMeta(meta, &payload);
  if (!writer.AppendFrame(payload)) return false;
  for (uint64_t first = 0; first < meta.fp.num_nodes; first += kChunkSize) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(kChunkSize, meta.fp.num_nodes - first));
    const size_t size = serialize_chunk(irs, meta, first, count, &payload);
    if (!writer.AppendFrame(std::string_view(payload.data(), size))) {
      return false;
    }
  }
  return writer.Commit();
}

// Loads one checkpoint file in full. Unlike a saved index, a checkpoint is
// all-or-nothing: any unverifiable frame invalidates it and the caller falls
// back to an older file (resuming from a partial state would silently lose
// summaries). On success fills *irs and *meta.
template <typename Irs, typename ParseChunk>
bool LoadCheckpoint(const std::string& path, const Fingerprint& expected,
                    Irs* irs, MetaFrame* meta, ParseChunk parse_chunk) {
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
      meta->edges_processed > meta->fp.num_interactions) {
    return false;
  }
  for (uint64_t first = 0; first < meta->fp.num_nodes;
       first += meta->chunk_size) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(meta->chunk_size, meta->fp.num_nodes - first));
    if (reader.ReadFrame(&payload) != FrameStatus::kOk ||
        !parse_chunk(payload, static_cast<NodeId>(first), count, *meta,
                     irs)) {
      return false;
    }
  }
  return true;
}

// An exact build resumes at the scan position the meta frame records.
bool ResumeAt(const MetaFrame& meta, const InteractionGraph& /*graph*/,
              IrsExact* irs) {
  CheckpointAccess::SetScanPosition(irs, meta.last_time,
                                    meta.saw_interaction != 0);
  return true;
}

// An approx build resumes only from the sketches its scan held at the
// checkpoint: one for each node that sends among the scanned edges, and
// no other. Every checkpoint the scan writes holds exactly those.
bool ResumeAt(const MetaFrame& meta, const InteractionGraph& graph,
              IrsApprox* irs) {
  const std::span<const Interaction> edges = graph.interactions();
  std::vector<bool> sent(graph.num_nodes(), false);
  for (const auto& e : edges.last(meta.edges_processed)) sent[e.src] = true;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    if (irs->Sketch(u).valid() != sent[u]) return false;
  }
  return true;
}

// Walks checkpoints newest-first until one verifies, restoring scan state
// and tallies into *irs. Returns the resumed edge count (0 = fresh start).
template <typename Irs, typename MakeFresh, typename ParseChunk>
uint64_t TryResume(const CheckpointOptions& options,
                   const InteractionGraph& graph, const Fingerprint& expected,
                   Irs* irs, CheckpointStats* stats, MakeFresh make_fresh,
                   ParseChunk parse_chunk) {
  IPIN_TRACE_SPAN("checkpoint.resume");
  for (const auto& [edges, path] :
       ListCheckpoints(options.dir, expected.algo)) {
    MetaFrame meta;
    Irs candidate = make_fresh();
    if (!LoadCheckpoint(path, expected, &candidate, &meta, parse_chunk) ||
        !ResumeAt(meta, graph, &candidate)) {
      ++stats->invalid_checkpoints_skipped;
      LogWarning("checkpoint " + path + " failed verification, skipped");
      continue;
    }
    CheckpointAccess::SetTallies(&candidate, meta.tally);
    *irs = std::move(candidate);
    stats->resumed_edges = meta.edges_processed;
    const std::string detail = StrFormat(
        "resuming %s IRS build from %s (%llu/%llu edges)",
        AlgoName(expected.algo), path.c_str(),
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
template <typename Irs, typename SerializeChunk>
void WriteCheckpoint(const Irs& irs, const Fingerprint& fp,
                     std::span<const Interaction> edges, uint64_t done,
                     const CheckpointOptions& options, CheckpointStats* stats,
                     SerializeChunk serialize_chunk) {
  MetaFrame meta;
  meta.fp = fp;
  meta.edges_processed = done;
  // The scan position: the time of the last edge scanned.
  meta.last_time = edges[edges.size() - done].time;
  meta.saw_interaction = 1;
  meta.chunk_size = kChunkSize;
  CheckpointAccess::GetTallies(irs, meta.tally);
  meta.times = ChunkTimes(irs);
  const WallTimer timer;
  const bool saved = SaveCheckpoint(irs, meta, options.dir, serialize_chunk);
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
    PruneCheckpoints(options.dir, fp.algo, options.keep);
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

IrsExact ComputeIrsExactCheckpointed(const InteractionGraph& graph,
                                     Duration window,
                                     const CheckpointOptions& options,
                                     CheckpointStats* stats) {
  IPIN_TRACE_SPAN("irs.exact.compute");
  IPIN_CHECK(graph.is_sorted());
  CheckpointStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = CheckpointStats{};

  const auto& edges = graph.interactions();
  const uint64_t m = edges.size();
  Fingerprint fp;
  fp.algo = kAlgoExact;
  fp.window = window;
  fp.num_nodes = graph.num_nodes();
  fp.num_interactions = m;
  fp.graph_hash = GraphHash(graph);

  IrsExact irs(graph.num_nodes(), window);
  const bool enabled = options.enabled() && EnsureDir(options.dir);
  uint64_t done =
      enabled
          ? TryResume(
                options, graph, fp, &irs, stats,
                [&] { return IrsExact(graph.num_nodes(), window); },
                ParseExactChunk)
          : 0;

  obs::ProgressPhase phase("irs.exact.scan", m);
  phase.SetDone(done);  // resumed edges count as completed work
  uint64_t since_tick = 0;
  for (uint64_t i = m - done; i > 0; --i) {
    irs.ProcessInteraction(edges[i - 1]);
    ++done;
    if (++since_tick == (uint64_t{64} << 10)) {
      phase.SetDone(done);
      since_tick = 0;
    }
    if (enabled && done % options.every_edges == 0 && done < m) {
      WriteCheckpoint(irs, fp, edges, done, options, stats,
                      SerializeExactChunk);
    }
  }
  phase.SetDone(done);
  CheckpointAccess::Publish(irs);
  PublishCheckpointMetrics(*stats);
  return irs;
}

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
  const uint64_t m = edges.size();
  Fingerprint fp;
  fp.algo = kAlgoApprox;
  fp.window = window;
  fp.num_nodes = graph.num_nodes();
  fp.num_interactions = m;
  fp.graph_hash = GraphHash(graph);
  fp.precision = static_cast<uint8_t>(irs_options.precision);
  fp.salt = irs_options.salt;

  const auto make_fresh = [&] {
    return CheckpointAccess::MakeBuild(graph, window, irs_options,
                                       GlobalThreads());
  };
  IrsApprox irs = make_fresh();
  const bool enabled = options.enabled() && EnsureDir(options.dir);
  const uint64_t done =
      enabled ? TryResume(options, graph, fp, &irs, stats, make_fresh,
                          RestoreApproxChunk)
              : 0;
  CheckpointAccess::Scan(
      &irs, graph, done, enabled ? options.every_edges : 0,
      [&](size_t scanned) {
        WriteCheckpoint(irs, fp, edges, scanned, options, stats,
                        SerializeApproxChunk);
      });
  CheckpointAccess::Publish(irs);
  PublishCheckpointMetrics(*stats);
  return irs;
}

}  // namespace ipin
