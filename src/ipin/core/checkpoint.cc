#include "ipin/core/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "ipin/common/check.h"
#include "ipin/common/failpoint.h"
#include "ipin/common/hash.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"
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
  static void SetScanPosition(IrsApprox* irs, Timestamp last_time,
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

  static Timestamp LastTime(const IrsExact& irs) { return irs.last_time_; }
  static Timestamp LastTime(const IrsApprox& irs) { return irs.last_time_; }
  static bool SawInteraction(const IrsExact& irs) {
    return irs.saw_interaction_;
  }
  static bool SawInteraction(const IrsApprox& irs) {
    return irs.saw_interaction_;
  }

  static IrsSummaryMap* MutableSummary(IrsExact* irs, NodeId u) {
    return &irs->summaries_[u];
  }
  static void InstallSketch(IrsApprox* irs, NodeId u,
                            std::unique_ptr<VersionedHll> sketch) {
    irs->sketches_[u] = std::move(sketch);
  }
  static void Publish(const IrsExact& irs) { irs.PublishBuildMetrics(); }
  static void Publish(const IrsApprox& irs) { irs.PublishBuildMetrics(); }
};

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kCheckpointFileType = 0x504b4349;  // "ICKP" little-endian
constexpr uint32_t kCheckpointVersion = 1;
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

// Scan position + tallies carried in the meta frame beside the fingerprint.
struct MetaFrame {
  Fingerprint fp;
  uint64_t edges_processed = 0;
  int64_t last_time = 0;
  uint8_t saw_interaction = 0;
  uint32_t chunk_size = 0;
  uint64_t tally[4] = {0, 0, 0, 0};
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
  return offset == payload.size() && meta->chunk_size >= 1;
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
// by target id — deterministic bytes for identical summaries.
void SerializeExactChunk(const IrsExact& irs, NodeId first, uint32_t count,
                         std::string* out) {
  AppendRaw<uint64_t>(out, first);
  AppendRaw<uint32_t>(out, count);
  std::vector<std::pair<NodeId, Timestamp>> entries;
  for (NodeId u = first; u < first + count; ++u) {
    const IrsSummaryMap& summary = irs.Summary(u);
    entries.assign(summary.begin(), summary.end());
    std::sort(entries.begin(), entries.end());
    AppendRaw<uint64_t>(out, entries.size());
    for (const auto& [v, t] : entries) {
      AppendRaw<uint32_t>(out, v);
      AppendRaw<int64_t>(out, t);
    }
  }
}

bool ParseExactChunk(std::string_view payload, NodeId expected_first,
                     uint32_t expected_count, const Fingerprint& fp,
                     IrsExact* irs) {
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

// Approx: per node, u8 present + VersionedHll::Serialize blob.
void SerializeApproxChunk(const IrsApprox& irs, NodeId first, uint32_t count,
                          std::string* out) {
  AppendRaw<uint64_t>(out, first);
  AppendRaw<uint32_t>(out, count);
  for (NodeId u = first; u < first + count; ++u) {
    const SketchView sketch = irs.Sketch(u);
    AppendRaw<uint8_t>(out, sketch ? 1 : 0);
    if (sketch) sketch.Serialize(out);
  }
}

bool ParseApproxChunk(std::string_view payload, NodeId expected_first,
                      uint32_t expected_count, const Fingerprint& fp,
                      IrsApprox* irs) {
  size_t offset = 0;
  uint64_t first = 0;
  uint32_t count = 0;
  if (!ReadRaw(payload, &offset, &first) ||
      !ReadRaw(payload, &offset, &count) || first != expected_first ||
      count != expected_count || first + count > fp.num_nodes) {
    return false;
  }
  for (NodeId u = static_cast<NodeId>(first); u < first + count; ++u) {
    uint8_t present = 0;
    if (!ReadRaw(payload, &offset, &present)) return false;
    if (present == 0) continue;
    auto sketch = VersionedHll::Deserialize(payload, &offset);
    if (!sketch.has_value() || sketch->precision() != fp.precision ||
        sketch->salt() != fp.salt) {
      return false;
    }
    CheckpointAccess::InstallSketch(
        irs, u, std::make_unique<VersionedHll>(std::move(*sketch)));
  }
  return offset == payload.size();
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
    payload.clear();
    serialize_chunk(irs, static_cast<NodeId>(first), count, &payload);
    if (!writer.AppendFrame(payload)) return false;
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
  if (reader.Open(path, kCheckpointFileType) != SafeOpenStatus::kOk) {
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
        !parse_chunk(payload, static_cast<NodeId>(first), count, expected,
                     irs)) {
      return false;
    }
  }
  return true;
}

// Walks checkpoints newest-first until one verifies, restoring scan state
// and tallies into *irs. Returns the resumed edge count (0 = fresh start).
template <typename Irs, typename MakeFresh, typename ParseChunk>
uint64_t TryResume(const CheckpointOptions& options,
                   const Fingerprint& expected, Irs* irs,
                   CheckpointStats* stats, MakeFresh make_fresh,
                   ParseChunk parse_chunk) {
  IPIN_TRACE_SPAN("checkpoint.resume");
  for (const auto& [edges, path] :
       ListCheckpoints(options.dir, expected.algo)) {
    MetaFrame meta;
    Irs candidate = make_fresh();
    if (!LoadCheckpoint(path, expected, &candidate, &meta, parse_chunk)) {
      ++stats->invalid_checkpoints_skipped;
      LogWarning("checkpoint " + path + " failed verification, skipped");
      continue;
    }
    CheckpointAccess::SetScanPosition(&candidate, meta.last_time,
                                      meta.saw_interaction != 0);
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

template <typename Irs, typename SerializeChunk>
void MaybeCheckpoint(const Irs& irs, const Fingerprint& fp, uint64_t done,
                     uint64_t total, const CheckpointOptions& options,
                     CheckpointStats* stats, SerializeChunk serialize_chunk) {
  if (done % options.every_edges != 0 || done >= total) return;
  MetaFrame meta;
  meta.fp = fp;
  meta.edges_processed = done;
  meta.last_time = CheckpointAccess::LastTime(irs);
  meta.saw_interaction = CheckpointAccess::SawInteraction(irs) ? 1 : 0;
  meta.chunk_size = kChunkSize;
  CheckpointAccess::GetTallies(irs, meta.tally);
  if (SaveCheckpoint(irs, meta, options.dir, serialize_chunk)) {
    ++stats->checkpoints_written;
    obs::RunLedger::Global().RecordEvent(
        "checkpoint.save",
        StrFormat("%llu/%llu edges",
                  static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(total)));
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
                options, fp, &irs, stats,
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
    if (enabled) {
      MaybeCheckpoint(irs, fp, done, m, options, stats, SerializeExactChunk);
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

  IrsApprox irs(graph.num_nodes(), window, irs_options);
  const bool enabled = options.enabled() && EnsureDir(options.dir);
  uint64_t done = enabled
                      ? TryResume(options, fp, &irs, stats,
                                  [&] {
                                    return IrsApprox(graph.num_nodes(),
                                                     window, irs_options);
                                  },
                                  ParseApproxChunk)
                      : 0;

  obs::ProgressPhase phase("irs.approx.scan", m);
  phase.SetDone(done);  // resumed edges count as completed work
  uint64_t since_tick = 0;
  for (uint64_t i = m - done; i > 0; --i) {
    irs.ProcessInteraction(edges[i - 1]);
    ++done;
    if (++since_tick == (uint64_t{64} << 10)) {
      phase.SetDone(done);
      since_tick = 0;
    }
    if (enabled) {
      MaybeCheckpoint(irs, fp, done, m, options, stats, SerializeApproxChunk);
    }
  }
  phase.SetDone(done);
  CheckpointAccess::Publish(irs);
  PublishCheckpointMetrics(*stats);
  // Checkpointed builds feed the save/serve path directly, so pack into the
  // arena here (plain Compute() defers this to the caller). Earlier mid-scan
  // checkpoints serialized from the mutable sketches — the same bytes
  // SerializeNode produces from the arena, so a full rebuild and a resumed
  // one still emit identical files.
  irs.Seal();
  return irs;
}

}  // namespace ipin
