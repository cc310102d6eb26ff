#include "ipin/graph/graph_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "ipin/common/failpoint.h"
#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/common/thread_pool.h"
#include "ipin/obs/metrics.h"
#include "ipin/obs/trace.h"

namespace ipin {
namespace {

bool IsCommentOrBlank(std::string_view line) {
  line = TrimString(line);
  return line.empty() || line[0] == '#' || line[0] == '%';
}

// One non-comment line of an edge list, parsed field-wise. Parsing is the
// expensive, order-independent part of a load, so it fans out across the
// pool; everything order-dependent (interning, the lenient out-of-order
// check, error precedence) happens in the sequential splice over these
// records, which therefore behaves exactly like the one-pass loader.
struct ParsedLine {
  int64_t src = 0;
  int64_t dst = 0;
  int64_t time = 0;
  // Line index within the chunk (0-based); the splice adds the chunk's
  // global offset to recover file line numbers for diagnostics.
  uint32_t local_line = 0;
  enum Kind : uint8_t { kOk, kTooFewFields, kUnparsable };
  Kind kind = kOk;
};

struct ParsedChunk {
  std::vector<ParsedLine> lines;  // comments/blanks omitted
  size_t num_lines = 0;           // all lines in the chunk, for numbering
};

// Splits `text` like repeated std::getline: on '\n' only (a '\r' stays in
// the line and fails integer parsing, same as the sequential loader), no
// empty trailing line after a final newline.
void ParseChunk(std::string_view text, EdgeListFormat format,
                ParsedChunk* out) {
  const size_t expected = format == EdgeListFormat::kKonect ? 4 : 3;
  const size_t time_field = format == EdgeListFormat::kKonect ? 3 : 2;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string_view line =
        eol == std::string_view::npos ? text.substr(pos)
                                      : text.substr(pos, eol - pos);
    const auto local = static_cast<uint32_t>(out->num_lines++);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (IsCommentOrBlank(line)) continue;
    ParsedLine parsed;
    parsed.local_line = local;
    const auto fields = SplitString(line, " \t,");
    if (fields.size() < expected) {
      parsed.kind = ParsedLine::kTooFewFields;
      parsed.src = static_cast<int64_t>(fields.size());  // for the message
      out->lines.push_back(parsed);
      continue;
    }
    const auto src = ParseInt64(fields[0]);
    const auto dst = ParseInt64(fields[1]);
    const auto time = ParseInt64(fields[time_field]);
    if (!src || !dst || !time || *src < 0 || *dst < 0) {
      parsed.kind = ParsedLine::kUnparsable;
      out->lines.push_back(parsed);
      continue;
    }
    parsed.src = *src;
    parsed.dst = *dst;
    parsed.time = *time;
    out->lines.push_back(parsed);
  }
}

}  // namespace

std::optional<InteractionGraph> LoadInteractionsFromFile(
    const std::string& path, EdgeListFormat format, ParseMode mode) {
  IPIN_TRACE_SPAN("graph.load");
  if (IPIN_FAILPOINT("graph_io.load").fail) {
    LogError("graph_io: injected load failure for " + path);
    return std::nullopt;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    LogError("cannot open interaction file: " + path);
    return std::nullopt;
  }
  std::ostringstream buffer_stream;
  buffer_stream << in.rdbuf();
  const std::string buffer = std::move(buffer_stream).str();
  const std::string_view text(buffer);

  // Newline-aligned chunks, parsed in parallel.
  size_t num_chunks = GlobalThreads();
  constexpr size_t kMinChunkBytes = 1 << 16;
  if (num_chunks > 1 && text.size() / num_chunks < kMinChunkBytes) {
    num_chunks = std::max<size_t>(1, text.size() / kMinChunkBytes);
  }
  std::vector<size_t> starts;
  starts.push_back(0);
  for (size_t i = 1; i < num_chunks; ++i) {
    size_t cut = i * text.size() / num_chunks;
    if (cut <= starts.back()) continue;
    const size_t nl = text.find('\n', cut - 1);
    if (nl == std::string_view::npos) break;
    if (nl + 1 >= text.size()) break;
    if (nl + 1 > starts.back()) starts.push_back(nl + 1);
  }
  std::vector<ParsedChunk> chunks(starts.size());
  {
    obs::PhaseSpan phase("graph.parse", text.size());  // units: bytes
    ParallelFor(0, starts.size(), 1, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        const size_t begin = starts[i];
        const size_t end = i + 1 < starts.size() ? starts[i + 1] : text.size();
        ParseChunk(text.substr(begin, end - begin), format, &chunks[i]);
        phase.Tick(end - begin);
      }
    });
  }

  // Sequential splice: global line numbers, strict-mode error precedence,
  // the lenient out-of-order filter, and first-seen node interning all
  // depend on file order.
  IPIN_TRACE_SPAN("graph.load.splice");
  std::unordered_map<int64_t, NodeId> remap;
  InteractionGraph graph;
  size_t skipped_malformed = 0;
  size_t skipped_out_of_order = 0;
  // First skipped line numbers (lenient mode), capped so a report on a
  // thoroughly damaged file stays readable; enough to find the bad region.
  constexpr size_t kMaxReportedSkips = 10;
  std::vector<std::pair<size_t, const char*>> first_skips;
  const auto record_skip = [&first_skips](size_t line_no, const char* reason) {
    if (first_skips.size() < kMaxReportedSkips) {
      first_skips.emplace_back(line_no, reason);
    }
  };
  const auto intern = [&remap](int64_t raw) {
    const auto [it, inserted] =
        remap.emplace(raw, static_cast<NodeId>(remap.size()));
    (void)inserted;
    return it->second;
  };
  Timestamp prev_time = 0;
  bool saw_edge = false;
  size_t line_offset = 0;
  for (const ParsedChunk& chunk : chunks) {
    for (const ParsedLine& parsed : chunk.lines) {
      const size_t line_no = line_offset + parsed.local_line + 1;
      if (parsed.kind == ParsedLine::kTooFewFields) {
        if (mode == ParseMode::kLenient) {
          ++skipped_malformed;
          record_skip(line_no, "too few fields");
          continue;
        }
        const size_t expected = format == EdgeListFormat::kKonect ? 4 : 3;
        LogError(StrFormat("%s:%zu: expected %zu fields, got %zu",
                           path.c_str(), line_no, expected,
                           static_cast<size_t>(parsed.src)));
        return std::nullopt;
      }
      if (parsed.kind == ParsedLine::kUnparsable) {
        if (mode == ParseMode::kLenient) {
          ++skipped_malformed;
          record_skip(line_no, "unparsable or negative field");
          continue;
        }
        LogError(StrFormat("%s:%zu: malformed edge line (unparsable or "
                           "negative field)",
                           path.c_str(), line_no));
        return std::nullopt;
      }
      // Lenient mode treats a timestamp running backwards as damage too: a
      // corrupted log line often parses as integers but carries a garbage
      // time. Strict mode keeps such lines (the post-load sort handles
      // legitimately unsorted files).
      if (mode == ParseMode::kLenient && saw_edge && parsed.time < prev_time) {
        ++skipped_out_of_order;
        record_skip(line_no, "timestamp runs backwards");
        continue;
      }
      prev_time = parsed.time;
      saw_edge = true;
      // Intern in (src, dst) order; function-argument evaluation order is
      // unspecified, so do it in named statements.
      const NodeId src_id = intern(parsed.src);
      const NodeId dst_id = intern(parsed.dst);
      graph.AddInteraction(src_id, dst_id, parsed.time);
    }
    line_offset += chunk.num_lines;
  }
  graph.SortByTime();
  const size_t skipped = skipped_malformed + skipped_out_of_order;
  // Lenient means "tolerate damage", not "accept anything": a file where
  // every line was skipped is not an edge list.
  if (skipped > 0 && graph.num_interactions() == 0) {
    LogError(StrFormat("%s: no usable edge lines (%zu skipped)", path.c_str(),
                       skipped));
    return std::nullopt;
  }
  if (skipped > 0) {
    IPIN_COUNTER_ADD("graph.io.skipped_lines", skipped);
    LogWarning(StrFormat(
        "%s: skipped %zu lines in lenient mode (%zu malformed, %zu "
        "out of order)",
        path.c_str(), skipped, skipped_malformed, skipped_out_of_order));
    for (const auto& [skip_line, reason] : first_skips) {
      LogDebug(StrFormat("%s:%zu: skipped (%s)", path.c_str(), skip_line,
                         reason));
    }
    if (skipped > first_skips.size()) {
      LogDebug(StrFormat("%s: ... and %zu more skipped lines", path.c_str(),
                         skipped - first_skips.size()));
    }
  }
  IPIN_COUNTER_ADD("graph.io.interactions_loaded", graph.num_interactions());
  return graph;
}

bool SaveInteractionsToFile(const InteractionGraph& graph,
                            const std::string& path) {
  if (IPIN_FAILPOINT("graph_io.save").fail) {
    LogError("graph_io: injected save failure for " + path);
    return false;
  }
  std::ofstream out(path);
  if (!out) {
    LogError("cannot open file for writing: " + path);
    return false;
  }
  out << "# src dst time (" << graph.num_nodes() << " nodes, "
      << graph.num_interactions() << " interactions)\n";
  for (const Interaction& e : graph.interactions()) {
    out << e.src << ' ' << e.dst << ' ' << e.time << '\n';
  }
  return static_cast<bool>(out);
}

bool SaveDimacs(const StaticGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    LogError("cannot open file for writing: " + path);
    return false;
  }
  out << "p sp " << graph.num_nodes() << ' ' << graph.num_edges() << '\n';
  const size_t n = graph.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : graph.Neighbors(u)) {
      out << "a " << (u + 1) << ' ' << (v + 1) << " 1\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace ipin
