// ipin_shard: offline sharding and live-reshard planning for the
// scatter-gather serving tier (DESIGN.md §11). Splits one full influence
// index into per-shard index files — each keeping the full node space with
// only its owned nodes' sketches, the invariant the router's exact merge
// rests on — and writes the matching "ipin.shardmap.v1/v2" map that
// ipin_routerd routes by.
//
// Verbs:
//   ipin_shard split --index=<full.bin> --shards=<n> --out_prefix=<p>
//       --map_out=<shards.json>
//       [--socket_prefix=/tmp/ipin-shard]   shard i dials <prefix><i>.sock
//       [--virtual_points=64]               consistent-hash ring density
//
//     Writes <p>0.bin ... <p>{n-1}.bin plus the map (with per-shard
//     index_file + crc32c fingerprint). Start one ipin_oracled per shard
//     file (--shard_id=i --shard_count=n) on the map's endpoint, then point
//     ipin_routerd at the map.
//
//   ipin_shard show --map=<shards.json> [--nodes=100000]
//
//     Prints the parsed map (including a transition block, if present) and
//     the ownership balance over the first --nodes node ids.
//
//   ipin_shard owner --map=<shards.json> --node=<id>
//
//     Which shard owns a node (fault drills pick SIGKILL victims with it).
//
//   ipin_shard plan --map=<old.json> --shards=<new_n> [--nodes=100000]
//       [--socket_prefix=/tmp/ipin-shard]
//
//     Dry-run of a reshard to <new_n> shards: per-shard before/after node
//     counts and the moved fraction. Consistent hashing keeps existing
//     shards' ring points, so growth moves only the slices the new shards
//     steal (~(new_n - old_n)/new_n of the space), never between survivors.
//
//   ipin_shard rebalance --map=<old.json> --shards=<new_n>
//       --out_prefix=<p> --map_out=<new.json>
//       [--in_prefix=<q>]                   old piece i at <q><i>.bin when
//                                           the old map carries no index_file
//       [--socket_prefix=/tmp/ipin-shard] [--sample=64] [--seed=42]
//
//     Materializes the reshard: reconstructs the full index from the old
//     pieces (every node's sketch lives in its owner's old piece), extracts
//     and writes all <new_n> new pieces, re-loads each written file (CRC
//     walk) and spot-checks rank equality on --sample random owned nodes
//     against the reconstruction, then writes a v2 map whose "transition"
//     block is the old assignment. Routers reloading that map enter
//     double-dispatch; old daemons keep serving their old (superset) files
//     until `finalize`.
//
//   ipin_shard finalize --map=<new.json> [--map_out=<final.json>]
//
//     Strips the transition block (in place unless --map_out differs),
//     ending double-dispatch on the next router reload. Run it after the
//     new fleet is up and verified.
//
//   ipin_shard verify <map.json> <dir>   (or --map=... --dir=...)
//
//     Offline consistency check of a map against materialized shard files
//     in <dir>: every piece loads cleanly, matches its recorded crc32c
//     fingerprint, has a consistent node space, and contains sketches ONLY
//     for nodes the map assigns to it (which also proves cross-piece
//     disjointness); a transition block's pieces are checked against the
//     OLD assignment the same way; replica endpoints must be dialable
//     specs. Exit 0 = consistent, 1 = verification failure, 2 = usage/IO.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ipin/common/flags.h"
#include "ipin/common/logging.h"
#include "ipin/common/random.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"
#include "ipin/core/oracle_io.h"
#include "ipin/serve/shard_map.h"

namespace ipin {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: ipin_shard split --index=<full.bin> --shards=<n>\n"
      "         --out_prefix=<p> --map_out=<shards.json>\n"
      "         [--socket_prefix=/tmp/ipin-shard] [--virtual_points=64]\n"
      "       ipin_shard show --map=<shards.json> [--nodes=100000]\n"
      "       ipin_shard owner --map=<shards.json> --node=<id>\n"
      "       ipin_shard plan --map=<old.json> --shards=<new_n>\n"
      "         [--nodes=100000] [--socket_prefix=/tmp/ipin-shard]\n"
      "       ipin_shard rebalance --map=<old.json> --shards=<new_n>\n"
      "         --out_prefix=<p> --map_out=<new.json> [--in_prefix=<q>]\n"
      "         [--socket_prefix=/tmp/ipin-shard] [--sample=64] "
      "[--seed=42]\n"
      "       ipin_shard finalize --map=<new.json> [--map_out=<final.json>]\n"
      "       ipin_shard verify <map.json> <dir>\n");
  return 2;
}

std::string Dirname(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// "crc32c:%08x" over the file's raw bytes; nullopt when unreadable.
std::optional<std::string> FileFingerprint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  const std::string bytes = buf.str();
  return StrFormat("crc32c:%08x", Crc32c(bytes.data(), bytes.size()));
}

/// Resolves the on-disk path of old-map shard i: the map's index_file
/// (relative to the map's directory) when recorded, else <in_prefix><i>.bin.
std::string OldPiecePath(const serve::ShardMap& map, size_t i,
                         const std::string& map_dir,
                         const std::string& in_prefix) {
  const serve::ShardInfo& info = map.shard(i);
  if (!info.index_file.empty()) {
    return info.index_file.front() == '/'
               ? info.index_file
               : map_dir + "/" + info.index_file;
  }
  if (!in_prefix.empty()) return StrFormat("%s%zu.bin", in_prefix.c_str(), i);
  return {};
}

/// The grown shard list: old shards keep their names and endpoints,
/// replicas included (their ring points — hence their retained ownership —
/// are a pure function of the name); new shards get the first free "shard<k>"
/// names and <socket_prefix><k>.sock endpoints.
std::vector<serve::ShardInfo> GrowShards(const serve::ShardMap& old_map,
                                         size_t new_n,
                                         const std::string& socket_prefix) {
  std::vector<serve::ShardInfo> shards;
  shards.reserve(new_n);
  for (size_t i = 0; i < old_map.num_shards() && i < new_n; ++i) {
    shards.push_back(old_map.shard(i));
  }
  size_t next = old_map.num_shards();
  while (shards.size() < new_n) {
    serve::ShardInfo info;
    for (;; ++next) {
      info.name = StrFormat("shard%zu", next);
      bool taken = false;
      for (const serve::ShardInfo& existing : shards) {
        if (existing.name == info.name) taken = true;
      }
      if (!taken) break;
    }
    info.endpoint.unix_socket_path =
        StrFormat("%s%zu.sock", socket_prefix.c_str(), next);
    ++next;
    shards.push_back(std::move(info));
  }
  return shards;
}

int RunSplit(const FlagMap& flags) {
  const std::string index_path = flags.GetString("index");
  const int64_t num_shards = flags.GetInt("shards", 0);
  const std::string out_prefix = flags.GetString("out_prefix");
  const std::string map_out = flags.GetString("map_out");
  if (index_path.empty() || num_shards < 1 || out_prefix.empty() ||
      map_out.empty()) {
    return Usage();
  }
  const std::string socket_prefix =
      flags.GetString("socket_prefix", "/tmp/ipin-shard");
  const int virtual_points =
      static_cast<int>(flags.GetInt("virtual_points", 64));

  std::vector<serve::ShardInfo> shards(static_cast<size_t>(num_shards));
  for (size_t i = 0; i < shards.size(); ++i) {
    shards[i].name = StrFormat("shard%zu", i);
    shards[i].endpoint.unix_socket_path =
        StrFormat("%s%zu.sock", socket_prefix.c_str(), i);
  }
  const serve::ShardMap map(shards, virtual_points);
  if (map.num_shards() != shards.size()) {
    std::fprintf(stderr, "ipin_shard: invalid shard configuration\n");
    return 2;
  }

  const IndexLoadResult load = LoadInfluenceIndexDetailed(index_path);
  if (!load.usable()) {
    std::fprintf(stderr, "ipin_shard: cannot load index '%s'\n",
                 index_path.c_str());
    return 2;
  }
  const IrsApprox& full = *load.index;

  for (size_t i = 0; i < map.num_shards(); ++i) {
    const IrsApprox piece = serve::ExtractShardIndex(full, map, i);
    const size_t owned = piece.NumAllocatedSketches();
    const std::string out = StrFormat("%s%zu.bin", out_prefix.c_str(), i);
    if (!SaveInfluenceIndex(piece, out)) {
      std::fprintf(stderr, "ipin_shard: cannot write '%s'\n", out.c_str());
      return 1;
    }
    const std::optional<std::string> fp = FileFingerprint(out);
    if (!fp.has_value()) {
      std::fprintf(stderr, "ipin_shard: cannot fingerprint '%s'\n",
                   out.c_str());
      return 1;
    }
    shards[i].index_file = Basename(out);
    shards[i].fingerprint = *fp;
    std::printf("ipin_shard: %s <- %s (%zu/%zu nodes owned, %s)\n",
                out.c_str(), map.shard(i).name.c_str(), owned,
                piece.num_nodes(), fp->c_str());
  }

  // Same names => same ring => same ownership; this rebuild only picks up
  // the index_file/fingerprint bindings.
  const serve::ShardMap final_map(shards, virtual_points);
  if (!WriteFileAtomic(map_out, final_map.ToJson() + "\n")) {
    std::fprintf(stderr, "ipin_shard: cannot write map '%s'\n",
                 map_out.c_str());
    return 1;
  }
  std::printf("ipin_shard: wrote map %s (%zu shards, %d virtual points)\n",
              map_out.c_str(), final_map.num_shards(),
              final_map.virtual_points());
  return 0;
}

int RunShow(const FlagMap& flags) {
  const std::string map_path = flags.GetString("map");
  if (map_path.empty()) return Usage();
  std::string error;
  const auto map = serve::ShardMap::ParseFile(map_path, &error);
  if (!map.has_value()) {
    std::fprintf(stderr, "ipin_shard: %s: %s\n", map_path.c_str(),
                 error.c_str());
    return 2;
  }
  std::printf("%s: %zu shards, %d virtual points%s\n", map_path.c_str(),
              map->num_shards(), map->virtual_points(),
              map->InTransition() ? ", IN TRANSITION" : "");
  const size_t num_nodes =
      static_cast<size_t>(flags.GetInt("nodes", 100000));
  std::vector<size_t> owned(map->num_shards(), 0);
  for (NodeId u = 0; u < num_nodes; ++u) ++owned[map->OwnerOf(u)];
  for (size_t i = 0; i < map->num_shards(); ++i) {
    const serve::ShardInfo& info = map->shard(i);
    const std::string endpoint =
        !info.endpoint.unix_socket_path.empty()
            ? info.endpoint.unix_socket_path
            : StrFormat("%s:%d", info.endpoint.tcp_host.c_str(),
                        info.endpoint.tcp_port);
    std::printf("  %-10s %-32s owns %6zu/%zu (%.1f%%)%s\n",
                info.name.c_str(), endpoint.c_str(), owned[i], num_nodes,
                100.0 * static_cast<double>(owned[i]) /
                    static_cast<double>(num_nodes),
                info.replicas.empty()
                    ? ""
                    : StrFormat("  [%zu replicas]", info.replicas.size())
                          .c_str());
  }
  if (map->InTransition()) {
    const serve::ShardMap& prev = *map->previous();
    size_t moved = 0;
    for (NodeId u = 0; u < num_nodes; ++u) {
      if (map->OwnerMoved(u)) ++moved;
    }
    std::printf("  transition: previous epoch has %zu shards; %zu/%zu "
                "nodes (%.1f%%) double-dispatched\n",
                prev.num_shards(), moved, num_nodes,
                100.0 * static_cast<double>(moved) /
                    static_cast<double>(num_nodes));
  }
  return 0;
}

// Resolves which shard owns a node — fault drills use this to pick the one
// daemon whose death is guaranteed to leave the queried seed unanswered.
int RunOwner(const FlagMap& flags) {
  const std::string map_path = flags.GetString("map");
  const int64_t node = flags.GetInt("node", -1);
  if (map_path.empty() || node < 0) return Usage();
  std::string error;
  const auto map = serve::ShardMap::ParseFile(map_path, &error);
  if (!map.has_value()) {
    std::fprintf(stderr, "ipin_shard: %s: %s\n", map_path.c_str(),
                 error.c_str());
    return 2;
  }
  const size_t shard = map->OwnerOf(static_cast<NodeId>(node));
  std::printf("node=%lld shard=%zu name=%s\n", static_cast<long long>(node),
              shard, map->shard(shard).name.c_str());
  return 0;
}

int RunPlan(const FlagMap& flags) {
  const std::string map_path = flags.GetString("map");
  const int64_t new_n = flags.GetInt("shards", 0);
  if (map_path.empty() || new_n < 1) return Usage();
  std::string error;
  const auto old_map = serve::ShardMap::ParseFile(map_path, &error);
  if (!old_map.has_value()) {
    std::fprintf(stderr, "ipin_shard: %s: %s\n", map_path.c_str(),
                 error.c_str());
    return 2;
  }
  const std::string socket_prefix =
      flags.GetString("socket_prefix", "/tmp/ipin-shard");
  const serve::ShardMap new_map(
      GrowShards(*old_map, static_cast<size_t>(new_n), socket_prefix),
      old_map->virtual_points());
  if (new_map.num_shards() != static_cast<size_t>(new_n)) {
    std::fprintf(stderr, "ipin_shard: invalid target configuration\n");
    return 2;
  }
  const size_t num_nodes =
      static_cast<size_t>(flags.GetInt("nodes", 100000));
  std::vector<size_t> before(old_map->num_shards(), 0);
  std::vector<size_t> after(new_map.num_shards(), 0);
  size_t moved = 0;
  for (NodeId u = 0; u < num_nodes; ++u) {
    const size_t old_owner = old_map->OwnerOf(u);
    const size_t new_owner = new_map.OwnerOf(u);
    ++before[old_owner];
    ++after[new_owner];
    if (old_map->shard(old_owner).name != new_map.shard(new_owner).name) {
      ++moved;
    }
  }
  std::printf("plan: %zu -> %zu shards over %zu nodes\n",
              old_map->num_shards(), new_map.num_shards(), num_nodes);
  for (size_t i = 0; i < new_map.num_shards(); ++i) {
    const std::string& name = new_map.shard(i).name;
    size_t was = 0;
    bool existed = false;
    for (size_t j = 0; j < old_map->num_shards(); ++j) {
      if (old_map->shard(j).name == name) {
        was = before[j];
        existed = true;
      }
    }
    std::printf("  %-10s %6zu -> %6zu%s\n", name.c_str(), was, after[i],
                existed ? "" : "  [new]");
  }
  std::printf("plan: %zu/%zu nodes move (%.1f%%; ideal for growth: "
              "%.1f%%)\n",
              moved, num_nodes,
              100.0 * static_cast<double>(moved) /
                  static_cast<double>(num_nodes),
              new_map.num_shards() > old_map->num_shards()
                  ? 100.0 *
                        static_cast<double>(new_map.num_shards() -
                                            old_map->num_shards()) /
                        static_cast<double>(new_map.num_shards())
                  : 0.0);
  return 0;
}

/// Loads the old pieces and reassembles the full index, copying each
/// node's row and entry count from its owner's piece. Every piece may
/// hold only nodes its shard owns (checked), so the pieces are disjoint.
/// nullopt (with a message on stderr) on any load or ownership violation.
std::optional<IrsApprox> ReconstructFullIndex(const serve::ShardMap& old_map,
                                              const std::string& map_dir,
                                              const std::string& in_prefix) {
  std::vector<IrsApprox> pieces;
  for (size_t i = 0; i < old_map.num_shards(); ++i) {
    const std::string path = OldPiecePath(old_map, i, map_dir, in_prefix);
    if (path.empty()) {
      std::fprintf(stderr,
                   "ipin_shard: shard %zu (%s) has no index_file and no "
                   "--in_prefix was given\n",
                   i, old_map.shard(i).name.c_str());
      return std::nullopt;
    }
    IndexLoadResult load = LoadInfluenceIndexDetailed(path);
    if (!load.usable()) {
      std::fprintf(stderr, "ipin_shard: cannot load piece '%s'\n",
                   path.c_str());
      return std::nullopt;
    }
    const IrsApprox& piece = *load.index;
    if (i > 0 && (piece.num_nodes() != pieces[0].num_nodes() ||
                  piece.window() != pieces[0].window() ||
                  piece.options().precision !=
                      pieces[0].options().precision ||
                  piece.options().salt != pieces[0].options().salt)) {
      std::fprintf(stderr,
                   "ipin_shard: piece '%s' disagrees with piece 0 on node "
                   "space, window or sketch parameters\n",
                   path.c_str());
      return std::nullopt;
    }
    for (NodeId u = 0; u < piece.num_nodes(); ++u) {
      if (piece.arena()->has_node(u) && old_map.OwnerOf(u) != i) {
        std::fprintf(stderr,
                     "ipin_shard: piece '%s' holds node %llu owned by "
                     "shard %zu\n",
                     path.c_str(), static_cast<unsigned long long>(u),
                     old_map.OwnerOf(u));
        return std::nullopt;
      }
    }
    pieces.push_back(std::move(*load.index));
  }
  if (pieces.empty()) {
    std::fprintf(stderr, "ipin_shard: old map has no shards\n");
    return std::nullopt;
  }

  const IrsApprox& first = pieces[0];
  size_t sketches = 0;
  for (const IrsApprox& piece : pieces) {
    sketches += piece.NumAllocatedSketches();
  }
  SketchArena arena(first.options().precision, first.options().salt,
                    first.num_nodes(), sketches);
  for (NodeId u = 0; u < first.num_nodes(); ++u) {
    const SketchArena& from = *pieces[old_map.OwnerOf(u)].arena();
    if (from.has_node(u)) arena.AppendCopy(u, from);
  }
  return IrsApprox(first.window(), first.options(), std::move(arena));
}

int RunRebalance(const FlagMap& flags) {
  const std::string map_path = flags.GetString("map");
  const int64_t new_n = flags.GetInt("shards", 0);
  const std::string out_prefix = flags.GetString("out_prefix");
  const std::string map_out = flags.GetString("map_out");
  if (map_path.empty() || new_n < 1 || out_prefix.empty() ||
      map_out.empty()) {
    return Usage();
  }
  const std::string in_prefix = flags.GetString("in_prefix");
  const std::string socket_prefix =
      flags.GetString("socket_prefix", "/tmp/ipin-shard");
  const size_t sample = static_cast<size_t>(flags.GetInt("sample", 64));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  std::string error;
  auto old_map = serve::ShardMap::ParseFile(map_path, &error);
  if (!old_map.has_value()) {
    std::fprintf(stderr, "ipin_shard: %s: %s\n", map_path.c_str(),
                 error.c_str());
    return 2;
  }
  // A reshard starts from a settled assignment: chaining off an unfinalized
  // one would make "previous epoch" ambiguous.
  old_map->ClearTransition();

  std::optional<IrsApprox> full =
      ReconstructFullIndex(*old_map, Dirname(map_path), in_prefix);
  if (!full.has_value()) return 2;

  std::vector<serve::ShardInfo> shards =
      GrowShards(*old_map, static_cast<size_t>(new_n), socket_prefix);
  serve::ShardMap new_map(shards, old_map->virtual_points());
  if (new_map.num_shards() != static_cast<size_t>(new_n)) {
    std::fprintf(stderr, "ipin_shard: invalid target configuration\n");
    return 2;
  }

  // Materialize, then re-load each written piece (the safe_io CRC walk runs
  // on load) and spot-check rank equality against the reconstruction.
  Rng rng(seed);
  for (size_t i = 0; i < new_map.num_shards(); ++i) {
    const IrsApprox piece = serve::ExtractShardIndex(*full, new_map, i);
    const std::string out = StrFormat("%s%zu.bin", out_prefix.c_str(), i);
    if (!SaveInfluenceIndex(piece, out)) {
      std::fprintf(stderr, "ipin_shard: cannot write '%s'\n", out.c_str());
      return 1;
    }
    const IndexLoadResult reload = LoadInfluenceIndexDetailed(out);
    if (!reload.usable()) {
      std::fprintf(stderr, "ipin_shard: reload of '%s' failed\n",
                   out.c_str());
      return 1;
    }
    size_t checked = 0;
    for (size_t attempt = 0;
         attempt < sample * 8 && checked < sample && full->num_nodes() > 0;
         ++attempt) {
      const NodeId u =
          static_cast<NodeId>(rng.NextBounded(full->num_nodes()));
      if (new_map.OwnerOf(u) != i) continue;
      const SketchArena& want = *full->arena();
      const SketchArena& got = *reload.index->arena();
      const bool equal =
          want.has_node(u) == got.has_node(u) &&
          std::ranges::equal(want.rank_row(u), got.rank_row(u));
      if (!equal) {
        std::fprintf(stderr,
                     "ipin_shard: rank mismatch for node %llu in '%s'\n",
                     static_cast<unsigned long long>(u), out.c_str());
        return 1;
      }
      ++checked;
    }
    const std::optional<std::string> fp = FileFingerprint(out);
    if (!fp.has_value()) {
      std::fprintf(stderr, "ipin_shard: cannot fingerprint '%s'\n",
                   out.c_str());
      return 1;
    }
    shards[i].index_file = Basename(out);
    shards[i].fingerprint = *fp;
    std::printf("ipin_shard: %s <- %s (%zu spot checks, %s)\n", out.c_str(),
                new_map.shard(i).name.c_str(), checked, fp->c_str());
  }

  serve::ShardMap final_map(shards, old_map->virtual_points());
  final_map.BeginTransition(
      std::make_shared<const serve::ShardMap>(*old_map));
  if (!WriteFileAtomic(map_out, final_map.ToJson() + "\n")) {
    std::fprintf(stderr, "ipin_shard: cannot write map '%s'\n",
                 map_out.c_str());
    return 1;
  }
  std::printf(
      "ipin_shard: wrote transition map %s (%zu -> %zu shards); reload "
      "routers to begin double-dispatch, then `ipin_shard finalize` once "
      "the new fleet is up\n",
      map_out.c_str(), old_map->num_shards(), final_map.num_shards());
  return 0;
}

int RunFinalize(const FlagMap& flags) {
  const std::string map_path = flags.GetString("map");
  if (map_path.empty()) return Usage();
  const std::string map_out = flags.GetString("map_out", map_path);
  std::string error;
  auto map = serve::ShardMap::ParseFile(map_path, &error);
  if (!map.has_value()) {
    std::fprintf(stderr, "ipin_shard: %s: %s\n", map_path.c_str(),
                 error.c_str());
    return 2;
  }
  if (!map->InTransition()) {
    std::printf("ipin_shard: %s is not in transition; nothing to do\n",
                map_path.c_str());
  }
  map->ClearTransition();
  if (!WriteFileAtomic(map_out, map->ToJson() + "\n")) {
    std::fprintf(stderr, "ipin_shard: cannot write map '%s'\n",
                 map_out.c_str());
    return 1;
  }
  std::printf("ipin_shard: wrote finalized map %s (%zu shards)\n",
              map_out.c_str(), map->num_shards());
  return 0;
}

/// Checks one assignment's pieces under `dir`. Returns the number of
/// verification failures (printing each); bumps *checked per piece
/// inspected. IO problems count as failures here — the map made a claim
/// (index_file) the directory cannot back.
size_t VerifyAssignment(const serve::ShardMap& map, const std::string& dir,
                        const char* label, size_t* checked) {
  size_t failures = 0;
  std::optional<size_t> num_nodes;
  for (size_t i = 0; i < map.num_shards(); ++i) {
    const serve::ShardInfo& info = map.shard(i);
    for (const serve::ShardEndpoint& replica : info.replicas) {
      if (!replica.valid()) {
        std::printf("FAIL %s %s: invalid replica endpoint\n", label,
                    info.name.c_str());
        ++failures;
      }
    }
    if (info.index_file.empty()) continue;
    ++*checked;
    const std::string path = info.index_file.front() == '/'
                                 ? info.index_file
                                 : dir + "/" + info.index_file;
    if (!info.fingerprint.empty()) {
      const std::optional<std::string> fp = FileFingerprint(path);
      if (!fp.has_value() || *fp != info.fingerprint) {
        std::printf("FAIL %s %s: fingerprint %s, recorded %s\n", label,
                    info.name.c_str(),
                    fp.has_value() ? fp->c_str() : "(unreadable)",
                    info.fingerprint.c_str());
        ++failures;
        continue;
      }
    }
    const IndexLoadResult load = LoadInfluenceIndexDetailed(path);
    if (!load.usable()) {
      std::printf("FAIL %s %s: piece '%s' does not load\n", label,
                  info.name.c_str(), path.c_str());
      ++failures;
      continue;
    }
    const IrsApprox& piece = *load.index;
    if (num_nodes.has_value() && piece.num_nodes() != *num_nodes) {
      std::printf("FAIL %s %s: node space %zu, expected %zu\n", label,
                  info.name.c_str(), piece.num_nodes(), *num_nodes);
      ++failures;
      continue;
    }
    num_nodes = piece.num_nodes();
    size_t owned = 0;
    size_t foreign = 0;
    for (NodeId u = 0; u < piece.num_nodes(); ++u) {
      if (!piece.arena()->has_node(u)) continue;
      if (map.OwnerOf(u) == i) {
        ++owned;
      } else {
        ++foreign;
      }
    }
    if (foreign > 0) {
      // Sketches only where the map says so — this per-piece containment
      // is also what makes the pieces pairwise disjoint.
      std::printf("FAIL %s %s: %zu sketches for nodes it does not own\n",
                  label, info.name.c_str(), foreign);
      ++failures;
      continue;
    }
    std::printf("ok   %s %-10s %s (%zu owned sketches)\n", label,
                info.name.c_str(), info.index_file.c_str(), owned);
  }
  return failures;
}

int RunVerify(const FlagMap& flags) {
  std::string map_path = flags.GetString("map");
  std::string dir = flags.GetString("dir");
  if (map_path.empty() && flags.positional().size() >= 2) {
    map_path = flags.positional()[1];
  }
  if (dir.empty() && flags.positional().size() >= 3) {
    dir = flags.positional()[2];
  }
  if (map_path.empty() || dir.empty()) return Usage();
  std::string error;
  const auto map = serve::ShardMap::ParseFile(map_path, &error);
  if (!map.has_value()) {
    std::fprintf(stderr, "ipin_shard: %s: %s\n", map_path.c_str(),
                 error.c_str());
    return 2;
  }
  size_t checked = 0;
  size_t failures = VerifyAssignment(*map, dir, "new", &checked);
  if (map->InTransition()) {
    failures += VerifyAssignment(*map->previous(), dir, "old", &checked);
  }
  if (checked == 0) {
    std::fprintf(stderr,
                 "ipin_shard: map records no index_file bindings; nothing "
                 "to verify\n");
    return 2;
  }
  if (failures > 0) {
    std::printf("verify: %zu FAILURE(S) across %zu piece(s)\n", failures,
                checked);
    return 1;
  }
  std::printf("verify: %zu piece(s) consistent\n", checked);
  return 0;
}

int Run(int argc, char** argv) {
  const FlagMap flags = FlagMap::Parse(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string& verb = flags.positional()[0];
  if (verb == "split") return RunSplit(flags);
  if (verb == "show") return RunShow(flags);
  if (verb == "owner") return RunOwner(flags);
  if (verb == "plan") return RunPlan(flags);
  if (verb == "rebalance") return RunRebalance(flags);
  if (verb == "finalize") return RunFinalize(flags);
  if (verb == "verify") return RunVerify(flags);
  return Usage();
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
