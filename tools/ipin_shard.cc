// ipin_shard: offline sharding for the scatter-gather serving tier
// (DESIGN.md §11). Splits one full influence index into per-shard index
// files — each keeping the full node space with only its owned nodes'
// sketches, the invariant the router's exact merge rests on — and writes
// the matching "ipin.shardmap.v2" map that ipin_routerd routes by.
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
//     Prints the parsed map and the ownership balance over the first
//     --nodes node ids.
//
//   ipin_shard owner --map=<shards.json> --node=<id>
//
//     Which shard owns a node (fault drills pick SIGKILL victims with it).
//
//   ipin_shard verify <map.json> <dir>   (or --map=... --dir=...)
//
//     Offline consistency check of a map against materialized shard files
//     in <dir>: every piece loads cleanly, matches its recorded crc32c
//     fingerprint, has a consistent node space, and contains sketches ONLY
//     for nodes the map assigns to it (which also proves cross-piece
//     disjointness). Exit 0 = consistent, 1 = verification failure, 2 =
//     usage/IO.
//
// Every numeric flag is range-checked: a value outside its range (a node id
// past the NodeId range, a ring over the shard map's cap) exits 2 with a
// message.

#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "ipin/common/flags.h"
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
      "       ipin_shard verify <map.json> <dir>\n");
  return 2;
}

constexpr int64_t kMaxNodeId = std::numeric_limits<NodeId>::max();

/// Integer flag `name` (default `def`); nullopt, with a message on stderr,
/// when it lies outside [min, max].
std::optional<int64_t> IntFlag(const FlagMap& flags, const char* name,
                               int64_t def, int64_t min, int64_t max) {
  const int64_t value = flags.GetInt(name, def);
  if (value < min || value > max) {
    std::fprintf(stderr, "ipin_shard: --%s must be between %lld and %lld\n",
                 name, static_cast<long long>(min),
                 static_cast<long long>(max));
    return std::nullopt;
  }
  return value;
}

/// The shard map at `map_path`; nullopt, with the parse error on stderr,
/// when it does not parse.
std::optional<serve::ShardMap> ParseMapFlag(const std::string& map_path) {
  std::string error;
  auto map = serve::ShardMap::ParseFile(map_path, &error);
  if (!map.has_value()) {
    std::fprintf(stderr, "ipin_shard: %s: %s\n", map_path.c_str(),
                 error.c_str());
  }
  return map;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// "crc32c:%08x" over the file's raw bytes; nullopt when unreadable.
std::optional<std::string> FileFingerprint(const std::string& path) {
  const std::optional<std::string> bytes = ReadFileBytes(path);
  if (!bytes.has_value()) return std::nullopt;
  return StrFormat("crc32c:%08x", Crc32c(bytes->data(), bytes->size()));
}

int RunSplit(const FlagMap& flags) {
  const std::string index_path = flags.GetString("index");
  const std::string out_prefix = flags.GetString("out_prefix");
  const std::string map_out = flags.GetString("map_out");
  if (index_path.empty() || !flags.Has("shards") || out_prefix.empty() ||
      map_out.empty()) {
    return Usage();
  }
  const std::string socket_prefix =
      flags.GetString("socket_prefix", "/tmp/ipin-shard");
  // The ring cap bounds the shard count before anything is allocated.
  const std::optional<int64_t> virtual_points =
      IntFlag(flags, "virtual_points", 64, 1, 4096);
  if (!virtual_points.has_value()) return 2;
  const std::optional<int64_t> num_shards =
      IntFlag(flags, "shards", 0, 1,
              static_cast<int64_t>(serve::kMaxRingPoints) / *virtual_points);
  if (!num_shards.has_value()) return 2;

  std::vector<serve::ShardInfo> shards(static_cast<size_t>(*num_shards));
  for (size_t i = 0; i < shards.size(); ++i) {
    shards[i].name = StrFormat("shard%zu", i);
    shards[i].endpoint.unix_socket_path =
        StrFormat("%s%zu.sock", socket_prefix.c_str(), i);
  }
  const serve::ShardMap map(shards, static_cast<int>(*virtual_points));
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
  const serve::ShardMap final_map(shards, static_cast<int>(*virtual_points));
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
  const std::optional<int64_t> nodes =
      IntFlag(flags, "nodes", 100000, 1, kMaxNodeId);
  if (!nodes.has_value()) return 2;
  const auto map = ParseMapFlag(map_path);
  if (!map.has_value()) return 2;
  std::printf("%s: %zu shards, %d virtual points\n", map_path.c_str(),
              map->num_shards(), map->virtual_points());
  const NodeId num_nodes = static_cast<NodeId>(*nodes);
  std::vector<size_t> owned(map->num_shards(), 0);
  for (NodeId u = 0; u < num_nodes; ++u) ++owned[map->OwnerOf(u)];
  for (size_t i = 0; i < map->num_shards(); ++i) {
    const serve::ShardInfo& info = map->shard(i);
    const std::string endpoint =
        !info.endpoint.unix_socket_path.empty()
            ? info.endpoint.unix_socket_path
            : StrFormat("%s:%d", info.endpoint.tcp_host.c_str(),
                        info.endpoint.tcp_port);
    std::printf("  %-10s %-32s owns %6zu/%u (%.1f%%)\n", info.name.c_str(),
                endpoint.c_str(), owned[i], num_nodes,
                100.0 * static_cast<double>(owned[i]) /
                    static_cast<double>(num_nodes));
  }
  return 0;
}

// Resolves which shard owns a node — fault drills use this to pick the one
// daemon whose death is guaranteed to leave the queried seed unanswered.
int RunOwner(const FlagMap& flags) {
  const std::string map_path = flags.GetString("map");
  if (map_path.empty() || !flags.Has("node")) return Usage();
  const std::optional<int64_t> node = IntFlag(flags, "node", -1, 0, kMaxNodeId);
  if (!node.has_value()) return 2;
  const auto map = ParseMapFlag(map_path);
  if (!map.has_value()) return 2;
  const size_t shard = map->OwnerOf(static_cast<NodeId>(*node));
  std::printf("node=%lld shard=%zu name=%s\n", static_cast<long long>(*node),
              shard, map->shard(shard).name.c_str());
  return 0;
}

/// Checks the map's pieces under `dir`. Returns the number of verification
/// failures (printing each); bumps *checked per piece inspected. IO
/// problems count as failures here — the map made a claim (index_file) the
/// directory cannot back.
size_t VerifyPieces(const serve::ShardMap& map, const std::string& dir,
                    size_t* checked) {
  size_t failures = 0;
  std::optional<size_t> num_nodes;
  for (size_t i = 0; i < map.num_shards(); ++i) {
    const serve::ShardInfo& info = map.shard(i);
    if (info.index_file.empty()) continue;
    ++*checked;
    const std::string path = info.index_file.front() == '/'
                                 ? info.index_file
                                 : dir + "/" + info.index_file;
    if (!info.fingerprint.empty()) {
      const std::optional<std::string> fp = FileFingerprint(path);
      if (!fp.has_value() || *fp != info.fingerprint) {
        std::printf("FAIL %s: fingerprint %s, recorded %s\n",
                    info.name.c_str(),
                    fp.has_value() ? fp->c_str() : "(unreadable)",
                    info.fingerprint.c_str());
        ++failures;
        continue;
      }
    }
    const IndexLoadResult load = LoadInfluenceIndexDetailed(path);
    if (!load.usable()) {
      std::printf("FAIL %s: piece '%s' does not load\n", info.name.c_str(),
                  path.c_str());
      ++failures;
      continue;
    }
    const IrsApprox& piece = *load.index;
    if (num_nodes.has_value() && piece.num_nodes() != *num_nodes) {
      std::printf("FAIL %s: node space %zu, expected %zu\n",
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
      std::printf("FAIL %s: %zu sketches for nodes it does not own\n",
                  info.name.c_str(), foreign);
      ++failures;
      continue;
    }
    std::printf("ok   %-10s %s (%zu owned sketches)\n", info.name.c_str(),
                info.index_file.c_str(), owned);
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
  const auto map = ParseMapFlag(map_path);
  if (!map.has_value()) return 2;
  size_t checked = 0;
  const size_t failures = VerifyPieces(*map, dir, &checked);
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
  if (verb == "verify") return RunVerify(flags);
  return Usage();
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
