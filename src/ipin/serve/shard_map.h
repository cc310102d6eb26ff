#ifndef IPIN_SERVE_SHARD_MAP_H_
#define IPIN_SERVE_SHARD_MAP_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ipin/core/irs_approx.h"
#include "ipin/serve/index_manager.h"

// The shard map of the scatter-gather serving tier (DESIGN.md §11): which
// shard owns which slice of the node space, and where to reach it.
//
// Ownership uses consistent hashing: every shard contributes
// `virtual_points` points on a 64-bit ring (hash of "<name>#<i>"), and a
// node belongs to the shard owning the first ring point at or after
// Hash64(node). Adding or removing one shard therefore moves only ~1/N of
// the node space.
//
// Exactness of the scatter-gather merge rests on two invariants this
// header's helpers maintain:
//
//   1. Disjoint cover. Every node is owned by exactly one shard
//      (OwnerOf is a pure function of the map), so a seed set partitions
//      into disjoint per-shard subsets.
//   2. Full node space. A shard index produced by ExtractShardIndex keeps
//      the FULL num_nodes() of the source index and merely nulls out the
//      sketches of nodes it does not own. Seed-range validation therefore
//      behaves identically on every shard, and a rank vector computed over
//      a shard's subset is exactly the cellwise max its seeds would have
//      contributed on the single-process path. Cellwise max is associative
//      and commutative, so max over the shard partials equals the
//      single-process union vector bit for bit, and EstimateFromRanks of
//      the merged vector equals IrsApprox::EstimateUnionSize of the full
//      index. (A node with no sketch contributes an all-zero vector — the
//      identity of cellwise max — matching the single-process "no sketch"
//      path, which returns 0.)
//
// Serialized form: "ipin.shardmap.v1" or "ipin.shardmap.v2" (emitted when
// a shard carries an index_file or fingerprint), one JSON document:
//
//   {"schema": "ipin.shardmap.v2",
//    "virtual_points": 64,
//    "shards": [
//      {"name": "shard0", "unix_socket": "/tmp/ipin-shard0.sock",
//       "index_file": "shard0.bin", "fingerprint": "crc32c:89ab12cd"},
//      {"name": "shard1", "tcp_host": "127.0.0.1", "tcp_port": 7101}]}
//
// Each shard needs a name (unique; it seeds the ring points, so renaming a
// shard moves its ownership) and exactly one endpoint (unix_socket or
// tcp_port [+ tcp_host, default 127.0.0.1]). "index_file" / "fingerprint"
// name the shard's index file (relative name) and its crc32c fingerprint
// ("crc32c:%08x" over the file bytes), bound by `ipin_shard split` and
// checked by `ipin_shard verify`.
//
// The map is static: one endpoint per shard, one assignment. A document
// with a field other than these is rejected with an error naming it, since
// ignoring a field could route seeds to shards that do not hold them. So is
// a ring of more than kMaxRingPoints points (shards x virtual_points).

namespace ipin::serve {

/// One dialable address, mirroring ClientOptions' endpoint fields.
struct ShardEndpoint {
  std::string unix_socket_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;

  bool valid() const { return !unix_socket_path.empty() || tcp_port >= 0; }
};

struct ShardInfo {
  std::string name;
  ShardEndpoint endpoint;
  /// Relative file name of this shard's index (v2; set by ipin_shard).
  std::string index_file;
  /// "crc32c:%08x" over the index file's bytes (v2; set by ipin_shard).
  std::string fingerprint;
};

/// Upper bound on a map's ring points (shards x virtual_points). A sanity
/// cap on what a map file can make the router build, not a tuning knob:
/// 2^20 points is 16 MiB of ring and well under a second to build.
inline constexpr size_t kMaxRingPoints = size_t{1} << 20;

class ShardMap {
 public:
  /// Builds the map (and its ring) from explicit shard infos. `shards` must
  /// be non-empty with unique names and valid endpoints, and shards x
  /// virtual_points at most kMaxRingPoints (checked; invalid input leaves an
  /// empty map — prefer Parse for untrusted input).
  explicit ShardMap(std::vector<ShardInfo> shards, int virtual_points = 64);

  /// Parses an "ipin.shardmap.v1" or "ipin.shardmap.v2" document. nullopt
  /// (with *error filled when non-null) on syntax errors, a wrong/missing
  /// schema tag, an empty shard list, duplicate names, a shard without a
  /// valid endpoint, an unknown field, or a ring over kMaxRingPoints.
  static std::optional<ShardMap> Parse(std::string_view json,
                                       std::string* error);
  static std::optional<ShardMap> ParseFile(const std::string& path,
                                           std::string* error);

  /// Serializes back to one line with stable field order; Parse(ToJson())
  /// reproduces the map exactly. Emits the v1 schema tag when no shard has
  /// an index_file or fingerprint, v2 otherwise.
  std::string ToJson() const;

  size_t num_shards() const { return shards_.size(); }
  const ShardInfo& shard(size_t i) const { return shards_[i]; }
  int virtual_points() const { return virtual_points_; }

  /// The shard owning `node` — consistent-hash ring lookup, O(log ring).
  size_t OwnerOf(NodeId node) const;

  /// Partitions `seeds` into per-shard subsets (result[i] = seeds owned by
  /// shard i, in input order; duplicates preserved).
  std::vector<std::vector<NodeId>> PartitionSeeds(
      std::span<const NodeId> seeds) const;

 private:
  void BuildRing();

  std::vector<ShardInfo> shards_;
  int virtual_points_ = 64;
  /// (ring point, shard index), sorted by point.
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
};

/// Copies out the slice of `full` that `shard` owns under `map`: same
/// num_nodes, same window/precision/salt, with only the owned nodes'
/// sketches (their rows and entry counts) retained (see the exactness
/// invariants above).
/// Pair with SaveInfluenceIndex to write shard files a per-shard
/// ipin_oracled serves.
IrsApprox ExtractShardIndex(const IrsApprox& full, const ShardMap& map,
                            size_t shard);

/// A consistent view of the router's shard map, taken under one lock.
struct ShardMapSnapshot {
  std::shared_ptr<const ShardMap> map;
  uint64_t epoch = 0;
};

extern template class EpochHolder<ShardMap>;

/// The router's shard map, in the holder the oracle's index uses
/// (index_manager.h): a missing or invalid map rolls back
/// (serve.shard.map.rollback, "serve: shard map reload rejected (<why>);
/// keeping epoch N"), a valid one advances the epoch (serve.shard.map.ok,
/// "serve: shard map loaded from <path> (N shards, epoch E)"); failpoint
/// "serve.shard.map".
class ShardMapManager : public EpochHolder<ShardMap> {
 public:
  explicit ShardMapManager(std::string map_path);

  ShardMapSnapshot Snapshot() const;
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_SHARD_MAP_H_
