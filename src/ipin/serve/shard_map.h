#ifndef IPIN_SERVE_SHARD_MAP_H_
#define IPIN_SERVE_SHARD_MAP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
// the node space, which is what makes resharding a rolling operation
// instead of a full rebuild.
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
// Serialized form: "ipin.shardmap.v1" (still parsed) or "ipin.shardmap.v2"
// (emitted whenever any v2 feature is present), one JSON document:
//
//   {"schema": "ipin.shardmap.v2",
//    "virtual_points": 64,
//    "shards": [
//      {"name": "shard0", "unix_socket": "/tmp/ipin-shard0.sock",
//       "index_file": "shard0.bin", "fingerprint": "crc32c:89ab12cd",
//       "replicas": [{"unix_socket": "/tmp/ipin-shard0r.sock"}]},
//      {"name": "shard1", "tcp_host": "127.0.0.1", "tcp_port": 7101}],
//    "transition": {"virtual_points": 64, "shards": [...]}}
//
// Each shard needs a name (unique; it seeds the ring points, so renaming a
// shard moves its ownership) and exactly one primary endpoint (unix_socket
// or tcp_port [+ tcp_host, default 127.0.0.1]).
//
// v2 additions:
//   * "replicas": up to kMaxReplicas more endpoints per shard, each a
//     daemon serving the SAME shard file. The primary and its replicas form
//     one ordered endpoint list (ShardInfo::endpoint_at) and that list is
//     the only redundancy concept: the router's health tracker PROMOTES the
//     next live endpoint when the active one's circuit opens (it carries all
//     subsequent legs until a probe recovers the primary), and a hedged
//     retry of a straggling leg goes to the endpoint after the active one.
//     A v1 map's mirror endpoint (mirror_unix_socket / mirror_tcp_port
//     [+ mirror_tcp_host]) parses as one more replica, under the same
//     duplicate and kMaxReplicas checks, and is written back as a replica.
//   * "index_file" / "fingerprint": the shard's index file (relative name)
//     and its crc32c fingerprint ("crc32c:%08x" over the file bytes), bound
//     at materialization time by ipin_shard and checked by `ipin_shard
//     verify`.
//   * "transition": the PREVIOUS epoch's assignment (shard list +
//     virtual_points, same schema minus nesting). While present, the map is
//     "in transition": the router double-dispatches every seed whose owner
//     differs between the two assignments — preferring the new owner,
//     falling back to the old — so a mid-migration answer stays bit-
//     identical to the single-index answer as long as either epoch's owner
//     is up (cellwise max is idempotent, so overlapping partials cannot
//     double-count). `ipin_shard rebalance` emits a transition map;
//     `ipin_shard finalize` strips the block once the old fleet retires.

namespace ipin::serve {

/// One dialable address, mirroring ClientOptions' endpoint fields.
struct ShardEndpoint {
  std::string unix_socket_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;

  bool valid() const { return !unix_socket_path.empty() || tcp_port >= 0; }
  bool operator==(const ShardEndpoint&) const = default;
};

struct ShardInfo {
  std::string name;
  ShardEndpoint endpoint;
  /// Further endpoints (v2). Each serves the same shard file as the
  /// primary; the router promotes replicas[0], replicas[1], ... in order
  /// when the active endpoint goes down.
  std::vector<ShardEndpoint> replicas;
  /// Relative file name of this shard's index (v2; set by ipin_shard).
  std::string index_file;
  /// "crc32c:%08x" over the index file's bytes (v2; set by ipin_shard).
  std::string fingerprint;

  /// The ordered endpoint list: 0 = the primary, i = replicas[i - 1].
  size_t num_endpoints() const { return 1 + replicas.size(); }
  const ShardEndpoint& endpoint_at(size_t i) const {
    return i == 0 ? endpoint : replicas[i - 1];
  }
};

/// Upper bound on replicas per shard, a v1 mirror included (a sanity cap,
/// not a tuning knob).
inline constexpr size_t kMaxReplicas = 4;

class ShardMap {
 public:
  /// Builds the map (and its ring) from explicit shard infos. `shards` must
  /// be non-empty with unique names and valid endpoints (checked; invalid
  /// input leaves an empty map — prefer Parse for untrusted input).
  explicit ShardMap(std::vector<ShardInfo> shards, int virtual_points = 64);

  /// Parses an "ipin.shardmap.v1" or "ipin.shardmap.v2" document. nullopt
  /// (with *error filled when non-null) on syntax errors, a wrong/missing
  /// schema tag, an empty shard list, duplicate names, a shard without a
  /// valid endpoint, bad replicas, or a nested transition block.
  static std::optional<ShardMap> Parse(std::string_view json,
                                       std::string* error);
  static std::optional<ShardMap> ParseFile(const std::string& path,
                                           std::string* error);

  /// Serializes back to one line with stable field order; Parse(ToJson())
  /// reproduces the map exactly. Emits the v1 schema tag when no v2 feature
  /// (replicas / index_file / fingerprint / transition) is present, v2
  /// otherwise.
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

  /// --- Transition (v2) ---

  /// True while a previous-epoch assignment rides along (the router then
  /// double-dispatches moved keys).
  bool InTransition() const { return previous_ != nullptr; }
  /// The previous assignment; nullptr when not in transition.
  const ShardMap* previous() const { return previous_.get(); }

  /// Attaches/clears the previous assignment. `previous` must itself not be
  /// in transition (one hop only); a nested transition is dropped.
  void BeginTransition(std::shared_ptr<const ShardMap> previous);
  void ClearTransition() { previous_.reset(); }

  /// Does `node`'s owning DAEMON differ between the epochs? (Owners are
  /// compared by shard name, so shard0 staying shard0 is not a move even
  /// though the two maps index it independently.) Always false when not in
  /// transition.
  bool OwnerMoved(NodeId node) const;

 private:
  ShardMap() = default;

  void BuildRing();

  std::vector<ShardInfo> shards_;
  int virtual_points_ = 64;
  /// (ring point, shard index), sorted by point.
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
  /// Previous epoch's assignment during a live reshard (never nested).
  std::shared_ptr<const ShardMap> previous_;
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

/// Epoch-swapped ownership of the shard map, mirroring IndexManager's
/// contract for the serving index: queries snapshot the current map and
/// finish their fan-out on it while a reload swaps the pointer underneath.
/// A map file that is missing, unparsable, or semantically invalid is
/// REJECTED: the old map keeps serving ("rollback"), serve.shard.map.rollback
/// is incremented and an error is logged. Only a valid parse advances the
/// epoch (serve.shard.map.ok). Failpoint "serve.shard.map" forces the
/// rollback path.
class ShardMapManager {
 public:
  /// `map_path` is the file Reload() reads; may be empty for in-process use
  /// (tests, benches) — then Install() is the only way to load.
  explicit ShardMapManager(std::string map_path);

  ShardMapManager(const ShardMapManager&) = delete;
  ShardMapManager& operator=(const ShardMapManager&) = delete;

  /// Installs an in-memory map (first epoch or test swap).
  void Install(std::shared_ptr<const ShardMap> map);

  /// Re-reads map_path; swaps atomically on success, rolls back otherwise.
  ReloadStatus Reload();

  std::shared_ptr<const ShardMap> Current() const;
  ShardMapSnapshot Snapshot() const;
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  const std::string& map_path() const { return map_path_; }

 private:
  const std::string map_path_;

  mutable std::mutex mu_;  // guards current_
  std::shared_ptr<const ShardMap> current_;
  std::atomic<uint64_t> epoch_{0};

  std::mutex reload_mu_;  // serializes reload attempts
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_SHARD_MAP_H_
