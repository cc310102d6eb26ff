#include "ipin/serve/shard_map.h"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "ipin/common/hash.h"
#include "ipin/common/json.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/export.h"

namespace ipin::serve {
namespace {

constexpr char kSchemaV1[] = "ipin.shardmap.v1";
constexpr char kSchemaV2[] = "ipin.shardmap.v2";

bool Fail(std::string* error, std::string reason) {
  if (error != nullptr) *error = std::move(reason);
  return false;
}

// Fails on the first key of `object` that is not in `known`, naming it. A
// map is never read past a field it does not know: a field of the removed
// failover and live-reshard tier (a shard's replicas or v1 mirror, the
// map's previous-epoch block), dropped, could route seeds to shards that do
// not hold them.
bool OnlyKnownFields(const JsonValue& object,
                     std::initializer_list<std::string_view> known,
                     const std::string& where, std::string* error) {
  for (const auto& [key, value] : object.object_items()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Fail(error, where + "unknown field \"" + key + "\"");
    }
  }
  return true;
}

// Reads string field `key` of `object` into *out, which keeps its value
// when the field is absent. A field of another type fails, naming it: a
// fallback would route by something other than what the map says.
bool StringField(const JsonValue& object, std::string_view key,
                 std::string* out, std::string* error) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr) return true;
  if (!field->is_string()) {
    return Fail(error, "field \"" + std::string(key) + "\" is not a string");
  }
  *out = field->string_value();
  return true;
}

// Reads a shard object's endpoint. True when the fields are well-formed
// (including "entirely absent", which leaves *out invalid — the caller
// rejects that).
bool ParseEndpoint(const JsonValue& shard, ShardEndpoint* out,
                   std::string* error) {
  *out = ShardEndpoint{};
  if (!StringField(shard, "unix_socket", &out->unix_socket_path, error)) {
    return false;
  }
  const JsonValue* port = shard.Find("tcp_port");
  if (port != nullptr) {
    if (!port->is_number() || port->number_value() < 0 ||
        port->number_value() > 65535 ||
        port->number_value() != static_cast<int>(port->number_value())) {
      return Fail(error, "bad tcp_port");
    }
    out->tcp_port = static_cast<int>(port->number_value());
  }
  if (!out->unix_socket_path.empty() && out->tcp_port >= 0) {
    return Fail(error,
                "shard endpoint must be unix_socket OR tcp_port, not both");
  }
  // A unix-socket endpoint dials no host, and ToJson writes none: its
  // tcp_host keeps the default, so every map re-parses from its own ToJson.
  return !out->unix_socket_path.empty() ||
         StringField(shard, "tcp_host", &out->tcp_host, error);
}

// Reads one entry of the shards array into *info.
bool ParseShard(const JsonValue& entry, ShardInfo* info, std::string* error) {
  if (!entry.is_object()) return Fail(error, "shard entry is not an object");
  info->name = entry.FindString("name", "");
  if (info->name.empty()) return Fail(error, "shard without a name");
  if (!OnlyKnownFields(entry,
                       {"name", "unix_socket", "tcp_host", "tcp_port",
                        "index_file", "fingerprint"},
                       "shard " + info->name + ": ", error)) {
    return false;
  }
  if (!ParseEndpoint(entry, &info->endpoint, error)) return false;
  if (!info->endpoint.valid()) {
    return Fail(error, "shard " + info->name + " has no endpoint");
  }
  return StringField(entry, "index_file", &info->index_file, error) &&
         StringField(entry, "fingerprint", &info->fingerprint, error);
}

// Appends `"unix_socket": ...` or `"tcp_host": ..., "tcp_port": ...`;
// nothing for an invalid endpoint.
void AppendEndpointJson(std::string* out, const ShardEndpoint& ep) {
  if (!ep.unix_socket_path.empty()) {
    *out += "\"unix_socket\": ";
    obs::AppendJsonString(ep.unix_socket_path, out);
  } else if (ep.tcp_port >= 0) {
    *out += "\"tcp_host\": ";
    obs::AppendJsonString(ep.tcp_host, out);
    *out += ", \"tcp_port\": " + std::to_string(ep.tcp_port);
  }
}

void AppendShardJson(std::string* out, const ShardInfo& shard) {
  *out += "{\"name\": ";
  obs::AppendJsonString(shard.name, out);
  if (shard.endpoint.valid()) {
    *out += ", ";
    AppendEndpointJson(out, shard.endpoint);
  }
  if (!shard.index_file.empty()) {
    *out += ", \"index_file\": ";
    obs::AppendJsonString(shard.index_file, out);
  }
  if (!shard.fingerprint.empty()) {
    *out += ", \"fingerprint\": ";
    obs::AppendJsonString(shard.fingerprint, out);
  }
  *out += "}";
}

std::shared_ptr<const ShardMap> LoadShardMap(const std::string& path,
                                             std::string* why) {
  auto map = ShardMap::ParseFile(path, why);
  if (!map.has_value()) return nullptr;
  return std::make_shared<const ShardMap>(std::move(*map));
}

void ReportShardMapReload(const std::string& path, const ShardMap* installed,
                          const std::string& why, uint64_t epoch) {
  if (installed == nullptr) {
    LogError("serve: shard map reload rejected (" + why + "); keeping epoch " +
             std::to_string(epoch));
  } else {
    LogInfo(StrFormat("serve: shard map loaded from %s (%zu shards, epoch "
                      "%llu)",
                      path.c_str(), installed->num_shards(),
                      static_cast<unsigned long long>(epoch)));
  }
}

}  // namespace

ShardMap::ShardMap(std::vector<ShardInfo> shards, int virtual_points)
    : shards_(std::move(shards)),
      virtual_points_(std::max(1, virtual_points)) {
  if (shards_.size() > kMaxRingPoints / static_cast<size_t>(virtual_points_)) {
    LogError(StrFormat("shard_map: %zu shards x %d virtual points exceed "
                       "the ring cap of %zu points",
                       shards_.size(), virtual_points_, kMaxRingPoints));
    shards_.clear();
  }
  std::unordered_set<std::string> names;
  for (const ShardInfo& shard : shards_) {
    if (shard.name.empty() || !shard.endpoint.valid() ||
        !names.insert(shard.name).second) {
      LogError("shard_map: invalid shard list (empty/duplicate name or "
               "missing endpoint)");
      shards_.clear();
      break;
    }
  }
  BuildRing();
}

void ShardMap::BuildRing() {
  ring_.clear();
  ring_.reserve(shards_.size() * static_cast<size_t>(virtual_points_));
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (int v = 0; v < virtual_points_; ++v) {
      const std::string point_key = shards_[s].name + "#" + std::to_string(v);
      ring_.emplace_back(HashString(point_key), static_cast<uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

size_t ShardMap::OwnerOf(NodeId node) const {
  // Single shard (or degenerate map): no ring walk needed.
  if (ring_.empty()) return 0;
  const uint64_t point = Hash64(node);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<uint64_t, uint32_t>& entry, uint64_t value) {
        return entry.first < value;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

std::vector<std::vector<NodeId>> ShardMap::PartitionSeeds(
    std::span<const NodeId> seeds) const {
  std::vector<std::vector<NodeId>> parts(num_shards());
  for (const NodeId seed : seeds) parts[OwnerOf(seed)].push_back(seed);
  return parts;
}

std::optional<ShardMap> ShardMap::Parse(std::string_view json,
                                        std::string* error) {
  const auto doc = JsonValue::Parse(json);
  if (!doc.has_value() || !doc->is_object()) {
    Fail(error, "shard map is not a JSON object");
    return std::nullopt;
  }
  const std::string schema = doc->FindString("schema", "");
  if (schema != kSchemaV1 && schema != kSchemaV2) {
    Fail(error, std::string("shard map schema is neither ") + kSchemaV1 +
                    " nor " + kSchemaV2);
    return std::nullopt;
  }
  if (!OnlyKnownFields(*doc, {"schema", "virtual_points", "shards"},
                       "shard map: ", error)) {
    return std::nullopt;
  }
  // A virtual_points of another type is as bad as one out of range.
  const JsonValue* points = doc->Find("virtual_points");
  double virtual_points = 64.0;
  if (points != nullptr) {
    virtual_points = points->is_number() ? points->number_value() : 0.0;
  }
  if (virtual_points < 1 || virtual_points > 4096 ||
      virtual_points != static_cast<int>(virtual_points)) {
    Fail(error, "bad virtual_points (want an integer in [1, 4096])");
    return std::nullopt;
  }
  const JsonValue* shards = doc->Find("shards");
  if (shards == nullptr || !shards->is_array() ||
      shards->array_items().empty()) {
    Fail(error, "shard map needs a non-empty shards array");
    return std::nullopt;
  }
  // Checked before anything is built: the ring is the costly part.
  const size_t num_shards = shards->array_items().size();
  if (num_shards > kMaxRingPoints / static_cast<size_t>(virtual_points)) {
    Fail(error, StrFormat("%zu shards x %d virtual points exceed the ring "
                          "cap of %zu points",
                          num_shards, static_cast<int>(virtual_points),
                          kMaxRingPoints));
    return std::nullopt;
  }
  std::vector<ShardInfo> infos(num_shards);
  std::unordered_set<std::string> names;
  for (size_t i = 0; i < num_shards; ++i) {
    if (!ParseShard(shards->array_items()[i], &infos[i], error)) {
      return std::nullopt;
    }
    if (!names.insert(infos[i].name).second) {
      Fail(error, "duplicate shard name: " + infos[i].name);
      return std::nullopt;
    }
  }
  ShardMap map(std::move(infos), static_cast<int>(virtual_points));
  if (map.num_shards() == 0) {
    Fail(error, "invalid shard list");
    return std::nullopt;
  }
  return map;
}

std::optional<ShardMap> ShardMap::ParseFile(const std::string& path,
                                            std::string* error) {
  const auto doc = ReadFileBytes(path);
  if (!doc.has_value()) {
    Fail(error, "cannot read " + path);
    return std::nullopt;
  }
  return Parse(*doc, error);
}

std::string ShardMap::ToJson() const {
  bool v2 = false;
  for (const ShardInfo& shard : shards_) {
    v2 = v2 || !shard.index_file.empty() || !shard.fingerprint.empty();
  }
  std::string out = "{\"schema\": \"";
  out += v2 ? kSchemaV2 : kSchemaV1;
  out += "\", \"virtual_points\": " + std::to_string(virtual_points_);
  out += ", \"shards\": [";
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (i > 0) out += ", ";
    AppendShardJson(&out, shards_[i]);
  }
  out += "]}";
  return out;
}

IrsApprox ExtractShardIndex(const IrsApprox& full, const ShardMap& map,
                            size_t shard) {
  const SketchArena& from = *full.arena();
  std::vector<NodeId> owned;
  for (NodeId u = 0; u < full.num_nodes(); ++u) {
    if (from.has_node(u) && map.OwnerOf(u) == shard) owned.push_back(u);
  }
  SketchArena arena(from.precision(), from.salt(), full.num_nodes(),
                    owned.size());
  for (const NodeId u : owned) arena.AppendCopy(u, from);
  return IrsApprox(full.window(), full.options(), std::move(arena));
}

ShardMapManager::ShardMapManager(std::string map_path)
    : EpochHolder(std::move(map_path),
                  {"serve.shard.map", "injected serve.shard.map fault",
                   "serve.shard.map.ok", "serve.shard.map.rollback", nullptr,
                   nullptr},
                  LoadShardMap, ReportShardMapReload) {}

ShardMapSnapshot ShardMapManager::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {current_, epoch_.load(std::memory_order_acquire)};
}

}  // namespace ipin::serve
