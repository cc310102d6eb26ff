// ipin_chaos: deterministic chaos drills for the sharded serving tier
// (DESIGN.md §11). Prepares a complete fixture under --work_dir (synthetic
// dataset, full reference index, per-shard pieces, the 4→6 reshard maps),
// spawns the fleet (old primaries, the seed-chosen victim's replica, a
// reference single-index daemon, the router), and replays a seeded
// ChaosSchedule against it while the verifier thread cross-checks every
// router answer against the reference. Exit 0 iff every invariant held.
//
// Scenarios (see src/ipin/serve/chaos.h):
//   kill-primary-mid-reshard   the acceptance drill: grow 4→6 shards live,
//       SIGKILL one old primary mid-migration, probe corrupt-map rollback,
//       restart the victim, finalize — zero wrong answers throughout.
//   replica-failover           kill + restart one primary, no reshard.
//
// Usage:
//   ipin_chaos --oracled=<bin> --routerd=<bin> --work_dir=<dir>
//       [--scenario=kill-primary-mid-reshard] [--seed=42]
//       [--print_schedule]          # print the timeline JSON and exit —
//                                   # CI replays a seed by diffing this
//       [--spacing_ms=500] [--jitter=0.1]
//       [--nodes=2000] [--interactions=20000] [--data_seed=7]
//       [--min_availability=0.99] [--recovery_deadline_ms=10000]
//       [--query_deadline_ms=400] [--verifier_pause_ms=2]
//       [--ledger=<work_dir>/chaos_ledger.jsonl]
//
// Determinism: the action timeline (kinds, victim, offsets) is a pure
// function of (scenario, seed); rerunning --print_schedule with the same
// seed is byte-identical. Wall-clock execution of the timeline is only as
// deterministic as the OS scheduler — the ledger records planned vs actual
// offsets for every action so drift is visible.

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ipin/common/flags.h"
#include "ipin/common/safe_io.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/oracle_io.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/serve/chaos.h"
#include "ipin/serve/shard_map.h"

namespace ipin {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: ipin_chaos --oracled=<bin> --routerd=<bin> --work_dir=<dir>\n"
      "  [--scenario=kill-primary-mid-reshard|replica-failover] [--seed=42]\n"
      "  [--print_schedule]  print the seeded timeline JSON and exit\n"
      "  [--spacing_ms=500] [--jitter=0.1]\n"
      "  [--nodes=2000] [--interactions=20000] [--data_seed=7]\n"
      "  [--min_availability=0.99] [--recovery_deadline_ms=10000]\n"
      "  [--query_deadline_ms=400] [--verifier_pause_ms=2]\n"
      "  [--ledger=<path>]\n");
  return 2;
}

serve::ChaosDaemonSpec OracledSpec(const std::string& binary,
                                   const std::string& work_dir,
                                   const std::string& name,
                                   const std::string& index_file,
                                   const std::string& socket) {
  serve::ChaosDaemonSpec spec;
  spec.name = name;
  spec.log_file = work_dir + "/" + name + ".log";
  spec.port_file = work_dir + "/" + name + ".port";
  spec.argv = {binary,
               "--index=" + index_file,
               "--socket=" + socket,
               "--port_file=" + spec.port_file,
               "--workers=2",
               "--queue_capacity=128"};
  return spec;
}

int Run(int argc, char** argv) {
  const FlagMap flags = FlagMap::Parse(argc, argv);

  const std::string scenario =
      flags.GetString("scenario", "kill-primary-mid-reshard");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  serve::ChaosScheduleOptions schedule_options;
  schedule_options.spacing_ms = flags.GetInt("spacing_ms", 500);
  schedule_options.jitter = flags.GetDouble("jitter", 0.1);
  constexpr size_t kOldShards = 4;
  constexpr size_t kNewShards = 6;
  schedule_options.num_old_shards = kOldShards;
  schedule_options.num_new_shards = kNewShards;

  const std::optional<serve::ChaosSchedule> schedule =
      serve::ChaosSchedule::Generate(scenario, seed, schedule_options);
  if (!schedule.has_value()) {
    std::fprintf(stderr, "ipin_chaos: unknown scenario '%s'\n",
                 scenario.c_str());
    return Usage();
  }

  if (flags.Has("print_schedule")) {
    std::printf("%s\n", schedule->ToJson().c_str());
    return 0;
  }

  const std::string oracled = flags.GetString("oracled");
  const std::string routerd = flags.GetString("routerd");
  const std::string work_dir = flags.GetString("work_dir");
  if (oracled.empty() || routerd.empty() || work_dir.empty()) return Usage();
  ::mkdir(work_dir.c_str(), 0755);

  // The schedule names the victim; provision its replica before anything
  // else so the failover path is live from t=0.
  size_t victim = kOldShards;
  for (const serve::ChaosAction& action : schedule->actions) {
    if (action.kind == serve::ChaosActionKind::kKillPrimary &&
        action.target.rfind("old", 0) == 0) {
      victim = static_cast<size_t>(
          std::strtoul(action.target.c_str() + 3, nullptr, 10));
    }
  }
  if (victim >= kOldShards) {
    std::fprintf(stderr, "ipin_chaos: schedule names no old-shard victim\n");
    return 2;
  }

  // --- Fixture: dataset, full index, shard pieces, reshard maps. ---
  std::printf("ipin_chaos: building fixture in %s\n", work_dir.c_str());
  std::fflush(stdout);
  const size_t num_nodes =
      static_cast<size_t>(flags.GetInt("nodes", 2000));
  const InteractionGraph graph = GenerateUniformRandomNetwork(
      num_nodes, static_cast<size_t>(flags.GetInt("interactions", 20000)),
      /*time_span=*/1000000,
      static_cast<uint64_t>(flags.GetInt("data_seed", 7)));
  const Duration window = graph.WindowFromPercent(10.0);
  const IrsApprox full = IrsApprox::Compute(graph, window);
  const std::string full_index = work_dir + "/full.bin";
  if (!SaveInfluenceIndex(full, full_index)) {
    std::fprintf(stderr, "ipin_chaos: cannot write %s\n", full_index.c_str());
    return 2;
  }

  std::vector<serve::ShardInfo> old_shards(kOldShards);
  for (size_t i = 0; i < kOldShards; ++i) {
    old_shards[i].name = "old" + std::to_string(i);
    old_shards[i].endpoint.unix_socket_path =
        work_dir + "/old" + std::to_string(i) + ".sock";
  }
  // One failover replica, on the shard the schedule will SIGKILL.
  serve::ShardEndpoint replica_endpoint;
  replica_endpoint.unix_socket_path =
      work_dir + "/old" + std::to_string(victim) + "r.sock";
  old_shards[victim].replicas.push_back(replica_endpoint);

  // Growth keeps the old shards' ring points: old names + virtual points
  // unchanged, so every node NOT owned by new4/new5 keeps its old owner and
  // the old daemons' (superset) pieces stay valid through the transition.
  std::vector<serve::ShardInfo> new_shards = old_shards;
  for (size_t i = kOldShards; i < kNewShards; ++i) {
    serve::ShardInfo info;
    info.name = "new" + std::to_string(i);
    info.endpoint.unix_socket_path =
        work_dir + "/new" + std::to_string(i) + ".sock";
    new_shards.push_back(std::move(info));
  }

  const serve::ShardMap old_map(old_shards);
  serve::ShardMap final_map(new_shards);
  if (old_map.num_shards() != kOldShards ||
      final_map.num_shards() != kNewShards) {
    std::fprintf(stderr, "ipin_chaos: shard map construction failed\n");
    return 2;
  }

  std::vector<serve::ChaosDaemonSpec> initial;
  for (size_t i = 0; i < kOldShards; ++i) {
    const IrsApprox piece = serve::ExtractShardIndex(full, old_map, i);
    const std::string piece_file =
        work_dir + "/piece" + std::to_string(i) + ".bin";
    if (!SaveInfluenceIndex(piece, piece_file)) {
      std::fprintf(stderr, "ipin_chaos: cannot write %s\n",
                   piece_file.c_str());
      return 2;
    }
    initial.push_back(OracledSpec(oracled, work_dir,
                                  "old" + std::to_string(i), piece_file,
                                  old_shards[i].endpoint.unix_socket_path));
  }
  // The replica serves the SAME piece file as its primary.
  initial.push_back(OracledSpec(
      oracled, work_dir, "replica" + std::to_string(victim),
      work_dir + "/piece" + std::to_string(victim) + ".bin",
      replica_endpoint.unix_socket_path));
  initial.push_back(OracledSpec(oracled, work_dir, "reference", full_index,
                                work_dir + "/single.sock"));

  std::vector<serve::ChaosDaemonSpec> grown;
  for (size_t i = kOldShards; i < kNewShards; ++i) {
    const IrsApprox piece = serve::ExtractShardIndex(full, final_map, i);
    const std::string piece_file =
        work_dir + "/new" + std::to_string(i) + ".bin";
    if (!SaveInfluenceIndex(piece, piece_file)) {
      std::fprintf(stderr, "ipin_chaos: cannot write %s\n",
                   piece_file.c_str());
      return 2;
    }
    grown.push_back(OracledSpec(oracled, work_dir, "new" + std::to_string(i),
                                piece_file,
                                new_shards[i].endpoint.unix_socket_path));
  }

  const std::string live_map = work_dir + "/map.json";
  const std::string transition_map = work_dir + "/map_transition.json";
  const std::string final_map_path = work_dir + "/map_final.json";
  serve::ShardMap transition = final_map;
  transition.BeginTransition(
      std::make_shared<const serve::ShardMap>(old_map));
  if (!WriteFileAtomic(live_map, old_map.ToJson() + "\n") ||
      !WriteFileAtomic(transition_map, transition.ToJson() + "\n") ||
      !WriteFileAtomic(final_map_path, final_map.ToJson() + "\n")) {
    std::fprintf(stderr, "ipin_chaos: cannot write shard maps\n");
    return 2;
  }

  serve::ChaosDaemonSpec router;
  router.name = "router";
  router.log_file = work_dir + "/router.log";
  router.port_file = work_dir + "/router.port";
  const std::string router_socket = work_dir + "/router.sock";
  router.argv = {routerd,
                 "--map=" + live_map,
                 "--socket=" + router_socket,
                 "--port_file=" + router.port_file,
                 "--workers=4",
                 "--probe_interval_ms=100",
                 "--suspect_after=1",
                 "--down_after=2",
                 "--connect_timeout_ms=100"};
  initial.push_back(std::move(router));  // last: its probes find backends

  serve::ChaosDrillOptions drill_options;
  drill_options.schedule = *schedule;
  drill_options.initial_daemons = std::move(initial);
  drill_options.new_shards = std::move(grown);
  drill_options.live_map_path = live_map;
  drill_options.transition_map_path = transition_map;
  drill_options.final_map_path = final_map_path;
  drill_options.router.unix_socket_path = router_socket;
  drill_options.reference.unix_socket_path = work_dir + "/single.sock";
  drill_options.num_nodes = num_nodes;
  drill_options.query_deadline_ms = flags.GetInt("query_deadline_ms", 400);
  drill_options.verifier_pause_ms = flags.GetInt("verifier_pause_ms", 2);
  drill_options.min_availability =
      flags.GetDouble("min_availability", 0.99);
  drill_options.recovery_deadline_ms =
      flags.GetInt("recovery_deadline_ms", 10000);
  drill_options.ledger_path =
      flags.GetString("ledger", work_dir + "/chaos_ledger.jsonl");

  std::printf("ipin_chaos: schedule %s\n", schedule->ToJson().c_str());
  std::fflush(stdout);

  serve::ChaosDrill drill(std::move(drill_options));
  const serve::ChaosDrillReport report = drill.Run();

  std::printf(
      "ipin_chaos: queries=%zu ok=%zu degraded=%zu wrong=%zu "
      "invariant_violations=%zu failed=%zu availability=%.4f "
      "recovered=%d recovery_ms=%lld leaked=%zu\n",
      report.queries_total, report.queries_ok, report.queries_degraded,
      report.wrong_answers, report.invariant_violations,
      report.queries_failed, report.availability, report.recovered ? 1 : 0,
      static_cast<long long>(report.recovery_ms),
      report.leaked_daemons.size());
  if (report.passed) {
    std::printf("ipin_chaos: PASS (seed %llu)\n",
                static_cast<unsigned long long>(seed));
    return 0;
  }
  std::printf("ipin_chaos: FAIL: %s (replay with --seed=%llu)\n",
              report.failure.c_str(), static_cast<unsigned long long>(seed));
  return 1;
}

}  // namespace
}  // namespace ipin

int main(int argc, char** argv) { return ipin::Run(argc, argv); }
