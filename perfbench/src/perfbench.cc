// The repository benchmark: one program, four workloads, every answer
// checked. It drives the library only through the public functions of the
// graph, core, sketch and serve modules; datasets runs in set-up only.
//
//   ipin_perfbench --workload=<build|campaign|serve> --seed=N --seconds=S
//                  --trace=<0|1> [--smoke]
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are a
// readable copy of the metrics, the host-noise diagnostic and, for a
// traced run, the per-span self-time table. README.md explains the
// workloads, the metrics and how to read them.

#include <fcntl.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "ipin/common/logging.h"
#include "ipin/common/thread_pool.h"
#include "ipin/core/influence_maximization.h"
#include "ipin/core/influence_oracle.h"
#include "ipin/core/irs_approx.h"
#include "ipin/core/oracle_io.h"
#include "ipin/datasets/registry.h"
#include "ipin/datasets/synthetic.h"
#include "ipin/graph/graph_io.h"
#include "ipin/serve/client.h"
#include "ipin/serve/index_manager.h"
#include "ipin/serve/protocol.h"
#include "ipin/serve/router.h"
#include "ipin/serve/server.h"
#include "ipin/serve/shard_map.h"
#include "ipin/sketch/kernels.h"

extern char** environ;

namespace perfbench {
namespace {

namespace serve = ipin::serve;
using ipin::IrsApprox;
using ipin::NodeId;

// ---- Fixed workload parameters ----------------------------------------------

constexpr int kPrecision = 9;           // beta = 512 cells
constexpr double kWindowPercent = 10.0;  // omega = 10% of the span
constexpr size_t kCampaignSeeds = 50;
constexpr size_t kBuildThreads = 2;
constexpr size_t kSetupReps = 3;         // setup_s is the median of these
constexpr size_t kRequestListSize = 4096;
constexpr int64_t kRequestDeadlineMs = 5000;
constexpr size_t kWarmupRequestsPerClient = 200;
// Flight-recorder ring of a traced run: large enough for every record of a
// traced phase, which stops sending before the ring would wrap.
constexpr size_t kTracedRingSize = 1 << 16;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  // Self-test hook: perturbs one reference answer so the checks must trip.
  bool wrong_reference = false;
  std::string prepare;  // child mode: write the inputs of this step
  bool memprobe = false;  // child mode: print one memory-latency reading
  bool list_metrics = false;
};

/// Dataset scales: the full workload, or the tiny smoke variant.
struct Scales {
  double enron;
  double slashdot;
};

Scales ScalesFor(const Options& o) {
  return o.smoke ? Scales{0.005, 0.02} : Scales{0.05, 0.2};
}

std::string WorkDir(const std::string& workload) {
  return ".bench_work/" + workload;
}

// ---- Metric catalogue -------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports all of these on an untraced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"latency_p50_ms", "ms"}, {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MB"},  {"index_mb", "MB"},
};

// Every traced run prints all of these; a layer that is not on the
// workload's path reads 0 and the run names it.
constexpr MetricSpec kPerLayer[] = {
    {"graph.parse_ms", "ms"},
    {"core.scan_ms", "ms"},
    {"core.scan_ns_per_attempt", "ns"},
    {"sketch.insert_attempts", "count"},
    {"sketch.entries", "count"},
    {"sketch.evictions", "count"},
    {"sketch.entries_per_attempt", "ratio"},
    {"sketch.build_bytes_per_entry", "B"},
    {"sketch.seal_ms", "ms"},
    {"sketch.arena_bytes_per_entry", "B"},
    {"core.save_ms", "ms"},
    {"core.index_bytes_per_entry", "B"},
    {"core.load_ms", "ms"},
    {"core.load_mb_per_s", "MB/s"},
    {"core.celf_ms", "ms"},
    {"core.celf_gain_evals", "count"},
    {"core.celf_ns_per_gain_eval", "ns"},
    {"core.group_estimate_us", "us"},
    {"sketch.union_us", "us"},
    {"serve.protocol.serialize_request_us", "us"},
    {"serve.protocol.parse_response_us", "us"},
    {"serve.protocol.ranks_hex_us", "us"},
    {"serve.server.admission_us.p50", "us"},
    {"serve.server.queue_us.p50", "us"},
    {"serve.server.queue_us.p99", "us"},
    {"serve.server.eval_us.p50", "us"},
    {"serve.server.write_us.p50", "us"},
    {"serve.server.total_us.p50", "us"},
    {"serve.server.total_us.p99", "us"},
    {"serve.unaccounted_us.p50", "us"},
    {"serve.client.throughput_per_s", "1/s"},
    {"serve.client.latency_p99_ms", "ms"},
    {"serve.router.queue_us.p50", "us"},
    {"serve.router.total_us.p50", "us"},
    {"serve.router.total_us.p99", "us"},
    {"serve.router.leg_us.p50", "us"},
    {"serve.router.overhead_us.p50", "us"},
    {"serve.shard.eval_us.p50", "us"},
    {"serve.requests.shed", "count"},
    {"serve.requests.deadline_exceeded", "count"},
    {"trace.overhead_pct", "%"},
};

/// What one run found: op tallies, metric values and readable notes.
struct Report {
  size_t attempted = 0;
  size_t failed = 0;
  // False when a check outside the ops failed (set-up, reload, readiness).
  bool checks_ok = true;
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) {
    values.emplace_back(name, value);
  }
  void Note(const std::string& line) { notes.push_back(line); }
  void Fail(const std::string& why) {
    checks_ok = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }
double Mb(double bytes) { return bytes / (1024.0 * 1024.0); }

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// ---- Child processes --------------------------------------------------------

/// Runs this binary again with `args`, waits for it, and returns whether it
/// exited 0. Its standard output is captured into *out when non-null.
/// Inputs are prepared in a child so that the set-up's memory peak (the
/// unsealed build, the generator) never shows in the parent's peak RSS.
bool RunSelf(const std::vector<std::string>& args, std::string* out) {
  std::vector<std::string> argv_store = {"/proc/self/exe"};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  // Close-on-exec, so no other child inherits the pipe; the dup onto the
  // child's stdout clears the flag there.
  int fds[2] = {-1, -1};
  if (out != nullptr && pipe2(fds, O_CLOEXEC) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (out != nullptr) {
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  }
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (out != nullptr) {
    close(fds[1]);
    char buf[4096];
    ssize_t n;
    while (rc == 0 && (n = read(fds[0], buf, sizeof(buf))) > 0) {
      out->append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
  }
  if (rc != 0) return false;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::vector<std::string> ChildArgs(const Options& o, const std::string& step) {
  std::vector<std::string> args = {"--prepare=" + step,
                                   "--seed=" + std::to_string(o.seed)};
  if (o.smoke) args.push_back("--smoke");
  return args;
}

// ---- Host-noise diagnostic --------------------------------------------------

/// Memory-latency probe: a dependent pointer chase over 64 MiB of cache
/// lines in one random cycle. Runs in a child, so its buffer never counts
/// toward the benchmark's own peak RSS. Returns ns per step.
double MemoryProbeNs() {
  constexpr size_t kLines = (64u << 20) / 64;
  constexpr size_t kSteps = 1u << 20;
  struct alignas(64) Line {
    uint64_t next;
  };
  void* mem = mmap(nullptr, kLines * sizeof(Line), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return 0.0;
  Line* lines = static_cast<Line*>(mem);
  for (size_t i = 0; i < kLines; ++i) lines[i].next = i;
  std::mt19937_64 rng(12345);  // fixed: the probe is the same every time
  for (size_t i = kLines - 1; i > 0; --i) {  // Sattolo: one cycle
    const size_t j = rng() % i;
    std::swap(lines[i].next, lines[j].next);
  }
  uint64_t at = 0;
  const int64_t start = NowNs();
  for (size_t s = 0; s < kSteps; ++s) at = lines[at].next;
  const int64_t elapsed = NowNs() - start;
  munmap(mem, kLines * sizeof(Line));
  return at == kLines ? 0.0  // never true; keeps the chase live
                      : static_cast<double>(elapsed) / kSteps;
}

/// Probe reading and /proc/stat counters around one timed phase. A
/// diagnostic only: it is printed beside the metrics and changes none.
class NoiseWatch {
 public:
  explicit NoiseWatch(std::string phase) : phase_(std::move(phase)) {
    probe_before_ns_ = ProbeInChild();
    cpu_before_ = ReadCpuTimes();
  }
  void Finish(Report* report) {
    const CpuTimes cpu_after = ReadCpuTimes();
    const double probe_after = ProbeInChild();
    report->Note(Format(
        "noise phase=%s mem_probe_ns before=%.1f after=%.1f steal_pct=%.2f",
        phase_.c_str(), probe_before_ns_, probe_after,
        StealPercent(cpu_before_, cpu_after)));
  }

 private:
  static double ProbeInChild() {
    std::string out;
    if (!RunSelf({"--memprobe"}, &out)) return 0.0;
    return std::atof(out.c_str());
  }
  std::string phase_;
  double probe_before_ns_ = 0.0;
  CpuTimes cpu_before_;
};

// ---- Inputs -----------------------------------------------------------------

ipin::InteractionGraph Generate(const char* dataset, double scale,
                                uint64_t seed) {
  std::optional<ipin::SyntheticConfig> config =
      ipin::GetDatasetConfig(dataset, scale);
  if (!config.has_value()) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset);
    std::exit(1);
  }
  config->seed = seed;
  return ipin::GenerateInteractionNetwork(*config);
}

ipin::IrsApproxOptions SketchOptions() {
  ipin::IrsApproxOptions options;
  options.precision = kPrecision;
  return options;
}

/// The index every query workload reads: built, sealed and saved exactly
/// like the build workload's op.
bool BuildAndSave(const ipin::InteractionGraph& graph,
                  const std::string& path) {
  IrsApprox index = IrsApprox::Compute(
      graph, graph.WindowFromPercent(kWindowPercent), SketchOptions());
  index.Seal();
  return ipin::SaveInfluenceIndex(index, path);
}

/// A campaign's answer as exact text: every seed with its gain, and the
/// set's value, doubles in hex so equal text means equal bits.
std::string CampaignAnswer(const ipin::SeedSelection& selection,
                           double value) {
  std::string out;
  for (size_t i = 0; i < selection.seeds.size(); ++i) {
    out += Format("%u %a\n", selection.seeds[i], selection.gains[i]);
  }
  out += Format("value %a\n", value);
  return out;
}

/// Child mode: writes the inputs of one set-up step into the work dir.
int Prepare(const Options& o) {
  ipin::SetLogLevel(ipin::LogLevel::kWarning);
  const Scales scales = ScalesFor(o);
  const std::string step = o.prepare;
  if (step == "build") {
    // The text log the ops parse, and the sequential build of it that every
    // parallel op must match byte for byte.
    ipin::SetGlobalThreads(1);
    const std::string log = WorkDir("build") + "/log.txt";
    if (!ipin::SaveInteractionsToFile(Generate("enron", scales.enron, o.seed),
                                      log)) {
      return 1;
    }
    const auto graph = ipin::LoadInteractionsFromFile(log);
    if (!graph.has_value()) return 1;
    return BuildAndSave(*graph, WorkDir("build") + "/reference.idx") ? 0 : 1;
  }
  if (step == "campaign" || step == "serve") {
    ipin::SetGlobalThreads(kBuildThreads);
    const ipin::InteractionGraph graph =
        Generate("slashdot", scales.slashdot, o.seed);
    return BuildAndSave(graph, WorkDir(step) + "/index.idx") ? 0 : 1;
  }
  if (step == "campaign_reference") {
    // CELF on the in-memory index that was never saved, so a load that is
    // not faithful to the build shows.
    ipin::SetGlobalThreads(kBuildThreads);
    const ipin::InteractionGraph graph =
        Generate("slashdot", scales.slashdot, o.seed);
    IrsApprox index = IrsApprox::Compute(
        graph, graph.WindowFromPercent(kWindowPercent), SketchOptions());
    index.Seal();
    ipin::SketchInfluenceOracle oracle(&index);
    const ipin::SeedSelection selection =
        ipin::SelectSeedsCelf(oracle, kCampaignSeeds);
    std::fputs(
        CampaignAnswer(selection, oracle.InfluenceOfSet(selection.seeds))
            .c_str(),
        stdout);
    return 0;
  }
  std::fprintf(stderr, "unknown prepare step %s\n", step.c_str());
  return 1;
}

/// Runs the set-up `kSetupReps` times and records the median as setup_s.
/// `once` does one complete set-up; every repetition but the last is torn
/// down by `teardown`.
bool MeasureSetup(Report* report, const std::function<bool()>& once,
                  const std::function<void()>& teardown) {
  std::vector<double> seconds;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    const int64_t start = NowNs();
    if (!once()) {
      report->Fail("set-up failed");
      return false;
    }
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (rep + 1 < kSetupReps) teardown();
  }
  report->Set("setup_s", Median(seconds));
  std::string all;
  for (double s : seconds) all += Format(" %.3f", s);
  report->Note("setup_s reps:" + all);
  return true;
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

bool FilesEqual(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::vector<char> ba(1 << 20);
  std::vector<char> bb(1 << 20);
  while (true) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    if (fa.gcount() != fb.gcount()) return false;
    if (std::memcmp(ba.data(), bb.data(), static_cast<size_t>(fa.gcount())) !=
        0) {
      return false;
    }
    if (fa.gcount() == 0) return true;
  }
}

/// Wall time and process CPU time (all threads) of one op, leaving out the
/// stretches between Pause() and Resume().
class OpClock {
 public:
  OpClock() { Resume(); }
  void Pause() {
    wall_ns += NowNs() - wall_start_;
    cpu_ns += ProcessCpuNs() - cpu_start_;
  }
  void Resume() {
    wall_start_ = NowNs();
    cpu_start_ = ProcessCpuNs();
  }
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;

 private:
  int64_t wall_start_ = 0;
  int64_t cpu_start_ = 0;
};

struct OpTimes {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
};

/// Serial op loop shared by build and campaign: runs `op` until `seconds`
/// of wall time have passed (and at least `min_ops` times). The op stops
/// its clock before its own check.
void RunOps(double seconds, size_t min_ops,
            const std::function<OpClock(uint64_t op)>& op, OpTimes* times) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; times->wall_ms.size() < min_ops || NowNs() < end; ++i) {
    const OpClock clock = op(i);
    times->wall_ms.push_back(Ms(clock.wall_ns));
    times->cpu_ms.push_back(Ms(clock.cpu_ns));
  }
}

void ReportOpTimes(const OpTimes& times, Report* report) {
  std::string all;
  for (double t : times.wall_ms) all += Format(" %.1f", t);
  report->Note("op wall ms:" + all);
  report->Set("latency_p50_ms", Median(times.wall_ms));
  report->Set("cpu_ms_per_op", Median(times.cpu_ms));
  report->Note(Format("slowest op %.1f ms of %zu (too few ops for a tail "
                      "percentile)",
                      Percentile(times.wall_ms, 100), times.wall_ms.size()));
}

// ---- Layer probes shared by the traced runs ---------------------------------

/// Median per-call time of `fn` over `reps` calls, in microseconds.
double MedianCallUs(size_t reps, const std::function<void(size_t)>& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (size_t i = 0; i < reps; ++i) {
    const int64_t start = NowNs();
    fn(i);
    us.push_back(Us(NowNs() - start));
  }
  return Median(us);
}

/// Times the group estimate (core) and the union kernel (sketch) on the
/// given seed groups, in process.
void ProbeQueryKernels(const IrsApprox& index,
                       const std::vector<std::vector<NodeId>>& groups,
                       Report* report) {
  ipin::SketchInfluenceOracle oracle(&index);
  volatile double sink = 0.0;
  report->Set("core.group_estimate_us",
              MedianCallUs(groups.size(), [&](size_t i) {
                sink = sink + oracle.InfluenceOfSet(groups[i]);
              }));
  const ipin::SketchArena* arena = index.arena();
  std::vector<uint8_t> acc(arena->num_cells());
  report->Set("sketch.union_us", MedianCallUs(groups.size(), [&](size_t i) {
                std::fill(acc.begin(), acc.end(), 0);
                for (NodeId s : groups[i]) {
                  const auto row = arena->rank_row(s);
                  ipin::kernels::CellwiseMaxU8(acc.data(), row.data(),
                                               row.size());
                }
                sink = sink + acc[i % acc.size()];
              }));
}

/// The traced phase's median op time against the untraced phase's.
void SetTraceOverhead(double untraced_p50_ms, size_t untraced_ops,
                      double traced_p50_ms, size_t traced_ops,
                      Report* report) {
  report->Set("trace.overhead_pct",
              100.0 * (traced_p50_ms / untraced_p50_ms - 1.0));
  report->Note(Format("trace overhead: untraced p50 %.4f ms (n=%zu), traced "
                      "p50 %.4f ms (n=%zu)",
                      untraced_p50_ms, untraced_ops, traced_p50_ms,
                      traced_ops));
}

/// Median duration (ms) of the spans with this name; 0 if none ran.
double SpanP50(const std::map<std::string, SpanSummary>& spans,
               const char* name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : Median(it->second.durations_ms);
}

void PrintSpanTable(const std::vector<const Tracer*>& tracers,
                    const std::string& workload, Report* report) {
  const auto summary = Summarize(tracers);
  report->Note("spans (per name): calls total_ms self_ms p50_ms");
  for (const auto& [name, s] : summary) {
    report->Note(Format("  %-28s %8zu %12.3f %12.3f %10.4f", name.c_str(),
                        s.calls, s.total_ms, s.self_ms,
                        Median(s.durations_ms)));
  }
  const std::string path = WorkDir(workload) + "/spans.json";
  if (WriteSpansJson(tracers, path)) report->Note("spans written to " + path);
}

// ---- Workload: build --------------------------------------------------------

/// One build op: parse the text log, reverse-scan it into vHLL sketches,
/// seal them into the arena and save the index file.
Report RunBuild(const Options& o) {
  Report report;
  const std::string dir = WorkDir("build");
  const std::string log = dir + "/log.txt";
  const std::string out = dir + "/op.idx";
  const std::string reference = dir + "/reference.idx";
  if (!MeasureSetup(
          &report, [&] { return RunSelf(ChildArgs(o, "build"), nullptr); },
          [] {})) {
    return report;
  }
  if (!ipin::LoadInfluenceIndexDetailed(reference).usable()) {
    report.Fail("reference index does not reload");
    return report;
  }
  if (o.wrong_reference) {
    // Flip one byte of the reference: every op must now mismatch.
    std::fstream f(reference, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-1, std::ios::end);
    const char last = static_cast<char>(f.get());
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 1));
  }
  ipin::SetGlobalThreads(kBuildThreads);

  size_t interactions = 0;
  Tracer tracer(false);
  struct {
    std::vector<double> attempts, entries, evictions, build_bytes, arena_bytes;
  } tally;
  auto op = [&](uint64_t id) -> OpClock {
    OpClock clock;
    ScopedSpan op_span(&tracer, "build.op", id);
    std::optional<ipin::InteractionGraph> graph;
    {
      ScopedSpan span(&tracer, "graph.parse", id);
      graph = ipin::LoadInteractionsFromFile(log);
    }
    if (!graph.has_value()) {
      clock.Pause();
      ++report.attempted;
      ++report.failed;
      report.Note(Format("op %" PRIu64 ": log does not parse", id));
      return clock;
    }
    interactions = graph->num_interactions();
    std::optional<IrsApprox> index;
    {
      ScopedSpan span(&tracer, "core.scan", id);
      index.emplace(IrsApprox::Compute(
          *graph, graph->WindowFromPercent(kWindowPercent), SketchOptions()));
    }
    if (tracer.enabled()) {
      clock.Pause();
      ScopedSpan span(&tracer, "untimed.tally", id);
      const auto count = [](size_t n) { return static_cast<double>(n); };
      tally.attempts.push_back(count(index->TotalInsertAttempts()));
      tally.entries.push_back(count(index->TotalSketchEntries()));
      tally.evictions.push_back(count(index->TotalEvictions()));
      tally.build_bytes.push_back(count(index->MemoryUsageBytes()));
      clock.Resume();
    }
    {
      ScopedSpan span(&tracer, "sketch.seal", id);
      index->Seal();
    }
    if (tracer.enabled()) {
      clock.Pause();
      ScopedSpan span(&tracer, "untimed.tally", id);
      tally.arena_bytes.push_back(
          static_cast<double>(index->MemoryUsageBytes()));
      clock.Resume();
    }
    bool saved;
    {
      ScopedSpan span(&tracer, "core.save", id);
      saved = ipin::SaveInfluenceIndex(*index, out);
    }
    clock.Pause();
    ++report.attempted;
    if (!saved || !FilesEqual(out, reference)) {
      ++report.failed;
      report.Note(Format("op %" PRIu64 ": index differs from the sequential "
                         "reference",
                         id));
    }
    return clock;
  };

  const double index_mb = Mb(static_cast<double>(FileSize(reference)));
  if (!o.trace) {
    NoiseWatch noise("build");
    OpTimes times;
    RunOps(o.seconds, 3, op, &times);
    const double peak = PeakRssMb();
    noise.Finish(&report);
    ReportOpTimes(times, &report);
    report.Set("peak_rss_mb", peak);
    report.Set("index_mb", index_mb);
    report.Note(Format("build: %zu interactions, %.0f indexed per second of "
                       "median op time",
                       interactions,
                       static_cast<double>(interactions) /
                           (Median(times.wall_ms) / 1e3)));
  } else {
    OpTimes untraced, traced;
    RunOps(o.seconds / 2, 2, op, &untraced);
    tracer = Tracer(true);
    RunOps(o.seconds / 2, 2, op, &traced);
    SetTraceOverhead(Median(untraced.wall_ms), untraced.wall_ms.size(),
                     Median(traced.wall_ms), traced.wall_ms.size(), &report);
    const auto spans = Summarize({&tracer});
    const auto p50 = [&](const char* name) { return SpanP50(spans, name); };
    const double attempts = Median(tally.attempts);
    const double entries = Median(tally.entries);
    report.Set("graph.parse_ms", p50("graph.parse"));
    report.Set("core.scan_ms", p50("core.scan"));
    report.Set("core.scan_ns_per_attempt", p50("core.scan") * 1e6 / attempts);
    report.Set("sketch.insert_attempts", attempts);
    report.Set("sketch.entries", entries);
    report.Set("sketch.evictions", Median(tally.evictions));
    report.Set("sketch.entries_per_attempt", entries / attempts);
    report.Set("sketch.build_bytes_per_entry",
               Median(tally.build_bytes) / entries);
    report.Set("sketch.seal_ms", p50("sketch.seal"));
    report.Set("sketch.arena_bytes_per_entry",
               Median(tally.arena_bytes) / entries);
    report.Set("core.save_ms", p50("core.save"));
    report.Set("core.index_bytes_per_entry",
               static_cast<double>(FileSize(reference)) / entries);
    PrintSpanTable({&tracer}, "build", &report);
  }
  if (!ipin::LoadInfluenceIndexDetailed(out).usable()) {
    report.Fail("the last op's index does not reload");
  }
  return report;
}

// ---- Workload: campaign -----------------------------------------------------

/// One campaign op, the offline analyst's `topk` flow: restore the index
/// (verify, parse, seal), select 50 seeds with CELF, evaluate the set.
Report RunCampaign(const Options& o) {
  Report report;
  const std::string index_path = WorkDir("campaign") + "/index.idx";
  if (!MeasureSetup(
          &report, [&] { return RunSelf(ChildArgs(o, "campaign"), nullptr); },
          [] {})) {
    return report;
  }
  std::string expected;
  if (!RunSelf(ChildArgs(o, "campaign_reference"), &expected)) {
    report.Fail("campaign reference failed");
    return report;
  }
  if (o.wrong_reference && !expected.empty()) {
    expected[0] = expected[0] == '1' ? '2' : '1';  // the first seed's id
  }
  ipin::SetGlobalThreads(kBuildThreads);

  Tracer tracer(false);
  std::vector<double> gain_evals;
  std::vector<NodeId> last_seeds;
  std::optional<IrsApprox> last_index;
  auto op = [&](uint64_t id) -> OpClock {
    OpClock clock;
    ScopedSpan op_span(&tracer, "campaign.op", id);
    ipin::IndexLoadResult loaded;
    {
      ScopedSpan span(&tracer, "core.load", id);
      loaded = ipin::LoadInfluenceIndexDetailed(index_path);
    }
    if (loaded.status == ipin::IndexLoadStatus::kOk) {
      const IrsApprox& index = *loaded.index;
      ipin::SketchInfluenceOracle oracle(&index);
      ipin::SeedSelection selection;
      {
        ScopedSpan span(&tracer, "core.celf", id);
        selection = ipin::SelectSeedsCelf(oracle, kCampaignSeeds);
      }
      double value;
      {
        ScopedSpan span(&tracer, "core.group_estimate", id);
        value = oracle.InfluenceOfSet(selection.seeds);
      }
      clock.Pause();
      gain_evals.push_back(static_cast<double>(selection.gain_evaluations));
      last_seeds = selection.seeds;
      ++report.attempted;
      if (CampaignAnswer(selection, value) != expected) {
        ++report.failed;
        report.Note(Format("op %" PRIu64 ": seeds or gains differ from the "
                           "reference", id));
      }
      if (tracer.enabled()) last_index = std::move(loaded.index);
      return clock;
    }
    clock.Pause();
    ++report.attempted;
    ++report.failed;
    report.Note(Format("op %" PRIu64 ": index load not OK", id));
    return clock;
  };

  const double index_bytes = static_cast<double>(FileSize(index_path));
  if (!o.trace) {
    NoiseWatch noise("campaign");
    OpTimes times;
    RunOps(o.seconds, 3, op, &times);
    const double peak = PeakRssMb();
    noise.Finish(&report);
    ReportOpTimes(times, &report);
    report.Set("peak_rss_mb", peak);
    report.Set("index_mb", Mb(index_bytes));
  } else {
    OpTimes untraced, traced;
    RunOps(o.seconds / 2, 2, op, &untraced);
    tracer = Tracer(true);
    RunOps(o.seconds / 2, 2, op, &traced);
    if (!last_index.has_value()) {
      report.Fail("no traced op restored the index");
      return report;
    }
    SetTraceOverhead(Median(untraced.wall_ms), untraced.wall_ms.size(),
                     Median(traced.wall_ms), traced.wall_ms.size(), &report);
    const auto spans = Summarize({&tracer});
    const auto p50 = [&](const char* name) { return SpanP50(spans, name); };
    const double entries =
        static_cast<double>(last_index->TotalSketchEntries());
    report.Set("sketch.arena_bytes_per_entry",
               static_cast<double>(last_index->MemoryUsageBytes()) / entries);
    report.Set("core.index_bytes_per_entry", index_bytes / entries);
    report.Set("core.load_ms", p50("core.load"));
    report.Set("core.load_mb_per_s",
               Mb(index_bytes) / (p50("core.load") / 1e3));
    report.Set("core.celf_ms", p50("core.celf"));
    report.Set("core.celf_gain_evals", Median(gain_evals));
    report.Set("core.celf_ns_per_gain_eval",
               p50("core.celf") * 1e6 / Median(gain_evals));
    // Group estimate and union kernel on the campaign's seed prefixes.
    std::vector<std::vector<NodeId>> groups;
    for (size_t k = 1; k <= last_seeds.size(); ++k) {
      groups.emplace_back(last_seeds.begin(), last_seeds.begin() + k);
    }
    ProbeQueryKernels(*last_index, groups, &report);
    PrintSpanTable({&tracer}, "campaign", &report);
  }
  return report;
}

// ---- Serving: request list, clients, flight-recorder dumps ------------------

/// The request list every serving phase cycles through: 70% single-seed,
/// 25% 8-seed and 5% 64-seed groups, seeds uniform over the nodes.
std::vector<std::vector<NodeId>> MakeRequestGroups(size_t num_nodes,
                                                   uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<std::vector<NodeId>> groups(kRequestListSize);
  for (auto& group : groups) {
    const uint64_t pick = rng() % 100;
    const size_t size = pick < 70 ? 1 : (pick < 95 ? 8 : 64);
    std::set<NodeId> seeds;
    while (seeds.size() < std::min(size, num_nodes)) {
      seeds.insert(static_cast<NodeId>(rng() % num_nodes));
    }
    group.assign(seeds.begin(), seeds.end());
  }
  return groups;
}

struct Traffic {
  std::vector<serve::Request> requests;
  std::vector<double> expected;  // in-process estimate of each request
};

Traffic MakeTraffic(const IrsApprox& index, uint64_t seed) {
  Traffic traffic;
  ipin::SketchInfluenceOracle oracle(&index);
  for (auto& group : MakeRequestGroups(index.num_nodes(), seed)) {
    serve::Request request;
    request.method = serve::Method::kQuery;
    request.mode = serve::QueryMode::kSketch;
    request.deadline_ms = kRequestDeadlineMs;
    traffic.expected.push_back(oracle.InfluenceOfSet(group));
    request.seeds = std::move(group);
    traffic.requests.push_back(std::move(request));
  }
  return traffic;
}

serve::ClientOptions ClientFor(const std::string& socket, uint64_t id) {
  serve::ClientOptions options;
  options.unix_socket_path = socket;
  options.max_attempts = 1;  // a failed call is a failed op, not a retry
  options.io_timeout_ms = 10000;
  options.jitter_seed = id + 1;  // distinct trace ids per client
  return options;
}

constexpr double kThroughputWindowS = 0.25;

/// What the closed-loop clients of one phase saw, in memory that does not
/// grow with the number of requests (the traced round trips are capped by
/// the flight-recorder ring).
struct ClientLog {
  size_t attempted = 0;
  size_t failed = 0;
  LatencyHistogram latency_us;         // OK answers
  std::vector<uint32_t> ok_per_window;  // OK answers per throughput window
  std::vector<std::pair<uint64_t, int64_t>> round_trip_us;  // traced only
  std::vector<std::string> errors;

  void Merge(const ClientLog& other) {
    attempted += other.attempted;
    failed += other.failed;
    latency_us.Merge(other.latency_us);
    ok_per_window.resize(
        std::max(ok_per_window.size(), other.ok_per_window.size()), 0);
    for (size_t w = 0; w < other.ok_per_window.size(); ++w) {
      ok_per_window[w] += other.ok_per_window[w];
    }
    round_trip_us.insert(round_trip_us.end(), other.round_trip_us.begin(),
                         other.round_trip_us.end());
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  }

  double P50Ms() const { return latency_us.PercentileUs(50) / 1e3; }

  /// OK answers per second: the median over the phase's full windows, so
  /// one stalled window cannot move it.
  double Throughput() const {
    std::vector<double> rates;
    for (size_t w = 0; w + 1 < ok_per_window.size(); ++w) {
      rates.push_back(ok_per_window[w] / kThroughputWindowS);
    }
    if (rates.empty() && !ok_per_window.empty()) {
      rates.push_back(ok_per_window[0] / kThroughputWindowS);
    }
    return Median(rates);
  }
};

/// One closed-loop client: sends the next request of the list only after
/// the previous answer arrived, until `end_ns` (or `max_requests`). Every
/// answer is checked against the in-process estimate, bit for bit.
void ClientLoop(serve::OracleClient* client, const Traffic& traffic,
                size_t offset, int64_t start_ns, int64_t end_ns,
                size_t max_requests, bool routed, Tracer* tracer,
                ClientLog* log) {
  const char* span_name = routed ? "route.client.call" : "serve.client.call";
  for (size_t i = offset; NowNs() < end_ns && log->attempted < max_requests;
       ++i) {
    const size_t k = i % traffic.requests.size();
    const int64_t start = NowNs();
    std::optional<serve::Response> response;
    {
      ScopedSpan span(tracer, span_name, i);
      response = client->Call(traffic.requests[k]);
    }
    const int64_t done = NowNs();
    ++log->attempted;
    std::string error;
    if (!response.has_value()) {
      error = "no response";
    } else if (response->status != serve::StatusCode::kOk) {
      error = serve::StatusCodeName(response->status);
    } else if (response->degraded) {
      error = "degraded answer";
    } else if (!SameBits(response->estimate, traffic.expected[k])) {
      error = Format("estimate %.17g != expected %.17g", response->estimate,
                     traffic.expected[k]);
    } else if (routed && (response->shards_total == 0 ||
                          response->shards_answered !=
                              response->shards_total)) {
      error = "partial routed answer";
    }
    if (!error.empty()) {
      ++log->failed;
      if (log->errors.size() < 5) log->errors.push_back(error);
      continue;
    }
    log->latency_us.Record(Us(done - start));
    const size_t window = static_cast<size_t>(
        static_cast<double>(done - start_ns) / (kThroughputWindowS * 1e9));
    if (window >= log->ok_per_window.size()) {
      log->ok_per_window.resize(window + 1, 0);
    }
    ++log->ok_per_window[window];
    if (tracer->enabled()) {
      log->round_trip_us.emplace_back(client->last_trace_id(),
                                      (done - start) / 1000);
    }
  }
}

/// Runs one closed-loop thread per client for `seconds` and merges what
/// they saw into *report's tallies. With `tracers`, each client thread
/// records its spans on a tracer that is handed over afterwards.
ClientLog RunClients(std::vector<std::unique_ptr<serve::OracleClient>>& clients,
                     const Traffic& traffic, double seconds,
                     size_t max_per_client, bool routed,
                     std::vector<std::unique_ptr<Tracer>>* tracers,
                     Report* report) {
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<ClientLog> logs(clients.size());
  std::vector<std::unique_ptr<Tracer>> local;
  for (size_t c = 0; c < clients.size(); ++c) {
    local.push_back(std::make_unique<Tracer>(tracers != nullptr));
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    const size_t offset = c * traffic.requests.size() / clients.size();
    threads.emplace_back([&, c, offset] {
      ClientLoop(clients[c].get(), traffic, offset, start, end, max_per_client,
                 routed, local[c].get(), &logs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  ClientLog merged;
  for (const ClientLog& log : logs) merged.Merge(log);
  if (tracers != nullptr) {
    for (auto& t : local) tracers->push_back(std::move(t));
  }
  report->attempted += merged.attempted;
  report->failed += merged.failed;
  for (const std::string& e : merged.errors) {
    report->Note("failed request: " + e);
  }
  return merged;
}

/// Wall-clock throughput and tail as the clients saw them. On a shared
/// host both swing with the time the hypervisor steals, so they are
/// printed, and reported by the traced run, but are not end-to-end metrics.
void NoteClientWallClock(const char* phase, const ClientLog& log,
                         Report* report) {
  const size_t n = log.latency_us.count();
  report->Note(Format("%s clients: %zu OK answers, %.0f per s (median over "
                      "%.2f s windows), p99 %.4f ms with %zu samples beyond "
                      "it%s",
                      phase, n, log.Throughput(), kThroughputWindowS,
                      log.latency_us.PercentileUs(99) / 1e3,
                      SamplesBeyond(n, 99.0),
                      TailSupported(n, 99.0) ? "" : " (too few for a tail)"));
}

/// One flight-recorder record, as the debug verb dumps it.
struct Record {
  int shard = -1;
  uint64_t trace_id = 0;
  int64_t admission_us = 0, queue_us = 0, eval_us = 0, write_us = 0,
          total_us = 0;
};

/// Parses the flat records of an ipin.debug.v1 dump's "recent" ring.
std::vector<Record> ParseDebugRecords(const std::string& dump) {
  std::vector<Record> out;
  size_t at = dump.find("\"recent\":[");
  const size_t end = dump.find("],\"slow\":[");
  if (at == std::string::npos || end == std::string::npos) return out;
  while ((at = dump.find('{', at)) != std::string::npos && at < end) {
    const size_t close = dump.find('}', at);
    const std::string rec = dump.substr(at, close - at);
    const auto field = [&](const char* key) -> const char* {
      const size_t k = rec.find(std::string("\"") + key + "\":");
      return k == std::string::npos ? nullptr
                                    : rec.c_str() + k + std::strlen(key) + 3;
    };
    const auto num = [&](const char* key) -> int64_t {
      const char* p = field(key);
      return p == nullptr ? 0 : std::strtoll(p, nullptr, 10);
    };
    Record r;
    if (const char* p = field("shard")) r.shard = std::atoi(p);
    if (const char* p = field("trace_id")) {
      r.trace_id = std::strtoull(p + 1, nullptr, 16);  // skip the quote
    }
    r.admission_us = num("admission_us");
    r.queue_us = num("queue_us");
    r.eval_us = num("eval_us");
    r.write_us = num("write_us");
    r.total_us = num("total_us");
    out.push_back(r);
    at = close;
  }
  return out;
}

std::string CallPayload(const std::string& socket, serve::Method method) {
  serve::OracleClient client(ClientFor(socket, 99));
  serve::Request request;
  request.method = method;
  request.format = serve::MetricsFormat::kJson;
  const auto response = client.Call(request);
  return response.has_value() ? response->payload : std::string();
}

/// The records of the traced requests (matched by trace id) in the flight
/// recorder behind `socket`.
std::vector<Record> TracedRecords(const std::string& socket,
                                  const ClientLog& traced) {
  std::unordered_map<uint64_t, int64_t> ids(traced.round_trip_us.begin(),
                                            traced.round_trip_us.end());
  std::vector<Record> out;
  for (const Record& r :
       ParseDebugRecords(CallPayload(socket, serve::Method::kDebug))) {
    if (ids.count(r.trace_id)) out.push_back(r);
  }
  return out;
}

double CounterValue(const std::string& metrics_json, const char* name) {
  const std::string key = std::string("\"") + name + "\":";
  const size_t at = metrics_json.find(key);
  return at == std::string::npos
             ? 0.0
             : std::atof(metrics_json.c_str() + at + key.size());
}

/// Server-side request counters (shed, deadline_exceeded) from the metrics
/// verb; the stats verb only carries windowed rates of these.
struct AdmissionCounters {
  double shed = 0.0;
  double deadline_exceeded = 0.0;
};

AdmissionCounters ReadAdmission(const std::string& socket) {
  const std::string json = CallPayload(socket, serve::Method::kMetrics);
  return {CounterValue(json, "serve.requests.shed"),
          CounterValue(json, "serve.requests.deadline_exceeded")};
}

/// Nearest-rank percentile of one stage over a set of records.
double StageP(const std::vector<Record>& records, int64_t Record::*stage,
              double p) {
  std::vector<double> values;
  for (const Record& r : records) {
    values.push_back(static_cast<double>(r.*stage));
  }
  return Percentile(values, p);
}

/// Protocol layer, timed in process on the request list: request
/// serialization, response parsing, and the rank-vector hex transport on
/// one beta-cell vector.
void ProbeProtocol(const Traffic& traffic, Report* report) {
  volatile size_t sink = 0;
  report->Set("serve.protocol.serialize_request_us",
              MedianCallUs(traffic.requests.size(), [&](size_t i) {
                const std::string line =
                    serve::SerializeRequest(traffic.requests[i]);
                sink = sink + line.size();
              }));
  std::vector<std::string> lines;
  for (size_t i = 0; i < traffic.requests.size(); ++i) {
    serve::Response response;
    response.id = static_cast<int64_t>(i + 1);
    response.estimate = traffic.expected[i];
    response.epoch = 1;
    response.trace_id = i + 1;
    lines.push_back(serve::SerializeResponse(response));
    lines.back().pop_back();  // the newline
  }
  report->Set("serve.protocol.parse_response_us",
              MedianCallUs(lines.size(), [&](size_t i) {
                const auto parsed = serve::ParseResponse(lines[i]);
                sink = sink + (parsed.has_value() ? 1 : 0);
              }));
  std::vector<uint8_t> ranks(size_t{1} << kPrecision);
  std::mt19937_64 rng(5);
  for (uint8_t& r : ranks) r = static_cast<uint8_t>(rng() % 24);
  report->Set("serve.protocol.ranks_hex_us", MedianCallUs(2048, [&](size_t) {
                const auto back = serve::RanksFromHex(serve::RanksToHex(ranks));
                sink = sink + (back.has_value() ? back->size() : 0);
              }));
}

std::shared_ptr<const IrsApprox> LoadServedIndex(const std::string& path,
                                                 Report* report) {
  ipin::IndexLoadResult loaded = ipin::LoadInfluenceIndexDetailed(path);
  if (loaded.status != ipin::IndexLoadStatus::kOk) {
    report->Fail("served index does not load cleanly");
    return nullptr;
  }
  return std::make_shared<const IrsApprox>(std::move(*loaded.index));
}

bool Healthy(serve::OracleClient* client) {
  serve::Request health;
  health.method = serve::Method::kHealth;
  const auto response = client->Call(health);
  return response.has_value() && response->status == serve::StatusCode::kOk;
}

// The fleets are torn down by destruction, in reverse member order: clients
// first, then each server before the index manager it reads.

/// A single in-process OracleServer and its closed-loop clients.
struct ServeFleet {
  std::shared_ptr<const IrsApprox> index;
  std::unique_ptr<serve::IndexManager> manager;
  std::unique_ptr<serve::OracleServer> server;
  std::vector<std::unique_ptr<serve::OracleClient>> clients;
};

/// Two shard servers behind one router, and one closed-loop client.
struct RouteFleet {
  std::vector<std::unique_ptr<serve::IndexManager>> managers;
  std::vector<std::unique_ptr<serve::OracleServer>> shards;
  std::unique_ptr<serve::ShardMapManager> map;
  std::unique_ptr<serve::RouterServer> router;
  std::vector<std::unique_ptr<serve::OracleClient>> clients;
  std::vector<std::string> shard_sockets;
};

constexpr size_t kServeClients = 2;
constexpr int kServeWorkers = 2;
constexpr size_t kRouteShards = 2;

/// Splits `index` into kRouteShards shard servers (1 worker each) behind a
/// router (1 worker), ready once its client's health call returns.
std::unique_ptr<RouteFleet> StartRouteFleet(const IrsApprox& index,
                                            const std::string& dir) {
  auto fleet = std::make_unique<RouteFleet>();
  std::vector<serve::ShardInfo> infos(kRouteShards);
  for (size_t i = 0; i < kRouteShards; ++i) {
    infos[i].name = Format("shard%zu", i);
    infos[i].endpoint.unix_socket_path =
        Format("%s/shard%zu.sock", dir.c_str(), i);
    fleet->shard_sockets.push_back(infos[i].endpoint.unix_socket_path);
  }
  auto map = std::make_shared<const serve::ShardMap>(infos);
  for (size_t i = 0; i < kRouteShards; ++i) {
    fleet->managers.push_back(std::make_unique<serve::IndexManager>(""));
    fleet->managers.back()->Install(std::make_shared<const IrsApprox>(
        serve::ExtractShardIndex(index, *map, i)));
    serve::ServerOptions options;
    options.unix_socket_path = fleet->shard_sockets[i];
    options.num_workers = 1;
    options.default_deadline_ms = kRequestDeadlineMs;
    options.flight_recorder_size = kTracedRingSize;
    fleet->shards.push_back(std::make_unique<serve::OracleServer>(
        fleet->managers.back().get(), options));
    if (!fleet->shards.back()->Start()) return nullptr;
    serve::OracleClient probe(ClientFor(fleet->shard_sockets[i], 50 + i));
    if (!Healthy(&probe)) return nullptr;
  }
  fleet->map = std::make_unique<serve::ShardMapManager>("");
  fleet->map->Install(map);
  serve::RouterOptions options;
  options.unix_socket_path = dir + "/router.sock";
  options.num_workers = 1;
  options.default_deadline_ms = kRequestDeadlineMs;
  options.flight_recorder_size = kTracedRingSize;
  fleet->router =
      std::make_unique<serve::RouterServer>(fleet->map.get(), options);
  if (!fleet->router->Start()) return nullptr;
  fleet->clients.push_back(std::make_unique<serve::OracleClient>(
      ClientFor(options.unix_socket_path, 0)));
  if (!Healthy(fleet->clients.back().get())) return nullptr;
  return fleet;
}

/// Server stages of the traced requests: p50 of each, p99 of queue and
/// total, and the client round trip minus the server's total.
void SetServerStages(const std::vector<Record>& records,
                     const ClientLog& traced, Report* report) {
  const auto set = [&](const char* name, int64_t Record::*stage, double p) {
    report->Set(name, StageP(records, stage, p));
  };
  set("serve.server.admission_us.p50", &Record::admission_us, 50);
  set("serve.server.queue_us.p50", &Record::queue_us, 50);
  set("serve.server.queue_us.p99", &Record::queue_us, 99);
  set("serve.server.eval_us.p50", &Record::eval_us, 50);
  set("serve.server.write_us.p50", &Record::write_us, 50);
  set("serve.server.total_us.p50", &Record::total_us, 50);
  set("serve.server.total_us.p99", &Record::total_us, 99);
  if (!TailSupported(records.size(), 99.0)) {
    report->Note("serve.server.*.p99: fewer than 10 samples beyond p99");
  }
  std::unordered_map<uint64_t, int64_t> total;
  for (const Record& r : records) total[r.trace_id] = r.total_us;
  std::vector<double> unaccounted;
  for (const auto& [id, round_trip] : traced.round_trip_us) {
    const auto it = total.find(id);
    if (it != total.end()) {
      unaccounted.push_back(
          static_cast<double>(UnaccountedUs(round_trip, it->second)));
    }
  }
  report->Set("serve.unaccounted_us.p50", Median(unaccounted));
  report->Note(Format("traced requests matched to server records: %zu of %zu",
                      unaccounted.size(), traced.round_trip_us.size()));
}

/// Router stages of the traced routed requests, from the router's records
/// (legs carry their shard) and the shards' own records.
void SetRouterStages(const RouteFleet& fleet, const ClientLog& traced,
                     Report* report) {
  std::vector<Record> overall;
  std::unordered_map<uint64_t, int64_t> slowest_leg;
  std::vector<double> legs;
  for (const Record& r :
       TracedRecords(fleet.router->options().unix_socket_path, traced)) {
    if (r.shard < 0) {
      overall.push_back(r);
    } else {
      legs.push_back(static_cast<double>(r.total_us));
      slowest_leg[r.trace_id] = std::max(slowest_leg[r.trace_id], r.total_us);
    }
  }
  std::vector<double> overhead;
  for (const Record& r : overall) {
    overhead.push_back(
        static_cast<double>(r.total_us - slowest_leg[r.trace_id]));
  }
  report->Set("serve.router.queue_us.p50",
              StageP(overall, &Record::queue_us, 50));
  report->Set("serve.router.total_us.p50",
              StageP(overall, &Record::total_us, 50));
  report->Set("serve.router.total_us.p99",
              StageP(overall, &Record::total_us, 99));
  report->Set("serve.router.leg_us.p50", Median(legs));
  report->Set("serve.router.overhead_us.p50", Median(overhead));
  std::vector<Record> shard_records;
  for (const std::string& socket : fleet.shard_sockets) {
    const std::vector<Record> records = TracedRecords(socket, traced);
    shard_records.insert(shard_records.end(), records.begin(), records.end());
  }
  report->Set("serve.shard.eval_us.p50",
              StageP(shard_records, &Record::eval_us, 50));
  report->Note(Format("traced routed requests: %zu, router records %zu, leg "
                      "records %zu, shard records %zu",
                      traced.round_trip_us.size(), overall.size(), legs.size(),
                      shard_records.size()));
}

// ---- Workload: serve --------------------------------------------------------

/// One op: one sketch-mode query answered by an in-process OracleServer
/// (2 workers) to one of 2 closed-loop clients. The traced run adds a
/// routed phase: the same index split into 2 shard servers behind a
/// RouterServer, with 1 closed-loop client.
Report RunServe(const Options& o) {
  Report report;
  const std::string dir = WorkDir("serve");
  const std::string socket = dir + "/oracle.sock";
  auto fleet = std::make_unique<ServeFleet>();
  const auto setup = [&] {
    if (!RunSelf(ChildArgs(o, "serve"), nullptr)) return false;
    fleet->index = LoadServedIndex(dir + "/index.idx", &report);
    if (fleet->index == nullptr) return false;
    fleet->manager = std::make_unique<serve::IndexManager>("");
    fleet->manager->Install(fleet->index);
    serve::ServerOptions options;
    options.unix_socket_path = socket;
    options.num_workers = kServeWorkers;
    options.default_deadline_ms = kRequestDeadlineMs;
    options.flight_recorder_size = o.trace ? kTracedRingSize : 256;
    fleet->server = std::make_unique<serve::OracleServer>(
        fleet->manager.get(), options);
    if (!fleet->server->Start()) return false;
    for (size_t c = 0; c < kServeClients; ++c) {
      fleet->clients.push_back(
          std::make_unique<serve::OracleClient>(ClientFor(socket, c)));
      if (!Healthy(fleet->clients.back().get())) return false;
    }
    return true;
  };
  const auto teardown = [&] { fleet = std::make_unique<ServeFleet>(); };
  if (!MeasureSetup(&report, setup, teardown)) return report;
  ipin::SetGlobalThreads(1);

  Traffic traffic = MakeTraffic(*fleet->index, o.seed);
  if (o.wrong_reference) traffic.expected[0] += 1.0;
  // Warm-up: a fixed number of requests per client, checked like the rest.
  RunClients(fleet->clients, traffic, 1e9, kWarmupRequestsPerClient, false,
             nullptr, &report);

  if (!o.trace) {
    NoiseWatch noise("serve");
    const int64_t cpu_start = ProcessCpuNs();
    const ClientLog log = RunClients(fleet->clients, traffic, o.seconds,
                                     SIZE_MAX, false, nullptr, &report);
    const int64_t cpu = ProcessCpuNs() - cpu_start;
    const double peak = PeakRssMb();
    noise.Finish(&report);
    report.Set("latency_p50_ms", log.P50Ms());
    // Process CPU (server threads and clients) per OK answer.
    report.Set("cpu_ms_per_op",
               Ms(cpu) / static_cast<double>(
                             std::max<size_t>(1, log.latency_us.count())));
    report.Set("peak_rss_mb", peak);
    report.Set("index_mb",
               Mb(static_cast<double>(FileSize(dir + "/index.idx"))));
    NoteClientWallClock("serve", log, &report);
    return report;
  }

  // Traced run: an untraced and a traced third on the server, then a
  // traced third through the router.
  const double third = o.seconds / 3;
  const AdmissionCounters before = ReadAdmission(socket);
  const ClientLog untraced = RunClients(fleet->clients, traffic, third,
                                        SIZE_MAX, false, nullptr, &report);
  report.Set("serve.client.throughput_per_s", untraced.Throughput());
  report.Set("serve.client.latency_p99_ms",
             untraced.latency_us.PercentileUs(99) / 1e3);
  NoteClientWallClock("serve", untraced, &report);
  std::vector<std::unique_ptr<Tracer>> tracers;
  const ClientLog traced =
      RunClients(fleet->clients, traffic, third,
                 kTracedRingSize / kServeClients, false, &tracers, &report);
  SetTraceOverhead(untraced.P50Ms(), untraced.latency_us.count(),
                   traced.P50Ms(), traced.latency_us.count(), &report);
  SetServerStages(TracedRecords(socket, traced), traced, &report);
  const AdmissionCounters after = ReadAdmission(socket);
  report.Set("serve.requests.shed", after.shed - before.shed);
  report.Set("serve.requests.deadline_exceeded",
             after.deadline_exceeded - before.deadline_exceeded);

  // Router legs run on the global pool: two threads let both legs of a
  // request run at once.
  ipin::SetGlobalThreads(kRouteShards);
  std::unique_ptr<RouteFleet> route = StartRouteFleet(*fleet->index, dir);
  if (route == nullptr) {
    report.Fail("router fleet did not start");
    return report;
  }
  RunClients(route->clients, traffic, 1e9, kWarmupRequestsPerClient, true,
             nullptr, &report);
  // A routed request leaves one router record and up to one per shard leg.
  const ClientLog routed =
      RunClients(route->clients, traffic, third,
                 kTracedRingSize / (1 + kRouteShards), true, &tracers, &report);
  NoteClientWallClock("route", routed, &report);
  SetRouterStages(*route, routed, &report);
  route.reset();

  std::vector<std::vector<NodeId>> groups;
  for (const auto& r : traffic.requests) groups.push_back(r.seeds);
  ProbeQueryKernels(*fleet->index, groups, &report);
  ProbeProtocol(traffic, &report);
  report.Set("sketch.arena_bytes_per_entry",
             static_cast<double>(fleet->index->MemoryUsageBytes()) /
                 static_cast<double>(fleet->index->TotalSketchEntries()));
  std::vector<const Tracer*> views;
  for (const auto& t : tracers) views.push_back(t.get());
  PrintSpanTable(views, "serve", &report);
  return report;
}

// ---- Output -----------------------------------------------------------------

/// Prints the readable lines, then the result object as the last line.
int Emit(const Options& o, Report& report) {
  std::vector<std::string> missing;
  std::string metrics;
  const auto add = [&](const MetricSpec& spec) {
    double value = 0.0;
    bool found = false;
    for (const auto& [name, v] : report.values) {
      if (name == spec.name) {
        value = v;
        found = true;
      }
    }
    if (!found) missing.push_back(spec.name);
    if (!std::isfinite(value)) {
      std::printf("# %s was not finite; reported as 0\n", spec.name);
      value = 0.0;
    }
    std::printf("metric %-40s %.6g %s\n", spec.name, value, spec.unit);
    metrics += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
  };
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (o.trace) {
    for (const MetricSpec& spec : kPerLayer) add(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) add(spec);
  }
  if (!missing.empty()) {
    std::string names;
    for (const auto& m : missing) names += " " + m;
    std::printf("# not on the %s workload's path, reported as 0:%s\n",
                o.workload.c_str(), names.c_str());
  }
  // An end-to-end metric is never legitimately absent.
  if (!o.trace && !missing.empty()) {
    std::printf("# CHECK FAILED: end-to-end metric missing\n");
    report.checks_ok = false;
  }
  const bool correct = report.checks_ok && report.failed == 0;
  std::printf("# attempted=%zu failed=%zu correct=%s\n", report.attempted,
              report.failed, correct ? "true" : "false");
  if (report.attempted == 0) {
    std::printf("# no op ran: no result\n");
    return 1;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", report.attempted, report.failed,
      metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke" && arg != "--memprobe" &&
               arg != "--list_metrics" && arg != "--wrong_reference") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      o->trace = value == "1";
    } else if (arg == "--smoke") {
      o->smoke = true;
    } else if (arg == "--wrong_reference") {
      o->wrong_reference = true;
    } else if (arg == "--prepare") {
      o->prepare = value;
    } else if (arg == "--memprobe") {
      o->memprobe = true;
    } else if (arg == "--list_metrics") {
      o->list_metrics = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: ipin_perfbench --workload=<build|campaign|serve> "
                 "--seed=N --seconds=S --trace=<0|1> [--smoke]\n");
    return 2;
  }
  if (o.memprobe) {
    std::printf("%.3f\n", MemoryProbeNs());
    return 0;
  }
  if (o.list_metrics) {
    for (const MetricSpec& spec : kEndToEnd) {
      std::printf("end_to_end %s %s\n", spec.name, spec.unit);
    }
    for (const MetricSpec& spec : kPerLayer) {
      std::printf("per_layer %s %s\n", spec.name, spec.unit);
    }
    return 0;
  }
  if (!o.prepare.empty()) return Prepare(o);

  ipin::SetLogLevel(ipin::LogLevel::kWarning);
  std::error_code ec;
  std::filesystem::create_directories(WorkDir(o.workload), ec);
  if (ec || o.seconds <= 0) {
    std::fprintf(stderr, "cannot use work dir %s\n",
                 WorkDir(o.workload).c_str());
    return 2;
  }
  Report report;
  if (o.workload == "build") {
    report = RunBuild(o);
  } else if (o.workload == "campaign") {
    report = RunCampaign(o);
  } else if (o.workload == "serve") {
    report = RunServe(o);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  return Emit(o, report);
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
