#include "ipin/serve/daemon.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "ipin/common/logging.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/export.h"
#include "ipin/obs/ledger.h"
#include "ipin/obs/memtally.h"
#include "ipin/obs/trace_events.h"
#include "ipin/serve/port_file.h"

namespace ipin::serve {
namespace {

// Signal-handler flags: the main thread polls them, so the handlers only
// need one async-signal-safe store each.
volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_reload = 0;
volatile std::sig_atomic_t g_dump = 0;

void HandleStopSignal(int) { g_stop = 1; }
void HandleReloadSignal(int) { g_reload = 1; }
void HandleDumpSignal(int) { g_dump = 1; }

std::string JoinArgs(int argc, char** argv) {
  std::string joined;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) joined += ' ';
    joined += argv[i];
  }
  return joined;
}

}  // namespace

DaemonRunner::DaemonRunner(const DaemonSpec& spec, int argc, char** argv)
    : spec_(spec),
      flags_(FlagMap::Parse(argc, argv)),
      input_path_(flags_.GetString(spec.input_flag)) {
  // Written only by Finish: a run refused by Init leaves no ledger.
  obs::RunLedger::Global().Begin({flags_.GetString("ledger_dir", ""),
                                  spec.program, "serve", JoinArgs(argc, argv)});
}

int DaemonRunner::Init(FrontendOptions* options) {
  const std::string log_level = flags_.GetString("log_level", "");
  if (!log_level.empty()) {
    LogLevel level = GetLogLevel();
    if (!ParseLogLevel(log_level, &level)) {
      std::fprintf(stderr, "bad --log_level '%s'\n", log_level.c_str());
      return spec_.usage();
    }
    SetLogLevel(level);
  }
  std::string error;
  if (!ParseFrontendFlags(flags_, options, &error)) {
    std::fprintf(stderr, "%s: %s\n", spec_.program, error.c_str());
    return spec_.usage();
  }
  socket_path_ = options->unix_socket_path;
  if (input_path_.empty() ||
      socket_path_.empty() == (options->tcp_port < 0)) {
    return spec_.usage();
  }
  obs::RunLedger::Global().RecordInputFile(input_path_);
  return 0;
}

int DaemonRunner::Fail(int exit_code) {
  obs::RunLedger::Global().Finish(exit_code);
  return exit_code;
}

int DaemonRunner::Serve(
    Service* service,
    const std::function<std::string(const std::string& endpoint)>& ready) {
  // The Chrome trace of the whole serving run: one lane per request.
  const std::string trace_out = flags_.GetString("trace_out", "");
  if (!trace_out.empty()) obs::StartTraceRecording();
  if (!service->Start()) return Fail(1);

  for (const int stop : {SIGTERM, SIGINT}) std::signal(stop, HandleStopSignal);
  std::signal(SIGHUP, HandleReloadSignal);
  std::signal(SIGUSR1, HandleDumpSignal);
  std::signal(SIGPIPE, SIG_IGN);

  Frontend& frontend = service->frontend();
  const std::string endpoint =
      socket_path_.empty() ? StrFormat("127.0.0.1:%d", frontend.bound_port())
                           : socket_path_;
  std::printf("%s: %s\n", spec_.program, ready(endpoint).c_str());
  std::fflush(stdout);

  // With --port=0 scripts read the kernel-assigned port from this file.
  const std::string port_file = flags_.GetString("port_file", "");
  if (!port_file.empty() &&
      !WritePortFile(port_file, spec_.program, frontend.bound_port(),
                     socket_path_)) {
    std::fprintf(stderr, "%s: cannot write port file '%s'\n", spec_.program,
                 port_file.c_str());
    service->Shutdown();
    return Fail(1);
  }

  // Runs on the reload thread, which may outlive the runner: it captures
  // only the spec's literals.
  const ReloadDone log_reload = [spec = spec_](const ReloadResult* result) {
    if (result == nullptr) return;  // draining
    const bool rolled_back = result->status == ReloadStatus::kRolledBack;
    obs::RunLedger::Global().RecordEvent(spec.reload_event,
                                         rolled_back ? "rolled_back" : "ok");
    LogInfo(StrFormat("%s: SIGHUP %s reload: %s (epoch %llu)", spec.program,
                      spec.reload_noun, rolled_back ? "rolled back" : "ok",
                      static_cast<unsigned long long>(result->epoch)));
  };
  while (g_stop == 0) {
    if (g_reload != 0) {
      g_reload = 0;
      if (!frontend.RequestReload(log_reload)) {
        LogWarning(StrFormat("%s: SIGHUP reload dropped: reload queue full",
                             spec_.program));
      }
    }
    if (g_dump != 0) {
      g_dump = 0;
      LogInfo(std::string(spec_.program) + ": flight recorder dump: " +
              frontend.flight()->DumpJson());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  LogInfo(std::string(spec_.program) + ": stop signal received, draining");
  service->Shutdown();

  obs::RunLedger& ledger = obs::RunLedger::Global();
  if (!trace_out.empty()) {
    obs::StopTraceRecording();
    if (obs::WriteChromeTrace(trace_out)) {
      ledger.RecordOutput(trace_out);
      LogInfo("wrote chrome trace to " + trace_out);
    }
  }
  const std::string metrics_out = flags_.GetString("metrics_out", "");
  if (!metrics_out.empty()) {
    obs::PublishMemoryGauges();
    if (obs::WriteMetricsReportFile(metrics_out)) {
      ledger.RecordOutput(metrics_out);
      LogInfo("wrote metrics report to " + metrics_out);
    }
  }
  ledger.Finish(0);
  std::printf("%s: drained, exiting\n", spec_.program);
  if (frontend.reload_detached()) {
    // The detached reload thread may still be using the main's holder and
    // the process-wide registries: end here, destroying none of them.
    std::fflush(nullptr);
    std::_Exit(0);
  }
  return 0;
}

}  // namespace ipin::serve
