#ifndef IPIN_SERVE_DAEMON_H_
#define IPIN_SERVE_DAEMON_H_

#include <functional>
#include <string>

#include "ipin/common/flags.h"
#include "ipin/serve/frontend.h"

// The daemon runner: the lifecycle ipin_oracled and ipin_routerd share,
// kept once so each main holds only its own flags and handler. A main
// calls Init() (--log_level, the frontend flags, the endpoint and input
// checks), loads its holder, builds its server and hands it to Serve(),
// which starts --trace_out recording and the server, prints the readiness
// line "<program>: <what> on <endpoint> (...)" and writes --port_file.
// Then SIGHUP queues a forced reload on the frontend's reload thread (the
// one thread every runtime reload runs on, so a wedged one is detached at
// the drain deadline too) and logs and ledgers its outcome; SIGUSR1 logs
// the flight-recorder dump; SIGTERM or SIGINT drains, writes --trace_out,
// --metrics_out and the --ledger_dir run ledger, and prints "<program>:
// drained, exiting". If the drain detached a wedged reload, whose thread
// may still use the main's holder, the runner then ends the process with
// std::_Exit(0) instead of returning, so nothing it uses is destroyed. The
// handlers only set flags, which the main thread polls every 50 ms; it
// never reloads anything itself after startup.

namespace ipin::serve {

/// A daemon's server as the runner drives it: OracleServer, RouterServer.
class Service {
 public:
  virtual ~Service() = default;
  virtual bool Start() = 0;
  virtual void Shutdown() = 0;
  virtual Frontend& frontend() = 0;
};

/// What differs between the daemons' lifecycles; literals only.
struct DaemonSpec {
  const char* program;       // prefixes the runner's lines; ledger tool
  const char* input_flag;    // names the served file: required, ledgered
  const char* reload_noun;   // a SIGHUP reload's log line ...
  const char* reload_event;  // ... and ledger event
  int (*usage)();            // prints the usage text; returns 2
};

class DaemonRunner {
 public:
  DaemonRunner(const DaemonSpec& spec, int argc, char** argv);

  /// Applies --log_level, parses the frontend flags into *options, checks
  /// that exactly one of --socket/--port and the input flag are set, and
  /// ledgers the input. 0 to go on, else the exit code to return.
  int Init(FrontendOptions* options);

  const FlagMap& flags() const { return flags_; }
  const std::string& input_path() const { return input_path_; }

  /// Closes the ledger of a run that failed before serving; returns
  /// `exit_code`.
  int Fail(int exit_code);

  /// Serves until SIGTERM/SIGINT as described above and returns the exit
  /// code (or exits 0 itself after detaching a reload). `ready` completes the readiness line from the bound endpoint.
  int Serve(Service* service,
            const std::function<std::string(const std::string& endpoint)>&
                ready);

 private:
  const DaemonSpec spec_;
  const FlagMap flags_;
  const std::string input_path_;
  std::string socket_path_;
};

}  // namespace ipin::serve

#endif  // IPIN_SERVE_DAEMON_H_
