#ifndef IPIN_SERVE_PORT_FILE_H_
#define IPIN_SERVE_PORT_FILE_H_

#include <optional>
#include <string>

// Port files: how a daemon publishes its endpoint to the script that
// spawned it. Fixed TCP ports collide when test suites run in parallel on
// one CI host; the fix is to bind port 0 (kernel-assigned) and write the
// chosen endpoint — plus the pid, for cleanup — to a file the script
// reads. One line:
//
//   pid=12345 program=ipin_oracled port=41233 socket=/tmp/x.sock
//
// `port` is -1 for a unix-socket-only daemon, `socket` is empty for a
// TCP-only one. The file is written to a sibling temp path and renamed
// into place, so a polling reader sees either nothing or the whole line,
// never a torn write. ipin_oracled and ipin_routerd expose it as
// --port_file; serve_smoke_test.sh and router_smoke_test.sh read it.

namespace ipin::serve {

/// Parsed port file.
struct PortFileInfo {
  long pid = -1;
  int port = -1;
  std::string socket;
  std::string program;
};

/// Atomically publishes this process's endpoint. `port` < 0 means no TCP
/// listener; `socket` empty means no unix listener. False on IO failure
/// (the temp file is removed).
bool WritePortFile(const std::string& path, const std::string& program,
                   int port, const std::string& socket);

/// Reads a port file written by WritePortFile; nullopt when the file is
/// missing or malformed (a reader polling for daemon readiness treats that
/// as "not up yet").
std::optional<PortFileInfo> ReadPortFile(const std::string& path);

}  // namespace ipin::serve

#endif  // IPIN_SERVE_PORT_FILE_H_
