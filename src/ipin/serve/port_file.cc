#include "ipin/serve/port_file.h"

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"

namespace ipin::serve {

bool WritePortFile(const std::string& path, const std::string& program,
                   int port, const std::string& socket) {
  return WriteFileAtomic(
      path, StrFormat("pid=%ld program=%s port=%d socket=%s\n",
                      static_cast<long>(::getpid()), program.c_str(), port,
                      socket.c_str()));
}

std::optional<PortFileInfo> ReadPortFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  PortFileInfo info;
  bool have_pid = false;
  std::istringstream fields(line);
  std::string field;
  while (fields >> field) {
    const size_t eq = field.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "pid") {
      info.pid = std::strtol(value.c_str(), nullptr, 10);
      have_pid = true;
    } else if (key == "port") {
      info.port = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (key == "socket") {
      info.socket = value;
    } else if (key == "program") {
      info.program = value;
    }
  }
  if (!have_pid || (info.port < 0 && info.socket.empty())) {
    return std::nullopt;
  }
  return info;
}

}  // namespace ipin::serve
