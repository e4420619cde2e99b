// sssj_workerd — a standalone cluster worker on a Unix-domain socket.
//
//   ./sssj_workerd --socket=/tmp/sssj-worker.sock [--spill-dir=DIR]
//                  [--memory-budget-bytes=N]
//
// Runs one sssj::cluster::Worker (a JoinService behind the typed session
// API) through the shared serve loop and dispatcher (cluster/serve.h),
// the same ones a forked worker serves through, for whoever connects to
// the socket path: a router, or any client speaking the wire format. One
// connection is served at a time; when a peer disconnects the worker
// keeps its sessions and waits for the next connection, so a restarted
// router re-adopts a live worker's state. A kShutdown frame closes and
// unlinks the socket and exits cleanly.
//
// (The in-process Supervisor forks its own workers over socketpairs and
// does not need this binary; sssj_workerd exists for deployments that
// manage worker processes themselves.)
//
// --memory-budget-bytes takes an integer >= 0 (0 = unlimited); any other
// value exits 2 before the socket is opened.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "cluster/channel.h"
#include "cluster/serve.h"
#include "cluster/worker.h"
#include "util/flags.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  sssj::cluster::WorkerOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--socket", &value)) {
      socket_path = value;
    } else if (ParseFlag(argv[i], "--spill-dir", &value)) {
      options.service.spill_dir = value;
    } else if (ParseFlag(argv[i], "--memory-budget-bytes", &value)) {
      int64_t budget = 0;
      if (!sssj::ParseFlagInt(value, &budget) || budget < 0) {
        std::fprintf(stderr,
                     "sssj_workerd: --memory-budget-bytes must be an "
                     "integer >= 0; got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.service.memory_budget_bytes = static_cast<size_t>(budget);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::fprintf(stderr,
                   "usage: sssj_workerd --socket=PATH [--spill-dir=DIR] "
                   "[--memory-budget-bytes=N]\n");
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "sssj_workerd: --socket=PATH is required\n");
    return 2;
  }

  int listen_fd = -1;
  sssj::Status status = sssj::cluster::ListenUnix(socket_path, &listen_fd);
  if (!status.ok()) {
    std::fprintf(stderr, "sssj_workerd: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "sssj_workerd: serving on %s\n", socket_path.c_str());

  sssj::cluster::Worker worker(options);
  status = sssj::cluster::ServeUnix(&worker, listen_fd, socket_path);
  if (!status.ok()) {
    std::fprintf(stderr, "sssj_workerd: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "sssj_workerd: shutdown\n");
  return 0;
}
