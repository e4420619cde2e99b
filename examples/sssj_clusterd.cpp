// sssj_clusterd — the cluster front door: forks a worker fleet and
// serves the frame protocol on a Unix-domain socket, routing sessions
// across workers by rendezvous hash and supervising crashes.
//
//   ./sssj_clusterd --workers=4 --socket=/tmp/sssj-cluster.sock
//
// It is the Supervisor behind the shared serve loop and dispatcher
// (cluster/serve.h), the same ones a worker serves through, so clients
// speak the worker's wire format and need no "cluster mode". Each request
// goes to the session's home worker; acked mutations are journaled, and a
// worker crash is restarted and restored transparently — callers just
// see their request take a little longer. kRestore and kMigrateOut, the
// supervisor's own machinery, are refused with kUnimplemented. One client
// connection is served at a time; a disconnected client can reconnect and
// continue (sessions live in the workers, not the connection). kShutdown
// closes and unlinks the socket, stops the fleet and exits.
//
// The router pulls no checkpoints: a session's journal is trimmed at the
// horizon τ (STR) or at two windows (MB), and a crashed worker's
// sessions recover from a zero-item seed plus that journal.
//
// Exit status: 0 after kShutdown; 2 on a bad command line (an unknown
// flag, a missing --socket, --workers not a positive integer), before
// any worker is forked; 1 when the fleet or the listener cannot start,
// or a connection cannot be accepted.
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>

#include "cluster/channel.h"
#include "cluster/serve.h"
#include "cluster/supervisor.h"
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
  sssj::cluster::SupervisorOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--socket", &value)) {
      socket_path = value;
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      int64_t workers = 0;
      if (!sssj::ParseFlagInt(value, &workers) || workers < 1 ||
          workers > INT_MAX) {
        std::fprintf(stderr,
                     "sssj_clusterd: --workers must be a positive integer; "
                     "got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.num_workers = static_cast<int>(workers);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::fprintf(stderr,
                   "usage: sssj_clusterd --workers=K --socket=PATH\n"
                   "  --workers=K    worker processes to fork (default 2)\n"
                   "  --socket=PATH  Unix-domain socket to serve on\n"
                   "Sessions recover from a seed and their journals.\n");
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "sssj_clusterd: --socket=PATH is required\n");
    return 2;
  }

  // Fork the fleet BEFORE opening the listener: fork must happen while
  // this process is single-threaded and owns no client state.
  sssj::cluster::Supervisor supervisor(options);
  sssj::Status status = supervisor.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "sssj_clusterd: %s\n", status.ToString().c_str());
    return 1;
  }
  int listen_fd = -1;
  status = sssj::cluster::ListenUnix(socket_path, &listen_fd);
  if (!status.ok()) {
    std::fprintf(stderr, "sssj_clusterd: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "sssj_clusterd: %d workers, serving on %s\n",
               options.num_workers, socket_path.c_str());
  status = sssj::cluster::ServeUnix(&supervisor, listen_fd, socket_path);
  if (!status.ok()) {
    std::fprintf(stderr, "sssj_clusterd: %s\n", status.ToString().c_str());
    return 1;
  }
  supervisor.Shutdown();
  std::fprintf(stderr, "sssj_clusterd: shutdown\n");
  return 0;
}
